"""Pinning suite for the struct-of-arrays vector engine (DESIGN.md §12).

A fluid network promotes itself from the per-object tick to the vector core
once its population passes the dense-solver window, so the two ticks must
agree: at populations within that window they produce *identical* floats —
completion times, delivered bytes and instantaneous rates all match
bit-for-bit.  These tests pin each tick (tests/engines.py) over random
topologies/populations (constant and time-varying capacity, slow-start
ramps, staggered activations, aborts) and compare everything observable.
Large-population cases cross into the sparse water-filling solver, where
agreement with the per-object tick is asserted only up to floating-point
round-off, and a promoted run must equal a vector-from-the-start run
bit-for-bit.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Link
from repro.net.route import Route
from repro.net.trace import CapacityTrace
from repro.sim.errors import TransferError
from repro.sim.simulator import Simulator
from repro.tcp import fluid
from repro.tcp.fluid import FluidNetwork
from repro.tcp.model import SlowStartRamp
from repro.vec.engine import VectorCore
from tests.engines import forced_engine


def _random_problem(rng, *, n_links=6, n_flows=14, dynamic=False):
    """Random links + flow specs, deterministic in ``rng``."""
    links = []
    for i in range(n_links):
        if dynamic and i % 3 == 0:
            times = np.concatenate(
                ([0.0], np.cumsum(rng.uniform(0.5, 3.0, size=3)))
            )
            values = rng.uniform(1e5, 5e6, size=4)
            trace = CapacityTrace(list(times), list(values))
        else:
            trace = CapacityTrace.constant(float(rng.uniform(1e5, 5e6)))
        links.append(
            Link(
                f"l{i}",
                f"a{i}",
                f"b{i}",
                trace,
                delay=float(rng.uniform(0.005, 0.08)),
            )
        )
    specs = []
    for _ in range(n_flows):
        k = int(rng.integers(1, min(4, n_links) + 1))
        picks = rng.choice(n_links, size=k, replace=False)
        route_links = [links[int(p)] for p in picks]
        rtt = 2.0 * sum(l.delay for l in route_links)
        ramp = None
        if rng.random() < 0.7:
            ramp = SlowStartRamp(
                rtt=max(rtt, 1e-3),
                max_window=float(rng.choice([16_384.0, 65_536.0, 262_144.0])),
            )
        specs.append(
            {
                "route": route_links,
                "size": float(rng.uniform(1e4, 4e6)),
                "ramp": ramp,
                "delay": float(rng.uniform(0.0, 2.0)),
            }
        )
    return specs


def _shared_problem(rng, *, n_links, n_flows, n_routes, dynamic):
    """A population reusing a few :class:`Route` and ramp objects (the scale
    study's shape): flows share activation instants, and about a third are
    aborted, half of those before their first tick."""
    pool = _random_problem(rng, n_links=n_links, n_flows=n_routes, dynamic=dynamic)
    routes = [Route(spec["route"]) for spec in pool]
    ramps = [spec["ramp"] for spec in pool]
    instants = (0.0, 0.2, 0.7, 1.5)
    specs = []
    for _ in range(n_flows):
        abort = None
        if rng.random() < 1 / 3:
            abort = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.01, 2.0))
        specs.append(
            {
                "route": routes[int(rng.integers(n_routes))],
                "size": float(rng.uniform(1e4, 4e6)),
                "ramp": ramps[int(rng.integers(n_routes))],
                "delay": instants[int(rng.integers(len(instants)))],
                "abort": abort,
            }
        )
    return specs


@contextmanager
def _refcount_checked():
    """Check after every vector tick that each link's refcount equals the
    number of live rows crossing it and that no release is left queued.
    Yields a counter of compactions seen."""
    tick, compact = VectorCore.tick, VectorCore._compact
    seen = {"compactions": 0}

    def checked_tick(core):
        tick(core)
        assert not core._retiring
        n, m, nc = core._n, len(core._links), core._nc
        rows = np.bincount(core._cohort[:n][core._alive[:n]], minlength=nc)
        assert np.array_equal(core._c_mult[:nc], rows)
        live = np.repeat(rows, np.diff(core._indptr[: nc + 1]))
        expected = np.bincount(
            core._link_idx[: core._nnz], weights=live, minlength=m
        ).astype(np.int64)
        assert np.array_equal(core._link_refs[:m], expected)

    def counted_compact(core):
        seen["compactions"] += 1
        compact(core)

    with mock.patch.object(VectorCore, "tick", checked_tick), mock.patch.object(
        VectorCore, "_compact", counted_compact
    ):
        yield seen


def _run(specs, vec=None, *, sample_times=(), nets=None):
    """Run ``specs`` on one network; return everything observable.

    ``vec`` pins the tick (True: vector core from the first flow, False:
    per-object tick throughout); None leaves the choice to the population.
    The network is appended to ``nets`` when given.  A spec's route is a
    list of links (a fresh :class:`Route` per flow) or a shared ``Route``;
    a spec with ``abort`` set is aborted that long after its activation.
    """
    if vec is not None:
        with forced_engine(vec):
            return _run(specs, sample_times=sample_times, nets=nets)
    sim = Simulator()
    net = FluidNetwork(sim)
    if nets is not None:
        nets.append(net)
    completions = {}
    handles = []
    for i, spec in enumerate(specs):
        name = f"f{i}"
        route = spec["route"]
        handles.append(
            net.start_flow(
                route if isinstance(route, Route) else Route(route),
                spec["size"],
                ramp=spec["ramp"],
                name=name,
                on_complete=lambda fl, n=name: completions.__setitem__(
                    n, sim.now
                ),
                activation_delay=spec["delay"],
            )
        )
    # Scheduled after every start_flow: an abort at the activation instant
    # lands between the activation and the instant's first tick.
    for spec, handle in zip(specs, handles):
        if spec.get("abort") is not None:
            sim.schedule_at(
                spec["delay"] + spec["abort"],
                lambda h=handle: net.abort_flow(h),
                name="abort",
            )
    samples = []
    for t in sample_times:
        sim.schedule_at(
            t,
            lambda: samples.append([f.rate for f in handles]),
            name="sample",
        )
    sim.run()
    delivered = [f.delivered for f in handles]
    return completions, delivered, samples


SAMPLE_TIMES = (0.1, 0.45, 0.9, 1.7, 3.0, 6.0)


class TestVectorOracleIdentity:
    """Dense-window populations: vector output must equal the oracle's."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_population_constant_links(self, seed):
        specs = _random_problem(np.random.default_rng(seed))
        classic = _run(specs, False, sample_times=SAMPLE_TIMES)
        vector = _run(specs, True, sample_times=SAMPLE_TIMES)
        assert vector == classic  # exact: times, bytes and sampled rates

    @pytest.mark.parametrize("seed", range(4))
    def test_random_population_dynamic_links(self, seed):
        specs = _random_problem(
            np.random.default_rng(100 + seed), dynamic=True
        )
        classic = _run(specs, False, sample_times=SAMPLE_TIMES)
        vector = _run(specs, True, sample_times=SAMPLE_TIMES)
        assert vector == classic

    @pytest.mark.parametrize("seed", range(4))
    def test_coalesced_activation_matches_per_flow_events(self, seed):
        """Coalesced activations behave like one event per flow: flows
        sharing an activation instant activate in creation order, on
        either tick, and both ticks then agree exactly."""
        specs = _random_problem(np.random.default_rng(200 + seed))
        # Interleave creation across three shared activation instants.
        delays = (0.0, 0.25, 0.5)
        for i, spec in enumerate(specs):
            spec["delay"] = delays[i % 3]
        for vec in (False, True):
            sim = Simulator()
            net = FluidNetwork(sim)
            for i, spec in enumerate(specs):
                net.start_flow(
                    Route(spec["route"]), spec["size"], ramp=spec["ramp"],
                    name=f"f{i}", activation_delay=spec["delay"],
                )
            seen = {}
            # Scheduled after every activation, before the instant's tick.
            for t in delays:
                sim.schedule_at(
                    t,
                    lambda t=t: seen.__setitem__(
                        t, [f.name for f in net.active_flows]
                    ),
                    name="observe",
                )
            with forced_engine(vec):
                sim.run()
            for t in delays:
                batch = [f"f{i}" for i, s in enumerate(specs) if s["delay"] == t]
                assert seen[t][-len(batch):] == batch
        assert _run(specs, True, sample_times=SAMPLE_TIMES) == _run(
            specs, False, sample_times=SAMPLE_TIMES
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_random_topologies(self, seed):
        rng = np.random.default_rng(seed)
        specs = _random_problem(
            rng,
            n_links=int(rng.integers(2, 8)),
            n_flows=int(rng.integers(1, 20)),
            dynamic=bool(rng.integers(0, 2)),
        )
        assert _run(specs, True, sample_times=SAMPLE_TIMES) == _run(
            specs, False, sample_times=SAMPLE_TIMES
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_shared_routes_and_ramps(self, seed):
        """Flows reusing Route and ramp objects take the flush's per-route
        path; both ticks still agree bit-for-bit, and every vector tick
        leaves the link refcounts equal to a recount of the live rows."""
        rng = np.random.default_rng(seed)
        specs = _shared_problem(
            rng,
            n_links=int(rng.integers(2, 8)),
            n_flows=int(rng.integers(1, 60)),
            n_routes=int(rng.integers(1, 5)),
            dynamic=bool(rng.integers(0, 2)),
        )
        with _refcount_checked():
            vector = _run(specs, True, sample_times=SAMPLE_TIMES)
        assert vector == _run(specs, False, sample_times=SAMPLE_TIMES)

    def test_shared_population_refcounts_across_compaction(self):
        """300 flows on 4 shared routes, inside the dense window, with
        aborts (queued releases) and enough retirements to compact: still
        bit-identical, and the refcount recount holds after every tick."""
        specs = _shared_problem(
            np.random.default_rng(5), n_links=6, n_flows=300, n_routes=4,
            dynamic=True,
        )
        with _refcount_checked() as seen:
            vector = _run(specs, True, sample_times=SAMPLE_TIMES)
        assert seen["compactions"] > 0
        assert vector == _run(specs, False, sample_times=SAMPLE_TIMES)

    def test_abort_between_activation_and_first_tick(self):
        """An abort landing while the flow sits in the vector engine's
        pending buffer (activated, not yet materialised as a row) must
        behave exactly like the classic engine's abort."""

        def run(vec):
            sim = Simulator()
            net = FluidNetwork(sim)
            link = Link("l0", "a", "b", CapacityTrace.constant(1e6), delay=0.01)
            keeper = net.start_flow(
                Route([link]), 5e5, name="keeper", activation_delay=0.5
            )
            victim = net.start_flow(
                Route([link]), 5e5, name="victim", activation_delay=0.5
            )
            # Scheduled after start_flow: at t=0.5 this runs between the
            # victim's activation event and the engine's same-instant tick.
            sim.schedule_at(0.5, lambda: net.abort_flow(victim), name="abort")
            with forced_engine(vec):
                sim.run()
            return keeper.completed_at, keeper.delivered, victim.completed_at

        assert run(True) == run(False)

    def test_promotion_bound_selects_engine(self, monkeypatch, pytestconfig):
        link = Link("l0", "a", "b", CapacityTrace.constant(1e6), delay=0.01)

        def promoted(sim, n_flows=1):
            net = FluidNetwork(sim)
            assert net.vector is False  # every network starts per-object
            for _ in range(n_flows):
                net.start_flow(Route([link]), 1e4, activation_delay=0.0)
            sim.run()
            return net.vector

        assert fluid._DENSE_MAX_FLOWS == 384
        if not pytestconfig.getoption("--vector-engine"):
            assert fluid._PROMOTE_ABOVE == fluid._DENSE_MAX_FLOWS
        monkeypatch.setattr(fluid, "_PROMOTE_ABOVE", fluid._DENSE_MAX_FLOWS)
        assert promoted(Simulator(), 384) is False
        assert promoted(Simulator(), 385) is True
        with forced_engine(True):
            assert promoted(Simulator()) is True
            assert promoted(Simulator(sanitize=True)) is True
        with forced_engine(False):
            assert promoted(Simulator(), 385) is False


class TestSparseSolverWindow:
    """Populations past the dense window use sparse water-filling: same
    fixed point, so results agree to round-off (not necessarily bitwise)."""

    def test_large_population_matches_oracle(self):
        rng = np.random.default_rng(7)
        n_flows = 420  # > _DENSE_MAX_FLOWS: forces the sparse solver
        links = [
            Link(
                f"l{i}",
                f"a{i}",
                f"b{i}",
                CapacityTrace.constant(float(rng.uniform(5e5, 5e6))),
                delay=0.01,
            )
            for i in range(8)
        ]
        specs = []
        for _ in range(n_flows):
            picks = rng.choice(8, size=int(rng.integers(1, 4)), replace=False)
            specs.append(
                {
                    "route": [links[int(p)] for p in picks],
                    "size": float(rng.uniform(1e4, 2e5)),
                    "ramp": None,
                    "delay": float(rng.uniform(0.0, 0.5)),
                }
            )
        classic = _run(specs, False)
        vector = _run(specs, True)
        assert set(vector[0]) == set(classic[0])  # everyone completes
        for name, t in classic[0].items():
            assert vector[0][name] == pytest.approx(t, rel=1e-9)
        assert vector[1] == pytest.approx(classic[1], rel=1e-9)


class TestBufferedAborts:
    """Aborts of flows still in the activation buffer cost O(1): the flush
    skips flows that are no longer active."""

    def test_half_of_a_batch_aborted_before_the_first_tick(self):
        link = Link("l0", "a", "b", CapacityTrace.constant(1e6), delay=0.01)
        route = Route([link])

        def run(vec):
            sim = Simulator()
            net = FluidNetwork(sim)
            flows = [
                net.start_flow(route, 5e4 + 10.0 * i, activation_delay=0.5)
                for i in range(2000)
            ]
            for flow in flows[1::2]:
                sim.schedule_at(0.5, lambda f=flow: net.abort_flow(f), name="abort")
            rows = []
            sim.schedule_at(
                0.6, lambda: rows.append(net._vec and net._vec._n), name="observe"
            )
            with forced_engine(vec):
                sim.run()
            return [f.completed_at for f in flows], [f.delivered for f in flows], rows

        vector, classic = run(True), run(False)
        assert vector[2] == [1000]  # one row per kept flow
        assert vector[0][1::2] == classic[0][1::2] == [0.5] * 1000
        assert vector[1][1::2] == classic[1][1::2] == [0.0] * 1000
        # 1000 concurrent flows: the sparse solver, equal to round-off.
        assert vector[0] == pytest.approx(classic[0], rel=1e-9)
        assert vector[1] == pytest.approx(classic[1], rel=1e-9)


class TestLinkNameConflicts:
    """Links are keyed by name.  Within one activation batch the vector
    core's per-route interning must still refuse two same-name links with
    different traces, and merge them when the traces are equal, exactly as
    the per-object tick does -- also when a cached route reappears."""

    @staticmethod
    def _specs(order, twin_trace):
        shared = Link("x", "a", "b", CapacityTrace.constant(1e6), delay=0.01)
        twin = Link("x", "a", "b", twin_trace, delay=0.01)
        other = Link("y", "b", "c", CapacityTrace.constant(2e6), delay=0.01)
        routes = (Route([shared, other]), Route([twin]))
        return [
            {"route": routes[k], "size": 2e5 + 1e4 * i, "ramp": None, "delay": 0.5}
            for i, k in enumerate(order)
        ]

    @pytest.mark.parametrize("order", [(0, 1), (0, 0, 1), (0, 1, 0)])
    @pytest.mark.parametrize("vec", [True, False])
    def test_different_traces_raise(self, order, vec):
        specs = self._specs(order, CapacityTrace.constant(3e6))
        with pytest.raises(TransferError, match="two distinct links named 'x'"):
            _run(specs, vec)

    @pytest.mark.parametrize("order", [(0, 1), (0, 1, 0), (1, 0, 1, 0)])
    def test_equal_traces_merge(self, order):
        specs = self._specs(order, CapacityTrace.constant(1e6))
        nets = []
        vector = _run(specs, True, sample_times=SAMPLE_TIMES, nets=nets)
        assert sorted(nets[0]._vec._lid) == ["x", "y"]
        assert vector == _run(specs, False, sample_times=SAMPLE_TIMES)


class TestPromotion:
    """A network that outgrows the dense window moves to the vector core."""

    def _growing_population(self):
        """300 flows at t=0 and 220 more at t=1 on shared links: the second
        batch lifts the population past 384, then it drains to zero."""
        rng = np.random.default_rng(11)
        specs = _random_problem(rng, n_links=8, n_flows=520, dynamic=True)
        for i, spec in enumerate(specs):
            spec["delay"] = 0.0 if i < 300 else 1.0
        return specs

    @staticmethod
    def _population(specs, completions, t):
        return sum(
            1
            for i, spec in enumerate(specs)
            if spec["delay"] <= t < completions[f"f{i}"]
        )

    def test_promoted_run_matches_vector_and_classic_runs(self):
        specs = self._growing_population()
        nets = []
        promoted = _run(specs, sample_times=SAMPLE_TIMES, nets=nets)
        assert nets[0].vector
        completions = promoted[0]
        assert len(completions) == len(specs)  # everyone completes
        assert self._population(specs, completions, 0.5) <= 384
        assert self._population(specs, completions, 1.0) > 384
        last = max(completions.values())
        assert 0 < self._population(specs, completions, 0.9 * last) <= 384

        # Bit-identical to the vector core from the first flow ...
        assert promoted == _run(specs, True, sample_times=SAMPLE_TIMES)
        # ... and within the sparse solver's round-off of the per-object
        # tick, which solves the whole population densely.
        classic = _run(specs, False, sample_times=SAMPLE_TIMES)
        assert set(classic[0]) == set(completions)
        for name, t in classic[0].items():
            assert completions[name] == pytest.approx(t, rel=1e-9)
        assert promoted[1] == pytest.approx(classic[1], rel=1e-9)

    def test_sanitized_simulator_promotes(self):
        link = Link("l0", "a", "b", CapacityTrace.constant(1e6), delay=0.01)
        sim = Simulator(sanitize=True)
        net = FluidNetwork(sim)
        flows = [
            net.start_flow(Route([link]), 1e3, activation_delay=0.0)
            for _ in range(385)
        ]
        sim.run()
        assert net.vector
        assert all(f.done for f in flows)
        assert sim.sanitizer.checks_run > 0
        assert not sim.sanitizer.violations
