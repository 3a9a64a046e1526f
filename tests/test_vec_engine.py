"""Pinning suite for the struct-of-arrays vector engine (DESIGN.md §12).

The traffic picks the tick: a probe race (``FluidNetwork.start_races``)
runs on the vector core, and object flows always run the per-object tick.
A race must write exactly what the same population of
:class:`~repro.tcp.flow.FluidFlow` objects and callbacks writes
(``tests/scale_oracle.py``), so these tests race random topologies and
populations (constant and time-varying capacity, slow-start ramps,
staggered and coalesced activations, aborted losers, one start slot per
client) on both and compare every result column bit for bit.  Both ticks
solve shared populations with the sparse water-filling solver's summation
order: the per-object tick is pinned to the digest the vector core wrote
for a growing object-flow population, and agrees with the dense reference
loop (``tests/maxmin_oracle.py``) to round-off.
"""

import hashlib
import math
import tracemalloc
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
from repro.tcp.fluid import _COMPLETION_SLACK, FluidNetwork
from repro.tcp.model import SlowStartRamp
from repro.vec import engine
from repro.vec.engine import VectorCore
from tests.maxmin_oracle import maxmin_allocate
from tests.scale_oracle import start_oracle_races


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


def _race_problem(rng, *, n_links=6, n_routes=4, n_clients=20, dynamic=False,
                  slot_times=None, shared_ramps=False):
    """Random ``start_races`` arguments, deterministic in ``rng``: routes of
    one to four random links, each with a ramp (with ``shared_ramps``,
    routes reuse two ramp objects), and clients racing two random routes
    for one of three sizes from one of three start slots."""
    pool = _random_problem(rng, n_links=n_links, n_flows=n_routes, dynamic=dynamic)
    routes = [Route(spec["route"]) for spec in pool]
    windows = (16_384.0, 65_536.0, 262_144.0)
    ramps = [
        SlowStartRamp(
            rtt=max(route.rtt, 1e-3), max_window=float(rng.choice(windows))
        )
        for route in routes
    ]
    if shared_ramps:
        ramps = [ramps[i % 2] for i in range(n_routes)]
    if slot_times is None:
        slot_times = [0.0] + sorted(rng.uniform(0.0, 2.0, size=2).tolist())
    return dict(
        routes=routes,
        ramps=ramps,
        sizes=rng.uniform(1e4, 4e6, size=3).tolist(),
        probe_bytes=float(rng.choice([2e3, 2e4, 1e5])),
        direct=rng.integers(0, n_routes, size=n_clients),
        relay=rng.integers(0, n_routes, size=n_clients),
        size=rng.integers(0, 3, size=n_clients),
        slot=rng.integers(0, len(slot_times), size=n_clients),
        slot_times=slot_times,
    )


def _race(args, *, oracle=False, nets=None):
    """Run one race, columnar or (``oracle``) one object per flow; return
    its result columns and the drain instant."""
    sim = Simulator()
    net = FluidNetwork(sim)
    if nets is not None:
        nets.append(net)
    start = start_oracle_races if oracle else FluidNetwork.start_races
    race = start(net, **args)
    sim.run()
    return (
        race.latency.tobytes(), race.throughput.tobytes(),
        race.indirect.tobytes(), race.probe_overhead_sum, race.n_completed,
        sim.now,
    )


def _assert_race_matches_oracle(args):
    columnar = _race(args)
    assert columnar[4] == len(args["direct"])  # every client completes
    assert columnar == _race(args, oracle=True)


@contextmanager
def _refcount_checked():
    """Check after every vector tick that each group's and each cohort's
    multiplicity equals a recount of its live rows, and each link's
    refcount the number of live rows crossing it."""
    tick = VectorCore.tick

    def checked_tick(core):
        tick(core)
        n, m, ng, nc = core._n, len(core._links), core._ng, core._nc
        groups = np.bincount(core._group[:n][core._alive[:n]], minlength=ng)
        assert np.array_equal(core._g_mult[:ng], groups)
        assert np.array_equal(core._g_live[:ng], groups > 0)
        assert not core._g_live[: core._g0].any()
        rows = np.bincount(core._g_cohort[:ng], weights=groups, minlength=nc)
        assert np.array_equal(core._c_mult[:nc], rows)
        live = np.repeat(rows, np.diff(core._indptr[: nc + 1]))
        expected = np.bincount(
            core._link_idx[: core._nnz], weights=live, minlength=m
        ).astype(np.int64)
        assert np.array_equal(core._link_refs[:m], expected)

    with mock.patch.object(VectorCore, "tick", checked_tick):
        yield


def _run(specs, *, sample_times=(), sanitize=False):
    """Run ``specs`` as object flows on one network; return everything
    observable.

    A spec's route is a list of links (a fresh :class:`Route` per flow) or
    a shared ``Route``; a spec with ``abort`` set is aborted that long
    after its activation.
    """
    sim = Simulator(sanitize=sanitize)
    net = FluidNetwork(sim)
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
    if sanitize:
        assert sim.sanitizer.checks_run > 0
        assert not sim.sanitizer.violations
    delivered = [f.delivered for f in handles]
    return completions, delivered, samples


SAMPLE_TIMES = (0.1, 0.45, 0.9, 1.7, 3.0, 6.0)


class TestVectorOracleIdentity:
    """Races on the vector core equal the per-object oracle bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_population_constant_links(self, seed):
        _assert_race_matches_oracle(_race_problem(np.random.default_rng(seed)))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_population_dynamic_links(self, seed):
        _assert_race_matches_oracle(
            _race_problem(np.random.default_rng(100 + seed), dynamic=True)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_coalesced_activation_matches_per_flow_events(self, seed):
        """Object flows sharing an activation instant share one event and
        activate in creation order; a race's clients sharing start slots
        coalesce the same way and still equal the oracle exactly."""
        rng = np.random.default_rng(200 + seed)
        specs = _random_problem(rng)
        # Interleave creation across three shared activation instants.
        delays = (0.0, 0.25, 0.5)
        for i, spec in enumerate(specs):
            spec["delay"] = delays[i % 3]
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
                    t, [f.name for f in net._active.values()]
                ),
                name="observe",
            )
        sim.run()
        for t in delays:
            batch = [f"f{i}" for i, s in enumerate(specs) if s["delay"] == t]
            assert seen[t][-len(batch):] == batch
        _assert_race_matches_oracle(
            _race_problem(rng, n_clients=30, slot_times=list(delays))
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_random_topologies(self, seed):
        rng = np.random.default_rng(seed)
        n_links = int(rng.integers(2, 8))
        _assert_race_matches_oracle(
            _race_problem(
                rng,
                n_links=n_links,
                n_routes=int(rng.integers(1, 6)),
                n_clients=int(rng.integers(1, 20)),
                dynamic=bool(rng.integers(0, 2)),
            )
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_shared_routes_and_ramps(self, seed):
        """Many clients on a few routes sharing ramp objects: cohorts of
        many rows, aborted losers released with each tick's completions,
        and every vector tick leaves the link refcounts equal to a recount
        of the live rows."""
        rng = np.random.default_rng(seed)
        args = _race_problem(
            rng,
            n_links=int(rng.integers(2, 8)),
            n_routes=int(rng.integers(1, 5)),
            n_clients=int(rng.integers(1, 60)),
            dynamic=bool(rng.integers(0, 2)),
            shared_ramps=True,
        )
        with _refcount_checked():
            columnar = _race(args)
        assert columnar == _race(args, oracle=True)

    def test_shared_population_refcounts_across_compaction(self):
        """150 clients on 4 shared routes, 300 probe rows at most, most of
        them retired while the rest run on (the case row compaction once
        served): still bit-identical, and the multiplicity and refcount
        recounts hold after every tick."""
        args = _race_problem(
            np.random.default_rng(5), n_clients=150, dynamic=True,
            shared_ramps=True,
        )
        with _refcount_checked():
            columnar = _race(args)
        assert columnar == _race(args, oracle=True)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_start_slot_per_client(self, seed):
        """Every client starts at its own instant, so nearly every group is
        one row: the group tick still writes the oracle's bits."""
        rng = np.random.default_rng(400 + seed)
        n_clients = 60
        args = _race_problem(
            rng, n_clients=n_clients, dynamic=bool(seed % 2),
            slot_times=sorted(rng.uniform(0.0, 3.0, size=n_clients).tolist()),
        )
        args["slot"] = np.arange(n_clients)
        nets = []
        with _refcount_checked():
            columnar = _race(args, nets=nets)
        core = nets[0]._vec
        assert core._n > 2 * n_clients
        assert core._ng > 0.8 * core._n
        assert columnar == _race(args, oracle=True)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_solve_gives_each_group_one_rate(self, monkeypatch, seed):
        """With every cohort solve given up, each tick solves the rows: the
        live rows of every group get the same rate bits, and the race
        still writes the oracle's bits."""
        real = engine.waterfill_sparse

        def rows_only(*args, mult=None, **kw):
            return (None, 0) if mult is not None else real(*args, **kw)

        write = VectorCore._group_rates_from_rows
        solves = []

        def checked(core, g, rates):
            group = g.group[g.rows()]
            first = np.full(core._ng, np.nan)
            first[group[::-1]] = rates[::-1]
            assert first[group].tobytes() == rates.tobytes()
            solves.append(np.unique(group).size < group.size)  # a group of rows
            write(core, g, rates)

        monkeypatch.setattr(engine, "waterfill_sparse", rows_only)
        monkeypatch.setattr(VectorCore, "_group_rates_from_rows", checked)
        args = _race_problem(
            np.random.default_rng(500 + seed), n_clients=80, shared_ramps=True,
        )
        columnar = _race(args)
        assert any(solves)
        assert columnar == _race(args, oracle=True)

    def test_abort_between_activation_and_first_tick(self):
        """An abort landing between a flow's activation and the instant's
        tick leaves the other flows exactly as if it had never started."""

        def run(with_victim):
            sim = Simulator()
            net = FluidNetwork(sim)
            link = Link("l0", "a", "b", CapacityTrace.constant(1e6), delay=0.01)
            keeper = net.start_flow(
                Route([link]), 5e5, name="keeper", activation_delay=0.5
            )
            victim = None
            if with_victim:
                victim = net.start_flow(
                    Route([link]), 5e5, name="victim", activation_delay=0.5
                )
                # Scheduled after start_flow: at t=0.5 this runs between the
                # victim's activation event and the same-instant tick.
                sim.schedule_at(0.5, lambda: net.abort_flow(victim), name="abort")
            sim.run()
            return keeper, victim

        keeper, victim = run(True)
        alone, _ = run(False)
        assert (keeper.completed_at, keeper.delivered) == (
            alone.completed_at, alone.delivered
        )
        assert (victim.completed_at, victim.delivered) == (0.5, 0.0)


def _digest(completions, samples):
    """sha256 over completion times and sampled rates, as float hex."""
    h = hashlib.sha256()
    for name in sorted(completions, key=lambda n: int(n[1:])):
        h.update(f"{name}={float(completions[name]).hex()}\n".encode())
    for row in samples:
        h.update((",".join(float(r).hex() for r in row) + "\n").encode())
    return h.hexdigest()


class TestSparseSolverWindow:
    """Past the scalar solver's bound the per-object tick solves shared
    problems with the sparse water-filling: the vector core's bits, and the
    dense reference loop's fixed point to round-off."""

    #: The completions and samples of ``_growing_population`` as the vector
    #: core wrote them, when populations past 384 flows ran there.
    GROWING_DIGEST = "277ea67c68007bd471bb0581424926735f47761d7712817f278e587db40f9276"

    @staticmethod
    def _growing_population():
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

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_growing_population_keeps_the_core_bits(self, sanitize):
        specs = self._growing_population()
        completions, _delivered, samples = _run(
            specs, sample_times=SAMPLE_TIMES, sanitize=sanitize
        )
        assert len(completions) == len(specs)  # everyone completes
        assert self._population(specs, completions, 0.5) <= 384
        assert self._population(specs, completions, 1.0) > 384
        last = max(completions.values())
        assert 0 < self._population(specs, completions, 0.9 * last) <= 384
        assert _digest(completions, samples) == self.GROWING_DIGEST

    def test_large_population_matches_oracle(self, monkeypatch):
        rng = np.random.default_rng(7)
        n_flows = 420
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
        sparse = _run(specs)

        def oracle(link_cap, lids, frow, n_flows, caps, **kw):
            incidence = np.zeros((link_cap.size, n_flows), dtype=bool)
            incidence[lids, frow] = True
            return maxmin_allocate(link_cap, incidence, caps), 0

        # Every shared solve runs the dense reference loop instead.
        monkeypatch.setattr(fluid, "waterfill_sparse", oracle)
        monkeypatch.setattr(fluid, "_SCALAR_MAX_FLOWS", 0)
        dense = _run(specs)
        assert set(sparse[0]) == set(dense[0])  # everyone completes
        for name, t in dense[0].items():
            assert sparse[0][name] == pytest.approx(t, rel=1e-9)
        assert sparse[1] == pytest.approx(dense[1], rel=1e-9)


class TestBufferedAborts:
    """Aborts of flows still waiting for their activation instant: the
    activation skips them."""

    def test_half_of_a_batch_aborted_before_the_first_tick(self):
        link = Link("l0", "a", "b", CapacityTrace.constant(1e6), delay=0.01)
        route = Route([link])

        def run(abort_odd):
            sim = Simulator()
            net = FluidNetwork(sim)
            flows = [
                net.start_flow(route, 5e4 + 10.0 * i, activation_delay=0.5)
                for i in range(2000)
                if abort_odd or i % 2 == 0
            ]
            if abort_odd:
                for flow in flows[1::2]:
                    sim.schedule_at(0.5, lambda f=flow: net.abort_flow(f), name="abort")
            active = []
            sim.schedule_at(
                0.6, lambda: active.append(len(net._active)), name="observe"
            )
            sim.run()
            return [f.completed_at for f in flows], [f.delivered for f in flows], active

        aborted, kept = run(True), run(False)
        assert aborted[2] == kept[2] == [1000]  # one active flow per kept flow
        assert aborted[0][1::2] == [0.5] * 1000
        assert aborted[1][1::2] == [0.0] * 1000
        # 1000 concurrent flows on the sparse branch, exactly as if the
        # aborted half had never started.
        assert aborted[0][0::2] == kept[0]
        assert aborted[1][0::2] == kept[1]


class TestLinkNameConflicts:
    """Links are keyed by name.  Two same-name links with different traces
    are refused and equal traces merge, on the per-object tick (between
    concurrent flows) and in a race (between any of its routes)."""

    @staticmethod
    def _routes(twin_trace, *, twin=True):
        """The routes over ``x`` and ``y``, and over a same-name twin of
        ``x`` (``x`` itself when not ``twin``)."""
        shared = Link("x", "a", "b", CapacityTrace.constant(1e6), delay=0.01)
        other = Link("y", "b", "c", CapacityTrace.constant(2e6), delay=0.01)
        x = Link("x", "a", "b", twin_trace, delay=0.01) if twin else shared
        return Route([shared, other]), Route([x])

    @classmethod
    def _specs(cls, order, twin_trace, *, twin=True):
        routes = cls._routes(twin_trace, twin=twin)
        return [
            {"route": routes[k], "size": 2e5 + 1e4 * i, "ramp": None, "delay": 0.5}
            for i, k in enumerate(order)
        ]

    @classmethod
    def _race_args(cls, order, twin_trace):
        routes = [cls._routes(twin_trace)[k] for k in order]
        ramp = SlowStartRamp(rtt=0.04, max_window=65_536.0)
        n = len(order) - 1
        return dict(
            routes=routes, ramps=[ramp] * len(routes), sizes=[2e5],
            probe_bytes=1e4, direct=list(range(n)), relay=[n] * n,
            size=[0] * n, slot=[0] * n, slot_times=[0.5],
        )

    @pytest.mark.parametrize("order", [(0, 1), (0, 0, 1), (0, 1, 0)])
    @pytest.mark.parametrize("vec", [True, False])
    def test_different_traces_raise(self, order, vec):
        match = "two distinct links named 'x'"
        if vec:
            args = self._race_args(order, CapacityTrace.constant(3e6))
            with pytest.raises(TransferError, match=match):
                FluidNetwork(Simulator()).start_races(**args)
        else:
            specs = self._specs(order, CapacityTrace.constant(3e6))
            with pytest.raises(TransferError, match=match):
                _run(specs)

    @pytest.mark.parametrize("order", [(0, 1), (0, 1, 0), (1, 0, 1, 0)])
    def test_equal_traces_merge(self, order):
        twin_trace = CapacityTrace.constant(1e6)
        # The twin is one constraint with the ``x`` it shares a name with.
        assert _run(
            self._specs(order, twin_trace), sample_times=SAMPLE_TIMES
        ) == _run(self._specs(order, twin_trace, twin=False), sample_times=SAMPLE_TIMES)
        args = self._race_args(order, twin_trace)
        nets = []
        columnar = _race(args, nets=nets)
        assert sorted(nets[0]._vec._lid) == ["x", "y"]
        assert columnar == _race(args, oracle=True)


class TestRaceArguments:
    @pytest.mark.parametrize("bad", [-1, 2])
    def test_size_index_out_of_range_raises(self, bad):
        """A size index names one of ``sizes``; -1 would otherwise read as
        the probe's class."""
        link = Link("l0", "a", "b", CapacityTrace.constant(1e6), delay=0.01)
        ramp = SlowStartRamp(rtt=0.04, max_window=65_536.0)
        with pytest.raises(ValueError, match="size index out of range"):
            FluidNetwork(Simulator()).start_races(
                routes=[Route([link])], ramps=[ramp], sizes=[1e5, 2e5],
                probe_bytes=1e4, direct=[0, 0], relay=[0, 0], size=[0, bad],
                slot=[0, 0], slot_times=[0.0],
            )


def _column_core(rng, *, n_rows=400, n_links=5, n_routes=4):
    """A vector core holding two flushes of random groups on random routes,
    with delivered bytes, releases and rates drawn to cover every case the
    tick's column steps meet: live groups at rate 0 (just flushed), groups
    emptied with nothing left, groups emptied with bytes left, aborted rows
    of live groups, and rates over many magnitudes."""
    core = VectorCore(FluidNetwork(Simulator(sanitize=False)))
    links = [
        Link(f"l{i}", f"a{i}", f"b{i}", CapacityTrace.constant(1e6), delay=0.01)
        for i in range(n_links)
    ]
    lid = np.array([core._intern_link(link) for link in links], dtype=np.int64)
    picks = [
        rng.choice(n_links, size=int(rng.integers(1, 4)), replace=False)
        for _ in range(n_routes)
    ]
    rl = np.concatenate([lid[p] for p in picks])
    rd = np.array([p.size for p in picks], dtype=np.int64)
    for batch in range(2):
        k = int(rng.integers(1, 2 * n_routes))
        rows = n_rows // 2
        kg = int(rng.integers(max(k, 2), min(3 * k, rows // 2) + 1))
        g_cohort = np.sort(
            np.concatenate([np.arange(k), rng.integers(0, k, size=kg - k)])
        )
        group = rng.permutation(
            np.concatenate([np.arange(kg), rng.integers(0, kg, size=rows - kg)])
        )
        route = rng.integers(0, n_routes, size=k)
        ramp = np.tile([0.05, 4096.0, 65536.0, 4.0], (k, 1))
        core._append_rows(
            group, g_cohort, rng.uniform(1e3, 1e6, size=kg), rl, rd, route, ramp,
            np.full(k, float(batch)),
        )
    n, ng, nc = core._n, core._ng, core._nc
    mult = np.bincount(core._g_cohort[:ng], weights=core._g_mult[:ng], minlength=nc)
    core._link_refs[: lid.size] = np.bincount(
        core._link_idx[: core._nnz],
        weights=np.repeat(mult, np.diff(core._indptr[: nc + 1])),
        minlength=lid.size,
    ).astype(np.int64)
    size = core._g_size[:ng]
    frac = rng.uniform(0.0, 1.0, size=ng)
    frac[rng.random(ng) < 0.25] = 1.0  # nothing left
    core._g_rate[:ng] = 10.0 ** rng.uniform(-3.0, 9.0, size=ng)
    core._g_rate[:ng][rng.random(ng) < 0.15] = 0.0
    # Whole groups completed or aborted, and single aborted rows.  The
    # second flush's largest group (two rows at least) runs on with one
    # row aborted; groups 0 and 1 are emptied, one with nothing left and
    # one with bytes left, so the tick's window starts past them.
    big = 2 + int(np.argmax(core._g_mult[2:ng]))
    emptied = [0, 1]
    gone = rng.random(ng) < 0.3
    gone[emptied], gone[big] = True, False
    frac[emptied] = (1.0, 0.5)
    core._g_deliv[:ng] = np.minimum(size, size * frac)
    group = core._group[:n]
    dead = gone[group] | (rng.random(n) < 0.1)
    of_big = np.flatnonzero(group == big)
    dead[of_big] = False
    dead[of_big[0]] = True
    core._release_rows(np.flatnonzero(dead))
    return core


def _rows_of(core):
    """The rows the tick once kept, expanded from the group table: size,
    delivered and rate per row, a dead row reading rate 0."""
    n = core._n
    alive = core._alive[:n]
    group = core._group[:n]
    rate = np.where(alive, core._g_rate[group], 0.0)
    return core._g_size[group], core._g_deliv[group].copy(), rate, alive


def _old_expanded_rates(core, g, c_rates):
    """The live rows' rates as the tick once wrote them: the live rows'
    cohort rates gathered in activation order."""
    return c_rates[g.live_of()]


def _old_next_completion(size, deliv, rate, rows, now):
    """The first completion as the tick once computed it: over the live
    rows with a positive rate, ``now + remaining / rate``; None if none."""
    rates = rate[rows]
    pos = rates > 0.0
    if not pos.any():
        return None
    t_done = now + (size[rows][pos] - deliv[rows][pos]) / rates[pos]
    return float(t_done.min())


class TestColumnSteps:
    """The tick's steps over the group table equal, bit for bit, the masked
    per-row expressions of the row tick they replace, on rows expanded
    from random group states."""

    @pytest.mark.parametrize("seed", range(24))
    def test_steps_equal_the_masked_expressions(self, seed):
        rng = np.random.default_rng(3000 + seed)
        core = _column_core(rng, n_rows=int(rng.integers(40, 600)))
        n, ng = core._n, core._ng
        live = core._g_live[:ng]
        assert not live.all() and live.any()
        rem = core._g_size[:ng] - core._g_deliv[:ng]
        assert (~live & (rem == 0.0)).any() and (~live & (rem > 0.0)).any()
        assert (core._g_rate[:ng][~live] == 0.0).all()
        assert np.array_equal(live, core._g_mult[:ng] > 0)
        assert 0 < core._g0 < ng and not live[: core._g0].any()
        size, deliv, rate, alive = _rows_of(core)
        rows = np.flatnonzero(alive)
        assert not alive.all() and alive.any()
        assert (~alive & live[core._group[:n]]).any()  # aborted, group runs on

        # Rates: one take over the group column against the rows' gather.
        g = core._gather()
        assert g.n == rows.size
        assert np.array_equal(g.rows(), rows)
        c_rates = 10.0 ** rng.uniform(-3.0, 9.0, size=g.cohorts.size)
        c_rates[rng.random(c_rates.size) < 0.2] = 0.0
        expected = _old_expanded_rates(core, g, c_rates)
        core._expand_rates(g, c_rates)
        assert core._g_rate[core._group[rows]].tobytes() == expected.tobytes()
        assert (core._g_rate[:ng][~live] == 0.0).all()
        size, deliv, rate, alive = _rows_of(core)

        # Next wake-up, at several instants.
        for now in (0.0, 1.0, float(rng.uniform(0.0, 1e4)), 123456.789):
            old = _old_next_completion(size, deliv, rate, rows, now)
            first = core._first_completion()
            new = now + first if math.isfinite(first) else None
            assert new == old
            if new is not None:
                assert float(new).hex() == float(old).hex()

        # Accrual, then the completion scan.
        dt = float(rng.uniform(1e-6, 5.0))
        expected = np.minimum(size, deliv + rate * dt)
        core._accrue(dt)
        assert core._g_deliv[core._group[rows]].tobytes() == expected[rows].tobytes()
        expected = np.flatnonzero(alive & (size - expected <= _COMPLETION_SLACK))
        assert np.array_equal(core._completed(), expected)

    def test_no_row_at_a_positive_rate_gives_no_completion(self):
        core = _column_core(np.random.default_rng(1), n_rows=100)
        core._g_rate[: core._ng] = 0.0
        assert not math.isfinite(core._first_completion())
        size, deliv, rate, alive = _rows_of(core)
        assert _old_next_completion(size, deliv, rate, np.flatnonzero(alive), 1.0) is None

    def test_rows_solve_rates_are_written_per_group(self):
        """A rows solve's rates go back to the groups, empty groups read 0,
        and two rows of one group with different bits raise."""
        core = _column_core(np.random.default_rng(2), n_rows=300)
        g = core._gather()
        group = core._group[g.rows()]
        per_group = 10.0 ** np.random.default_rng(3).uniform(-3.0, 9.0, size=core._ng)
        core._group_rates_from_rows(g, per_group[group])
        assert core._g_rate[group].tobytes() == per_group[group].tobytes()
        assert (core._g_rate[: core._ng][~core._g_live[: core._ng]] == 0.0).all()
        counts = np.bincount(group)
        twin = int(np.flatnonzero(counts[group] > 1)[0])
        rates = per_group[group]
        rates[twin] = np.nextafter(rates[twin], np.inf)
        with pytest.raises(RuntimeError, match="different rates"):
            core._group_rates_from_rows(g, rates)

    def test_deadlock_still_raises_with_every_live_rate_zero(self):
        """One client races two routes over a dead link while another
        completes over live ones: once the stuck rows' ramps peak, nothing
        will change, and the tick says so."""
        live = Link("up", "a", "b", CapacityTrace.constant(1e6), delay=0.01)
        zero = Link("down", "a", "c", CapacityTrace.constant(0.0), delay=0.01)
        routes = [Route([live]), Route([zero])]
        ramp = SlowStartRamp(rtt=0.04, max_window=65_536.0)
        sim = Simulator()
        net = FluidNetwork(sim)
        race = net.start_races(
            routes=routes, ramps=[ramp, ramp], sizes=[5e4], probe_bytes=1e4,
            direct=[0, 1], relay=[0, 1], size=[0, 0], slot=[0, 0],
            slot_times=[0.0],
        )
        with pytest.raises(TransferError, match="deadlock"):
            sim.run()
        assert race.n_completed == 1
        core = net._vec
        assert not core._alive[: core._n].all()  # the finished client's rows


class TestSteadyTickAllocation:
    """A tick that neither flushes, releases nor re-gathers reads the group
    table through the core's work columns: its allocations do not grow
    with the population."""

    @staticmethod
    def _steady_peaks(n_clients):
        """The ``tracemalloc`` peak of every steady tick of a race of
        ``n_clients`` on one shared link, with the live rows then."""
        shared = Link("x", "s", "m", CapacityTrace.constant(1e6), delay=0.01)
        routes = [
            Route([shared, Link(f"y{i}", "m", f"c{i}", CapacityTrace.constant(1e7),
                                delay=0.01)])
            for i in range(2)
        ]
        ramp = SlowStartRamp(rtt=0.05, max_window=262_144.0)
        sim = Simulator(sanitize=False)
        net = FluidNetwork(sim)
        net.start_races(
            routes=routes, ramps=[ramp, ramp], sizes=[1e6], probe_bytes=1e5,
            direct=[0] * n_clients, relay=[1] * n_clients, size=[0] * n_clients,
            slot=[0] * n_clients, slot_times=[0.0],
        )
        tick = VectorCore.tick
        steady = []

        def traced_tick(core):
            before = (core._gathered, core._n, core._ng, bool(core._race.pending))
            tracemalloc.start()
            try:
                tick(core)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            after = (core._gathered, core._n, core._ng, False)
            if before[0] is not None and before == after:
                steady.append((core._gathered.n, peak))

        with mock.patch.object(VectorCore, "tick", traced_tick):
            sim.run(until=0.5)
        return steady

    def test_steady_tick_allocates_no_row_column(self):
        small, large = self._steady_peaks(25_000), self._steady_peaks(50_000)
        assert small and large
        assert all(n == 50_000 for n, _ in small)
        assert all(n == 100_000 for n, _ in large)
        # Far below one row column of the smaller race (400 KB), and no
        # larger for twice the rows.
        assert max(peak for _, peak in small) < 16_384
        assert max(peak for _, peak in large) <= max(peak for _, peak in small) + 1024
