"""Pinning suite for the struct-of-arrays vector engine (DESIGN.md §12).

The vector engine is an oracle-checked rewrite: on any workload the classic
per-object engine can run, the vector path must produce *identical* floats —
completion times, delivered bytes and instantaneous rates all match
bit-for-bit at populations within the dense-solver window.  These tests
drive both engines over random topologies/populations (constant and
time-varying capacity, slow-start ramps, staggered activations, aborts) and
compare everything observable.  A separate large-population case crosses
into the sparse water-filling solver, where identity is asserted only up to
floating-point round-off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Link
from repro.net.route import Route
from repro.net.trace import CapacityTrace
from repro.sim.simulator import Simulator
from repro.tcp.fluid import FluidNetwork, vector_engine_from_env
from repro.tcp.model import SlowStartRamp


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


def _run(specs, *, vector, coalesce=False, sample_times=()):
    """Run one engine over ``specs``; return everything observable."""
    sim = Simulator()
    net = FluidNetwork(sim, vector=vector, coalesce_activations=coalesce)
    completions = {}
    handles = []
    for i, spec in enumerate(specs):
        name = f"f{i}"
        handles.append(
            net.start_flow(
                Route(spec["route"]),
                spec["size"],
                ramp=spec["ramp"],
                name=name,
                on_complete=lambda fl, n=name: completions.__setitem__(
                    n, sim.now
                ),
                activation_delay=spec["delay"],
            )
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
        classic = _run(specs, vector=False, sample_times=SAMPLE_TIMES)
        vector = _run(specs, vector=True, sample_times=SAMPLE_TIMES)
        assert vector == classic  # exact: times, bytes and sampled rates

    @pytest.mark.parametrize("seed", range(4))
    def test_random_population_dynamic_links(self, seed):
        specs = _random_problem(
            np.random.default_rng(100 + seed), dynamic=True
        )
        classic = _run(specs, vector=False, sample_times=SAMPLE_TIMES)
        vector = _run(specs, vector=True, sample_times=SAMPLE_TIMES)
        assert vector == classic

    @pytest.mark.parametrize("seed", range(4))
    def test_coalesced_activation_matches_per_flow_events(self, seed):
        """Activation coalescing is a pure scheduling change."""
        specs = _random_problem(np.random.default_rng(200 + seed))
        # Duplicate activation instants so coalescing actually batches.
        for i, spec in enumerate(specs):
            spec["delay"] = 0.25 * (i % 3)
        plain = _run(specs, vector=False, sample_times=SAMPLE_TIMES)
        for vec in (False, True):
            coalesced = _run(
                specs, vector=vec, coalesce=True, sample_times=SAMPLE_TIMES
            )
            assert coalesced == plain

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
        assert _run(specs, vector=True, sample_times=SAMPLE_TIMES) == _run(
            specs, vector=False, sample_times=SAMPLE_TIMES
        )

    def test_abort_between_activation_and_first_tick(self):
        """An abort landing while the flow sits in the vector engine's
        pending buffer (activated, not yet materialised as a row) must
        behave exactly like the classic engine's abort."""

        def run(vector):
            sim = Simulator()
            net = FluidNetwork(sim, vector=vector)
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
            sim.run()
            return keeper.completed_at, keeper.delivered, victim.completed_at

        assert run(True) == run(False)

    def test_env_toggle_selects_engine(self, monkeypatch):
        # The runtime sanitizer pins the classic engine, so an ambient
        # REPRO_SANITIZE=1 must not leak into the toggle under test.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        monkeypatch.setenv("REPRO_ENGINE_VECTOR", "1")
        assert vector_engine_from_env() is True
        sim = Simulator()
        assert FluidNetwork(sim).vector is True
        assert FluidNetwork(Simulator(sanitize=True)).vector is False
        monkeypatch.setenv("REPRO_ENGINE_VECTOR", "0")
        assert vector_engine_from_env() is False
        assert FluidNetwork(Simulator()).vector is False
        # Explicit argument beats the environment.
        assert FluidNetwork(Simulator(), vector=True).vector is True


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
        classic = _run(specs, vector=False)
        vector = _run(specs, vector=True)
        assert set(vector[0]) == set(classic[0])  # everyone completes
        for name, t in classic[0].items():
            assert vector[0][name] == pytest.approx(t, rel=1e-9)
        assert vector[1] == pytest.approx(classic[1], rel=1e-9)
