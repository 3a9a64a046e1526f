"""Property-based tests of the fluid transport engine.

These complement the example-based tests in test_tcp_fluid.py with
hypothesis-driven invariants: byte conservation, work conservation, max-min
fairness of the instantaneous allocation, and scheduling sanity on random
topologies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Link
from repro.net.route import Route
from repro.net.trace import CapacityTrace
from repro.sim.simulator import Simulator
from repro.tcp.fluid import FluidNetwork
from tests.maxmin_oracle import incidence_matrix, verify_maxmin


@st.composite
def fluid_problems(draw):
    """A random network: L links, F flows with random routes and sizes."""
    n_links = draw(st.integers(min_value=1, max_value=4))
    links = [
        Link(
            f"l{i}",
            "s",
            "c",
            CapacityTrace.constant(draw(st.floats(min_value=100.0, max_value=1e6))),
        )
        for i in range(n_links)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=5))
    flows = []
    for f in range(n_flows):
        idxs = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1,
                max_size=n_links,
                unique=True,
            )
        )
        size = draw(st.floats(min_value=10.0, max_value=1e6))
        flows.append((idxs, size))
    return links, flows


class TestConservation:
    @settings(max_examples=60, deadline=None)
    @given(fluid_problems())
    def test_all_bytes_delivered(self, problem):
        links, flows = problem
        sim = Simulator()
        net = FluidNetwork(sim)
        handles = [
            net.start_flow(
                Route([links[i] for i in idxs]), size, activation_delay=0.0
            )
            for idxs, size in flows
        ]
        sim.run()
        for (idxs, size), flow in zip(flows, handles):
            assert flow.delivered == pytest.approx(size, rel=1e-6, abs=1e-2)
            assert flow.completed_at is not None

    @settings(max_examples=60, deadline=None)
    @given(fluid_problems())
    def test_no_link_overdraw(self, problem):
        """Integral of bytes through any link never exceeds capacity x time."""
        links, flows = problem
        sim = Simulator()
        net = FluidNetwork(sim)
        handles = [
            net.start_flow(Route([links[i] for i in idxs]), size, activation_delay=0.0)
            for idxs, size in flows
        ]
        sim.run()
        finish = max(f.completed_at for f in handles)
        if finish <= 0.0:
            return
        for li, link in enumerate(links):
            through = sum(
                size
                for (idxs, size), f in zip(flows, handles)
                if li in idxs
            )
            capacity_budget = link.trace.value_at(0.0) * finish
            assert through <= capacity_budget * (1 + 1e-6) + 1e-3

    @settings(max_examples=40, deadline=None)
    @given(fluid_problems())
    def test_work_conservation_single_bottleneck(self, problem):
        """When every flow crosses link 0, finish time >= total/capacity."""
        links, flows = problem
        sim = Simulator()
        net = FluidNetwork(sim)
        handles = [
            net.start_flow(
                Route([links[0]] + [links[i] for i in idxs if i != 0]),
                size,
                activation_delay=0.0,
            )
            for idxs, size in flows
        ]
        sim.run()
        finish = max(f.completed_at for f in handles)
        total = sum(size for _, size in flows)
        lower_bound = total / links[0].trace.value_at(0.0)
        assert finish >= lower_bound * (1 - 1e-9)


class TestInstantaneousFairness:
    @settings(max_examples=60, deadline=None)
    @given(fluid_problems())
    def test_rates_are_maxmin_fair_at_start(self, problem):
        links, flows = problem
        sim = Simulator()
        net = FluidNetwork(sim)
        handles = [
            net.start_flow(
                Route([links[i] for i in idxs]), size, activation_delay=0.0
            )
            for idxs, size in flows
        ]
        # Process the activation + first allocation tick only.
        sim.run(until=0.0)
        active = [f for f in handles if f.rate > 0.0 or not f.done]
        if not active:
            return
        caps = np.array([l.trace.value_at(0.0) for l in links])
        inc = np.zeros((len(links), len(active)), dtype=bool)
        for j, flow in enumerate(active):
            for link in flow.route.links:
                inc[int(link.name[1:]), j] = True
        rates = np.array([f.rate for f in active])
        assert verify_maxmin(caps, inc, rates, rtol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(fluid_problems())
    def test_sanitizer_coords_match_the_dense_incidence(self, problem):
        """The coordinate lists the per-object tick hands the sanitizer and
        its sparse solve encode exactly the dense incidence of its per-flow
        link lists."""
        links, flows = problem
        sim = Simulator()
        net = FluidNetwork(sim)
        for idxs, size in flows:
            net.start_flow(Route([links[i] for i in idxs]), size, activation_delay=0.0)
        sim.run(until=0.0)
        state = net._alloc_state
        lids, frow = state.coords
        incidence = incidence_matrix(len(state.links), state.flow_links)
        assert lids.size == np.count_nonzero(incidence)
        dense = np.zeros_like(incidence)
        dense[lids, frow] = True
        assert np.array_equal(dense, incidence)


class TestSchedulingSanity:
    @settings(max_examples=40, deadline=None)
    @given(
        fluid_problems(),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_staggered_arrivals_all_complete(self, problem, gap):
        links, flows = problem
        sim = Simulator()
        net = FluidNetwork(sim)
        handles = []
        for k, (idxs, size) in enumerate(flows):
            handles.append(
                net.start_flow(
                    Route([links[i] for i in idxs]),
                    size,
                    activation_delay=k * gap,
                )
            )
        sim.run()
        assert all(f.completed_at is not None for f in handles)
        # Completions happen after activations.
        for f in handles:
            assert f.completed_at >= f.activated_at

    @settings(max_examples=30, deadline=None)
    @given(fluid_problems())
    def test_determinism(self, problem):
        links, flows = problem

        def run():
            sim = Simulator()
            net = FluidNetwork(sim)
            hs = [
                net.start_flow(
                    Route([links[i] for i in idxs]), size, activation_delay=0.0
                )
                for idxs, size in flows
            ]
            sim.run()
            return [h.completed_at for h in hs]

        assert run() == run()
