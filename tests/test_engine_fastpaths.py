"""Fast-path equivalence and engine-cache regression tests.

The fluid engine's fast paths claim to be *exactly* equivalent to the
reference semantics.  This suite holds them to that:

* :class:`TraceCursor` vs the ``searchsorted``-based ``CapacityTrace``
  lookups on random traces and random (including backward) query sequences;
* the link-name-collision guard: two distinct :class:`Link` objects sharing
  a name with *different* capacity traces must raise instead of silently
  merging into one constraint (regression test for an old silent merge);
* the allocation-state cache vs a from-scratch reference solve, under
  random flow churn over shared links, on the scalar solver and the sparse
  solve;
* the per-object tick's scalar solver, its sparse solve and the sanitized
  tick, bit-for-bit on one workload, and a concurrent-probe campaign's
  pinned bytes.
"""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Link
from repro.net.route import Route
from repro.net.trace import CapacityTrace, TraceCursor
from repro.sim.errors import TransferError
from repro.sim.simulator import Simulator
from repro.tcp import fluid
from repro.tcp.fluid import FluidNetwork
from repro.tcp.model import SlowStartRamp
from repro.vec.solver import waterfill_sparse
from tests.maxmin_oracle import maxmin_allocate


class TestDisjointFastPath:
    def test_disjoint_respects_caps(self):
        caps = np.array([100.0, 50.0])
        inc = np.array([[True, False], [False, True]])
        rates = maxmin_allocate(caps, inc, np.array([30.0, np.inf]))
        np.testing.assert_array_equal(rates, [30.0, 50.0])


@st.composite
def trace_and_queries(draw):
    """A random step trace plus a random (not necessarily sorted) query list."""
    n = draw(st.integers(min_value=1, max_value=8))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=50.0), min_size=n - 1, max_size=n - 1
        )
    )
    times = [0.0]
    for g in gaps:
        times.append(times[-1] + g)
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=n, max_size=n
        )
    )
    span = times[-1] + 10.0
    queries = draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=span), min_size=1, max_size=30
        )
    )
    return CapacityTrace(times, values), queries


class TestTraceCursor:
    @settings(max_examples=200, deadline=None)
    @given(trace_and_queries())
    def test_matches_searchsorted_forward(self, case):
        trace, queries = case
        cursor = TraceCursor(trace)
        for t in sorted(queries):
            assert cursor.value_at(t) == trace.value_at(t)
            assert cursor.next_change_after(t) == trace.next_change_after(t)

    @settings(max_examples=200, deadline=None)
    @given(trace_and_queries())
    def test_matches_searchsorted_any_order(self, case):
        # Backward seeks exercise the searchsorted fallback: the cursor's
        # contract is amortised O(1) for monotone queries but *correct* for
        # any order.
        trace, queries = case
        cursor = TraceCursor(trace)
        for t in queries:
            assert cursor.value_at(t) == trace.value_at(t)
            assert cursor.next_change_after(t) == trace.next_change_after(t)

    def test_explicit_backward_seek(self):
        trace = CapacityTrace([0.0, 1.0, 2.0], [10.0, 20.0, 30.0])
        cursor = TraceCursor(trace)
        assert cursor.value_at(5.0) == 30.0  # advance to the last piece
        assert cursor.value_at(0.5) == 10.0  # seek back to the first
        assert cursor.next_change_after(0.5) == 1.0
        assert cursor.value_at(1.5) == 20.0  # and forward again

    def test_cursor_constructor_and_trace_property(self):
        trace = CapacityTrace.constant(100.0)
        cursor = TraceCursor(trace)
        assert cursor.trace is trace
        assert cursor.value_at(0.0) == 100.0
        assert cursor.next_change_after(0.0) == float("inf")


class TestLinkNameCollision:
    """Two distinct Link objects sharing a name must agree on their trace.

    Links are keyed by name inside the engine, so distinct objects with one
    name silently become a single capacity constraint.  With equal traces
    that is the intended sharing idiom; with different traces one
    constraint would be dropped — the engine must raise.  ``vector`` runs
    the pair as a probe race's two routes on the vector core.
    """

    def _run_pair(self, link_a, link_b, vector=False):
        sim = Simulator()
        net = FluidNetwork(sim)
        routes = [Route([link_a]), Route([link_b])]
        if vector:
            ramp = SlowStartRamp(rtt=0.2)
            net.start_races(
                routes, [ramp, ramp], [1000.0], probe_bytes=500.0,
                direct=[0], relay=[1], size=[0], slot=[0], slot_times=[0.0],
            )
        else:
            for route in routes:
                net.start_flow(route, 1000.0, activation_delay=0.0)
        sim.run()

    @pytest.mark.parametrize("vector", [True, False])
    def test_conflicting_traces_raise(self, vector):
        link_a = Link("shared", "a", "b", CapacityTrace.constant(100.0))
        link_b = Link("shared", "a", "b", CapacityTrace.constant(200.0))
        with pytest.raises(TransferError, match="shared"):
            self._run_pair(link_a, link_b, vector)

    @pytest.mark.parametrize("vector", [True, False])
    def test_equal_traces_allowed(self, vector):
        # Distinct objects, equal traces: legitimate sharing, no error.
        link_a = Link("shared", "a", "b", CapacityTrace.constant(100.0))
        link_b = Link("shared", "a", "b", CapacityTrace.constant(100.0))
        self._run_pair(link_a, link_b, vector)

    def test_same_object_always_allowed(self):
        link = Link("shared", "a", "b", CapacityTrace.constant(100.0))
        self._run_pair(link, link)

    def test_conflict_detected_mid_run(self):
        # The second flow activates later, after the first alloc state was
        # built — the rebuild on activation must still catch the conflict.
        sim = Simulator()
        net = FluidNetwork(sim)
        link_a = Link("shared", "a", "b", CapacityTrace.constant(1000.0))
        link_b = Link("shared", "a", "b", CapacityTrace.constant(2000.0))
        net.start_flow(Route([link_a]), 1e6, activation_delay=0.0)
        net.start_flow(Route([link_b]), 1e6, activation_delay=10.0)
        with pytest.raises(TransferError, match="shared"):
            sim.run()


class TestEngineModeEquivalence:
    """The per-object tick's scalar solver, its sparse solve and the
    sanitized tick must be byte-identical in output.

    The sanitized leg runs the same solvers and checks every allocation
    against the max-min certificate.
    """

    def _transfer_times(self, *, sparse=False, sanitize=False):
        sim = Simulator(sanitize=sanitize)
        net = FluidNetwork(sim)
        shared = Link(
            "shared",
            "a",
            "b",
            CapacityTrace([0.0, 5.0, 12.0], [1000.0, 400.0, 1500.0]),
        )
        private = [
            Link(f"p{i}", "b", "c", CapacityTrace.constant(300.0 + 100.0 * i))
            for i in range(3)
        ]
        flows = [
            net.start_flow(
                Route([shared, private[i]]), 5e3 * (i + 1), activation_delay=0.3 * i
            )
            for i in range(3)
        ]
        flows.append(net.start_flow(Route([private[0]]), 2e3, activation_delay=0.1))
        bound = 0 if sparse else fluid._SCALAR_MAX_FLOWS
        with mock.patch.object(fluid, "_SCALAR_MAX_FLOWS", bound):
            sim.run()
        return [f.completed_at for f in flows]

    def test_byte_identical_completion_times(self):
        classic = self._transfer_times()
        # Exact float equality, not approx.
        assert self._transfer_times(sparse=True) == classic
        assert self._transfer_times(sanitize=True) == classic


#: Links of the churn oracle test: integer capacity steps on a whole-second
#: grid, so distinct fair shares are far apart: the solvers merge water
#: levels within 1e-9 relative slack, where the disjoint rule keeps each
#: exact bottleneck.
_CHURN_LINKS = 4
_CHURN_HORIZON = 8


@st.composite
def churn_workloads(draw):
    """Step traces on a few links plus flows that start, abort and finish."""
    traces = [
        CapacityTrace(
            [float(t) for t in range(_CHURN_HORIZON)],
            [
                100.0 * draw(st.integers(min_value=1, max_value=40))
                for _ in range(_CHURN_HORIZON)
            ],
        )
        for _ in range(_CHURN_LINKS)
    ]
    flows = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.integers(min_value=0, max_value=_CHURN_LINKS - 1),
                    min_size=1,
                    max_size=3,
                    unique=True,
                ),
                st.integers(min_value=1, max_value=40),  # size, kB
                st.integers(min_value=0, max_value=2 * _CHURN_HORIZON),  # start, half-s
                st.none() | st.integers(min_value=0, max_value=2 * _CHURN_HORIZON),
                st.booleans(),  # slow-start ramp
            ),
            min_size=1,
            max_size=8,
        )
    )
    return traces, flows


class TestAllocCacheOracle:
    """The cached allocation state never drifts from a from-scratch solve.

    Flows activate, abort and complete over shared links with stepped
    capacities.  At sampled instants, strictly between engine events, every
    active flow's rate must equal ``waterfill_sparse`` run on freshly
    built inputs: links in first-use order, capacities from
    ``CapacityTrace.value_at`` and caps from each flow's ramp.  With
    ``sparse`` every shared solve runs ``waterfill_sparse`` over the cached
    coordinate lists instead of ``maxmin_scalar``.
    """

    @staticmethod
    def _reference_rates(flows, now):
        links, index = [], {}
        for flow in flows:
            for link in flow.route.links:
                if link.name not in index:
                    index[link.name] = len(links)
                    links.append(link)
        lids = np.array(
            [index[link.name] for flow in flows for link in flow.route.links],
            dtype=np.int64,
        )
        frow = np.repeat(
            np.arange(len(flows), dtype=np.int64),
            [len(flow.route.links) for flow in flows],
        )
        capacities = np.array([link.trace.value_at(now) for link in links])
        caps = np.array([flow.cap_at(now) for flow in flows])
        return waterfill_sparse(capacities, lids, frow, len(flows), caps)[0]

    @pytest.mark.parametrize("sparse", [False, True])
    @given(workload=churn_workloads())
    @settings(max_examples=40, deadline=None)
    def test_rates_match_reference_solve(self, sparse, workload):
        traces, specs = workload
        sim = Simulator()
        net = FluidNetwork(sim)
        links = [Link(f"l{i}", "a", "b", trace) for i, trace in enumerate(traces)]
        for route_idx, size_kb, start, abort, ramped in specs:
            flow = net.start_flow(
                Route([links[i] for i in route_idx]),
                1000.0 * size_kb,
                ramp=SlowStartRamp(rtt=0.2) if ramped else None,
                activation_delay=0.5 * start,
            )
            if abort is not None:
                # Quarter-second offsets: never the instant of a start.
                sim.schedule_at(0.5 * abort + 0.25, lambda f=flow: net.abort_flow(f))

        def check():
            active = list(net._active.values())
            if active:
                expected = self._reference_rates(active, sim.now)
                assert [f.rate for f in active] == expected.tolist()

        # Irrational offsets keep every sample strictly between engine events.
        for i in range(40):
            sim.schedule_at(0.1 + i / math.pi * 0.8, check)
        bound = 0 if sparse else fluid._SCALAR_MAX_FLOWS
        with mock.patch.object(fluid, "_SCALAR_MAX_FLOWS", bound):
            sim.run()


#: sha256 of the JSONL a concurrent-probe §4 run writes (see
#: ``TestConcurrentProbeDigest``).  Its probe races put 13-39 flows on a
#: client's access link and freeze many caps on it in one round, so the
#: bytes rest on every shared solve's summation order.
CONCURRENT_PROBE_DIGEST = "dc142cdfe84a4ca5444677c5553b3453a17e5ebfb17c822ef4795420af8a3a94"


class TestConcurrentProbeDigest:
    """A §4 campaign that races all k candidate probes at once writes
    pinned bytes."""

    def test_records_are_pinned(self, section4_scenario, tmp_path):
        from repro.core.random_set import UniformRandomSetPolicy
        from repro.trace.store import TraceStore
        from repro.workloads.experiment import Section4Study
        from repro.workloads.studies import STUDY_SESSION_CONFIG

        study = Section4Study(
            section4_scenario, repetitions=40, config=STUDY_SESSION_CONFIG
        )
        records = [
            r
            for k in (4, 10, 16, 24, 35)
            for r in study.run_policy(UniformRandomSetPolicy(k), clients=["Duke", "Italy"])
        ]
        store = TraceStore(sorted(records, key=lambda r: r.sort_key))
        path = tmp_path / "concurrent.jsonl"
        store.save_jsonl(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert len(store) == 400
        assert digest == CONCURRENT_PROBE_DIGEST
