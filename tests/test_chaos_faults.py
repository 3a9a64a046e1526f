"""Chaos fault-injection tests: trace rewrites, plans, and engine identity.

Covers the `repro.chaos.faults` taxonomy (gray / flap / correlated /
partition), the `apply_fault_windows` edge cases the chaos layer leans on
(zero-length windows, back-to-back windows sharing a breakpoint), and the
requirement that both engine paths see identical fault conditions: the
classic per-object oracle and the vectorised SoA core must produce
bit-identical results over fault-rewritten traces.
"""

import numpy as np
import pytest

from repro.chaos.faults import (
    FAULT_FAMILIES,
    compile_fault_plan,
    degraded_seconds,
    flapping_windows,
    intensity_params,
    plan_spans,
)
from repro.net.failures import FaultWindow, apply_fault_windows, blackout_spans
from repro.net.link import Link
from repro.net.route import Route
from repro.net.trace import CapacityTrace
from repro.sim.simulator import Simulator
from repro.tcp.fluid import FluidNetwork
from repro.tcp.model import SlowStartRamp
from tests.fault_oracle import loop_fault_windows
from tests.scale_oracle import start_oracle_races


class TestFaultWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultWindow(start=-1.0, duration=5.0)
        with pytest.raises(ValueError):
            FaultWindow(start=0.0, duration=-1.0)
        with pytest.raises(ValueError):
            FaultWindow(start=0.0, duration=5.0, factor=1.0)  # no-op forbidden
        with pytest.raises(ValueError):
            FaultWindow(start=0.0, duration=5.0, factor=-0.1)

    def test_zero_length_is_legal(self):
        w = FaultWindow(start=3.0, duration=0.0)
        assert w.end == 3.0
        assert not w.overlaps(0.0, 10.0)

    def test_blackout_and_overlap(self):
        w = FaultWindow(start=10.0, duration=5.0, factor=0.5)
        assert not w.is_blackout
        assert w.overlaps(12.0, 20.0)
        assert not w.overlaps(15.0, 20.0)  # half-open: end excluded


class TestApplyFaultWindows:
    def test_gray_window_on_constant_trace(self):
        trace = CapacityTrace.constant(1000.0)
        out = apply_fault_windows(trace, [FaultWindow(10.0, 20.0, factor=0.25)])
        assert out.value_at(5.0) == 1000.0
        assert out.value_at(10.0) == 250.0
        assert out.value_at(29.999) == 250.0
        assert out.value_at(30.0) == 1000.0

    def test_interior_breakpoints_scaled_not_swallowed(self):
        # The underlying trace halves at t=15, inside the window: the gray
        # rewrite must preserve that shape at reduced amplitude.
        trace = CapacityTrace([0.0, 15.0], [1000.0, 500.0])
        out = apply_fault_windows(trace, [FaultWindow(10.0, 20.0, factor=0.5)])
        assert out.value_at(12.0) == 500.0
        assert out.value_at(16.0) == 250.0
        assert out.value_at(30.0) == 500.0

    def test_blackout_output_is_exact(self):
        # Blackouts swallow interior breakpoints (their scaled zeros
        # coalesce away) and resume the underlying value at each end.
        trace = CapacityTrace([0.0, 50.0, 200.0], [2000.0, 800.0, 1600.0])
        windows = [FaultWindow(30.0, 40.0, 0.0), FaultWindow(120.0, 30.0, 0.0)]
        out = apply_fault_windows(trace, windows)
        assert list(out.times) == [0.0, 30.0, 70.0, 120.0, 150.0, 200.0]
        assert list(out.values) == [2000.0, 0.0, 800.0, 0.0, 800.0, 1600.0]

    def test_zero_length_windows_dropped(self):
        trace = CapacityTrace.constant(1000.0)
        out = apply_fault_windows(trace, [FaultWindow(10.0, 0.0)])
        assert list(out.times) == list(trace.times)
        assert list(out.values) == list(trace.values)

    def test_back_to_back_windows_share_breakpoint(self):
        # A blackout ending exactly where a gray window starts: the shared
        # instant must carry the gray value, never a resumed full-capacity
        # sliver or an inverted (dropped) blackout.
        trace = CapacityTrace.constant(1000.0)
        out = apply_fault_windows(
            trace,
            [FaultWindow(10.0, 10.0, 0.0), FaultWindow(20.0, 10.0, 0.5)],
        )
        assert out.value_at(15.0) == 0.0
        assert out.value_at(20.0) == 500.0
        assert out.value_at(30.0) == 1000.0
        assert list(out.times) == [0.0, 10.0, 20.0, 30.0]

    def test_overlapping_windows_rejected(self):
        trace = CapacityTrace.constant(1000.0)
        with pytest.raises(ValueError, match="overlap"):
            apply_fault_windows(
                trace,
                [FaultWindow(10.0, 10.0), FaultWindow(15.0, 10.0)],
            )


class TestApplyOutagesEdgeCases:
    """Regressions in the blackout path every fault study builds on."""

    def test_zero_length_outage_constructable_and_inert(self):
        trace = CapacityTrace.constant(1000.0)
        out = apply_fault_windows(trace, [FaultWindow(10.0, 0.0)])
        assert list(out.times) == list(trace.times)
        assert list(out.values) == list(trace.values)
        # And mixed with a real outage, only the real one lands.
        out = apply_fault_windows(
            trace, [FaultWindow(10.0, 0.0), FaultWindow(20.0, 5.0)]
        )
        assert out.value_at(10.0) == 1000.0
        assert out.value_at(22.0) == 0.0
        assert out.value_at(25.0) == 1000.0

    def test_zero_length_outage_at_existing_breakpoint_no_inversion(self):
        # The historical hazard: a zero-length window at an existing
        # breakpoint would insert duplicate times whose keep-last dedup
        # could discard the wrong value.  It must be a pure no-op.
        trace = CapacityTrace([0.0, 10.0], [1000.0, 400.0])
        out = apply_fault_windows(trace, [FaultWindow(10.0, 0.0)])
        assert out.value_at(10.0) == 400.0
        assert list(out.times) == [0.0, 10.0]

    def test_back_to_back_outages_stay_dark(self):
        trace = CapacityTrace.constant(1000.0)
        out = apply_fault_windows(
            trace, [FaultWindow(10.0, 10.0), FaultWindow(20.0, 10.0)]
        )
        assert out.value_at(15.0) == 0.0
        assert out.value_at(20.0) == 0.0  # no full-capacity sliver at the seam
        assert out.value_at(29.999) == 0.0
        assert out.value_at(30.0) == 1000.0


def _fuzz_case(rng):
    """A random trace and window list: gray, blackout, back-to-back,
    zero-length, breakpoint-aligned and past-the-end windows."""
    n = int(rng.integers(1, 10))
    if rng.random() < 0.5:  # integer grid: windows land on breakpoints
        times = np.unique(np.concatenate(([0.0], rng.integers(1, 40, n - 1))))
    else:
        times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 40.0, n - 1))))
    if rng.random() < 0.5:  # few distinct values: resumes repeat values
        values = rng.choice([0.0, 1.0, 250.0, 1000.0], times.size)
    else:
        values = rng.uniform(0.0, 1.0e6, times.size)
    trace = CapacityTrace(times, values)
    windows = []
    cursor = float(rng.uniform(0.0, 5.0))
    for _ in range(int(rng.integers(0, 5))):
        later = times[times >= cursor]
        if later.size and rng.random() < 0.3:
            start = float(rng.choice(later))
        else:
            start = cursor + float(rng.choice([0.0, rng.uniform(0.0, 15.0)]))
        pick = rng.random()
        if pick < 0.15:
            duration = 0.0
        elif pick < 0.35 and (times > start).any():
            duration = float(rng.choice(times[times > start])) - start
        elif pick < 0.45:
            duration = float(rng.uniform(40.0, 80.0))  # runs past the end
        else:
            duration = float(rng.uniform(0.1, 12.0))
        factor = float(rng.choice([0.0, 0.0, 0.25, 0.5, rng.uniform(0.0, 1.0)]))
        windows.append(FaultWindow(start, duration, factor))
        cursor = start + duration
    if len(windows) > 1 and rng.random() < 0.05:
        w = windows[-1]
        windows.append(FaultWindow(w.start, w.duration + 1.0))  # overlap
    rng.shuffle(windows)
    return trace, windows


class TestRewriteMatchesLoopOracle:
    """The vectorised rewrite reproduces the breakpoint loop bit for bit."""

    @staticmethod
    def _assert_identical(trace, windows):
        try:
            expected = loop_fault_windows(trace, windows)
        except ValueError:
            with pytest.raises(ValueError, match="overlap"):
                apply_fault_windows(trace, windows)
            return
        out = apply_fault_windows(trace, windows)
        assert out.times.tobytes() == expected.times.tobytes(), (trace, windows)
        assert out.values.tobytes() == expected.values.tobytes(), (trace, windows)

    def test_seeded_fuzz(self):
        rng = np.random.default_rng(20070326)
        for _ in range(6000):
            self._assert_identical(*_fuzz_case(rng))

    @pytest.mark.parametrize(
        "windows",
        [
            # The end rounds back onto the start: a breakpoint pair at one
            # time, which the trace constructor collapses.
            [FaultWindow(2.0**60, 1.0, factor=0.5)],
            [FaultWindow(5.0, 5.0), FaultWindow(10.0, 5.0, factor=0.5)],
            [FaultWindow(0.0, 100.0, factor=0.25)],
            [FaultWindow(30.0, 1.0), FaultWindow(31.0, 0.0), FaultWindow(31.0, 2.0)],
        ],
    )
    def test_edge_cases(self, windows):
        trace = CapacityTrace([0.0, 10.0, 20.0, 30.0], [8.0, 4.0, 8.0, 2.0])
        self._assert_identical(trace, windows)


class TestFlappingWindows:
    def test_duty_cycle_shape(self):
        windows = flapping_windows(100.0, 120.0, period=60.0, duty=0.5)
        assert [(w.start, w.end) for w in windows] == [
            (100.0, 130.0),
            (160.0, 190.0),
        ]
        assert all(w.is_blackout for w in windows)

    def test_final_window_clipped(self):
        windows = flapping_windows(0.0, 70.0, period=60.0, duty=0.5)
        assert [(w.start, w.end) for w in windows] == [(0.0, 30.0), (60.0, 70.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            flapping_windows(0.0, 100.0, period=0.0, duty=0.5)
        with pytest.raises(ValueError):
            flapping_windows(0.0, 100.0, period=60.0, duty=1.0)


class TestCompileFaultPlan:
    LINKS = dict(
        direct_link="wan:eBay->Italy",
        overlay_link="wan:relay0->Italy",
        egress_links=["wan:eBay->relay0", "wan:eBay->relay1"],
    )

    def test_none_is_empty(self):
        assert compile_fault_plan("none", "mild", onset=10.0, **self.LINKS) == {}

    def test_gray_targets_both_transfer_paths(self):
        plan = compile_fault_plan("gray", "severe", onset=10.0, **self.LINKS)
        assert set(plan) == {"wan:eBay->Italy", "wan:relay0->Italy"}
        p = intensity_params("severe")
        for windows in plan.values():
            assert [(w.start, w.duration, w.factor) for w in windows] == [
                (10.0, p.duration, p.gray_factor)
            ]

    def test_correlated_takes_down_shared_egress_bundle(self):
        plan = compile_fault_plan("correlated", "mild", onset=5.0, **self.LINKS)
        assert list(plan) == [
            "wan:eBay->Italy",
            "wan:eBay->relay0",
            "wan:eBay->relay1",
        ]
        assert all(w.is_blackout for ws in plan.values() for w in ws)

    def test_partition_severs_primary_ingress_only(self):
        plan = compile_fault_plan("partition", "mild", onset=5.0, **self.LINKS)
        assert list(plan) == ["wan:eBay->Italy", "wan:eBay->relay0"]

    def test_flap_compiles_duty_cycle(self):
        plan = compile_fault_plan("flap", "mild", onset=0.0, **self.LINKS)
        p = intensity_params("mild")
        n_expected = int(np.ceil(p.duration / p.flap_period))
        assert len(plan["wan:eBay->Italy"]) == n_expected

    def test_unknown_family_and_empty_egress(self):
        with pytest.raises(ValueError, match="unknown fault family"):
            compile_fault_plan("meteor", "mild", onset=0.0, **self.LINKS)
        with pytest.raises(ValueError, match="egress_links"):
            compile_fault_plan(
                "correlated",
                "mild",
                direct_link="d",
                overlay_link="o",
                egress_links=[],
                onset=0.0,
            )

    def test_all_families_compile(self):
        for family in FAULT_FAMILIES:
            for intensity in ("mild", "severe"):
                compile_fault_plan(family, intensity, onset=1.0, **self.LINKS)


class TestSpans:
    def test_blackout_spans_exclude_gray(self):
        plan = {
            "a": [FaultWindow(10.0, 10.0, 0.0), FaultWindow(30.0, 10.0, 0.5)],
            "b": [FaultWindow(0.0, 0.0, 0.0)],  # zero-length: excluded
        }
        assert blackout_spans(plan) == {"a": [(10.0, 20.0)]}

    def test_plan_spans_fuse_across_links(self):
        plan = {
            "a": [FaultWindow(10.0, 10.0, 0.0)],
            "b": [FaultWindow(15.0, 10.0, 0.5), FaultWindow(40.0, 5.0, 0.0)],
        }
        assert plan_spans(plan) == [(10.0, 25.0), (40.0, 45.0)]

    def test_degraded_seconds_clips_to_interval(self):
        spans = [(10.0, 25.0), (40.0, 45.0)]
        assert degraded_seconds(spans, 0.0, 100.0) == 20.0
        assert degraded_seconds(spans, 20.0, 42.0) == 7.0
        assert degraded_seconds(spans, 26.0, 39.0) == 0.0
        with pytest.raises(ValueError):
            degraded_seconds(spans, 10.0, 5.0)


# --------------------------------------------------------------------------- #
# engine identity over fault-rewritten traces
# --------------------------------------------------------------------------- #
def _run_engines(links, flow_specs):
    """Race clients over the flows' routes on identical faulted links, as
    columns on the vector core and as the per-object oracle; return each
    race's result columns.

    Client ``i`` starts at flow ``i``'s delay, races flow ``i``'s route
    (direct) against the next flow's (relay) and fetches flow ``i``'s
    size over the winner.
    """
    routes = [Route([links[j] for j in route_idx]) for route_idx, _, _ in flow_specs]
    n = len(flow_specs)
    args = dict(
        routes=routes,
        ramps=[SlowStartRamp(rtt=route.rtt) for route in routes],
        sizes=[size for _, size, _ in flow_specs],
        probe_bytes=2e4,
        direct=list(range(n)),
        relay=[(i + 1) % n for i in range(n)],
        size=list(range(n)),
        slot=list(range(n)),
        slot_times=[delay for _, _, delay in flow_specs],
    )
    results = []
    for start in (start_oracle_races, FluidNetwork.start_races):
        sim = Simulator()
        race = start(FluidNetwork(sim), **args)
        sim.run()
        assert race.n_completed == n
        results.append((
            race.latency.tolist(), race.throughput.tolist(),
            race.indirect.tolist(), race.probe_overhead_sum, sim.now,
        ))
    return results


class TestEngineIdentityUnderFaults:
    """A race on the vector core must match the per-object oracle bitwise
    on faulted traces."""

    def _links(self, windows_by_index):
        base = CapacityTrace([0.0, 60.0], [2.0e6, 1.0e6])
        links = []
        for i in range(4):
            trace = apply_fault_windows(base, windows_by_index.get(i, []))
            links.append(Link(f"l{i}", f"a{i}", f"b{i}", trace, delay=0.01))
        return links

    FLOWS = [
        ((0, 1), 5.0e6, 0.0),
        ((1, 2), 8.0e6, 2.0),
        ((2, 3), 3.0e6, 5.0),
        ((0, 3), 6.0e6, 11.0),
    ]

    def test_gray_window_identity(self):
        links = self._links({1: [FaultWindow(4.0, 30.0, factor=0.1)]})
        classic, vector = _run_engines(links, self.FLOWS)
        assert vector == classic

    def test_blackout_window_identity(self):
        links = self._links({0: [FaultWindow(3.0, 20.0, factor=0.0)]})
        classic, vector = _run_engines(links, self.FLOWS)
        assert vector == classic

    def test_flap_identity(self):
        flaps = flapping_windows(2.0, 40.0, period=8.0, duty=0.5)
        links = self._links({2: flaps})
        classic, vector = _run_engines(links, self.FLOWS)
        assert vector == classic

    def test_correlated_multi_link_identity(self):
        black = [FaultWindow(6.0, 25.0, factor=0.0)]
        gray = [FaultWindow(6.0, 25.0, factor=0.2)]
        links = self._links({0: black, 1: black, 3: gray})
        classic, vector = _run_engines(links, self.FLOWS)
        assert vector == classic
