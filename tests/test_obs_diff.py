"""repro.obs.diff tests: alignment, tolerances, wall-clock gating."""

import math

from repro.core.resilience import ResilienceConfig
from repro.core.session import SessionConfig, TransferSession
from repro.http.transfer import TcpParams
from repro.obs.core import Histogram, Observer
from repro.obs.diff import DiffTolerances, diff_traces, render_diff
from repro.obs.export import ObsTrace
from repro.sim.simulator import Simulator
from repro.tcp.fluid import FluidNetwork

CONFIG = SessionConfig(
    tcp=TcpParams(max_window=262_144.0),
    resilience=ResilienceConfig(probe_deadline=30.0),
)


def _run_world(world):
    """One observed download; returns the isolated trace."""
    obs = Observer()
    sim = Simulator(observer=obs)
    net = FluidNetwork(sim)
    session = TransferSession(net, world.builder, CONFIG)
    session.download("C", "S", "/f", ["R1"])
    return ObsTrace.from_observer(obs)


def _toy_trace(*, rate=1.0, extra_counter=0.0, sample=5.0):
    obs = Observer()
    obs.span("transfer", "full:direct", 0.0, 8.0 / rate, path="direct")
    obs.span("session", "C->S", 0.0, 8.0 / rate, outcome="completed")
    obs.count("session.outcome.completed")
    if extra_counter:
        obs.count("protocol.reprobe", extra_counter)
    obs.gauge("engine.flows.peak", 2.0 * rate)
    obs.observe_value("session.duration", sample)
    return ObsTrace.from_observer(obs)


class TestDiffTraces:
    def test_identical_traces_are_clean(self):
        diff = diff_traces(_toy_trace(), _toy_trace())
        assert diff.clean
        assert diff.items  # aligned quantities were actually compared
        assert all(i.within for i in diff.items)
        assert "zero drift" in render_diff(diff)

    def test_span_duration_drift_flags_category(self):
        diff = diff_traces(_toy_trace(rate=1.0), _toy_trace(rate=2.0))
        assert not diff.clean
        cats = diff.drift_categories()
        assert "transfer" in cats and "session" in cats
        text = render_diff(diff)
        assert "drift in" in text and "transfer" in text

    def test_counter_present_on_one_side_compares_against_zero(self):
        diff = diff_traces(_toy_trace(), _toy_trace(extra_counter=3.0))
        drifted = {(i.axis, i.name): i for i in diff.drifted}
        item = drifted[("counter", "protocol.reprobe")]
        assert item.a == 0.0 and item.b == 3.0

    def test_gauge_drift(self):
        diff = diff_traces(_toy_trace(), _toy_trace(rate=2.0))
        names = {i.name for i in diff.drifted if i.axis == "gauge"}
        assert "engine.flows.peak" in names

    def test_histogram_quantile_drift(self):
        diff = diff_traces(_toy_trace(sample=5.0), _toy_trace(sample=50.0))
        stats = {i.stat for i in diff.drifted if i.axis == "histogram"}
        assert "sum" in stats
        assert "p99" in stats

    def test_tolerances_absorb_small_drift(self):
        tol = DiffTolerances(
            counter_rel=0.5,
            duration_rel=0.6,
            quantile_rel=1.0,
        )
        diff = diff_traces(_toy_trace(rate=1.0), _toy_trace(rate=2.0), tol)
        # Counts still match exactly; every toleranced axis is absorbed.
        assert diff.clean

    def test_duration_abs_tolerance(self):
        a, b = _toy_trace(rate=1.0), _toy_trace(rate=2.0)
        assert not diff_traces(a, b, DiffTolerances(quantile_rel=1.0, counter_rel=1.0)).clean
        assert diff_traces(
            a, b, DiffTolerances(duration_abs=10.0, quantile_rel=1.0, counter_rel=1.0)
        ).clean

    def test_nan_on_both_sides_is_clean(self):
        tol = DiffTolerances()
        assert tol.within(math.nan, math.nan, rel=0.0, abs_tol=0.0)
        assert not tol.within(math.nan, 1.0, rel=0.0, abs_tol=0.0)


class TestWallclockGating:
    def _with_unit_span(self, seconds):
        obs = Observer()
        obs.span("transfer", "full:direct", 0.0, 4.0, path="direct")
        obs.span("session", "C->S", 0.0, 4.0, outcome="completed")
        obs.span("unit", "u0", 0.0, seconds, track="worker-1", index=0)
        obs.count("runner.units", 1.0)
        obs.count("session.outcome.completed")
        return ObsTrace.from_observer(obs)

    def test_wallclock_deltas_not_gated_by_default(self):
        diff = diff_traces(self._with_unit_span(0.5), self._with_unit_span(0.9))
        assert diff.clean  # the unit-span and runner.* deltas are ungated
        ungated = [i for i in diff.items if not i.gated and not i.within]
        assert ungated
        assert "wall-clock-domain" in render_diff(diff)

    def test_include_wallclock_gates_them(self):
        diff = diff_traces(
            self._with_unit_span(0.5),
            self._with_unit_span(0.9),
            include_wallclock=True,
        )
        assert not diff.clean


class TestSeededPerturbation:
    def test_capacity_perturbation_flags_transfer_category(self, mini_world):
        # Same topology, one seeded difference: the relay's capacity.  The
        # diff must attribute the drift to the transfer spans (acceptance
        # criterion for repro.obs.insight).
        base = _run_world(mini_world(direct_mbps=1.0, relay_mbps={"R1": 8.0}))
        perturbed = _run_world(mini_world(direct_mbps=1.0, relay_mbps={"R1": 6.0}))
        diff = diff_traces(base, perturbed)
        assert not diff.clean
        assert "transfer" in diff.drift_categories()

    def test_identical_seeded_runs_are_byte_identical(self, mini_world):
        a = _run_world(mini_world(direct_mbps=1.0, relay_mbps={"R1": 8.0}))
        b = _run_world(mini_world(direct_mbps=1.0, relay_mbps={"R1": 8.0}))
        diff = diff_traces(a, b)
        assert diff.clean
        assert all(i.within for i in diff.items)  # even ungated axes match


class TestHistogramAlignment:
    def test_mismatched_bounds_still_compare_quantiles(self):
        a = ObsTrace(histograms={"h": Histogram([1.0, 10.0])})
        b = ObsTrace(histograms={"h": Histogram([2.0, 20.0])})
        a.histograms["h"].observe(5.0)
        b.histograms["h"].observe(5.0)
        diff = diff_traces(a, b)
        item = {(i.axis, i.stat): i for i in diff.items}[("histogram", "count")]
        assert item.within

    def test_missing_histogram_side(self):
        a = ObsTrace(histograms={"h": Histogram([1.0])})
        a.histograms["h"].observe(0.5)
        diff = diff_traces(a, ObsTrace())
        assert not diff.clean
        assert any(i.axis == "histogram" and i.name == "h" for i in diff.drifted)


class TestRender:
    def test_verbose_lists_clean_lines(self):
        diff = diff_traces(_toy_trace(), _toy_trace())
        quiet = render_diff(diff)
        loud = render_diff(diff, verbose=True)
        assert len(loud.splitlines()) > len(quiet.splitlines())
