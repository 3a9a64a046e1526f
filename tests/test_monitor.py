"""Path monitor and monitored-study tests."""

import pytest

from repro.overlay.monitor import PathMonitor
from repro.util.units import kb
from repro.workloads.monitored import MonitoredStudy


def make_monitor(w, *, period=30.0, horizon=float("inf"), probe_bytes=kb(20)):
    sim, net, _ = w.universe()
    paths = [w.builder.direct("C", "S")] + w.builder.all_indirect("C", "S")
    monitor = PathMonitor(
        net, paths, "/f", period=period, probe_bytes=probe_bytes, horizon=horizon
    )
    return sim, net, monitor


class TestPathMonitor:
    def test_estimates_populate_within_one_period(self, mini_world):
        w = mini_world(direct_mbps=1.0, relay_mbps={"R1": 2.0, "R2": 0.5})
        sim, net, monitor = make_monitor(w)
        monitor.start()
        sim.run(until=35.0)
        assert monitor._estimates.get("direct") is not None
        assert monitor._estimates.get("R1") is not None
        assert monitor._estimates.get("R2") is not None

    def test_ranking_matches_capacities(self, mini_world):
        # Probe must outlast slow start to rank by capacity (the paper's
        # x=100KB lesson applies to monitoring probes as well).
        w = mini_world(direct_mbps=1.0, relay_mbps={"R1": 3.0, "R2": 0.5})
        sim, net, monitor = make_monitor(w, probe_bytes=kb(150))
        monitor.start()
        sim.run(until=65.0)
        fresh = monitor.fresh_estimates()
        assert fresh[0].label == "R1"
        assert monitor.best_path() == "R1"
        assert monitor.best_path(among=["R2", "direct"]) == "direct"

    def test_estimates_refresh(self, mini_world):
        w = mini_world()
        sim, net, monitor = make_monitor(w, period=20.0)
        monitor.start()
        sim.run(until=25.0)
        first = monitor._estimates.get("direct").measured_at
        sim.run(until=45.0)
        assert monitor._estimates.get("direct").measured_at > first

    def test_horizon_stops_probing(self, mini_world):
        w = mini_world()
        sim, net, monitor = make_monitor(w, period=10.0, horizon=35.0)
        monitor.start()
        sim.run()
        assert sim.now < 60.0  # queue drained shortly after the horizon
        assert monitor.probes_completed <= 4 * len(monitor._paths)

    def test_overhead_accounting(self, mini_world):
        w = mini_world(relay_mbps={"R1": 2.0})
        sim, net, monitor = make_monitor(w, period=30.0, horizon=100.0)
        monitor.start()
        sim.run()
        assert monitor.probe_bytes_sent == pytest.approx(
            monitor.probes_completed * kb(20)
        )
        assert monitor.probes_completed >= 6  # 2 paths x 3+ rounds

    def test_stale_entries_excluded(self, mini_world):
        w = mini_world()
        sim, net, monitor = make_monitor(w, period=10.0, horizon=15.0)
        monitor.start()
        sim.run()
        # Long after the horizon every estimate is stale.
        assert monitor.fresh_estimates(now=sim.now + 10_000.0) == []
        assert monitor.best_path() is None or sim.now < 45.0

    def test_start_twice_rejected(self, mini_world):
        w = mini_world()
        sim, net, monitor = make_monitor(w)
        monitor.start()
        with pytest.raises(RuntimeError):
            monitor.start()

    def test_duplicate_paths_rejected(self, mini_world):
        w = mini_world()
        sim, net, _ = w.universe()
        p = w.builder.direct("C", "S")
        with pytest.raises(ValueError, match="distinct"):
            PathMonitor(net, [p, p], "/f")

    def test_dead_path_keeps_being_retried(self, mini_world):
        from repro.net.trace import CapacityTrace

        # Direct path dead until t=100, then 1 Mbps.
        trace = CapacityTrace([0.0, 100.0], [0.0, 125_000.0])
        w = mini_world(direct_trace=trace, relay_mbps={"R1": 2.0})
        sim, net, monitor = make_monitor(w, period=20.0, horizon=150.0)
        monitor.start()
        sim.run(until=90.0)
        assert monitor._estimates.get("direct") is None  # probes stuck so far
        assert monitor.best_path() == "R1"
        sim.run(until=160.0)
        assert monitor._estimates.get("direct") is not None  # recovered


class TestMonitoredStudy:
    def test_runs_and_records(self, section2_scenario):
        study = MonitoredStudy(section2_scenario, repetitions=5)
        store = study.run(clients=["Italy", "Sweden"])
        assert len(store) == 10
        assert all(r.study == "monitored" for r in store)
        assert all(r.direct_throughput > 0 for r in store)

    def test_monitor_mostly_picks_plausible_paths(self, section2_scenario):
        study = MonitoredStudy(section2_scenario, repetitions=6)
        store = study.run(clients=["Italy"])
        # The monitor selects from stale-but-real measurements: realised
        # throughput should rarely collapse far below the control.
        import numpy as np

        ratios = store.column("selected_throughput") / store.column(
            "direct_throughput"
        )
        assert float(np.median(ratios)) >= 0.6

    def test_schedule_validation(self, section2_scenario):
        with pytest.raises(ValueError):
            MonitoredStudy(section2_scenario, repetitions=0)
        with pytest.raises(ValueError, match="horizon"):
            MonitoredStudy(section2_scenario, repetitions=10**6)
