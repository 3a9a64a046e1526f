"""RON-style monitored operation: route from background state, never probe.

The paper's mechanism measures *at transfer time*; RON (ref [1]) instead
monitors all paths continuously and routes from the freshest table entry.
:class:`MonitoredStudy` runs the RON mode on our substrate:

* one long-lived universe per client, with a :class:`PathMonitor`
  background-probing the direct path and every relay;
* at each scheduled transfer, the client fetches the whole file over the
  monitor's current best path (no selection probe);
* the control client runs in a separate clean universe as usual.

Comparing the resulting records against the probe-per-transfer study
quantifies the freshness-vs-overhead trade-off between the two designs
(ablation bench A9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.session import SessionConfig
from repro.overlay.monitor import PathMonitor
from repro.trace.records import TransferRecord
from repro.trace.store import TraceStore
from repro.util.units import kb
from repro.workloads.studies import STUDY_SESSION_CONFIG
from repro.workloads.scenario import Scenario

__all__ = ["MonitoredStudy"]


@dataclass
class MonitoredStudy:
    """Background-monitoring selection over a §2-style schedule.

    Parameters
    ----------
    scenario:
        The test-bed.
    repetitions / interval:
        Per-client transfer schedule.
    monitor_period:
        Seconds between probes of the same path.
    monitor_probe_bytes:
        Size of each background probe.
    config:
        TCP parameters for the foreground transfers.
    """

    scenario: Scenario
    repetitions: int = 15
    interval: float = 360.0
    monitor_period: float = 120.0
    monitor_probe_bytes: float = kb(30)
    config: SessionConfig = STUDY_SESSION_CONFIG

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.interval <= 0.0:
            raise ValueError("interval must be positive")
        needed = self.repetitions * self.interval
        if needed > self.scenario.spec.horizon:
            raise ValueError(
                f"schedule needs {needed:.0f}s but horizon is "
                f"{self.scenario.spec.horizon:.0f}s"
            )

    def run(
        self,
        *,
        clients: Optional[Sequence[str]] = None,
        site: str = "eBay",
    ) -> TraceStore:
        """Run the monitored campaign; one record per paired transfer.

        ``probe_overhead`` in the records carries the *amortised* background
        monitoring time per transfer (monitoring bytes divided by the
        client's mean direct throughput), so overhead comparisons against
        the probe-per-transfer mechanism stay meaningful.
        """
        clients = list(clients) if clients is not None else self.scenario.client_names
        store = TraceStore()
        for client in clients:
            store.extend(self._run_client(client, site))
        return store

    # ------------------------------------------------------------------ #
    def _run_client(self, client: str, site: str) -> List[TransferRecord]:
        scenario = self.scenario
        profile = scenario.profiles[client]
        horizon = self.repetitions * self.interval + self.interval

        # The monitored universe lives across the whole schedule.
        universe = scenario.universe(0.0, config=self.config)
        paths = [scenario.builder.direct(client, site)] + scenario.builder.all_indirect(
            client, site
        )
        monitor = PathMonitor(
            universe.network,
            paths,
            scenario.resource,
            period=self.monitor_period,
            probe_bytes=self.monitor_probe_bytes,
            tcp=self.config.tcp,
            horizon=horizon,
        )
        monitor.start()
        # Warm the table: let one full probing round complete.
        universe.sim.run(until=self.monitor_period)

        records: List[TransferRecord] = []
        for j in range(self.repetitions):
            start = self.monitor_period + j * self.interval
            universe.sim.run(until=start)

            best = monitor.best_path()
            relay = None if best in (None, "direct") else best
            result = universe.session.download_via(
                client, site, scenario.resource, relay
            )

            control = scenario.universe(start, config=self.config)
            ctrl = control.session.download_direct(client, site, scenario.resource)

            monitoring_bytes = monitor.probe_bytes_sent / max(j + 1, 1)
            amortised_overhead = monitoring_bytes / max(
                ctrl.transfer_throughput, 1.0
            )
            records.append(
                TransferRecord(
                    study="monitored",
                    client=client,
                    site=site,
                    repetition=j,
                    start_time=start,
                    set_size=len(scenario.relay_names),
                    offered=tuple(scenario.relay_names),
                    selected_via=relay,
                    direct_throughput=ctrl.transfer_throughput,
                    selected_throughput=result.transfer_throughput,
                    end_to_end_throughput=result.end_to_end_throughput,
                    probe_overhead=amortised_overhead,
                    file_bytes=result.size,
                    direct_class=profile.throughput_class.value,
                    direct_variability=profile.variability.value,
                )
            )
        return records
