"""RON-style background path monitoring.

Resilient Overlay Networks (paper ref [1]) keep per-path quality estimates
fresh by probing *continuously in the background*, then route using the
table - no per-transfer measurement.  :class:`PathMonitor` implements that
approach on our substrate: it issues small range-request probes over every
monitored path on a fixed period (staggered so probes do not synchronise),
records the measured throughputs, and answers ranking queries with optional
staleness handling.

The monitor's probes are real fluid flows: they consume the client's access
bandwidth and contend with foreground transfers, so the monitoring overhead
the ablation (A9) reports is physical, not accounting fiction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.http.messages import ByteRange, HttpRequest
from repro.http.transfer import HttpTransfer, TcpParams, issue_download
from repro.overlay.paths import OverlayPath
from repro.tcp.fluid import FluidNetwork
from repro.util.units import kb
from repro.util.validation import check_positive

__all__ = ["PathEstimate", "PathMonitor"]


@dataclass(frozen=True)
class PathEstimate:
    """The monitor's latest knowledge of one path."""

    label: str
    throughput: float
    measured_at: float

    def age(self, now: float) -> float:
        """Seconds since this estimate was refreshed."""
        return now - self.measured_at


class PathMonitor:
    """Continuously probes a set of paths and maintains quality estimates.

    Parameters
    ----------
    network:
        The fluid engine of the universe this monitor lives in.
    paths:
        The monitored paths (typically the direct path plus every relay).
    resource:
        Resource to request probe ranges of.
    period:
        Seconds between successive probes of the *same* path.  Probes of
        different paths are staggered uniformly across the period.
    probe_bytes:
        Size of each monitoring probe (smaller than the selection probe -
        RON's probes are lightweight).
    stale_after:
        Estimates older than this many seconds are treated as unknown when
        ranking (a RON node whose probes stopped returning is "down").
    horizon:
        Simulation time after which no further probes are scheduled.
    """

    def __init__(
        self,
        network: FluidNetwork,
        paths: Sequence[OverlayPath],
        resource: str,
        *,
        period: float = 60.0,
        probe_bytes: float = kb(30),
        tcp: TcpParams = TcpParams(),
        stale_after: Optional[float] = None,
        horizon: float = float("inf"),
    ):
        if not paths:
            raise ValueError("need at least one path to monitor")
        labels = [p.label for p in paths]
        if len(set(labels)) != len(labels):
            raise ValueError(f"paths must be distinct, got {labels}")
        check_positive(period, "period")
        check_positive(probe_bytes, "probe_bytes")
        self._network = network
        self._paths = list(paths)
        self._resource = resource
        self.period = float(period)
        self.probe_bytes = float(probe_bytes)
        self._tcp = tcp
        self.stale_after = float(stale_after) if stale_after is not None else 3.0 * period
        self.horizon = float(horizon)
        self._estimates: Dict[str, PathEstimate] = {}
        #: Total bytes of monitoring traffic delivered (overhead accounting).
        self.probe_bytes_sent = 0.0
        #: Number of probes completed.
        self.probes_completed = 0
        self._started = False

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Begin monitoring: stagger one probe chain per path."""
        if self._started:
            raise RuntimeError("monitor already started")
        self._started = True
        stagger = self.period / len(self._paths)
        for i, path in enumerate(self._paths):
            self._schedule_probe(path, delay=i * stagger)

    def _schedule_probe(self, path: OverlayPath, *, delay: float) -> None:
        sim = self._network.sim
        if sim.now + delay > self.horizon:
            return
        sim.schedule_after(
            delay, lambda: self._probe(path), name=f"monitor:{path.label}"
        )

    def _probe(self, path: OverlayPath) -> None:
        size = path.server.resource_size(self._resource)
        x = min(int(self.probe_bytes), size)
        request = HttpRequest(
            host=path.server.name,
            path=self._resource,
            byte_range=ByteRange.first_bytes(x),
            via=path.via,
        )

        def _done(transfer: HttpTransfer) -> None:
            now = self._network.sim.now
            self._estimates[path.label] = PathEstimate(
                label=path.label,
                throughput=transfer.throughput(),
                measured_at=now,
            )
            self.probe_bytes_sent += transfer.flow.size
            self.probes_completed += 1

        issue_download(
            self._network,
            path.route,
            path.server,
            request,
            proxy=path.proxy,
            tcp=self._tcp,
            on_complete=_done,
            name=f"monitor-probe:{path.label}",
        )
        # The next probe of this path fires one period later regardless of
        # whether this one completes (a dead path keeps being retried).
        self._schedule_probe(path, delay=self.period)

    # ------------------------------------------------------------------ #
    def fresh_estimates(self, now: Optional[float] = None) -> List[PathEstimate]:
        """All estimates younger than ``stale_after``, best first."""
        now = self._network.sim.now if now is None else now
        fresh = [
            e for e in self._estimates.values() if e.age(now) <= self.stale_after
        ]
        return sorted(fresh, key=lambda e: -e.throughput)

    def best_path(self, *, among: Optional[Sequence[str]] = None) -> Optional[str]:
        """Label of the freshest-known best path (None when nothing known).

        ``among`` restricts the ranking to a subset of labels (e.g. relays
        only, to compare the best relay against the direct estimate).
        """
        candidates = self.fresh_estimates()
        if among is not None:
            allowed = set(among)
            candidates = [e for e in candidates if e.label in allowed]
        return candidates[0].label if candidates else None
