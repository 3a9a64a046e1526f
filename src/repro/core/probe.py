"""The throughput probe: the heart of the paper's mechanism.

To predict which path will carry a long TCP transfer fastest, the client
downloads the **first x bytes** of the target file over every candidate path
(HTTP range requests) and observes which finishes first.  ``x = 100 KB`` is
chosen so the probe outlasts TCP slow-start and approximates steady-state
throughput (paper §2.1).

Two probing modes are provided:

CONCURRENT (the paper's design)
    All range requests are issued simultaneously; the first path to deliver
    its x bytes wins and the others are aborted.  Concurrent probes sharing
    the client's access link contend with each other - a real overhead the
    simulator reproduces.
SEQUENTIAL
    Candidates are probed one at a time and the highest measured throughput
    wins.  No self-interference, but the probe phase takes longer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.core import Observer

from repro.http.messages import ByteRange, HttpRequest
from repro.http.transfer import HttpTransfer, TcpParams, issue_download
from repro.overlay.paths import OverlayPath
from repro.sim.errors import TransferError
from repro.tcp.fluid import FluidNetwork
from repro.util.units import kb

__all__ = [
    "ProbeMode",
    "PathProbe",
    "ProbeOutcome",
    "ProbeEngine",
    "ProbeTimeout",
    "DEFAULT_PROBE_BYTES",
]

#: The paper's experimentally determined probe size (100 KB).
DEFAULT_PROBE_BYTES: float = kb(100)


class ProbeMode(enum.Enum):
    """How candidate paths are probed."""

    CONCURRENT = "concurrent"
    SEQUENTIAL = "sequential"


class ProbeTimeout(TransferError):
    """No candidate finished its probe before the configured deadline.

    Carries the partial race state so callers (and the availability
    analysis) can see how far each candidate got before the race was torn
    down.  Raised only when a finite ``deadline`` was requested; the legacy
    unbounded race keeps its original failure modes.
    """

    def __init__(
        self,
        *,
        probes: List["PathProbe"],
        started_at: float,
        timed_out_at: float,
        probe_bytes: float,
        deadline: float,
    ):
        self.probes = probes
        self.started_at = started_at
        self.timed_out_at = timed_out_at
        self.probe_bytes = probe_bytes
        self.deadline = deadline
        labels = [p.label for p in probes]
        super().__init__(
            f"probe race over {labels} timed out at t={timed_out_at:.6g} "
            f"({timed_out_at - started_at:.6g}s elapsed, deadline {deadline}s): "
            "no candidate finished its probe"
        )


@dataclass
class PathProbe:
    """Result of probing one candidate path.

    ``throughput`` is the probe's achieved rate (bytes/second) when it ran
    to completion, ``None`` when it was aborted after losing the race.
    ``measured_throughput`` is the client's (noisy) estimate of it - the
    value sequential selection actually ranks by.  Real probe measurements
    jitter with OS scheduling, transient cross-traffic and TCP state; the
    paper's Table III attributes imperfect utilisation/improvement
    correlation exactly to this estimation error.
    """

    path: OverlayPath
    transfer: HttpTransfer
    completed_at: Optional[float] = None
    throughput: Optional[float] = None
    measured_throughput: Optional[float] = None

    @property
    def label(self) -> str:
        return self.path.label

    @property
    def won(self) -> bool:
        return self.completed_at is not None and self.throughput is not None


@dataclass
class ProbeOutcome:
    """Aggregate result of one probe round.

    Attributes
    ----------
    winner:
        The selected path (never ``None``; with a single candidate it wins
        by default).
    probes:
        Per-path results in candidate order.
    started_at / decided_at:
        Simulation times bracketing the probe phase.
    probe_bytes:
        Probe size per path (the x of the mechanism).
    """

    winner: OverlayPath
    probes: List[PathProbe]
    started_at: float
    decided_at: float
    probe_bytes: float

    @property
    def winner_is_indirect(self) -> bool:
        """True when an indirect path won the probe race."""
        return self.winner.is_indirect

    @property
    def overhead_seconds(self) -> float:
        """Wall time consumed by the probe phase."""
        return self.decided_at - self.started_at

    @property
    def total_probe_bytes(self) -> float:
        """Bytes moved by all probes combined (including aborted partials)."""
        return float(sum(p.transfer.flow.delivered for p in self.probes))

    def throughput_of(self, label: str) -> Optional[float]:
        """Measured probe throughput of the path labelled ``label``."""
        for p in self.probes:
            if p.label == label:
                return p.throughput
        raise KeyError(f"no probe for path {label!r}")

    def estimated_throughput(self, probe: PathProbe) -> float:
        """Best client-side throughput estimate for one candidate.

        The measured probe throughput when the probe finished; otherwise
        the bytes the losing probe moved during the race divided by the
        race duration (0.0 for an instantaneous race).
        """
        if probe.measured_throughput is not None:
            return float(probe.measured_throughput)
        elapsed = self.decided_at - self.started_at
        if elapsed <= 0.0:
            return 0.0
        return float(probe.transfer.flow.delivered) / elapsed

    def alternates(self) -> List[PathProbe]:
        """Failover order after the winner: losers by estimate, direct last.

        Mid-transfer failover re-issues the remaining range over the probe
        runner-up first; the direct path is deliberately kept as the last
        resort (it is the fallback that needs no overlay infrastructure).
        Ties preserve candidate order, so the ranking is deterministic.
        """
        losers = [p for p in self.probes if p.path.label != self.winner.label]
        ranked = sorted(losers, key=lambda p: -self.estimated_throughput(p))
        indirect = [p for p in ranked if p.path.is_indirect]
        direct = [p for p in ranked if not p.path.is_indirect]
        return indirect + direct


def _emit_probe_obs(obs: "Observer", outcome: ProbeOutcome) -> None:
    """Record one probe round: per-path spans plus the selection decision.

    Losing probes' spans end at the decision instant (when they were torn
    down) and carry the client's partial-throughput estimate, so a trace
    shows *why* the winner won, not just that it did.
    """
    for probe in outcome.probes:
        end = probe.completed_at if probe.completed_at is not None else outcome.decided_at
        obs.span(
            "probe",
            f"probe:{probe.label}",
            outcome.started_at,
            end,
            won=probe.path.label == outcome.winner.label,
            indirect=probe.path.is_indirect,
            est_throughput=outcome.estimated_throughput(probe),
        )
    obs.event(
        "probe",
        "selection",
        outcome.decided_at,
        winner=outcome.winner.label,
        indirect=outcome.winner_is_indirect,
        losers={
            p.label: outcome.estimated_throughput(p)
            for p in outcome.probes
            if p.path.label != outcome.winner.label
        },
    )
    obs.count("probe.rounds")
    if outcome.winner_is_indirect:
        obs.count("probe.indirect_selected")


class ProbeEngine:
    """Runs probe rounds on a fluid network.

    Parameters
    ----------
    network:
        The transport engine to issue probes on.
    tcp:
        TCP connection parameters for probe flows.
    """

    def __init__(
        self,
        network: FluidNetwork,
        *,
        tcp: TcpParams = TcpParams(),
        noise_sigma: float = 0.0,
        rng: "Optional[object]" = None,
    ):
        if noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
        if noise_sigma > 0.0 and rng is None:
            raise ValueError("probe noise requires an rng")
        self._network = network
        self._tcp = tcp
        self._noise_sigma = float(noise_sigma)
        self._rng = rng

    def _measure(self, true_throughput: float) -> float:
        """The client's estimate of a probe throughput (lognormal jitter)."""
        if self._noise_sigma == 0.0:
            return true_throughput
        return float(true_throughput * self._rng.lognormal(0.0, self._noise_sigma))

    def run(
        self,
        paths: Sequence[OverlayPath],
        resource: str,
        *,
        probe_bytes: float = DEFAULT_PROBE_BYTES,
        mode: ProbeMode = ProbeMode.CONCURRENT,
        offset: int = 0,
        deadline: Optional[float] = None,
    ) -> ProbeOutcome:
        """Probe ``paths`` for ``resource`` and return the outcome.

        Advances the simulation until the decision is made.  With one
        candidate the probe still runs (its bytes count toward the
        transfer), matching the paper's two-path experiment where both the
        direct and the single indirect path are probed.

        ``offset`` starts the probe range at ``bytes=offset-`` instead of
        the file head - used by mid-transfer re-probing, where the next
        unread bytes double as probe payload.

        ``deadline`` bounds the race in simulated seconds.  In concurrent
        mode the whole race shares it; in sequential mode every candidate
        gets the full budget (the probes run one after another).  When no
        candidate finishes in time, every probe is torn down and a
        structured :class:`ProbeTimeout` is raised.  ``None`` (the
        default) preserves the legacy unbounded behaviour, including the
        engine's ``TransferError`` on paths that are dead forever.
        """
        if not paths:
            raise ValueError("need at least one candidate path")
        if probe_bytes <= 0:
            raise ValueError(f"probe_bytes must be positive, got {probe_bytes}")
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        labels = [p.label for p in paths]
        if len(set(labels)) != len(labels):
            raise ValueError(f"candidate paths must be distinct, got {labels}")
        obs = self._network.sim.observer
        try:
            if mode is ProbeMode.CONCURRENT:
                outcome = self._run_concurrent(
                    list(paths), resource, probe_bytes, offset, deadline
                )
            else:
                outcome = self._run_sequential(
                    list(paths), resource, probe_bytes, offset, deadline
                )
        except ProbeTimeout as exc:
            if obs is not None:
                obs.count("probe.timeouts")
                obs.event(
                    "probe",
                    "probe_timeout",
                    exc.timed_out_at,
                    started_at=exc.started_at,
                    deadline=exc.deadline,
                    paths=[p.label for p in exc.probes],
                )
            raise
        if obs is not None:
            _emit_probe_obs(obs, outcome)
        return outcome

    # ------------------------------------------------------------------ #
    def _request_for(
        self, path: OverlayPath, resource: str, probe_bytes: float, offset: int
    ) -> HttpRequest:
        size = path.server.resource_size(resource)
        if offset >= size:
            raise ValueError(f"probe offset {offset} beyond resource size {size}")
        last = min(offset + int(probe_bytes), size) - 1
        return HttpRequest(
            host=path.server.name,
            path=resource,
            byte_range=ByteRange(offset, last),
            via=path.via,
        )

    def _run_concurrent(
        self,
        paths: List[OverlayPath],
        resource: str,
        probe_bytes: float,
        offset: int,
        deadline: Optional[float],
    ) -> ProbeOutcome:
        sim = self._network.sim
        started_at = sim.now
        state: Dict[str, Optional[PathProbe]] = {"winner": None}
        probes: List[PathProbe] = []

        def _on_done(transfer: HttpTransfer) -> None:
            if state["winner"] is not None:
                return  # a later finisher; already decided
            probe = next(p for p in probes if p.transfer is transfer)
            probe.completed_at = sim.now
            probe.throughput = transfer.throughput()
            probe.measured_throughput = probe.throughput
            state["winner"] = probe
            # The race is decided: tear down the losing probes (paper §2.1).
            for other in probes:
                if other is not probe:
                    other.transfer.abort(self._network)

        for path in paths:
            request = self._request_for(path, resource, probe_bytes, offset)
            transfer = issue_download(
                self._network,
                path.route,
                path.server,
                request,
                proxy=path.proxy,
                tcp=self._tcp,
                on_complete=_on_done,
                name=f"probe:{path.label}",
            )
            probes.append(PathProbe(path=path, transfer=transfer))

        if deadline is None:
            sim.run_until_true(lambda: state["winner"] is not None)
        else:
            deadline_at = started_at + deadline

            def decided() -> bool:
                return state["winner"] is not None or sim.now >= deadline_at

            wake = sim.schedule_at(deadline_at, lambda: None, name="probe-deadline")
            try:
                while not decided():
                    try:
                        sim.run_until_true(decided)
                    except TransferError:
                        # Every active flow is frozen with no future capacity
                        # change: no probe can ever finish, so declare the
                        # timeout now rather than idling to the deadline.
                        break
            finally:
                sim.cancel(wake)
            if state["winner"] is None:
                for probe in probes:
                    probe.transfer.abort(self._network)
                raise ProbeTimeout(
                    probes=probes,
                    started_at=started_at,
                    timed_out_at=sim.now,
                    probe_bytes=probe_bytes,
                    deadline=deadline,
                )
        winner_probe = state["winner"]
        assert winner_probe is not None
        return ProbeOutcome(
            winner=winner_probe.path,
            probes=probes,
            started_at=started_at,
            decided_at=sim.now,
            probe_bytes=probe_bytes,
        )

    def _run_sequential(
        self,
        paths: List[OverlayPath],
        resource: str,
        probe_bytes: float,
        offset: int,
        deadline: Optional[float],
    ) -> ProbeOutcome:
        from repro.core.resilience import advance_until_done

        sim = self._network.sim
        started_at = sim.now
        probes: List[PathProbe] = []
        for path in paths:
            request = self._request_for(path, resource, probe_bytes, offset)
            transfer = issue_download(
                self._network,
                path.route,
                path.server,
                request,
                proxy=path.proxy,
                tcp=self._tcp,
                name=f"probe:{path.label}",
            )
            if deadline is None:
                self._network.run_to_completion(transfer.flow)
            elif not advance_until_done(sim, transfer, sim.now + deadline):
                # Per-candidate budget exhausted: record the dead probe
                # (no measurement) and move on to the next candidate.
                transfer.abort(self._network)
                probes.append(PathProbe(path=path, transfer=transfer))
                continue
            true_tput = transfer.throughput()
            probes.append(
                PathProbe(
                    path=path,
                    transfer=transfer,
                    completed_at=sim.now,
                    throughput=true_tput,
                    measured_throughput=self._measure(true_tput),
                )
            )
        finished = [p for p in probes if p.won]
        if not finished:
            assert deadline is not None  # unbounded probes always finish
            raise ProbeTimeout(
                probes=probes,
                started_at=started_at,
                timed_out_at=sim.now,
                probe_bytes=probe_bytes,
                deadline=deadline,
            )
        best = max(finished, key=lambda p: p.measured_throughput or 0.0)
        return ProbeOutcome(
            winner=best.path,
            probes=probes,
            started_at=started_at,
            decided_at=sim.now,
            probe_bytes=probe_bytes,
        )
