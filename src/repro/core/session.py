"""The indirect-routing transfer session: probe, decide, fetch.

:class:`TransferSession` implements the paper's full client behaviour for
one download of an ``n``-byte file:

1. build the direct path and the candidate indirect paths offered by the
   selection policy;
2. race HTTP range probes for the first ``x`` bytes over all of them
   (:mod:`repro.core.probe`);
3. fetch the remaining ``n - x`` bytes over the winning path;
4. report client-observed timings and throughputs.

Two throughput views are recorded, because the paper uses both:

``end_to_end_throughput``
    ``n / (total time including the probe phase)`` - what the selecting
    client actually experienced.
``transfer_throughput``
    The bulk (remainder) phase throughput - the "throughput of the selected
    path", the quantity the paper's improvement statistics compare against
    the direct control client (probe overhead excluded).

With a :class:`~repro.core.resilience.ResilienceConfig` opted in (see
``SessionConfig.resilience``), the session additionally implements the
resilient protocol layer: probe races carry a deadline, a stalled or dead
selected path triggers mid-transfer failover (an HTTP range request for the
remaining bytes over the probe runner-up, direct as last resort, then
deterministic exponential backoff + re-probe), and every session reports a
structured :class:`~repro.core.resilience.SessionOutcome` plus a recovery
timeline.  The default config reproduces the legacy protocol exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.probe import (
    DEFAULT_PROBE_BYTES,
    PathProbe,
    ProbeEngine,
    ProbeMode,
    ProbeOutcome,
    ProbeTimeout,
)
from repro.core.resilience import (
    RecoveryEvent,
    ResilienceConfig,
    SessionOutcome,
    StallWatchdog,
    advance_until_done,
)
from repro.http.messages import ByteRange, HttpRequest
from repro.http.transfer import HttpTransfer, TcpParams, issue_download
from repro.overlay.paths import OverlayPath, OverlayPathBuilder
from repro.tcp.fluid import FluidNetwork

__all__ = ["SessionConfig", "SessionResult", "TransferSession"]


@dataclass(frozen=True)
class SessionConfig:
    """Client-side knobs of the selection mechanism.

    ``probe_noise_sigma`` models measurement jitter: sequential selection
    ranks candidates by ``true throughput x lognormal(0, sigma)``.  Zero
    (the default) makes selection deterministic; ~0.15 matches the
    estimation error real 100 KB probes exhibit and yields the paper's
    imperfect utilisation/improvement correlation (Table III).

    ``resilience`` selects the protocol's robustness behaviour; the default
    :class:`~repro.core.resilience.ResilienceConfig` is byte-identical to
    the pre-resilience protocol (no deadlines, no failover).
    """

    probe_bytes: float = DEFAULT_PROBE_BYTES
    probe_mode: ProbeMode = ProbeMode.CONCURRENT
    tcp: TcpParams = TcpParams()
    probe_noise_sigma: float = 0.0
    resilience: ResilienceConfig = ResilienceConfig()

    def __post_init__(self) -> None:
        if self.probe_bytes <= 0:
            raise ValueError(f"probe_bytes must be positive, got {self.probe_bytes}")
        if self.probe_noise_sigma < 0.0:
            raise ValueError(
                f"probe_noise_sigma must be >= 0, got {self.probe_noise_sigma}"
            )
        if not isinstance(self.resilience, ResilienceConfig):
            raise TypeError(
                f"resilience must be a ResilienceConfig, got {type(self.resilience)!r}"
            )


@dataclass
class SessionResult:
    """Everything observed about one download.

    ``outcome`` distinguishes clean completions from recovered and aborted
    sessions; ``recovery_events`` is the session's recovery timeline (empty
    for clean completions) and ``bytes_received`` the payload actually
    delivered (``None`` means "all of ``size``", the only possibility for
    non-aborted sessions).
    """

    client: str
    server: str
    resource: str
    size: float
    offered: Tuple[str, ...]
    selected_via: Optional[str]
    requested_at: float
    completed_at: float
    probe: Optional[ProbeOutcome] = None
    remainder_started_at: Optional[float] = None
    outcome: SessionOutcome = SessionOutcome.COMPLETED
    recovery_events: Tuple[RecoveryEvent, ...] = ()
    bytes_received: Optional[float] = None

    @property
    def used_indirect(self) -> bool:
        """True when the transfer rode an indirect path."""
        return self.selected_via is not None

    @property
    def duration(self) -> float:
        """Total request-to-last-byte time, probe phase included."""
        return self.completed_at - self.requested_at

    @property
    def delivered(self) -> float:
        """Payload bytes the client actually received."""
        return self.size if self.bytes_received is None else self.bytes_received

    @property
    def end_to_end_throughput(self) -> float:
        """Whole-session throughput in bytes/second (probe included).

        Counts delivered bytes, so aborted sessions report their partial
        goodput.  A degenerate zero-duration (or negative-clock) session
        reports 0.0 rather than raising - such sessions delivered nothing
        in no time, and analysis code treats them as zero-throughput.
        """
        if self.duration <= 0.0:
            return 0.0
        return self.delivered / self.duration

    @property
    def transfer_throughput(self) -> float:
        """Bulk-phase throughput in bytes/second (the paper's metric).

        For sessions with a remainder phase this is
        ``(n - x) / (remainder time)``; for probe-free or probe-covers-file
        sessions it equals :attr:`end_to_end_throughput`.  Aborted sessions
        fall back to :attr:`end_to_end_throughput` as well (their partial
        goodput): a bulk phase that never finished has no faithful
        bulk-rate reading.
        """
        if (
            self.remainder_started_at is None
            or self.probe is None
            or self.outcome is SessionOutcome.ABORTED
        ):
            return self.end_to_end_throughput
        bulk_bytes = self.size - min(self.probe.probe_bytes, self.size)
        bulk_time = self.completed_at - self.remainder_started_at
        if bulk_time <= 0.0 or bulk_bytes <= 0.0:
            return self.end_to_end_throughput
        return bulk_bytes / bulk_time

    @property
    def probe_overhead_seconds(self) -> float:
        """Wall time spent in the probe phase (0 for probe-free sessions)."""
        return self.probe.overhead_seconds if self.probe is not None else 0.0


class TransferSession:
    """Runs complete selection-and-download sessions on one fluid network.

    Parameters
    ----------
    network:
        Transport engine (bound to a simulator).
    builder:
        Overlay path builder over the scenario topology.
    config:
        Client mechanism parameters.
    """

    def __init__(
        self,
        network: FluidNetwork,
        builder: OverlayPathBuilder,
        config: SessionConfig = SessionConfig(),
        *,
        rng=None,
    ):
        if config.probe_noise_sigma > 0.0 and rng is None:
            raise ValueError(
                "SessionConfig.probe_noise_sigma > 0 requires an rng "
                "(pass rng= to TransferSession or Scenario.universe)"
            )
        self._network = network
        self._builder = builder
        self._config = config
        self._probe_engine = ProbeEngine(
            network, tcp=config.tcp, noise_sigma=config.probe_noise_sigma, rng=rng
        )

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._network.sim.now

    # ------------------------------------------------------------------ #
    def download_direct(self, client: str, server: str, resource: str) -> SessionResult:
        """The control client: one full GET over the direct path."""
        path = self._builder.direct(client, server)
        return self._full_download(path, client, server, resource)

    def download_via(
        self, client: str, server: str, resource: str, relay: Optional[str]
    ) -> SessionResult:
        """A probe-free full download over an externally chosen path.

        This is how a RON-style client operates: the routing decision comes
        from background monitoring state, not a per-transfer probe race.
        ``relay=None`` fetches over the direct path.
        """
        if relay is None:
            return self.download_direct(client, server, resource)
        path = self._builder.indirect(client, relay, server)
        return self._full_download(path, client, server, resource)

    def download_striped(
        self,
        client: str,
        server: str,
        resource: str,
        relays: Sequence[str],
        stripe: "object" = None,
    ):
        """One mHTTP-style striped download over direct + ``relays``.

        The rival mechanism to :meth:`download`: instead of racing probes
        and committing to one winner, fixed-size blocks of the object are
        fetched over every path simultaneously (see :mod:`repro.stripe`).
        ``stripe`` is a :class:`~repro.stripe.blocks.StripeConfig`
        (defaulted when ``None``); TCP parameters and the transport engine
        are shared with this session.  Returns a
        :class:`~repro.stripe.session.StripeResult`.
        """
        from repro.stripe.blocks import StripeConfig
        from repro.stripe.session import StripedSession

        config = stripe if stripe is not None else StripeConfig()
        if not isinstance(config, StripeConfig):
            raise TypeError(
                f"stripe must be a StripeConfig, got {type(config)!r}"
            )
        striper = StripedSession(
            self._network, self._builder, config, tcp=self._config.tcp
        )
        return striper.download(client, server, resource, relays)

    def download(
        self,
        client: str,
        server: str,
        resource: str,
        relays: Sequence[str],
    ) -> SessionResult:
        """One selection session: probe direct + ``relays``, fetch remainder.

        With an empty ``relays`` the session degenerates to a plain direct
        download (no probe phase, matching the control client).  With
        resilience enabled, a timed-out probe race yields an ``ABORTED``
        result and a stalled bulk phase triggers mid-transfer failover.
        """
        if not relays:
            return self.download_direct(client, server, resource)
        direct = self._builder.direct(client, server)
        candidates: List[OverlayPath] = [direct] + [
            self._builder.indirect(client, relay, server) for relay in relays
        ]
        size = float(direct.server.resource_size(resource))
        requested_at = self.now
        res = self._config.resilience

        try:
            outcome = self._probe_engine.run(
                candidates,
                resource,
                probe_bytes=self._config.probe_bytes,
                mode=self._config.probe_mode,
                deadline=res.probe_deadline,
            )
        except ProbeTimeout as timeout:
            events = (
                RecoveryEvent(
                    time=timeout.timed_out_at,
                    kind="probe_timeout",
                    path="",
                    bytes_received=0.0,
                    detail=float(timeout.deadline),
                ),
                RecoveryEvent(
                    time=self.now, kind="abort", path="", bytes_received=0.0
                ),
            )
            return self._checked(SessionResult(
                client=client,
                server=server,
                resource=resource,
                size=size,
                offered=tuple(relays),
                selected_via=None,
                requested_at=requested_at,
                completed_at=self.now,
                outcome=SessionOutcome.ABORTED,
                recovery_events=events,
                bytes_received=0.0,
            ))
        sanitizer = self._network.sim.sanitizer
        if sanitizer is not None:
            sanitizer.check_probe_outcome(outcome, [p.label for p in candidates])
        winner = outcome.winner
        x = min(self._config.probe_bytes, size)

        if x >= size:
            # The probe already fetched the whole file over the winner.
            return self._checked(SessionResult(
                client=client,
                server=server,
                resource=resource,
                size=size,
                offered=tuple(relays),
                selected_via=winner.via,
                requested_at=requested_at,
                completed_at=self.now,
                probe=outcome,
            ))

        if res.failover:
            return self._resilient_remainder(
                client=client,
                server=server,
                resource=resource,
                size=size,
                relays=tuple(relays),
                candidates=candidates,
                requested_at=requested_at,
                first_outcome=outcome,
            )

        remainder_started_at = self.now
        request = HttpRequest(
            host=winner.server.name,
            path=resource,
            byte_range=ByteRange.suffix_from(int(x)),
            via=winner.via,
        )
        transfer = issue_download(
            self._network,
            winner.route,
            winner.server,
            request,
            proxy=winner.proxy,
            tcp=self._config.tcp,
            name=f"remainder:{winner.label}",
        )
        self._network.run_to_completion(transfer.flow)
        obs = self._network.sim.observer
        if obs is not None:
            obs.span(
                "transfer",
                f"remainder:{winner.label}",
                remainder_started_at,
                self.now,
                bytes=size - x,
                path=winner.label,
            )

        return self._checked(SessionResult(
            client=client,
            server=server,
            resource=resource,
            size=size,
            offered=tuple(relays),
            selected_via=winner.via,
            requested_at=requested_at,
            completed_at=self.now,
            probe=outcome,
            remainder_started_at=remainder_started_at,
        ))

    # ------------------------------------------------------------------ #
    # resilient bulk phase: watchdog + failover + backoff/re-probe
    # ------------------------------------------------------------------ #
    def _fetch_range(
        self, path: OverlayPath, resource: str, offset: int, size: float
    ) -> HttpTransfer:
        request = HttpRequest(
            host=path.server.name,
            path=resource,
            byte_range=ByteRange(offset, int(size) - 1),
            via=path.via,
        )
        return issue_download(
            self._network,
            path.route,
            path.server,
            request,
            proxy=path.proxy,
            tcp=self._config.tcp,
            name=f"remainder:{path.label}@{offset}",
        )

    def _resilient_remainder(
        self,
        *,
        client: str,
        server: str,
        resource: str,
        size: float,
        relays: Tuple[str, ...],
        candidates: List[OverlayPath],
        requested_at: float,
        first_outcome: ProbeOutcome,
    ) -> SessionResult:
        """Fetch the remaining bytes with stall failover (see module doc).

        State machine per attempt: fetch remaining range over the current
        path -> watch.  On stall: abort (keeping the delivered prefix, HTTP
        ranges resume exactly there), switch to the best remaining
        alternate from the last race (direct last); with alternates
        exhausted, wait out a deterministic exponential backoff and run a
        fresh probe race from the current offset (probe bytes are payload).
        Bounded by ``max_failovers``/``max_reprobes``/``transfer_deadline``.
        """
        res = self._config.resilience
        sim = self._network.sim
        deadline_at = (
            math.inf
            if res.transfer_deadline is None
            else requested_at + res.transfer_deadline
        )
        remainder_started_at = self.now
        offset = int(min(self._config.probe_bytes, size))
        current = first_outcome.winner
        expected = first_outcome.throughput_of(current.label) or 0.0
        alternates: List[PathProbe] = first_outcome.alternates()
        race = first_outcome
        watchdog = StallWatchdog(
            sim,
            stall_threshold=res.stall_threshold,
            check_interval=res.check_interval,
            grace_period=res.grace_period,
        )
        events: List[RecoveryEvent] = []
        failovers = 0
        reprobes = 0
        aborted = False

        obs = sim.observer
        while offset < size:
            attempt_started_at = self.now
            transfer = self._fetch_range(current, resource, offset, size)
            verdict = watchdog.watch(transfer, expected, deadline_at=deadline_at)
            if obs is not None:
                obs.span(
                    "transfer",
                    f"attempt:{current.label}",
                    attempt_started_at,
                    self.now,
                    path=current.label,
                    offset=offset,
                    stalled=verdict.stalled,
                    reason=verdict.reason,
                    delivered=float(transfer.flow.delivered),
                )
            if not verdict.stalled:
                offset = int(size)
                break
            transfer.abort(self._network)
            offset = min(offset + int(transfer.flow.delivered), int(size))
            events.append(RecoveryEvent(
                time=self.now,
                kind="stall",
                path=current.label,
                bytes_received=float(offset),
                detail=verdict.idle_seconds,
            ))
            if offset >= size:
                break
            if verdict.reason == "deadline" or failovers >= res.max_failovers:
                aborted = True
                break
            failovers += 1
            if alternates:
                nxt = alternates.pop(0)
                current = nxt.path
                expected = race.estimated_throughput(nxt)
                events.append(RecoveryEvent(
                    time=self.now,
                    kind="failover",
                    path=current.label,
                    bytes_received=float(offset),
                ))
                continue
            # Alternates exhausted: backoff, then a fresh race from here.
            if reprobes >= res.max_reprobes:
                aborted = True
                break
            wait = res.backoff_wait(reprobes)
            reprobes += 1
            events.append(RecoveryEvent(
                time=self.now,
                kind="backoff",
                path="",
                bytes_received=float(offset),
                detail=wait,
            ))
            sim.run(until=min(self.now + wait, deadline_at))
            if self.now >= deadline_at:
                aborted = True
                break
            probe_x = int(min(self._config.probe_bytes, size - offset))
            try:
                race = self._probe_engine.run(
                    candidates,
                    resource,
                    probe_bytes=probe_x,
                    mode=self._config.probe_mode,
                    offset=offset,
                    deadline=res.probe_deadline,
                )
            except ProbeTimeout as timeout:
                events.append(RecoveryEvent(
                    time=timeout.timed_out_at,
                    kind="probe_timeout",
                    path="",
                    bytes_received=float(offset),
                    detail=float(timeout.deadline),
                ))
                aborted = True
                break
            sanitizer = self._network.sim.sanitizer
            if sanitizer is not None:
                sanitizer.check_probe_outcome(race, [p.label for p in candidates])
            current = race.winner
            expected = race.throughput_of(current.label) or 0.0
            alternates = race.alternates()
            offset = min(offset + probe_x, int(size))
            events.append(RecoveryEvent(
                time=self.now,
                kind="reprobe",
                path=current.label,
                bytes_received=float(offset),
            ))

        if aborted:
            events.append(RecoveryEvent(
                time=self.now,
                kind="abort",
                path=current.label,
                bytes_received=float(offset),
            ))
            session_outcome = SessionOutcome.ABORTED
        elif events:
            session_outcome = SessionOutcome.FAILED_OVER
        else:
            session_outcome = SessionOutcome.COMPLETED

        return self._checked(SessionResult(
            client=client,
            server=server,
            resource=resource,
            size=size,
            offered=relays,
            selected_via=first_outcome.winner.via,
            requested_at=requested_at,
            completed_at=self.now,
            probe=first_outcome,
            remainder_started_at=remainder_started_at,
            outcome=session_outcome,
            recovery_events=tuple(events),
            bytes_received=float(offset) if aborted else None,
        ))

    # ------------------------------------------------------------------ #
    def _checked(self, result: SessionResult) -> SessionResult:
        """Run the sanitizer's session post-conditions when installed.

        Every session exits through here, so it is also the single place
        the session span, the recovery-event timeline and the outcome
        counters are emitted.
        """
        sanitizer = self._network.sim.sanitizer
        if sanitizer is not None:
            sanitizer.check_session_result(result)
        obs = self._network.sim.observer
        if obs is not None:
            obs.span(
                "session",
                f"{result.client}->{result.server}",
                result.requested_at,
                result.completed_at,
                outcome=result.outcome.value,
                via=result.selected_via,
                bytes=result.delivered,
            )
            obs.count("session.outcome." + result.outcome.value)
            if result.used_indirect:
                obs.count("session.indirect")
            for ev in result.recovery_events:
                obs.event(
                    "recovery",
                    ev.kind,
                    ev.time,
                    path=ev.path,
                    bytes=ev.bytes_received,
                    detail=ev.detail,
                )
                obs.count("recovery." + ev.kind)
        return result

    def _full_download(
        self, path: OverlayPath, client: str, server: str, resource: str
    ) -> SessionResult:
        size = float(path.server.resource_size(resource))
        requested_at = self.now
        request = HttpRequest(host=path.server.name, path=resource, via=path.via)
        transfer = issue_download(
            self._network,
            path.route,
            path.server,
            request,
            proxy=path.proxy,
            tcp=self._config.tcp,
            name=f"full:{path.label}",
        )
        deadline = self._config.resilience.transfer_deadline
        aborted = False
        if deadline is None:
            self._network.run_to_completion(transfer.flow)
        elif not advance_until_done(
            self._network.sim, transfer, requested_at + deadline
        ):
            # Deadline passed (or the path is provably dead forever):
            # bounded abort with whatever prefix arrived.
            transfer.abort(self._network)
            aborted = True
        received = float(transfer.flow.delivered)
        obs = self._network.sim.observer
        if obs is not None:
            obs.span(
                "transfer",
                f"full:{path.label}",
                requested_at,
                self.now,
                path=path.label,
                bytes=received,
                aborted=aborted,
            )
        return self._checked(SessionResult(
            client=client,
            server=server,
            resource=resource,
            size=size,
            offered=(),
            selected_via=path.via,
            requested_at=requested_at,
            completed_at=self.now,
            outcome=SessionOutcome.ABORTED if aborted else SessionOutcome.COMPLETED,
            recovery_events=(
                RecoveryEvent(
                    time=self.now,
                    kind="abort",
                    path=path.label,
                    bytes_received=received,
                ),
            ) if aborted else (),
            bytes_received=received if aborted else None,
        ))
