"""Resilient-transfer primitives: outcomes, recovery timelines, stall watchdog.

The paper's mechanism is brittle by construction: a probe on a dead path has
no deadline, and a path that dies *after* selection strands the transfer.
The lineage it builds on (RON, MONET, mHTTP) treats recovery as part of the
protocol, and this module provides the shared vocabulary for that layer:

:class:`SessionOutcome`
    How a session ended: clean completion, completion after one or more
    recovery actions, or a bounded abort.
:class:`RecoveryEvent`
    One timestamped entry in a session's recovery timeline (stall detected,
    failover issued, backoff wait, re-probe, probe timeout, abort).
:class:`ResilienceConfig`
    The protocol knobs: probe deadline, failover enablement, stall detection
    parameters, retry budgets and the deterministic exponential backoff.
:class:`StallWatchdog`
    The stall detector behind :class:`~repro.core.session.TransferSession`
    failover.  It plants explicit wake-up events
    (the fluid engine only generates events at rate changes), samples the
    flow's delivered bytes, and declares a stall when recent throughput
    drops below ``stall_threshold x expected`` - or, independently of any
    expectation, when a full check window passes with zero progress.

Everything here is deterministic: watchdog wake-ups are scheduled at times
derived from simulation state only, and backoff waits are a pure function of
the retry count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.sim.errors import TransferError
from repro.util.validation import check_in_range, check_positive

__all__ = [
    "RECOVERY_EVENT_KINDS",
    "RecoveryEvent",
    "ResilienceConfig",
    "SessionOutcome",
    "StallWatchdog",
    "WatchVerdict",
    "advance_until_done",
    "recovery_time_of",
]


class SessionOutcome(enum.Enum):
    """How a transfer session ended."""

    #: Every byte arrived over the originally selected path.
    COMPLETED = "completed"
    #: Every byte arrived, but only after at least one recovery action.
    FAILED_OVER = "failed_over"
    #: The session gave up (probe timeout, retry budget or deadline).
    ABORTED = "aborted"
    #: Every byte arrived, but the session lost at least one of its striped
    #: paths on the way (striped sessions degrade rather than fail over).
    DEGRADED = "degraded"


#: Valid :attr:`RecoveryEvent.kind` values, in rough lifecycle order.  The
#: last two belong to striped sessions (:mod:`repro.stripe`): ``path_dead``
#: when a stripe path stops progressing and returns its blocks, ``reissue``
#: when a tail block is speculatively duplicated onto a second path.
RECOVERY_EVENT_KINDS: Tuple[str, ...] = (
    "stall",
    "failover",
    "backoff",
    "reprobe",
    "probe_timeout",
    "abort",
    "path_dead",
    "reissue",
)


@dataclass(frozen=True)
class RecoveryEvent:
    """One entry in a session's recovery timeline.

    Attributes
    ----------
    time:
        Simulation time of the event.
    kind:
        One of :data:`RECOVERY_EVENT_KINDS`.
    path:
        Label of the path involved (``"direct"``, a relay name, or ``""``
        when no single path applies, e.g. a backoff wait).
    bytes_received:
        Cumulative payload bytes the client held at this point.
    detail:
        Kind-specific scalar: for ``stall`` the seconds since the watchdog
        last saw progress, for ``backoff`` the wait length in seconds, for
        ``probe_timeout`` the configured deadline; 0.0 otherwise.
    """

    time: float
    kind: str
    path: str
    bytes_received: float
    detail: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in RECOVERY_EVENT_KINDS:
            raise ValueError(
                f"unknown recovery event kind {self.kind!r}; "
                f"expected one of {RECOVERY_EVENT_KINDS}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-compatible rendering."""
        return {
            "time": self.time,
            "kind": self.kind,
            "path": self.path,
            "bytes_received": self.bytes_received,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RecoveryEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(**d)


@dataclass(frozen=True)
class ResilienceConfig:
    """Protocol-level robustness knobs of a transfer session.

    The defaults reproduce the legacy (pre-resilience) protocol exactly:
    no probe deadline, no failover, no transfer deadline.  Studies that
    want the resilient protocol opt in explicitly.

    Attributes
    ----------
    probe_deadline:
        Seconds a probe race may run before it is torn down with a
        structured :class:`~repro.core.probe.ProbeTimeout`.  In sequential
        mode the deadline applies per candidate (each probe gets the full
        budget).  ``None`` (default) keeps the legacy unbounded race.
    failover:
        Enable mid-transfer failover: when the selected path stalls, the
        remaining bytes are re-requested over the probe runner-up (direct
        as last resort), then via backoff + re-probe.
    stall_threshold / check_interval / grace_period:
        :class:`StallWatchdog` parameters: sample every ``check_interval``
        seconds after a ``grace_period`` warm-up; stall when recent
        throughput drops below ``stall_threshold x expected`` (the winner's
        probe throughput), or when progress stops entirely.
    max_failovers:
        Path switches allowed per session before it aborts.
    max_reprobes:
        Mid-transfer re-probe rounds allowed after the alternates are
        exhausted.
    backoff_base / backoff_factor:
        The deterministic exponential backoff before re-probe round ``k``
        waits ``backoff_base * backoff_factor ** k`` seconds.
    transfer_deadline:
        Bound on a whole session (seconds from request).  Reaching it
        aborts the session with the bytes received so far.  ``None``
        (default) leaves sessions unbounded, as before.
    """

    probe_deadline: Optional[float] = None
    failover: bool = False
    stall_threshold: float = 0.5
    check_interval: float = 4.0
    grace_period: float = 3.0
    max_failovers: int = 3
    max_reprobes: int = 2
    backoff_base: float = 2.0
    backoff_factor: float = 2.0
    transfer_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.probe_deadline is not None:
            check_positive(self.probe_deadline, "probe_deadline")
        check_in_range(self.stall_threshold, "stall_threshold", 0.0, 1.0)
        check_positive(self.check_interval, "check_interval")
        check_positive(self.grace_period, "grace_period")
        if self.max_failovers < 0:
            raise ValueError("max_failovers must be >= 0")
        if self.max_reprobes < 0:
            raise ValueError("max_reprobes must be >= 0")
        check_positive(self.backoff_base, "backoff_base")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1 (non-decreasing waits), "
                f"got {self.backoff_factor}"
            )
        if self.transfer_deadline is not None:
            check_positive(self.transfer_deadline, "transfer_deadline")

    def backoff_wait(self, reprobe_round: int) -> float:
        """Deterministic exponential backoff before re-probe ``reprobe_round``."""
        if reprobe_round < 0:
            raise ValueError("reprobe_round must be >= 0")
        return self.backoff_base * self.backoff_factor**reprobe_round


@dataclass(frozen=True)
class WatchVerdict:
    """Outcome of one :meth:`StallWatchdog.watch` call.

    ``reason`` is ``"completed"`` when the transfer finished, else one of
    ``"stall"`` (throughput below threshold or zero progress), ``"frozen"``
    (the engine proved no active flow can ever progress again) or
    ``"deadline"`` (the absolute deadline passed).  ``idle_seconds`` is the
    time since the watchdog last saw the flow progress.
    """

    stalled: bool
    reason: str
    idle_seconds: float = 0.0


def _noop() -> None:
    return None


def advance_until_done(sim: Any, transfer: Any, deadline_at: float) -> bool:
    """Run ``sim`` until ``transfer`` completes or the clock hits ``deadline_at``.

    Returns True when the transfer completed.  A frozen transport engine
    (every active flow at zero rate with no future capacity change - the
    fluid engine raises :class:`~repro.sim.errors.TransferError` for this)
    returns early: nothing can progress, so waiting longer is pointless.
    """
    if transfer.done:
        return True
    if math.isinf(deadline_at):
        raise ValueError("deadline_at must be finite (use run_to_completion)")
    if deadline_at < sim.now:
        return False
    wake = sim.schedule_at(deadline_at, _noop, name="transfer-deadline")
    try:
        while not transfer.done and sim.now < deadline_at:
            try:
                sim.run_until_true(lambda: transfer.done or sim.now >= deadline_at)
            except TransferError:
                break
    finally:
        sim.cancel(wake)
    return transfer.done


class StallWatchdog:
    """Deterministic stall detector over one in-flight transfer.

    The watchdog owns no state between :meth:`watch` calls; each call
    supervises one transfer until it completes or a stall verdict is
    reached.  See the module docstring for the detection rules.
    """

    def __init__(
        self,
        sim: Any,
        *,
        stall_threshold: float,
        check_interval: float,
        grace_period: float,
    ):
        check_in_range(stall_threshold, "stall_threshold", 0.0, 1.0)
        check_positive(check_interval, "check_interval")
        check_positive(grace_period, "grace_period")
        self._sim = sim
        self._stall_threshold = stall_threshold
        self._check_interval = check_interval
        self._grace_period = grace_period

    # ------------------------------------------------------------------ #
    def _advance(self, transfer: Any, wake_at: float) -> str:
        """Run until the transfer completes, ``wake_at`` passes, or the
        engine freezes; returns ``"done"``, ``"woke"`` or ``"frozen"``."""
        sim = self._sim
        if transfer.done:
            return "done"
        wake = sim.schedule_at(wake_at, _noop, name="watchdog")
        try:
            sim.run_until_true(lambda: transfer.done or sim.now >= wake_at)
        except TransferError:
            return "frozen"
        finally:
            sim.cancel(wake)
        return "done" if transfer.done else "woke"

    def watch(
        self,
        transfer: Any,
        expected: float,
        *,
        deadline_at: float = math.inf,
    ) -> WatchVerdict:
        """Advance the sim until ``transfer`` completes or stalls.

        ``expected`` is the throughput the path promised (its probe
        measurement); with ``expected <= 0`` only the zero-progress rule
        and the deadline apply.  ``deadline_at`` is an absolute simulation
        time bounding the whole watch.
        """
        obs = getattr(self._sim, "observer", None)
        if obs is not None:
            obs.count("watchdog.watches")
        verdict = self._watch(transfer, expected, deadline_at, obs)
        if obs is not None:
            obs.count("watchdog.verdict." + verdict.reason)
            if verdict.stalled:
                obs.observe_value("watchdog.idle_seconds", verdict.idle_seconds)
        return verdict

    def _watch(
        self,
        transfer: Any,
        expected: float,
        deadline_at: float,
        obs: Any,
    ) -> WatchVerdict:
        sim = self._sim
        start = sim.now
        if start >= deadline_at:
            return WatchVerdict(True, "deadline", 0.0)
        threshold = self._stall_threshold * expected if expected > 0.0 else 0.0

        # Grace: let slow start finish before judging the path.
        status = self._advance(transfer, min(start + self._grace_period, deadline_at))
        if status == "done":
            return WatchVerdict(False, "completed")
        if status == "frozen":
            return WatchVerdict(True, "frozen", sim.now - start)

        last_t = sim.now
        last_d = float(transfer.flow.delivered_at(last_t))
        healthy_at = last_t
        while True:
            if obs is not None:
                obs.count("watchdog.checks")
            if sim.now >= deadline_at:
                return WatchVerdict(True, "deadline", sim.now - healthy_at)
            status = self._advance(
                transfer, min(last_t + self._check_interval, deadline_at)
            )
            if status == "done":
                return WatchVerdict(False, "completed")
            if status == "frozen":
                return WatchVerdict(True, "frozen", sim.now - healthy_at)
            now = sim.now
            elapsed = max(now - last_t, 1e-9)
            delivered = float(transfer.flow.delivered_at(now))
            recent = (delivered - last_d) / elapsed
            progressed = delivered > last_d
            if progressed:
                healthy_at = now
            last_t, last_d = now, delivered
            if not progressed or recent < threshold:
                return WatchVerdict(True, "stall", now - healthy_at)


def recovery_time_of(events: Sequence[RecoveryEvent]) -> float:
    """Time-to-recover of a session's first stall, in seconds.

    Measured from the watchdog's last healthy sample before the first
    ``stall`` event to the recovery action (``failover`` or ``reprobe``)
    that answered it: ``stall.detail`` covers the detection latency and the
    event gap covers backoff waits and re-probe races.  NaN when the
    session never stalled or never recovered (aborted sessions).
    """
    for i, event in enumerate(events):
        if event.kind == "stall":
            for later in events[i + 1 :]:
                if later.kind in ("failover", "reprobe"):
                    return (later.time - event.time) + event.detail
            return float("nan")
    return float("nan")
