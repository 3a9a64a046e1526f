"""Runtime invariant sanitizer for the simulation stack.

Opt in either per-kernel (``Simulator(sanitize=True)``) or process-wide with
the ``REPRO_SANITIZE`` environment variable (``1`` / ``true`` / ``on``).
When active, the event loop, the fluid transport engine and the transfer
session call into one :class:`Sanitizer`, which validates the ``QA-R*``
invariants of :mod:`repro.qa.rules` *read-only*: a sanitized run performs
byte-identical simulation work, it merely observes it.

A violated invariant produces a structured :class:`Violation` diagnostic and
(by default) raises :class:`InvariantViolation` - loudly, at the first
corrupt state, instead of letting a silent accounting bug distort the
reproduction's headline statistics.  ``mode="collect"`` records violations
without raising, which the self-check battery and tests use.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.qa.rules import INVARIANTS
from repro.qa.tolerances import (
    BYTE_CONSERVATION_SLACK,
    CAPACITY_RTOL,
    PROBE_OVERSHOOT_SLACK,
    RATE_ATOL,
)
from repro.sim.errors import SimulationError
from repro.vec.solver import certify_maxmin

__all__ = [
    "Violation",
    "InvariantViolation",
    "Sanitizer",
    "sanitize_enabled_from_env",
]

_ENV_VAR = "REPRO_SANITIZE"
_TRUTHY = {"1", "true", "yes", "on"}


def sanitize_enabled_from_env(environ: Optional[Dict[str, str]] = None) -> bool:
    """True when ``REPRO_SANITIZE`` requests process-wide sanitizing."""
    env = os.environ if environ is None else environ
    return env.get(_ENV_VAR, "").strip().lower() in _TRUTHY


@dataclass(frozen=True)
class Violation:
    """Structured diagnostic for one violated runtime invariant."""

    code: str
    invariant: str
    sim_time: float
    subject: str
    detail: str
    measured: Optional[float] = None
    limit: Optional[float] = None

    def format(self) -> str:
        """Human-readable multi-line rendering."""
        head = (
            f"{self.code} [{self.invariant}] at t={self.sim_time:.9g}: "
            f"{self.detail}"
        )
        lines = [head, f"    subject: {self.subject}"]
        if self.measured is not None or self.limit is not None:
            lines.append(
                f"    measured={self.measured!r} limit={self.limit!r}"
            )
        hint = INVARIANTS[self.code].hint if self.code in INVARIANTS else ""
        if hint:
            lines.append(f"    hint: {hint}")
        return "\n".join(lines)


class InvariantViolation(SimulationError):
    """Raised when a runtime invariant check fails (``mode="raise"``)."""

    def __init__(self, violation: Violation):
        super().__init__(violation.format())
        self.violation = violation


@dataclass
class Sanitizer:
    """Read-only runtime invariant checker.

    Parameters
    ----------
    mode:
        ``"raise"`` (default) raises :class:`InvariantViolation` at the first
        violation; ``"collect"`` records silently in :attr:`violations`.
    """

    mode: str = "raise"
    violations: List[Violation] = field(default_factory=list)
    checks_run: int = 0
    _last_delivered: Dict[int, float] = field(default_factory=dict)
    #: Link name -> blackout [start, end) spans registered by the chaos
    #: subsystem; :meth:`check_allocation` enforces QA-R006 against them.
    fault_windows: Dict[str, List[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in ("raise", "collect"):
            raise ValueError(f"mode must be 'raise' or 'collect', got {self.mode!r}")

    # ------------------------------------------------------------------ #
    def _report(
        self,
        code: str,
        sim_time: float,
        subject: str,
        detail: str,
        *,
        measured: Optional[float] = None,
        limit: Optional[float] = None,
    ) -> None:
        violation = Violation(
            code=code,
            invariant=INVARIANTS[code].name,
            sim_time=float(sim_time),
            subject=subject,
            detail=detail,
            measured=measured,
            limit=limit,
        )
        self.violations.append(violation)
        if self.mode == "raise":
            raise InvariantViolation(violation)

    # ------------------------------------------------------------------ #
    # QA-R001: event-time monotonicity
    # ------------------------------------------------------------------ #
    def check_event_time(self, now: float, event_time: float, name: str = "") -> None:
        """The event loop is about to run an event; its time must be >= now."""
        self.checks_run += 1
        if event_time < now or math.isnan(event_time):
            self._report(
                "QA-R001",
                now,
                name or "<event>",
                f"event scheduled at t={event_time!r} executed with clock at "
                f"t={now!r} (time would move backwards)",
                measured=event_time,
                limit=now,
            )

    # ------------------------------------------------------------------ #
    # QA-R002: flow byte conservation
    # ------------------------------------------------------------------ #
    def check_flow_progress(self, flow: Any, now: float) -> None:
        """Delivered bytes are monotone, bounded by size; rate is sane."""
        self.checks_run += 1
        delivered = float(flow.delivered)
        size = float(flow.size)
        rate = float(flow.rate)
        name = str(flow.name)
        previous = self._last_delivered.get(flow.id)
        if previous is not None and delivered < previous - BYTE_CONSERVATION_SLACK:
            self._report(
                "QA-R002",
                now,
                name,
                f"delivered bytes decreased from {previous!r} to {delivered!r}",
                measured=delivered,
                limit=previous,
            )
        if delivered > size + BYTE_CONSERVATION_SLACK:
            self._report(
                "QA-R002",
                now,
                name,
                f"delivered {delivered!r} bytes but only {size!r} were requested",
                measured=delivered,
                limit=size,
            )
        if rate < -RATE_ATOL or not math.isfinite(rate):
            self._report(
                "QA-R002",
                now,
                name,
                f"flow rate {rate!r} is negative or non-finite",
                measured=rate,
                limit=0.0,
            )
        self._last_delivered[flow.id] = delivered

    def forget_flow(self, flow_id: int) -> None:
        """Drop progress tracking for a finished flow."""
        self._last_delivered.pop(flow_id, None)

    def check_groups_progress(
        self,
        now: float,
        delivered: np.ndarray,
        previous: np.ndarray,
        size: np.ndarray,
        rate: np.ndarray,
        alive: np.ndarray,
    ) -> None:
        """:meth:`check_flow_progress` over a vector core's group columns.

        Group ``i`` is checked when ``alive[i]`` (it has a live row): its
        ``delivered`` bytes against the previous tick's ``previous``
        snapshot and its ``size``, and its ``rate`` (the one chosen at the
        previous tick).  Every live row of a group holds these bits.
        """
        self.checks_run += 1
        shrunk = delivered < previous - BYTE_CONSERVATION_SLACK
        over = delivered > size + BYTE_CONSERVATION_SLACK
        wild = ~(rate >= -RATE_ATOL) | np.isinf(rate)  # negative, NaN or inf
        bad = shrunk | over | wild
        bad &= alive
        if not bad.any():
            return
        for mask, detail, measured, limit in (
            (shrunk, "delivered bytes decreased from {limit!r} to {measured!r}",
             delivered, previous),
            (over, "delivered {measured!r} bytes but only {limit!r} were requested",
             delivered, size),
            (wild, "flow rate {measured!r} is negative or non-finite",
             rate, np.zeros_like(rate)),
        ):
            groups = np.flatnonzero(mask & alive)
            if groups.size:
                r = int(groups[0])
                m, lim = float(measured[r]), float(limit[r])
                self._report(
                    "QA-R002", now, f"vector group {r} ({groups.size} group(s) total)",
                    detail.format(measured=m, limit=lim), measured=m, limit=lim,
                )

    # ------------------------------------------------------------------ #
    # QA-R006: blackout fault windows
    # ------------------------------------------------------------------ #
    def watch_fault_windows(self, spans_by_link: Dict[str, Any]) -> None:
        """Register blackout spans for QA-R006 enforcement.

        ``spans_by_link`` maps link names to ``(start, end)`` pairs during
        which the link is fully failed (see
        :func:`repro.net.failures.blackout_spans`).  Later registrations
        extend earlier ones, so a sanitizer shared across several faulted
        universes accumulates every window it must police.
        """
        for name, spans in spans_by_link.items():
            self.fault_windows.setdefault(str(name), []).extend(
                (float(t0), float(t1)) for t0, t1 in spans
            )

    # ------------------------------------------------------------------ #
    # QA-R003 + QA-R004: allocation validity and link capacity
    # ------------------------------------------------------------------ #
    def check_allocation(
        self,
        now: float,
        capacities: np.ndarray,
        lids: np.ndarray,
        frow: np.ndarray,
        caps: np.ndarray,
        rates: np.ndarray,
        link_names: Sequence[str],
    ) -> None:
        """Validate a freshly installed rate allocation.

        ``capacities`` and ``link_names`` cover the engine's link table;
        entry ``i`` of ``lids``/``frow`` says flow ``frow[i]`` crosses link
        ``lids[i]``.  QA-R006 polices the registered blackout links in use;
        then :func:`repro.vec.solver.certify_maxmin` checks the max-min
        post-condition (feasibility, cap respect, fairness) in O(nnz), and
        only a failed certificate pays for the per-link loads that tell
        QA-R004 (an overloaded link) from QA-R003.
        """
        self.checks_run += 1
        m = capacities.shape[0]

        def loads() -> np.ndarray:
            return np.bincount(lids, weights=rates[frow], minlength=m)

        used = np.zeros(m, dtype=bool)
        used[lids] = True
        if self._blackout_violated(now, capacities, link_names, loads, used):
            return
        if certify_maxmin(capacities, lids, frow, caps, rates):
            return
        if not self._overload_violated(now, capacities, loads(), link_names):
            self._report_unfair(now, rates.size, int(np.count_nonzero(used)))

    def _blackout_violated(
        self,
        now: float,
        capacities: np.ndarray,
        link_names: Sequence[str],
        loads: Callable[[], np.ndarray],
        used: np.ndarray,
    ) -> bool:
        """QA-R006 over the ``used`` links inside a registered blackout
        window at ``now``; ``loads()`` gives the per-link loads and runs
        only when such a link has no capacity."""
        if not self.fault_windows:
            return False
        load = None
        for i, name in enumerate(link_names):
            spans = self.fault_windows.get(str(name))
            if not spans or not used[i]:
                continue
            if not any(t0 <= now < t1 for t0, t1 in spans):
                continue
            slack_i = CAPACITY_RTOL * max(float(capacities[i]), 1.0)
            if capacities[i] > slack_i:
                self._report(
                    "QA-R006",
                    now,
                    str(name),
                    f"link carries {capacities[i]!r} bytes/s of capacity "
                    "inside a registered blackout fault window",
                    measured=float(capacities[i]),
                    limit=slack_i,
                )
                return True
            if load is None:
                load = loads()
            if load[i] > RATE_ATOL:
                self._report(
                    "QA-R006",
                    now,
                    str(name),
                    f"{load[i]!r} bytes/s of traffic crossed the link "
                    "inside a registered blackout fault window",
                    measured=float(load[i]),
                    limit=RATE_ATOL,
                )
                return True
        return False

    def _overload_violated(
        self,
        now: float,
        capacities: np.ndarray,
        load: np.ndarray,
        link_names: Sequence[str],
    ) -> bool:
        """QA-R004: no link's load exceeds its capacity (+ slack)."""
        slack = CAPACITY_RTOL * np.maximum(capacities, 1.0)
        over = np.flatnonzero(load > capacities + slack)
        if not over.size:
            return False
        worst = int(over[np.argmax(load[over] - capacities[over])])
        self._report(
            "QA-R004",
            now,
            str(link_names[worst]),
            f"link load {load[worst]!r} bytes/s exceeds capacity "
            f"{capacities[worst]!r} bytes/s "
            f"({over.size} oversubscribed link(s) total)",
            measured=float(load[worst]),
            limit=float(capacities[worst]),
        )
        return True

    def _report_unfair(self, now: float, n_flows: int, n_links: int) -> None:
        """QA-R003: the allocation fails the max-min post-condition."""
        self._report(
            "QA-R003",
            now,
            f"{n_flows} flow(s) over {n_links} link(s)",
            "installed rate vector fails the max-min fairness "
            "post-condition (feasible but not cap-respecting or not "
            "max-min fair)",
        )

    # ------------------------------------------------------------------ #
    # QA-R005: probe-phase accounting
    # ------------------------------------------------------------------ #
    def check_probe_outcome(
        self, outcome: Any, candidate_labels: Sequence[str]
    ) -> None:
        """Validate one probe round's bookkeeping."""
        self.checks_run += 1
        now = float(outcome.decided_at)
        if outcome.decided_at < outcome.started_at:
            self._report(
                "QA-R005",
                now,
                "probe-phase",
                f"probe decided at t={outcome.decided_at!r} before it started "
                f"at t={outcome.started_at!r}",
                measured=float(outcome.decided_at),
                limit=float(outcome.started_at),
            )
        if outcome.winner.label not in set(candidate_labels):
            self._report(
                "QA-R005",
                now,
                str(outcome.winner.label),
                f"probe winner {outcome.winner.label!r} is not among the "
                f"candidates {list(candidate_labels)!r}",
            )
        budget = float(outcome.probe_bytes) + PROBE_OVERSHOOT_SLACK
        for probe in outcome.probes:
            moved = float(probe.transfer.flow.delivered)
            if moved > budget:
                self._report(
                    "QA-R005",
                    now,
                    str(probe.label),
                    f"probe moved {moved!r} bytes, exceeding the requested "
                    f"probe size {float(outcome.probe_bytes)!r}",
                    measured=moved,
                    limit=budget,
                )

    def check_session_result(self, result: Any) -> None:
        """Validate a completed session's phase ordering and sizes."""
        self.checks_run += 1
        now = float(result.completed_at)
        if result.completed_at < result.requested_at:
            self._report(
                "QA-R005",
                now,
                f"{result.client}->{result.server}",
                f"session completed at t={result.completed_at!r} before it "
                f"was requested at t={result.requested_at!r}",
                measured=float(result.completed_at),
                limit=float(result.requested_at),
            )
        if result.remainder_started_at is not None and not (
            result.requested_at <= result.remainder_started_at <= result.completed_at
        ):
            self._report(
                "QA-R005",
                now,
                f"{result.client}->{result.server}",
                f"remainder phase start t={result.remainder_started_at!r} "
                f"lies outside the session interval "
                f"[{result.requested_at!r}, {result.completed_at!r}]",
                measured=float(result.remainder_started_at),
            )
        if result.size <= 0.0:
            self._report(
                "QA-R005",
                now,
                str(result.resource),
                f"session recorded a non-positive transfer size {result.size!r}",
                measured=float(result.size),
                limit=0.0,
            )
        # Resilient-protocol post-conditions (fields absent on legacy-shaped
        # results are treated as their defaults).
        events = tuple(getattr(result, "recovery_events", ()) or ())
        prev_time = float(result.requested_at)
        prev_bytes = 0.0
        for event in events:
            # QA-R007: delivered-byte snapshots along the recovery timeline
            # never go backwards, even when overlapping faults interleave
            # stalls, failovers and reissues.
            if event.bytes_received < prev_bytes - BYTE_CONSERVATION_SLACK:
                self._report(
                    "QA-R007",
                    now,
                    f"{result.client}->{result.server}",
                    f"recovery event {event.kind!r} at t={event.time!r} "
                    f"snapshot {event.bytes_received!r} bytes, below the "
                    f"earlier snapshot of {prev_bytes!r}",
                    measured=float(event.bytes_received),
                    limit=prev_bytes,
                )
            prev_bytes = max(prev_bytes, float(event.bytes_received))
            if not (result.requested_at <= event.time <= result.completed_at):
                self._report(
                    "QA-R005",
                    now,
                    f"{result.client}->{result.server}",
                    f"recovery event {event.kind!r} at t={event.time!r} lies "
                    f"outside the session interval "
                    f"[{result.requested_at!r}, {result.completed_at!r}]",
                    measured=float(event.time),
                )
            if event.time < prev_time:
                self._report(
                    "QA-R005",
                    now,
                    f"{result.client}->{result.server}",
                    f"recovery timeline is not time-ordered: {event.kind!r} "
                    f"at t={event.time!r} precedes t={prev_time!r}",
                    measured=float(event.time),
                    limit=prev_time,
                )
            prev_time = float(event.time)
        bytes_received = getattr(result, "bytes_received", None)
        if bytes_received is not None and not (
            0.0 <= bytes_received <= result.size
        ):
            self._report(
                "QA-R005",
                now,
                f"{result.client}->{result.server}",
                f"session reported {bytes_received!r} bytes received for a "
                f"{result.size!r}-byte resource",
                measured=float(bytes_received),
                limit=float(result.size),
            )

    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """One-line status: checks run and violations found."""
        return (
            f"sanitizer: {self.checks_run} check(s), "
            f"{len(self.violations)} violation(s)"
        )
