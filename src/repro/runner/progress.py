"""Campaign progress telemetry: stderr reporting + machine-readable summary.

The reporter lives entirely at the execution edge: it observes unit
completions and renders ``done/total | rate | eta`` lines, but nothing it
measures can flow back into the measurements (workers never see it, and the
merge order is fixed by the plan).  The clock is injected so tests can drive
it deterministically; the real executor passes ``time.monotonic``.

All accounting lives in a :class:`repro.obs.core.Observer` registry
(``runner.units_done``, ``runner.failed_attempts``,
``runner.worker_failures.<worker>``) rather than private counters: when the
executor hands the reporter the process-global observer, campaign telemetry
lands in the same trace as the engine's.  A reporter created without one
uses a private registry, so behaviour is identical with observability off.
Because a shared observer outlives a single campaign, the reporter
snapshots each counter at construction and reports deltas.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, TextIO

from repro.obs.core import Observer

__all__ = ["ProgressReporter", "RunSummary"]

_DONE_COUNTER = "runner.units_done"
_FAILED_COUNTER = "runner.failed_attempts"
_WORKER_FAILURE_PREFIX = "runner.worker_failures."

#: Seconds between stderr updates on a tty; non-tty streams (CI logs) are
#: additionally throttled to 10-percent steps so logs stay readable.
_TTY_INTERVAL = 0.5
_PERCENT_STEP = 10


@dataclass
class RunSummary:
    """Machine-readable outcome of one executor invocation."""

    study: str
    fingerprint: str
    total_units: int
    skipped_units: int
    executed_units: int
    failed_attempts: int
    retried_units: int
    jobs: int
    wall_seconds: float
    interrupted: bool = False
    worker_failures: Dict[str, int] = field(default_factory=dict)

    @property
    def completed_units(self) -> int:
        return self.skipped_units + self.executed_units

    @property
    def units_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.executed_units / self.wall_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "study": self.study,
            "fingerprint": self.fingerprint,
            "total_units": self.total_units,
            "completed_units": self.completed_units,
            "skipped_units": self.skipped_units,
            "executed_units": self.executed_units,
            "failed_attempts": self.failed_attempts,
            "retried_units": self.retried_units,
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "units_per_second": self.units_per_second,
            "interrupted": self.interrupted,
            "worker_failures": dict(self.worker_failures),
        }


class ProgressReporter:
    """Renders campaign progress to a stream (stderr by default).

    Parameters
    ----------
    total:
        Units in the plan.
    skipped:
        Units already satisfied by a resumed checkpoint.
    clock:
        Monotonic-seconds callable; injected for testability.
    stream:
        Defaults to ``sys.stderr``.
    enabled:
        When False every call is a no-op (the executor still builds the
        :class:`RunSummary`).
    observer:
        The metrics registry to account into; the executor passes the
        process-global observer when observability is on.  ``None`` (the
        default) uses a private registry - same arithmetic, no shared trace.
    """

    def __init__(
        self,
        total: int,
        *,
        skipped: int = 0,
        clock: Callable[[], float],
        stream: Optional[TextIO] = None,
        enabled: bool = True,
        label: str = "campaign",
        observer: Optional[Observer] = None,
    ):
        self.total = total
        self.skipped = skipped
        self._obs = observer if observer is not None else Observer()
        # A shared observer may carry counts from an earlier campaign in
        # this process; all public readings are deltas from these baselines.
        self._base_done = self._obs.counter(_DONE_COUNTER)
        self._base_failed = self._obs.counter(_FAILED_COUNTER)
        self._base_worker = {
            name: value
            for name, value in self._obs.counters.items()
            if name.startswith(_WORKER_FAILURE_PREFIX)
        }
        self._clock = clock
        self._stream = stream if stream is not None else sys.stderr
        self._enabled = enabled
        self._label = label
        self._started_at = clock()
        self._last_emit = float("-inf")
        self._last_percent = -1
        self._tty = bool(getattr(self._stream, "isatty", lambda: False)())

    # ------------------------------------------------------------------ #
    @property
    def observer(self) -> Observer:
        """The metrics registry this reporter accounts into."""
        return self._obs

    @property
    def done(self) -> int:
        """Completed units, the resumed (skipped) prefix included."""
        return self.skipped + int(self._obs.counter(_DONE_COUNTER) - self._base_done)

    @property
    def failed_attempts(self) -> int:
        """Failed execution attempts seen by this reporter."""
        return int(self._obs.counter(_FAILED_COUNTER) - self._base_failed)

    @property
    def worker_failures(self) -> Dict[str, int]:
        """Failed attempts per worker name."""
        out: Dict[str, int] = {}
        for name, value in self._obs.counters.items():
            if not name.startswith(_WORKER_FAILURE_PREFIX):
                continue
            delta = int(value - self._base_worker.get(name, 0.0))
            if delta > 0:
                out[name[len(_WORKER_FAILURE_PREFIX):]] = delta
        return out

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self.skipped:
            self._write(
                f"[{self._label}] resuming: {self.skipped}/{self.total} units "
                "already checkpointed\n"
            )
        self._emit(force=True)

    def unit_finished(self, worker: str) -> None:
        """One unit completed successfully on ``worker``."""
        self._obs.count(_DONE_COUNTER)
        self._emit(force=self.done >= self.total)

    def attempt_failed(self, worker: str, *, unit_index: int, retrying: bool) -> None:
        """One execution attempt failed (the unit may be retried)."""
        self._obs.count(_FAILED_COUNTER)
        self._obs.count(_WORKER_FAILURE_PREFIX + worker)
        verb = "retrying" if retrying else "giving up"
        self._write(
            f"[{self._label}] unit {unit_index} failed on {worker} "
            f"({self.worker_failures[worker]} failure(s) there); {verb}\n"
        )

    def finish(self) -> None:
        self._emit(force=True)
        if self._tty and self._enabled:
            self._stream.write("\n")
            self._stream.flush()

    # ------------------------------------------------------------------ #
    def _emit(self, *, force: bool = False) -> None:
        if not self._enabled:
            return
        now = self._clock()
        percent = int(100 * self.done / self.total) if self.total else 100
        if not force:
            if self._tty:
                if now - self._last_emit < _TTY_INTERVAL:
                    return
            elif percent < self._last_percent + _PERCENT_STEP:
                return
        self._last_emit = now
        self._last_percent = percent
        elapsed = max(now - self._started_at, 1e-9)
        executed = self.done - self.skipped
        rate = executed / elapsed
        remaining = self.total - self.done
        if rate > 0.0 and remaining > 0:
            eta = f"{remaining / rate:.0f}s"
        elif remaining == 0:
            eta = "done"
        else:
            eta = "?"
        failures = (
            f" | failures {self.failed_attempts}" if self.failed_attempts else ""
        )
        line = (
            f"[{self._label}] {self.done}/{self.total} units ({percent}%)"
            f" | {rate:.1f} units/s | eta {eta}{failures}"
        )
        end = "\r" if self._tty else "\n"
        self._stream.write(line + end)
        self._stream.flush()

    def _write(self, text: str) -> None:
        if not self._enabled:
            return
        if self._tty:
            # Clear the in-place progress line before a full-line message.
            self._stream.write("\x1b[2K\r")
        self._stream.write(text)
        self._stream.flush()
