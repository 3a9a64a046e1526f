"""The simulation clock and run loop.

``Simulator`` is a conventional discrete-event kernel: callbacks are scheduled
at absolute or relative times and executed in ``(time, insertion)`` order.
Agents (HTTP clients, proxies, the fluid transport engine) hold a reference to
the simulator and schedule their own continuations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.errors import SchedulingError, SimulationDeadlock
from repro.sim.event_queue import Event, EventQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.core import Observer
    from repro.qa.sanitize import Sanitizer

__all__ = ["Simulator"]


class Simulator:
    """Discrete-event simulation kernel.

    Set ``sanitize=True`` (or export ``REPRO_SANITIZE=1``) to install the
    :mod:`repro.qa` runtime invariant sanitizer on this kernel and every
    engine bound to it; checks are read-only, so sanitized runs produce
    byte-identical results.

    Set ``observe=True`` (or export ``REPRO_OBS=1``) to bind the
    process-global :class:`repro.obs.core.Observer` to this kernel and
    every engine bound to it.  Observation is likewise read-only and keyed
    to sim time, so observed runs also produce byte-identical results; the
    sanitizer and observer are independent hooks and compose freely.

    Examples
    --------
    >>> sim = Simulator()
    >>> seen = []
    >>> _ = sim.schedule_at(1.0, lambda: seen.append(sim.now))
    >>> _ = sim.schedule_after(0.5, lambda: seen.append(sim.now))
    >>> sim.run()
    1.0
    >>> seen
    [0.5, 1.0]
    """

    __slots__ = (
        "_queue",
        "_now",
        "_processed",
        "max_events",
        "_sanitizer",
        "_observer",
    )

    def __init__(
        self,
        *,
        start_time: float = 0.0,
        max_events: int = 50_000_000,
        sanitize: Optional[bool] = None,
        sanitizer: Optional["Sanitizer"] = None,
        observe: Optional[bool] = None,
        observer: Optional["Observer"] = None,
    ):
        self._queue = EventQueue()
        self._now = float(start_time)
        self._processed = 0
        #: Safety valve against runaway event loops (raises if exceeded).
        self.max_events = int(max_events)
        if sanitizer is None:
            # Lazy imports: repro.qa is only pulled in when sanitizing, so
            # the hot construction path stays import-light and the qa
            # package may import the sim package freely.
            if sanitize is None:
                from repro.qa.sanitize import sanitize_enabled_from_env

                sanitize = sanitize_enabled_from_env()
            if sanitize:
                from repro.qa.sanitize import Sanitizer

                sanitizer = Sanitizer()
        self._sanitizer = sanitizer
        if observer is None:
            # Same lazy-import pattern as the sanitizer above.  Simulators
            # share the process-global observer so one campaign yields one
            # trace; pass ``observer=`` explicitly to isolate a kernel.
            if observe is None:
                from repro.obs.core import observe_enabled_from_env

                observe = observe_enabled_from_env()
            if observe:
                from repro.obs.core import global_observer

                observer = global_observer(create=True)
        self._observer = observer

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def sanitizer(self) -> Optional["Sanitizer"]:
        """The installed runtime invariant checker, or ``None``."""
        return self._sanitizer

    @property
    def observer(self) -> Optional["Observer"]:
        """The bound :mod:`repro.obs` observer, or ``None`` when disabled."""
        return self._observer

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-run, not-cancelled events."""
        return len(self._queue)

    def schedule_at(self, time: float, callback: Callable[[], Any], *, name: str = "") -> Event:
        """Schedule ``callback`` at absolute time ``time`` (>= now)."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        return self._queue.push(time, callback, name=name)

    def schedule_after(self, delay: float, callback: Callable[[], Any], *, name: str = "") -> Event:
        """Schedule ``callback`` after a non-negative ``delay``."""
        if delay < 0.0:
            raise SchedulingError(f"delay must be non-negative, got {delay}")
        return self._queue.push(self._now + delay, callback, name=name)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (idempotent)."""
        self._queue.cancel(event)

    def _step(self) -> bool:
        event = self._queue.pop()
        if event is None:
            return False
        if self._sanitizer is not None:
            self._sanitizer.check_event_time(self._now, event.time, event.name)
        obs = self._observer
        if obs is not None:
            obs.count("sim.events")
            if event.name:
                # Group e.g. "probe:direct" under "sim.event.probe".
                obs.count("sim.event." + event.name.partition(":")[0])
            queue = self._queue
            obs.gauge("sim.queue_depth", float(len(queue)))
            obs.gauge_max("sim.queue_high_water", float(queue.high_water))
            obs.gauge("sim.events_scheduled", float(queue.pushed))
            obs.gauge("sim.events_cancelled", float(queue.cancelled_total))
        # Clock only moves forward; equal-time events run in insertion order.
        self._now = event.time
        self._processed += 1
        if self._processed > self.max_events:
            raise SimulationDeadlock(
                f"exceeded max_events={self.max_events}; "
                "likely a runaway rescheduling loop"
            )
        event.callback()
        return True

    def run(self, *, until: Optional[float] = None) -> float:
        """Run until the queue drains, or just past ``until`` if given.

        With ``until`` set, events strictly after ``until`` remain pending and
        the clock is advanced exactly to ``until``.  Returns the final clock.
        """
        if until is None:
            while self._step():
                pass
            return self._now
        if until < self._now:
            raise SchedulingError(f"until={until} is before current time {self._now}")
        while True:
            t = self._queue.peek_time()
            if t is None or t > until:
                self._now = float(until)
                return self._now
            self._step()

    def run_until_true(
        self,
        predicate: Callable[[], bool],
        *,
        limit: Optional[float] = None,
    ) -> float:
        """Run until ``predicate()`` holds after some event.

        Raises :class:`SimulationDeadlock` if the queue drains (or ``limit``
        is passed) before the predicate is satisfied.
        """
        if predicate():
            return self._now
        queue = self._queue
        step = self._step
        while True:
            t = queue.peek_time()
            if t is None or (limit is not None and t > limit):
                raise SimulationDeadlock(
                    "event queue drained (or time limit reached) before the "
                    "requested condition became true"
                )
            step()
            if predicate():
                return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6f}, pending={self.pending_events}, "
            f"processed={self._processed})"
        )
