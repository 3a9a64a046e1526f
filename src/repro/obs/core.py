"""Zero-overhead-when-disabled instrumentation core.

One process-local :class:`Observer` collects everything the stack emits:

counters
    Monotone floats (``obs.count("alloc.cache_rebuild")``).
gauges
    Last-written values (``obs.gauge("sim.queue_depth", 3.0)``); a
    set-if-greater variant (:meth:`Observer.gauge_max`) records high-water
    marks deterministically.
histograms
    Fixed-bucket distributions (``obs.observe_value("runner.queue_wait_seconds",
    0.02)``).  Buckets are fixed at first observation, so shard merges are
    exact element-wise sums.
spans and events
    Timestamped records (:class:`ObsRecord`).  Sim-core spans carry
    *simulation* times; runner-edge spans carry seconds on the executor's
    injected monotonic clock, distinguished by their ``track``.  Records are
    ordered by ``(start, track, seq)`` where ``seq`` is a deterministic
    per-observer sequence number - never a wall-clock reading - so traces
    from identical runs are byte-identical and diffable.

Enabling
--------
``REPRO_OBS=1`` (process-wide), ``Simulator(observe=True)`` (per kernel), or
the CLI ``--obs`` flag.  When disabled every instrumentation point reduces
to one ``is not None`` test on a cached attribute, so the hot paths pay
nothing; enabling it never changes simulation behaviour, only observes it
(study artefacts are byte-identical either way).

The module is stdlib-only and imports nothing from the simulation stack, so
every layer may import it freely.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_RECORDS",
    "DEFAULT_TRACK",
    "OBS_DIR_ENV_VAR",
    "OBS_ENV_VAR",
    "SCHEMA",
    "Histogram",
    "ObsRecord",
    "Observer",
    "global_observer",
    "observe_enabled_from_env",
    "reset_global_observer",
    "shard_directory_from_env",
]

#: Schema tag stamped into exported traces.
SCHEMA = "repro-obs/1"

#: Environment variable enabling process-wide observation.
OBS_ENV_VAR = "REPRO_OBS"
#: Directory worker processes dump their trace shards into (set by the CLI).
OBS_DIR_ENV_VAR = "REPRO_OBS_DIR"
_TRUTHY = {"1", "true", "yes", "on"}

#: Track name for records that do not name one explicitly.
DEFAULT_TRACK = "main"

#: Default histogram bucket upper bounds: a decade ladder wide enough for
#: sub-millisecond allocator solves and multi-minute campaign waits alike.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1_000.0,
)

#: Span/event records kept in memory before the observer starts dropping
#: (the ``dropped`` counter records how many were lost).
DEFAULT_MAX_RECORDS = 250_000


def observe_enabled_from_env(environ: Optional[Mapping[str, str]] = None) -> bool:
    """True when ``REPRO_OBS`` requests process-wide observation."""
    env: Mapping[str, str] = os.environ if environ is None else environ
    return env.get(OBS_ENV_VAR, "").strip().lower() in _TRUTHY


def shard_directory_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[str]:
    """Directory worker processes should dump trace shards into, or ``None``."""
    env: Mapping[str, str] = os.environ if environ is None else environ
    value = env.get(OBS_DIR_ENV_VAR, "").strip()
    return value or None


class Histogram:
    """A fixed-bucket histogram (bounds are upper edges, plus overflow).

    ``counts[i]`` holds observations ``<= bounds[i]`` (and greater than the
    previous bound); ``counts[-1]`` is the overflow bucket.  Min/max/sum are
    tracked exactly, so :meth:`quantile` can clamp its bucket-edge estimate
    to the observed range.
    """

    __slots__ = ("bounds", "counts", "total", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS):
        ordered = tuple(float(b) for b in bounds)
        if not ordered or any(nxt <= prev for nxt, prev in zip(ordered[1:], ordered)):
            raise ValueError(f"bucket bounds must be strictly increasing, got {bounds}")
        self.bounds: Tuple[float, ...] = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Add one observation."""
        v = float(value)
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if v <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.total += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    def observe_many(self, values: Sequence[float]) -> None:
        """Add every value in order; the same fields as one :meth:`observe`
        each.

        Buckets come from one ``searchsorted`` (NaN lands in the overflow
        bucket, as ``v <= bound`` is false for it), ``sum`` adds one float
        at a time in order, and ``min``/``max`` keep the first value that
        reaches them, as repeated strict comparisons do (NaN never does).
        """
        import numpy as np  # deferred: the module itself is stdlib-only

        v = np.asarray(values, dtype=np.float64).ravel()
        if not v.size:
            return
        idx = np.searchsorted(np.asarray(self.bounds), v, side="left")
        for i, count in enumerate(np.bincount(idx, minlength=len(self.counts)).tolist()):
            self.counts[i] += count
        self.total += int(v.size)
        with np.errstate(all="ignore"):  # inf/NaN sums as silently as floats
            self.sum = float(np.cumsum(np.concatenate(([self.sum], v)))[-1])
        seen = v[~np.isnan(v)]
        if seen.size:
            lo, hi = seen.min(), seen.max()
            if lo < self.min:
                self.min = float(seen[np.flatnonzero(seen == lo)[0]])
            if hi > self.max:
                self.max = float(seen[np.flatnonzero(seen == hi)[0]])

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0.0 when empty)."""
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-edge estimate of the ``q``-quantile (0 <= q <= 1).

        Returns the upper bound of the first bucket whose cumulative count
        reaches ``q * total``, clamped to the observed min/max; 0.0 when the
        histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        cum = 0
        estimate = self.max
        for i, count in enumerate(self.counts):
            cum += count
            if cum >= rank:
                estimate = self.bounds[i] if i < len(self.bounds) else self.max
                break
        return min(max(estimate, self.min), self.max)

    def merge_in(self, other: "Histogram") -> None:
        """Element-wise accumulate ``other`` (bounds must match exactly)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible rendering."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "min": self.min if self.total else None,
            "max": self.max if self.total else None,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Histogram":
        """Inverse of :meth:`to_dict`."""
        hist = cls(tuple(d["bounds"]))
        counts = [int(c) for c in d["counts"]]
        if len(counts) != len(hist.counts):
            raise ValueError("histogram counts do not match bounds")
        hist.counts = counts
        hist.total = int(d["total"])
        hist.sum = float(d["sum"])
        if d.get("min") is not None:
            hist.min = float(d["min"])
        if d.get("max") is not None:
            hist.max = float(d["max"])
        return hist


class ObsRecord:
    """One completed span (``kind="span"``) or point event (``kind="event"``).

    ``start``/``end`` are in the emitting layer's clock domain (sim seconds
    for sim-core tracks, executor-clock seconds for runner tracks); events
    have ``end == start``.  ``seq`` is the observer's deterministic sequence
    number; ``args`` is a small JSON-compatible payload.
    """

    __slots__ = ("kind", "category", "name", "start", "end", "seq", "track", "args")

    def __init__(
        self,
        kind: str,
        category: str,
        name: str,
        start: float,
        end: float,
        seq: int,
        track: str,
        args: Optional[Dict[str, Any]] = None,
    ):
        self.kind = kind
        self.category = category
        self.name = name
        self.start = start
        self.end = end
        self.seq = seq
        self.track = track
        self.args = args

    @property
    def duration(self) -> float:
        """Span length in its clock domain's seconds (0.0 for events)."""
        return self.end - self.start

    @property
    def sort_key(self) -> Tuple[float, str, int]:
        """Deterministic merge order: time, then track, then sequence."""
        return (self.start, self.track, self.seq)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible rendering (args omitted when empty)."""
        out: Dict[str, Any] = {
            "type": self.kind,
            "cat": self.category,
            "name": self.name,
            "t0": self.start,
            "t1": self.end,
            "seq": self.seq,
            "track": self.track,
        }
        if self.args:
            out["args"] = self.args
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ObsRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=str(d["type"]),
            category=str(d["cat"]),
            name=str(d["name"]),
            start=float(d["t0"]),
            end=float(d["t1"]),
            seq=int(d["seq"]),
            track=str(d["track"]),
            args=dict(d["args"]) if d.get("args") else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ObsRecord({self.kind} {self.category}:{self.name} "
            f"[{self.start:.6g}, {self.end:.6g}] track={self.track} seq={self.seq})"
        )


class Observer:
    """Process-local registry of counters, gauges, histograms and records.

    Instrumentation points hold an ``Optional[Observer]`` and guard every
    emission with ``if obs is not None`` - the disabled path costs one
    attribute test.  All sequencing is deterministic (an internal counter,
    never a clock), so two identical runs produce identical observers.
    """

    __slots__ = (
        "track",
        "counters",
        "gauges",
        "histograms",
        "records",
        "max_records",
        "dropped",
        "_seq",
    )

    def __init__(
        self,
        *,
        track: str = DEFAULT_TRACK,
        max_records: int = DEFAULT_MAX_RECORDS,
    ):
        #: Default track stamped on records that do not name one.
        self.track = track
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.records: List[ObsRecord] = []
        self.max_records = int(max_records)
        #: Span/event records discarded after ``max_records`` was reached.
        self.dropped = 0
        self._seq = 0

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def count(self, name: str, n: float = 1.0) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0.0) + n

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 when never written)."""
        return self.counters.get(name, 0.0)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if greater (high-water mark)."""
        v = float(value)
        current = self.gauges.get(name)
        if current is None or v > current:
            self.gauges[name] = v

    def observe_value(
        self,
        name: str,
        value: float,
        *,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        """Add ``value`` to histogram ``name`` (created on first use).

        ``bounds`` only applies at creation; later observations reuse the
        histogram's existing buckets.
        """
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(
                DEFAULT_BUCKETS if bounds is None else bounds
            )
        hist.observe(value)

    def observe_values(self, name: str, values: Sequence[float]) -> None:
        """:meth:`observe_value` for each of ``values``, in order, as one
        columnar update (:meth:`Histogram.observe_many`)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe_many(values)

    # ------------------------------------------------------------------ #
    # spans and events
    # ------------------------------------------------------------------ #
    def span(
        self,
        category: str,
        name: str,
        start: float,
        end: float,
        *,
        track: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Record a completed span ``[start, end]`` (times in the caller's
        clock domain; never a wall-clock reading - see rule QA-D006)."""
        self._record("span", category, name, start, end, track, args)

    def event(
        self,
        category: str,
        name: str,
        time: float,
        *,
        track: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Record a point event at ``time``."""
        self._record("event", category, name, time, time, track, args)

    def _record(
        self,
        kind: str,
        category: str,
        name: str,
        start: float,
        end: float,
        track: Optional[str],
        args: Dict[str, Any],
    ) -> None:
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        seq = self._seq
        self._seq = seq + 1
        self.records.append(
            ObsRecord(
                kind,
                category,
                name,
                float(start),
                float(end),
                seq,
                self.track if track is None else track,
                args or None,
            )
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def has_data(self) -> bool:
        """True when anything at all has been recorded."""
        return bool(
            self.records or self.counters or self.gauges or self.histograms
        )

    def span_summary(self) -> Dict[str, Any]:
        """Per-category span counts and cumulative durations.

        The shape embedded as ``obs_summary`` in perf reports:
        ``{"spans": {category: {"count": n, "total_time": s}},
        "events": m, "dropped": k}`` with categories sorted by name.
        """
        per_cat: Dict[str, Dict[str, Any]] = {}
        n_events = 0
        for record in self.records:
            if record.kind != "span":
                n_events += 1
                continue
            bucket = per_cat.setdefault(
                record.category, {"count": 0, "total_time": 0.0}
            )
            bucket["count"] += 1
            bucket["total_time"] += record.duration
        return {
            "spans": {cat: per_cat[cat] for cat in sorted(per_cat)},
            "events": n_events,
            "dropped": self.dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Observer(track={self.track!r}, records={len(self.records)}, "
            f"counters={len(self.counters)}, dropped={self.dropped})"
        )


# --------------------------------------------------------------------------- #
# the process-global observer
# --------------------------------------------------------------------------- #
_GLOBAL: Optional[Observer] = None


def global_observer(*, create: Optional[bool] = None) -> Optional[Observer]:
    """The process-global observer, or ``None`` when observation is off.

    With ``create=None`` (the default) an observer is created lazily iff
    ``REPRO_OBS`` enables observation; ``create=True`` forces creation (the
    ``Simulator(observe=True)`` and CLI ``--obs`` paths); ``create=False``
    only returns an already-installed observer.
    """
    global _GLOBAL
    if _GLOBAL is not None:
        return _GLOBAL
    if create is None:
        create = observe_enabled_from_env()
    if create:
        _GLOBAL = Observer()
    return _GLOBAL


def reset_global_observer() -> None:
    """Forget the process-global observer (tests, campaign boundaries)."""
    global _GLOBAL
    _GLOBAL = None
