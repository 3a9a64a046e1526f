"""Piecewise-constant capacity traces.

A :class:`CapacityTrace` represents a link's available capacity over time as
a right-continuous step function: capacity is ``values[i]`` on
``[times[i], times[i+1])`` and ``values[-1]`` from ``times[-1]`` onward.

Traces are the *only* representation of time-varying link state seen by the
transport engine.  Stochastic capacity processes (``repro.net.capacity``) are
compiled to traces ahead of simulation, which gives us:

* determinism - the control (direct-only) client and the selecting client
  observe the identical network, mirroring the paper's concurrent-pair
  methodology;
* speed - queries are numpy ``searchsorted`` lookups, integration is a
  vectorised prefix-sum.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.util.validation import check_non_negative, check_same_length, check_sorted

__all__ = ["CapacityTrace", "TraceCursor"]


class CapacityTrace:
    """An immutable piecewise-constant non-negative function of time.

    Parameters
    ----------
    times:
        Breakpoints, non-decreasing, with ``times[0] == 0.0``.
    values:
        Capacity (bytes/second) on each piece; same length as ``times``.
    """

    __slots__ = ("_times", "_values", "_cum", "_times_list", "_values_list")

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        t = check_sorted(times, "times")
        v = np.asarray(values, dtype=np.float64).reshape(-1)
        check_same_length(t, v, "times", "values")
        if t.size == 0:
            raise ValueError("a trace needs at least one piece")
        if t[0] != 0.0:
            raise ValueError(f"times[0] must be 0.0, got {t[0]}")
        if np.any(v < 0.0):
            raise ValueError("capacities must be non-negative")
        # Drop zero-length pieces (repeated breakpoints keep the last value).
        if t.size > 1:
            keep = np.empty(t.size, dtype=bool)
            keep[:-1] = t[1:] > t[:-1]
            keep[-1] = True
            t = t[keep]
            v = v[keep]
        self._finalize(t, v)

    def _finalize(self, t: np.ndarray, v: np.ndarray) -> None:
        """Install validated breakpoint arrays and derived state."""
        self._times = t
        self._values = v
        self._times.setflags(write=False)
        self._values.setflags(write=False)
        # Cumulative integral up to each breakpoint, for O(log n) integration.
        seg = np.diff(t) * v[:-1]
        self._cum = np.concatenate(([0.0], np.cumsum(seg)))
        self._cum.setflags(write=False)
        # Python-scalar mirrors of the arrays, materialised lazily for the
        # cursor fast path (scalar list indexing beats numpy scalar indexing
        # by ~5x and the lists are shared by every cursor over this trace).
        self._times_list: Optional[List[float]] = None
        self._values_list: Optional[List[float]] = None

    @classmethod
    def _trusted(cls, times: np.ndarray, values: np.ndarray) -> "CapacityTrace":
        """Internal constructor for inputs that already satisfy the trace
        invariants (float64, strictly increasing from 0.0, non-negative,
        equal length).  Used by :meth:`minimum`, whose output preserves
        those invariants structurally, to skip revalidation and re-dedup.
        """
        self = cls.__new__(cls)
        self._finalize(
            np.ascontiguousarray(times, dtype=np.float64),
            np.ascontiguousarray(values, dtype=np.float64),
        )
        return self

    def _scalar_lists(self) -> Tuple[List[float], List[float]]:
        """The breakpoints as plain-float lists (cached; cursor fast path)."""
        tl = self._times_list
        vl = self._values_list
        if tl is None or vl is None:
            tl = self._times_list = self._times.tolist()
            vl = self._values_list = self._values.tolist()
        return tl, vl

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def constant(cls, capacity: float) -> "CapacityTrace":
        """A trace with a single constant capacity."""
        check_non_negative(capacity, "capacity")
        return cls([0.0], [capacity])

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def times(self) -> np.ndarray:
        """Breakpoint times (read-only view)."""
        return self._times

    @property
    def values(self) -> np.ndarray:
        """Per-piece capacities (read-only view)."""
        return self._values

    @property
    def n_pieces(self) -> int:
        """Number of constant pieces."""
        return int(self._times.size)

    def value_at(self, t: float) -> float:
        """Capacity at time ``t`` (right-continuous; clamped before 0)."""
        if t <= 0.0:
            return float(self._values[0])
        idx = int(np.searchsorted(self._times, t, side="right")) - 1
        return float(self._values[idx])

    def values_at(self, ts: Sequence[float]) -> np.ndarray:
        """Vectorised :meth:`value_at` over an array of times."""
        arr = np.asarray(ts, dtype=np.float64)
        idx = np.searchsorted(self._times, arr, side="right") - 1
        np.clip(idx, 0, None, out=idx)
        return self._values[idx]

    def next_change_after(self, t: float) -> float:
        """First breakpoint strictly after ``t``, or ``inf`` if none."""
        idx = int(np.searchsorted(self._times, t, side="right"))
        if idx >= self._times.size:
            return float("inf")
        return float(self._times[idx])

    def integrate(self, t0: float, t1: float) -> float:
        """Integral of capacity over ``[t0, t1]`` (bytes deliverable)."""
        if t1 < t0:
            raise ValueError(f"t1={t1} must be >= t0={t0}")
        return self._antiderivative(t1) - self._antiderivative(t0)

    def _antiderivative(self, t: float) -> float:
        if t <= 0.0:
            return float(self._values[0]) * t  # linear extension before 0
        idx = int(np.searchsorted(self._times, t, side="right")) - 1
        return float(self._cum[idx] + (t - self._times[idx]) * self._values[idx])

    def mean_over(self, t0: float, t1: float) -> float:
        """Time-average capacity over ``[t0, t1]`` (value at a point if t0==t1)."""
        if t1 < t0:
            raise ValueError(f"t1={t1} must be >= t0={t0}")
        if t1 == t0:
            return self.value_at(t0)
        return self.integrate(t0, t1) / (t1 - t0)

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #
    @staticmethod
    def minimum(traces: Sequence["CapacityTrace"]) -> "CapacityTrace":
        """Pointwise minimum of several traces (union of breakpoints)."""
        if not traces:
            raise ValueError("need at least one trace")
        if len(traces) == 1:
            return traces[0]
        all_times = np.unique(np.concatenate([t._times for t in traces]))
        stacked = np.vstack([t.values_at(all_times) for t in traces])
        # np.unique returns a sorted, duplicate-free array; every input trace
        # starts at 0.0, so the union does too.
        return CapacityTrace._trusted(all_times, np.min(stacked, axis=0))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CapacityTrace)
            and np.array_equal(self._times, other._times)
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:
        return hash((self._times.tobytes(), self._values.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CapacityTrace(pieces={self.n_pieces}, "
            f"mean={float(np.mean(self._values)):.1f} B/s)"
        )


class TraceCursor:
    """Amortised-O(1) scalar queries over a :class:`CapacityTrace`.

    The transport engine queries each link's trace at event times, which are
    non-decreasing within a simulation.  A cursor exploits that monotonicity:
    it remembers the piece index of the last query and walks forward from
    there, so a whole simulation's worth of scalar queries costs O(pieces)
    total instead of O(queries x log pieces) ``searchsorted`` calls.

    Contract
    --------
    * Results are *identical* to :meth:`CapacityTrace.value_at` /
      :meth:`CapacityTrace.next_change_after` for every ``t`` — the cursor
      indexes the same breakpoint data, it only changes how the piece is
      located.
    * Queries at non-decreasing ``t`` are amortised O(1).  A backward seek
      (``t`` earlier than the previous query's piece) stays correct via an
      O(log pieces) ``searchsorted`` fallback.
    * The underlying trace is immutable, so a cursor never goes stale; one
      cursor per (consumer, trace) pair is the intended usage.
    """

    __slots__ = ("_trace", "_times", "_values", "_n", "_idx")

    def __init__(self, trace: CapacityTrace):
        self._trace = trace
        self._times, self._values = trace._scalar_lists()
        self._n = len(self._times)
        self._idx = 0

    @property
    def trace(self) -> CapacityTrace:
        """The trace this cursor reads."""
        return self._trace

    def _seek(self, t: float) -> int:
        """Index of the piece containing ``t`` (clamped to 0 before t=0)."""
        times = self._times
        i = self._idx
        if t < times[i]:
            # Backward seek: rare (only a non-monotone consumer); fall back
            # to the same bisection value_at() uses.
            i = int(np.searchsorted(self._trace.times, t, side="right")) - 1
            if i < 0:
                i = 0
        else:
            n = self._n
            while i + 1 < n and times[i + 1] <= t:
                i += 1
        self._idx = i
        return i

    def value_at(self, t: float) -> float:
        """Capacity at time ``t``; equals ``trace.value_at(t)``."""
        if t <= 0.0:
            return self._values[0]
        return self._values[self._seek(t)]

    def next_change_after(self, t: float) -> float:
        """First breakpoint strictly after ``t``; equals the trace method."""
        i = self._seek(t)
        times = self._times
        if t < times[i]:
            # Only reachable for t < times[0] == 0.0: the first breakpoint
            # itself is the next change.
            return times[i]
        if i + 1 < self._n:
            return times[i + 1]
        return float("inf")
