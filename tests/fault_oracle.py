"""Reference fault-window rewrite: the breakpoint-by-breakpoint loop.

:func:`repro.net.failures.apply_fault_windows` rewrites a trace with numpy
slicing.  This is the plain-Python loop it replaced, kept here - and only
here - as the oracle the vectorised version must match bit for bit.
"""

import bisect
from typing import List, Sequence

from repro.net.failures import FaultWindow
from repro.net.trace import CapacityTrace


def _value_at(times: Sequence[float], values: Sequence[float], t: float) -> float:
    """Right-continuous sample of a raw breakpoint list (no trace object)."""
    i = bisect.bisect_right(times, t) - 1
    return values[max(i, 0)]


def loop_fault_windows(
    trace: CapacityTrace, windows: Sequence[FaultWindow]
) -> CapacityTrace:
    """Rewrite ``trace`` one window and one breakpoint at a time."""
    windows = [w for w in windows if w.duration > 0.0]
    if not windows:
        return trace
    ordered = sorted(windows, key=lambda w: w.start)
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.start < prev.end:
            raise ValueError(
                f"fault windows overlap: [{prev.start}, {prev.end}) and "
                f"[{nxt.start}, {nxt.end})"
            )
    times = list(trace.times)
    values = list(trace.values)
    for w in ordered:
        new_times: List[float] = []
        new_values: List[float] = []
        resumed = _value_at(times, values, w.end)
        entry = w.factor * _value_at(times, values, w.start)
        inserted_start = False
        inserted_end = False
        for t, v in zip(times, values):
            if t < w.start:
                new_times.append(t)
                new_values.append(v)
            elif t < w.end:
                if not inserted_start:
                    new_times.append(w.start)
                    new_values.append(entry)
                    inserted_start = True
                if t > w.start:
                    new_times.append(t)
                    new_values.append(w.factor * v)
            else:
                if not inserted_start:
                    new_times.append(w.start)
                    new_values.append(entry)
                    inserted_start = True
                if not inserted_end:
                    new_times.append(w.end)
                    new_values.append(resumed)
                    inserted_end = True
                if t > w.end:
                    new_times.append(t)
                    new_values.append(v)
        if not inserted_start:  # window starts after the last breakpoint
            new_times.append(w.start)
            new_values.append(entry)
        if not inserted_end:
            new_times.append(w.end)
            new_values.append(resumed)
        times, values = new_times, new_values
    kept_times = [times[0]]
    kept_values = [values[0]]
    for t, v in zip(times[1:], values[1:]):
        if v == kept_values[-1]:
            continue
        kept_times.append(t)
        kept_values.append(v)
    return CapacityTrace(kept_times, kept_values)
