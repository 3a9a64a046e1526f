"""Path failure modelling: fault windows over capacity traces.

The paper's lineage - RON [1], one-hop source routing [2], MONET [12] -
motivates indirect routing with *failure masking*: when the default route
dies, a one-hop detour keeps the transfer alive.  The paper itself measures
only throughput, but its mechanism inherits the masking property for free
(a dead direct path simply loses the probe race).

There is one fault primitive.  A :class:`FaultWindow` scales a link's
capacity by ``factor`` over an interval: ``factor == 0`` is a blackout (the
link is down), ``0 < factor < 1`` a gray failure (the link limps, as in
Qazi & Moors' partial failures).  :func:`apply_fault_windows` rewrites a
capacity trace accordingly, :func:`blackout_spans` extracts the intervals
the runtime sanitizer polices (QA-R006), and :class:`OutageGenerator` draws
Poisson blackout processes (exponential inter-failure gaps and repair
times), the standard availability model.

Failures come at two granularities.  A *link flap* kills one WAN segment; a
*node (relay) crash* kills **every** WAN segment through that node at once -
correlated downtime that one-hop detours through the crashed relay cannot
mask.  :func:`node_wan_links` enumerates a node's WAN segments,
:func:`node_outage_plan` expands node crashes into the per-link window map
the scenario layer consumes, and :func:`merge_outage_plans` combines link-
and node-level blackout plans (coalescing overlaps, which
:func:`apply_fault_windows` forbids).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.net.link import Link
from repro.net.trace import CapacityTrace
from repro.util.validation import check_non_negative, check_positive

__all__ = [
    "FaultWindow",
    "apply_fault_windows",
    "blackout_spans",
    "OutageGenerator",
    "node_wan_links",
    "node_outage_plan",
    "merge_outage_plans",
]


@dataclass(frozen=True)
class FaultWindow:
    """Scale a link's capacity by ``factor`` over ``[start, start+duration)``.

    ``factor == 0`` (the default) is a blackout; ``0 < factor < 1`` is a
    gray failure.  A zero-length window (``duration == 0``) is a legal
    degenerate no-op: it covers no time, so it must leave any trace it is
    applied to untouched.  Generators never emit them, but fault-plan
    arithmetic (clipping a window to a horizon, chaos duty cycles) can.
    """

    start: float
    duration: float
    factor: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative(self.start, "start")
        check_non_negative(self.duration, "duration")
        if not 0.0 <= self.factor < 1.0:
            raise ValueError(
                f"factor must be in [0, 1) - 1.0 would be a no-op window - "
                f"got {self.factor}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def is_blackout(self) -> bool:
        return self.factor == 0.0

    def overlaps(self, t0: float, t1: float) -> bool:
        """True when the window intersects ``[t0, t1)`` (empty never does)."""
        return self.duration > 0.0 and self.start < t1 and t0 < self.end


def apply_fault_windows(
    trace: CapacityTrace, windows: Sequence[FaultWindow]
) -> CapacityTrace:
    """Return a copy of ``trace`` with capacity scaled inside each window.

    Windows must be non-overlapping; within each window every capacity
    value - including breakpoints the underlying trace takes *inside* the
    window - is multiplied by the window's factor, and the underlying
    capacity resumes at the window's end (right-continuous semantics
    preserved).  Back-to-back windows (``prev.end == next.start``) and
    windows starting at or past the trace's last breakpoint are fine: the
    rewritten trace never carries duplicate or value-repeating breakpoints,
    so a blackout plan's zero-capacity measure over any window equals the
    measure of its spans over the same window.  Zero-length windows cover
    no time and are dropped before rewriting - naively inserting their
    start/end breakpoints would leave a duplicate breakpoint time carrying
    two values, which the trace constructor resolves by *discarding the
    fault*, silently inverting the window's intent.
    """
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
    times = trace.times
    values = trace.values
    for w in ordered:
        # Breakpoints before the window stay, those strictly inside it are
        # *scaled*, not swallowed (a gray window preserves the trace's
        # shape at reduced amplitude), and those after it stay; the window
        # itself contributes an entry breakpoint at its start and a resume
        # breakpoint at its end.  ``times[0] == 0.0 <= w.start``, so the
        # pieces in force at the start and at the end have index >= 0.
        before = int(np.searchsorted(times, w.start, side="left"))
        inside = int(np.searchsorted(times, w.start, side="right"))
        after = int(np.searchsorted(times, w.end, side="left"))
        resume = int(np.searchsorted(times, w.end, side="right"))
        entry = w.factor * values[inside - 1]
        resumed = values[resume - 1]
        times = np.concatenate(
            (times[:before], [w.start], times[inside:after], [w.end], times[resume:])
        )
        values = np.concatenate(
            (
                values[:before],
                [entry],
                w.factor * values[inside:after],
                [resumed],
                values[resume:],
            )
        )
    # Coalesce value-repeating breakpoints: rewriting around back-to-back
    # blackouts leaves a redundant 0.0 -> 0.0 breakpoint at the seam (and a
    # resume into an equal underlying value does the same).  They carry no
    # capacity information but would surface as spurious engine re-tick
    # points, so drop them.
    keep = np.concatenate(([True], values[1:] != values[:-1]))
    return CapacityTrace(times[keep], values[keep])


def blackout_spans(
    plan: Mapping[str, Sequence[FaultWindow]],
) -> Dict[str, List[Tuple[float, float]]]:
    """Per-link ``(start, end)`` spans of the plan's *blackout* windows.

    The shape the runtime sanitizer registers (QA-R006): only full
    blackouts assert zero delivery, gray windows legitimately carry bytes.
    """
    spans: Dict[str, List[Tuple[float, float]]] = {}
    for name, windows in plan.items():
        black = [(w.start, w.end) for w in windows if w.is_blackout and w.duration > 0]
        if black:
            spans[name] = sorted(black)
    return spans


@dataclass(frozen=True)
class OutageGenerator:
    """Poisson failures with exponential repair times.

    Parameters
    ----------
    mtbf:
        Mean time between failure *starts*, seconds.
    mean_duration:
        Mean outage length, seconds.
    """

    mtbf: float
    mean_duration: float

    def __post_init__(self) -> None:
        check_positive(self.mtbf, "mtbf")
        check_positive(self.mean_duration, "mean_duration")

    def sample(self, horizon: float, rng: np.random.Generator) -> List[FaultWindow]:
        """Draw the blackout windows striking within ``[0, horizon]``."""
        check_non_negative(horizon, "horizon")
        outages: List[FaultWindow] = []
        t = float(rng.exponential(self.mtbf))
        while t < horizon:
            duration = max(float(rng.exponential(self.mean_duration)), 1e-3)
            outages.append(FaultWindow(start=t, duration=duration))
            t = t + duration + float(rng.exponential(self.mtbf))
        return outages

    @property
    def availability(self) -> float:
        """Long-run fraction of time the link is up."""
        return self.mtbf / (self.mtbf + self.mean_duration)


# --------------------------------------------------------------------------- #
# node-level (relay crash) failures
# --------------------------------------------------------------------------- #
def node_wan_links(links: Iterable[Link], node: str) -> List[str]:
    """Names of every WAN segment through ``node``, in iteration order.

    WAN segments are the links with distinct endpoints; access links (which
    use the node name for both ends) model the *local* pipe and survive a
    relay crash, so they are excluded.  An empty result means the node has
    no WAN presence (e.g. a pure client behind its access link).
    """
    if not node:
        raise ValueError("node name must be non-empty")
    return [
        link.name
        for link in links
        if link.src != link.dst and node in (link.src, link.dst)
    ]


def node_outage_plan(
    links: Iterable[Link], node: str, outages: Sequence[FaultWindow]
) -> Dict[str, List[FaultWindow]]:
    """Expand node crashes into the per-link window map scenarios consume.

    Every window takes down **all** WAN segments through ``node``
    simultaneously - the correlated-failure signature that distinguishes a
    relay crash from an independent link flap.  Raises when the node has no
    WAN segments (a crash there would silently do nothing).
    """
    wan = node_wan_links(links, node)
    if not wan:
        raise ValueError(f"node {node!r} has no WAN links to take down")
    return {name: list(outages) for name in wan}


def merge_outage_plans(
    *plans: Mapping[str, Sequence[FaultWindow]],
) -> Dict[str, List[FaultWindow]]:
    """Union per-link blackout plans, coalescing overlapping intervals.

    Link-flap and node-crash processes are sampled independently, so the
    same link can appear in several plans with overlapping blackouts -
    which :func:`apply_fault_windows` rejects.  The merge unions the
    intervals per link (touching intervals fuse into one), yielding a plan
    that is safe to apply and whose dark time is the measure of the union.
    Only blackouts fuse: a gray window raises, since fusing it with a
    window of another factor would silently change the fault.
    """
    merged: Dict[str, List[FaultWindow]] = {}
    for plan in plans:
        for name, outages in plan.items():
            gray = [w for w in outages if not w.is_blackout]
            if gray:
                raise ValueError(
                    f"merge_outage_plans fuses blackouts only; link {name!r} "
                    f"has a gray window {gray[0]}"
                )
            merged.setdefault(name, []).extend(outages)
    for name, outages in merged.items():
        ordered = sorted(outages, key=lambda o: (o.start, o.end))
        fused: List[FaultWindow] = []
        for o in ordered:
            if fused and o.start <= fused[-1].end:
                last = fused[-1]
                if o.end > last.end:
                    fused[-1] = FaultWindow(last.start, o.end - last.start)
            else:
                fused.append(o)
        merged[name] = fused
    return merged
