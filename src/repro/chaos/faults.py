"""Deterministic fault injection: declarative plans -> trace rewrites.

The fault primitive lives in the net layer: a
:class:`~repro.net.failures.FaultWindow` scales a link's capacity by
``factor`` over an interval (``factor == 0`` is a blackout, ``0 < factor
< 1`` a gray failure), and :func:`~repro.net.failures.apply_fault_windows`
rewrites a capacity trace accordingly.  Real failures are messier than a
clean crash - Qazi & Moors and the gray-failure literature describe
*partial* capacity loss, flapping links, and outages *correlated* across
every path sharing an upstream segment - and this module compiles that
taxonomy into window plans.  Because injection happens by rewriting the
immutable capacity traces before any engine runs, both engine paths (the
classic per-object oracle and the vectorised SoA core) see identical fault
conditions with no engine-specific fault code: the vector engine's
dynamic-trace cursors carry the rewritten breakpoints exactly like the
classic engine's.

:func:`compile_fault_plan` turns a (family, intensity) coordinate plus the
target link names into the per-link window map scenarios consume:

* ``gray``        - direct WAN + primary overlay egress degraded to a
  fraction of capacity for the window;
* ``flap``        - the same links on a seeded on/off duty cycle;
* ``correlated``  - one draw blacks out the *shared site egress bundle*
  (direct WAN plus every ``site -> relay`` segment of the offered set),
  the shared-bottleneck structure of `overlay/paths.py` made failure;
* ``partition``   - the site-side egress of the likely transfer carriers
  (direct WAN + primary-relay ingress) dies while the relay itself stays
  reachable; probes issued before onset succeed, the committed transfer
  then stalls at zero rate, and only the PR 4 stall watchdog can notice;
* ``none``        - the within-cell baseline (empty plan).

Everything is pure data: fault timing is drawn by the *caller* from
seed-bank labels, so the same plan is compiled for every mechanism arm in
a study slot regardless of worker count or execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.net.failures import FaultWindow
from repro.util.validation import check_non_negative

__all__ = [
    "FAULT_FAMILIES",
    "FAULT_INTENSITIES",
    "FaultIntensity",
    "intensity_params",
    "flapping_windows",
    "compile_fault_plan",
    "plan_spans",
    "degraded_seconds",
]

#: Fault families the chaos layer knows how to compile.
FAULT_FAMILIES = ("none", "gray", "flap", "correlated", "partition")

#: Intensity grid every family is parameterised over.
FAULT_INTENSITIES = ("mild", "severe")


@dataclass(frozen=True)
class FaultIntensity:
    """One row of the intensity grid: how hard each family hits.

    ``gray_factor`` is the capacity multiplier gray windows apply;
    ``duration`` is the whole fault episode's length; flapping cycles
    through ``flap_period``-second periods spending ``flap_duty`` of each
    period dark.
    """

    gray_factor: float
    duration: float
    flap_period: float
    flap_duty: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gray_factor < 1.0:
            raise ValueError(f"gray_factor must be in (0, 1), got {self.gray_factor}")
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.flap_period <= 0.0:
            raise ValueError(f"flap_period must be positive, got {self.flap_period}")
        if not 0.0 < self.flap_duty < 1.0:
            raise ValueError(f"flap_duty must be in (0, 1), got {self.flap_duty}")


_INTENSITY: Dict[str, FaultIntensity] = {
    "mild": FaultIntensity(
        gray_factor=0.25, duration=240.0, flap_period=60.0, flap_duty=0.5
    ),
    "severe": FaultIntensity(
        gray_factor=0.05, duration=480.0, flap_period=40.0, flap_duty=0.75
    ),
}


def intensity_params(intensity: str) -> FaultIntensity:
    """The grid row for ``intensity`` (raises on unknown names)."""
    try:
        return _INTENSITY[intensity]
    except KeyError:
        raise ValueError(
            f"unknown intensity {intensity!r}; expected one of {FAULT_INTENSITIES}"
        ) from None


def flapping_windows(
    onset: float,
    duration: float,
    *,
    period: float,
    duty: float,
) -> List[FaultWindow]:
    """Seedless on/off duty cycle: the deterministic skeleton of a flap.

    Starting at ``onset``, each ``period``-second cycle spends its first
    ``duty`` fraction dark (capacity 0) and the rest up, until the episode
    ends at ``onset + duration``; the final dark window is clipped to the
    episode boundary (possibly to zero length, which
    :func:`~repro.net.failures.apply_fault_windows` then drops).
    """
    if period <= 0.0 or not 0.0 < duty < 1.0:
        raise ValueError(f"need period > 0 and 0 < duty < 1, got {period}, {duty}")
    check_non_negative(duration, "duration")
    windows: List[FaultWindow] = []
    t = onset
    end = onset + duration
    while t < end:
        down = min(duty * period, end - t)
        windows.append(FaultWindow(start=t, duration=down, factor=0.0))
        t += period
    return windows


def compile_fault_plan(
    family: str,
    intensity: str,
    *,
    direct_link: str,
    overlay_link: str,
    egress_links: Sequence[str],
    onset: float,
) -> Dict[str, List[FaultWindow]]:
    """Compile one (family, intensity) coordinate into a per-link plan.

    Parameters
    ----------
    direct_link:
        The direct WAN segment (``wan:site->client``).
    overlay_link:
        The primary relay's overlay egress (``wan:relay0->client``).
    egress_links:
        The site-side egress bundle toward the offered relays
        (``wan:site->relayX`` in offered order); the shared upstream that
        correlated draws take down together.  The head entry is the
        primary relay's ingress, which partitions sever.
    onset:
        Fault start time (caller draws it from seed-bank labels).
    """
    if family not in FAULT_FAMILIES:
        raise ValueError(
            f"unknown fault family {family!r}; expected one of {FAULT_FAMILIES}"
        )
    if family == "none":
        return {}
    check_non_negative(onset, "onset")
    if not egress_links:
        raise ValueError("egress_links must name at least the primary relay ingress")
    p = intensity_params(intensity)
    if family == "gray":
        gray = [FaultWindow(onset, p.duration, p.gray_factor)]
        return {direct_link: list(gray), overlay_link: list(gray)}
    if family == "flap":
        flaps = flapping_windows(
            onset, p.duration, period=p.flap_period, duty=p.flap_duty
        )
        return {direct_link: list(flaps), overlay_link: list(flaps)}
    black = [FaultWindow(onset, p.duration, 0.0)]
    if family == "correlated":
        # One draw, every path through the site's egress: dict.fromkeys
        # keeps offered order while deduplicating against direct_link.
        targets = dict.fromkeys([direct_link, *egress_links])
        return {name: list(black) for name in targets}
    # partition: sever the site-side egress of the two likely transfer
    # carriers (direct WAN, primary-relay ingress).  The relay stays up -
    # its access and overlay legs are untouched - so the failure is
    # invisible until a committed transfer crosses a dead segment.
    targets = dict.fromkeys([direct_link, egress_links[0]])
    return {name: list(black) for name in targets}


def plan_spans(
    plan: Mapping[str, Sequence[FaultWindow]],
) -> List[Tuple[float, float]]:
    """The merged union of every window in the plan, as ``(start, end)``.

    Link-agnostic degraded time: the intervals during which *some* link is
    faulted, fused across links and windows.
    """
    raw = sorted(
        (w.start, w.end)
        for windows in plan.values()
        for w in windows
        if w.duration > 0
    )
    fused: List[Tuple[float, float]] = []
    for start, end in raw:
        if fused and start <= fused[-1][1]:
            fused[-1] = (fused[-1][0], max(fused[-1][1], end))
        else:
            fused.append((start, end))
    return fused


def degraded_seconds(
    spans: Sequence[Tuple[float, float]], t0: float, t1: float
) -> float:
    """Measure of ``spans`` (non-overlapping, e.g. :func:`plan_spans`)
    intersected with ``[t0, t1]``."""
    if t1 < t0:
        raise ValueError(f"t1={t1} must be >= t0={t0}")
    return sum(max(0.0, min(end, t1) - max(start, t0)) for start, end in spans)
