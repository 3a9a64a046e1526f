"""Chaos study analysis: mechanism resilience under injected faults.

Aggregates :class:`~repro.trace.records.ChaosRecord` rows from the
``repro chaos`` campaign into the cross-mechanism resilience comparison:

* **availability** - the fraction of sessions that delivered the whole
  object (aborted or partial sessions count against it);
* **MTTR** - mean/median seconds from the first stall (or dead stripe
  lane) to the recovery action that answered it, over sessions that had
  anything to recover from;
* **goodput retained** - a cell's mean whole-session throughput relative
  to the same mechanism's no-fault baseline, the "how much of your
  healthy speed survives this fault" number;
* **completion tail** (p99 duration) per cell, where select-one's
  wait-out-the-outage strategy shows up.

Every statistic is defined for empty inputs (NaN, never a division
error), matching the repo's other analysis modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.trace.records import ChaosRecord
from repro.util.stats import finite_mean, finite_quantile

__all__ = [
    "ChaosCellStats",
    "chaos_cells",
    "mechanism_separation",
    "render_chaos",
]


@dataclass(frozen=True)
class ChaosCellStats:
    """One cell of the resilience grid: (fault family, intensity, mechanism).

    Attributes
    ----------
    fault_family / intensity / mechanism:
        The cell coordinates (``"none"`` rows are the healthy baseline).
    n / n_available / n_aborted:
        Session counts; ``n_available`` delivered the whole object.
    availability:
        ``n_available / n``; NaN with no rows.
    mean_ttr / p50_ttr:
        Mean/median time-to-recover in seconds over sessions with a
        finite recovery time (nothing stalled -> excluded, not zero).
    n_recovered:
        Sessions contributing to the MTTR statistics.
    goodput_retained:
        Cell mean whole-session throughput divided by the same
        mechanism's ``none``-cell mean; NaN without a baseline.
    p50_duration / p99_duration:
        Completion-time quantiles in seconds over sessions that finished
        (aborted sessions have no completion time).
    mean_recovery_actions:
        Failover switches plus stripe paths declared dead, per session.
    mean_downtime:
        Mean seconds of fault-window overlap per session lifetime.
    """

    fault_family: str
    intensity: str
    mechanism: str
    n: int
    n_available: int
    n_aborted: int
    availability: float
    mean_ttr: float
    p50_ttr: float
    n_recovered: int
    goodput_retained: float
    p50_duration: float
    p99_duration: float
    mean_recovery_actions: float
    mean_downtime: float


def _cell(rows: Sequence[ChaosRecord], baseline_goodput: float) -> ChaosCellStats:
    head = rows[0]
    finished = [r for r in rows if not r.aborted]
    ttrs = [r.time_to_recover for r in rows if math.isfinite(r.time_to_recover)]
    goodput = finite_mean([r.end_to_end_throughput for r in rows])
    retained = (
        goodput / baseline_goodput
        if math.isfinite(goodput) and baseline_goodput > 0.0
        else math.nan
    )
    return ChaosCellStats(
        fault_family=head.fault_family,
        intensity=head.intensity,
        mechanism=head.mechanism,
        n=len(rows),
        n_available=sum(1 for r in rows if r.available),
        n_aborted=sum(1 for r in rows if r.aborted),
        availability=(
            sum(1 for r in rows if r.available) / len(rows) if rows else math.nan
        ),
        mean_ttr=finite_mean(ttrs),
        p50_ttr=finite_quantile(ttrs, 0.5),
        n_recovered=len(ttrs),
        goodput_retained=retained,
        p50_duration=finite_quantile([r.selected_duration for r in finished], 0.5),
        p99_duration=finite_quantile([r.selected_duration for r in finished], 0.99),
        mean_recovery_actions=finite_mean(
            [float(r.n_failovers + r.n_path_failures) for r in rows]
        ),
        mean_downtime=finite_mean([r.fault_downtime for r in rows]),
    )


def chaos_cells(
    records: Sequence[ChaosRecord],
) -> Dict[Tuple[str, str, str], ChaosCellStats]:
    """The resilience grid, keyed by ``(fault_family, intensity, mechanism)``.

    ``goodput_retained`` is computed against the same mechanism's
    ``none``-family cell, so cells are comparable across mechanisms with
    different healthy speeds.  Keys are sorted for deterministic renders.
    """
    groups: Dict[Tuple[str, str, str], List[ChaosRecord]] = {}
    for r in records:
        groups.setdefault((r.fault_family, r.intensity, r.mechanism), []).append(r)
    baselines: Dict[str, float] = {}
    for (family, _intensity, mechanism), rows in groups.items():
        if family == "none":
            baselines[mechanism] = finite_mean([r.end_to_end_throughput for r in rows])
    return {
        key: _cell(groups[key], baselines.get(key[2], math.nan))
        for key in sorted(groups)
    }


def mechanism_separation(
    records: Sequence[ChaosRecord],
) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """Per (family, intensity): spread across mechanisms, excluding ``none``.

    Returns ``(availability spread, p99 spread)`` where each spread is the
    max-minus-min of that statistic across the mechanism arms - the
    study's acceptance signal that select / failover / stripe behave
    measurably differently under the fault.  The select arm recovers by
    waiting (it never records a recovery action), so MTTR itself cannot
    separate all three arms; the completion tail is where waiting shows.
    """
    cells = chaos_cells(records)
    out: Dict[Tuple[str, str], Tuple[float, float]] = {}
    coords = sorted({(f, i) for f, i, _m in cells if f != "none"})
    for family, intensity in coords:
        arms = [
            stats
            for (f, i, _m), stats in cells.items()
            if (f, i) == (family, intensity)
        ]
        avails = [s.availability for s in arms if math.isfinite(s.availability)]
        p99s = [s.p99_duration for s in arms if math.isfinite(s.p99_duration)]
        out[(family, intensity)] = (
            max(avails) - min(avails) if avails else math.nan,
            max(p99s) - min(p99s) if p99s else math.nan,
        )
    return out


def _fmt(x: float, *, pct: bool = False) -> str:
    if not math.isfinite(x):
        return "n/a"
    return f"{100.0 * x:.1f}%" if pct else f"{x:.2f}"


def render_chaos(records: Sequence[ChaosRecord]) -> str:
    """Human-readable study report (the ``repro chaos`` output)."""
    lines: List[str] = []
    lines.append("chaos resilience study: select vs failover vs stripe-k")
    lines.append("=" * 78)
    lines.append(f"rows: {len(records)}")
    lines.append("")
    lines.append(
        f"{'family':<11} {'intens':<6} {'mech':<8} {'n':>4} {'avail':>6} "
        f"{'mttr s':>7} {'goodput':>8} {'p50 s':>8} {'p99 s':>8} {'abort':>6}"
    )
    lines.append("-" * 78)
    for stats in chaos_cells(records).values():
        lines.append(
            f"{stats.fault_family:<11} {stats.intensity:<6} {stats.mechanism:<8} "
            f"{stats.n:>4} {_fmt(stats.availability, pct=True):>6} "
            f"{_fmt(stats.mean_ttr):>7} "
            f"{_fmt(stats.goodput_retained, pct=True):>8} "
            f"{_fmt(stats.p50_duration):>8} {_fmt(stats.p99_duration):>8} "
            f"{stats.n_aborted:>6}"
        )
    lines.append("")
    lines.append("mechanism separation per fault cell (max - min across arms):")
    for (family, intensity), (d_avail, d_p99) in mechanism_separation(
        records
    ).items():
        lines.append(
            f"  {family:<11} {intensity:<6}: availability {_fmt(d_avail, pct=True)}, "
            f"p99 {_fmt(d_p99)} s"
        )
    return "\n".join(lines)
