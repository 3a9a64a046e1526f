"""mHTTP study analysis: select-one vs stripe-k, head to head.

Aggregates :class:`~repro.trace.records.StripeRecord` rows from the
``repro mhttp`` campaign into the comparison the study exists for:

* **improvement** over the direct control (the paper's headline metric,
  computed from whole-session throughput so select-one's probe phase and
  the stripe's scheduling overhead both count);
* **completion-time tail** (p50/p95/p99) per mechanism, the number that
  exposes select-one's failover gap under the PR 4 failure model;
* **waste** - the stripe's duplicate/discarded bytes per k, the price of
  straggler re-issue and dead-lane teardown.

Every statistic is defined for empty inputs (NaN, never a division
error), matching the repo's other analysis modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.availability import render_stripe_degradation
from repro.trace.records import StripeRecord
from repro.util.stats import finite_mean, finite_quantile
from repro.util.units import mb

__all__ = [
    "MhttpCellStats",
    "mhttp_cells",
    "stripe_p99_advantage",
    "render_mhttp",
]


@dataclass(frozen=True)
class MhttpCellStats:
    """One cell of the study grid: (failure mode, k, mechanism).

    Attributes
    ----------
    mechanism / k / failure_mode:
        The cell coordinates (k counts paths including direct).
    n / n_delivered / n_aborted:
        Session counts; ``n_delivered`` got the whole file.
    mean_improvement:
        Mean of the per-row whole-session improvement over the direct
        control, ``(end_to_end - direct) / direct``; NaN with no rows.
    p50_duration / p95_duration / p99_duration:
        Completion-time quantiles in seconds over delivered sessions
        (aborted sessions have no completion time and are excluded here -
        they show up in ``n_aborted`` and availability instead).
    mean_wasted_bytes / mean_wasted_fraction:
        Stripe overhead (identically 0 for select cells).
    mean_reissues:
        Straggler/death re-issues per session (0 for select cells).
    """

    mechanism: str
    k: int
    failure_mode: str
    n: int
    n_delivered: int
    n_aborted: int
    mean_improvement: float
    p50_duration: float
    p95_duration: float
    p99_duration: float
    mean_wasted_bytes: float
    mean_wasted_fraction: float
    mean_reissues: float


def _cell(rows: Sequence[StripeRecord]) -> MhttpCellStats:
    head = rows[0]
    delivered = [r for r in rows if not r.aborted]
    durations = [r.selected_duration for r in delivered]
    improvements = [
        (r.end_to_end_throughput - r.direct_throughput) / r.direct_throughput
        for r in rows
        if r.direct_throughput > 0.0
    ]
    return MhttpCellStats(
        mechanism=head.mechanism,
        k=head.stripe_k,
        failure_mode=head.failure_mode,
        n=len(rows),
        n_delivered=len(delivered),
        n_aborted=sum(1 for r in rows if r.aborted),
        mean_improvement=finite_mean(improvements),
        p50_duration=finite_quantile(durations, 0.5),
        p95_duration=finite_quantile(durations, 0.95),
        p99_duration=finite_quantile(durations, 0.99),
        mean_wasted_bytes=finite_mean([r.wasted_bytes for r in rows]),
        mean_wasted_fraction=finite_mean([r.wasted_fraction for r in rows]),
        mean_reissues=finite_mean([float(r.n_reissues) for r in rows]),
    )


def mhttp_cells(
    records: Sequence[StripeRecord],
) -> Dict[Tuple[str, int, str], MhttpCellStats]:
    """The study grid, keyed by ``(failure_mode, k, mechanism)``.

    Keys are sorted (mode, then k, then mechanism) so renders and tests
    iterate deterministically.
    """
    cells: Dict[Tuple[str, int, str], List[StripeRecord]] = {}
    for r in records:
        cells.setdefault((r.failure_mode, r.stripe_k, r.mechanism), []).append(r)
    return {key: _cell(cells[key]) for key in sorted(cells)}


def stripe_p99_advantage(
    records: Sequence[StripeRecord],
) -> Dict[Tuple[str, int], float]:
    """Select-one p99 minus stripe p99, seconds, per (failure mode, k).

    Positive means the stripe's completion tail beats select-one's - the
    study's acceptance criterion under the ``node`` failure mode.  NaN
    when either mechanism's cell is missing or empty.
    """
    cells = mhttp_cells(records)
    out: Dict[Tuple[str, int], float] = {}
    pairs = sorted({(mode, k) for mode, k, _mech in cells})
    for mode, k in pairs:
        select = cells.get((mode, k, "select"))
        stripe = cells.get((mode, k, "stripe"))
        if select is None or stripe is None:
            out[(mode, k)] = math.nan
        else:
            out[(mode, k)] = select.p99_duration - stripe.p99_duration
    return out


def _fmt(x: float, *, pct: bool = False) -> str:
    if not math.isfinite(x):
        return "n/a"
    return f"{100.0 * x:+.1f}%" if pct else f"{x:.2f}"


def render_mhttp(records: Sequence[StripeRecord]) -> str:
    """Human-readable study report (the `repro mhttp` output)."""
    lines: List[str] = []
    lines.append("mHTTP striping study: select-one vs stripe-k")
    lines.append("=" * 76)
    lines.append(f"rows: {len(records)}")
    lines.append("")
    lines.append(
        f"{'mode':<6} {'k':>2} {'mech':<7} {'n':>4} {'improv':>8} "
        f"{'p50 s':>7} {'p95 s':>7} {'p99 s':>7} "
        f"{'waste MB':>9} {'waste %':>8} {'abort':>6}"
    )
    lines.append("-" * 76)
    for stats in mhttp_cells(records).values():
        lines.append(
            f"{stats.failure_mode:<6} {stats.k:>2} {stats.mechanism:<7} "
            f"{stats.n:>4} {_fmt(stats.mean_improvement, pct=True):>8} "
            f"{_fmt(stats.p50_duration):>7} {_fmt(stats.p95_duration):>7} "
            f"{_fmt(stats.p99_duration):>7} "
            f"{_fmt(stats.mean_wasted_bytes / mb(1)):>9} "
            f"{_fmt(stats.mean_wasted_fraction, pct=True):>8} "
            f"{stats.n_aborted:>6}"
        )
    lines.append("")
    lines.append("stripe p99 advantage over select-one (positive = stripe faster):")
    for (mode, k), delta in stripe_p99_advantage(records).items():
        lines.append(f"  mode={mode:<6} k={k}: {_fmt(delta)} s")
    lines.append("")
    lines.append(render_stripe_degradation(records))
    return "\n".join(lines)
