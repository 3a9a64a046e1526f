"""Availability analysis over the failure study's records.

The overlay-resilience lineage (RON, MONET, "Examining Lower Latency Routing
with Overlay Networks") reports *availability* next to throughput, and this
module computes the comparable numbers for our resilient protocol from
:class:`~repro.trace.records.FailureRecord` rows:

* **availability** - the fraction of sessions that delivered the whole file
  (cleanly or via failover), and the byte-weighted complement
  *byte unavailability*;
* **time-to-recover** - the distribution of seconds between a stall being
  detected and the recovery action that answered it;
* **goodput under failure** - what throughput outage-affected sessions
  actually achieved, including the zeros of aborted sessions;
* **failure masking** - how often the selecting client escaped an outage
  its direct-only control sat through (MONET's "failures avoided").

Every statistic is defined for empty inputs (NaN for undefined ratios,
never a ``ZeroDivisionError``) so partial or failure-free campaigns render
cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.trace.records import FailureRecord, StripeRecord
from repro.util.stats import finite_mean, finite_quantile
from repro.util.units import mb

__all__ = [
    "AvailabilityStats",
    "availability_stats",
    "availability_by_mode",
    "recovery_times",
    "goodput_under_failure",
    "byte_unavailability",
    "duplicate_waste_fraction",
    "render_availability",
    "MASKED_FRACTION",
    "MaskingStats",
    "masking_stats",
    "StripeDegradationStats",
    "stripe_degradation_stats",
    "stripe_degradation_by_k",
    "render_stripe_degradation",
]


@dataclass(frozen=True)
class AvailabilityStats:
    """Aggregate availability outcome of one record set.

    Attributes
    ----------
    n_sessions / n_completed / n_failed_over / n_aborted:
        Session counts by :class:`~repro.core.resilience.SessionOutcome`.
    availability:
        Fraction of sessions that delivered the whole file (``completed``
        or ``failed_over``); NaN with no sessions.
    recovery_rate:
        Of the sessions that took at least one recovery action (or
        aborted), the fraction that still delivered the file; NaN when no
        session ever needed recovery.
    mean_ttr / median_ttr / p95_ttr:
        Time-to-recover statistics over sessions with a finite
        time-to-recover (a stall answered by a failover/re-probe); NaN when
        none recovered.
    mean_goodput_under_failure:
        Mean goodput (delivered bytes / session duration) of
        outage-affected sessions, aborts included; NaN with none affected.
    byte_unavailability:
        ``1 - (delivered bytes / requested bytes)`` over all sessions - the
        byte-weighted cost of failures; NaN with no sessions.
    """

    n_sessions: int
    n_completed: int
    n_failed_over: int
    n_aborted: int
    availability: float
    recovery_rate: float
    mean_ttr: float
    median_ttr: float
    p95_ttr: float
    mean_goodput_under_failure: float
    byte_unavailability: float


def recovery_times(records: Sequence[FailureRecord]) -> List[float]:
    """Finite time-to-recover values, one per session that recovered."""
    return [r.time_to_recover for r in records if math.isfinite(r.time_to_recover)]


def goodput_under_failure(records: Sequence[FailureRecord]) -> List[float]:
    """Goodput (bytes/second) of each outage-affected session.

    Aborted sessions contribute their partial goodput (possibly 0.0); a
    degenerate zero-duration session contributes 0.0.
    """
    out: List[float] = []
    for r in records:
        if not r.outage_overlap:
            continue
        if r.selected_duration <= 0.0:
            out.append(0.0)
        else:
            out.append(r.bytes_received / r.selected_duration)
    return out


def byte_unavailability(records: Sequence) -> float:
    """``1 - delivered/requested`` over any records with byte accounting.

    Works on every record type that carries ``file_bytes`` and
    ``bytes_received`` (failure, stripe and chaos rows alike), so the SLO
    layer can evaluate the byte-weighted cost of failures without caring
    which study produced the artefact.  NaN when nothing was requested.
    """
    requested = sum(float(getattr(r, "file_bytes", 0.0)) for r in records)
    if requested <= 0.0:
        return math.nan
    delivered = sum(
        min(float(getattr(r, "bytes_received", 0.0)), float(getattr(r, "file_bytes", 0.0)))
        for r in records
    )
    return 1.0 - delivered / requested


def duplicate_waste_fraction(records: Sequence) -> float:
    """Duplicate bytes fetched per requested byte, over striping rows.

    Sums ``wasted_bytes`` across records that carry the field (stripe
    sessions; plain rows waste nothing by construction) against the total
    requested bytes of those same rows.  NaN when no row carries byte
    waste accounting - "no striping ran" is not the same claim as "zero
    waste", and the SLO evaluator treats NaN as a failed objective.
    """
    striped = [r for r in records if hasattr(r, "wasted_bytes")]
    requested = sum(float(getattr(r, "file_bytes", 0.0)) for r in striped)
    if requested <= 0.0:
        return math.nan
    wasted = sum(float(getattr(r, "wasted_bytes", 0.0)) for r in striped)
    return wasted / requested


def availability_stats(records: Sequence[FailureRecord]) -> AvailabilityStats:
    """Summarise availability over ``records`` (empty input is legal)."""
    n = len(records)
    n_completed = sum(1 for r in records if r.outcome == "completed")
    n_failed_over = sum(1 for r in records if r.recovered)
    n_aborted = sum(1 for r in records if r.aborted)
    needed_recovery = [r for r in records if r.recovered or r.aborted]

    availability = (n_completed + n_failed_over) / n if n else math.nan
    recovery_rate = (
        sum(1 for r in needed_recovery if not r.aborted) / len(needed_recovery)
        if needed_recovery
        else math.nan
    )
    ttrs = recovery_times(records)
    requested = sum(r.file_bytes for r in records)
    delivered = sum(min(r.bytes_received, r.file_bytes) for r in records)
    byte_unavailability = (
        1.0 - delivered / requested if requested > 0.0 else math.nan
    )
    return AvailabilityStats(
        n_sessions=n,
        n_completed=n_completed,
        n_failed_over=n_failed_over,
        n_aborted=n_aborted,
        availability=availability,
        recovery_rate=recovery_rate,
        mean_ttr=finite_mean(ttrs),
        median_ttr=finite_quantile(ttrs, 0.5),
        p95_ttr=finite_quantile(ttrs, 0.95),
        mean_goodput_under_failure=finite_mean(goodput_under_failure(records)),
        byte_unavailability=byte_unavailability,
    )


def availability_by_mode(
    records: Sequence[FailureRecord],
) -> Dict[str, AvailabilityStats]:
    """Per-injection-mode availability, keyed by ``failure_mode``.

    Modes appear in first-occurrence order, which for planned campaigns is
    the :data:`~repro.workloads.failures.FAILURE_MODES` cycle order.
    """
    by_mode: Dict[str, List[FailureRecord]] = {}
    for r in records:
        by_mode.setdefault(r.failure_mode, []).append(r)
    return {mode: availability_stats(rs) for mode, rs in by_mode.items()}


def _fmt(x: float, *, pct: bool = False) -> str:
    if not math.isfinite(x):
        return "n/a"
    return f"{100.0 * x:.1f}%" if pct else f"{x:.2f}"


def render_availability(records: Sequence[FailureRecord]) -> str:
    """Human-readable availability report (the `repro failures` output)."""
    lines: List[str] = []
    overall = availability_stats(records)
    lines.append("Availability study")
    lines.append("=" * 68)
    lines.append(
        f"sessions: {overall.n_sessions}  "
        f"(completed {overall.n_completed}, "
        f"failed over {overall.n_failed_over}, "
        f"aborted {overall.n_aborted})"
    )
    lines.append(
        f"availability: {_fmt(overall.availability, pct=True)}   "
        f"recovery rate: {_fmt(overall.recovery_rate, pct=True)}   "
        f"byte unavailability: {_fmt(overall.byte_unavailability, pct=True)}"
    )
    lines.append(
        f"time-to-recover (s): mean {_fmt(overall.mean_ttr)}  "
        f"median {_fmt(overall.median_ttr)}  p95 {_fmt(overall.p95_ttr)}"
    )
    lines.append(
        "goodput under failure (MB/s): "
        f"{_fmt(overall.mean_goodput_under_failure / mb(1))}"
    )
    lines.append("")
    lines.append(
        f"{'mode':<8} {'n':>5} {'avail':>8} {'recov':>8} "
        f"{'mean TTR':>9} {'aborted':>8}"
    )
    lines.append("-" * 68)
    for mode, stats in availability_by_mode(records).items():
        lines.append(
            f"{mode:<8} {stats.n_sessions:>5} "
            f"{_fmt(stats.availability, pct=True):>8} "
            f"{_fmt(stats.recovery_rate, pct=True):>8} "
            f"{_fmt(stats.mean_ttr):>9} "
            f"{stats.n_aborted:>8}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# failure masking
# --------------------------------------------------------------------------- #
#: An outage-affected transfer counts as *masked* when the selecting client
#: finished in at most this fraction of its direct-only control's time.
MASKED_FRACTION = 0.7


@dataclass(frozen=True)
class MaskingStats:
    """Aggregate failure-masking outcome."""

    n_transfers: int
    n_affected: int
    n_masked: int
    mean_affected_speedup: float

    @property
    def masking_rate(self) -> float:
        """Fraction of outage-affected transfers that were masked.

        MONET reports avoiding 60-94% of observed failures; this is the
        comparable number for our mechanism.  NaN with none affected.
        """
        if self.n_affected == 0:
            return math.nan
        return self.n_masked / self.n_affected


def masking_stats(records: Sequence[FailureRecord]) -> MaskingStats:
    """Summarise how often outage pain was avoided (empty input is legal).

    A record is *affected* when its control session overlapped an outage;
    the mean speedup skips affected records whose
    :attr:`~repro.trace.records.FailureRecord.speedup` is NaN.
    """
    affected = [r for r in records if r.outage_overlap]
    masked = [
        r for r in affected if r.selected_duration <= MASKED_FRACTION * r.direct_duration
    ]
    return MaskingStats(
        n_transfers=len(records),
        n_affected=len(affected),
        n_masked=len(masked),
        mean_affected_speedup=finite_mean([r.speedup for r in affected]),
    )


# --------------------------------------------------------------------------- #
# striped sessions: degradation instead of recovery
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class StripeDegradationStats:
    """Availability of striped sessions, which *degrade* rather than recover.

    A select-one session that loses its path stalls until failover answers
    the stall; a striped session that loses a path keeps delivering on the
    surviving lanes, so the comparable availability question is not
    "how fast did it recover" but "how much goodput did it retain".

    Attributes
    ----------
    n_sessions / n_clean / n_degraded / n_aborted:
        Session counts: ``clean`` completed with every path alive,
        ``degraded`` delivered the whole file despite losing at least one
        path, ``aborted`` gave up.
    availability:
        Fraction of sessions that delivered the whole file (clean or
        degraded); NaN with no sessions.
    mean_goodput_clean / mean_goodput_degraded:
        Mean whole-session goodput (bytes/second) of clean and degraded
        sessions; NaN when a group is empty.
    goodput_retained:
        ``mean_goodput_degraded / mean_goodput_clean`` - the fraction of
        healthy-stripe goodput a session keeps while riding out a path
        outage; NaN when either group is empty.
    byte_unavailability:
        ``1 - (delivered bytes / requested bytes)`` over all sessions.
    """

    n_sessions: int
    n_clean: int
    n_degraded: int
    n_aborted: int
    availability: float
    mean_goodput_clean: float
    mean_goodput_degraded: float
    goodput_retained: float
    byte_unavailability: float


def _stripe_goodput(r: StripeRecord) -> float:
    if r.selected_duration <= 0.0:
        return 0.0
    return r.bytes_received / r.selected_duration


def stripe_degradation_stats(
    records: Sequence[StripeRecord],
) -> StripeDegradationStats:
    """Summarise degradation behaviour over stripe rows (empty is legal).

    Select-mechanism rows are ignored so the function can be fed a whole
    mixed ``repro mhttp`` store unfiltered.
    """
    rows = [r for r in records if r.mechanism == "stripe"]
    clean = [r for r in rows if r.outcome == "completed" and r.n_path_failures == 0]
    degraded = [r for r in rows if r.degraded]
    n_aborted = sum(1 for r in rows if r.aborted)

    goodput_clean = finite_mean([_stripe_goodput(r) for r in clean])
    goodput_degraded = finite_mean([_stripe_goodput(r) for r in degraded])
    retained = (
        goodput_degraded / goodput_clean
        if math.isfinite(goodput_clean)
        and math.isfinite(goodput_degraded)
        and goodput_clean > 0.0
        else math.nan
    )
    requested = sum(r.file_bytes for r in rows)
    delivered = sum(min(r.bytes_received, r.file_bytes) for r in rows)
    return StripeDegradationStats(
        n_sessions=len(rows),
        n_clean=len(clean),
        n_degraded=len(degraded),
        n_aborted=n_aborted,
        availability=(len(clean) + len(degraded)) / len(rows) if rows else math.nan,
        mean_goodput_clean=goodput_clean,
        mean_goodput_degraded=goodput_degraded,
        goodput_retained=retained,
        byte_unavailability=(
            1.0 - delivered / requested if requested > 0.0 else math.nan
        ),
    )


def stripe_degradation_by_k(
    records: Sequence[StripeRecord],
) -> Dict[int, StripeDegradationStats]:
    """Per-stripe-width degradation stats, keyed by k in ascending order."""
    by_k: Dict[int, List[StripeRecord]] = {}
    for r in records:
        if r.mechanism == "stripe":
            by_k.setdefault(r.stripe_k, []).append(r)
    return {k: stripe_degradation_stats(by_k[k]) for k in sorted(by_k)}


def render_stripe_degradation(records: Sequence[StripeRecord]) -> str:
    """Human-readable degradation table for striped sessions."""
    lines: List[str] = []
    overall = stripe_degradation_stats(records)
    lines.append("Striped-session degradation")
    lines.append("=" * 68)
    lines.append(
        f"sessions: {overall.n_sessions}  "
        f"(clean {overall.n_clean}, degraded {overall.n_degraded}, "
        f"aborted {overall.n_aborted})"
    )
    lines.append(
        f"availability: {_fmt(overall.availability, pct=True)}   "
        f"byte unavailability: {_fmt(overall.byte_unavailability, pct=True)}"
    )
    lines.append(
        "goodput (MB/s): clean "
        f"{_fmt(overall.mean_goodput_clean / mb(1))}  degraded "
        f"{_fmt(overall.mean_goodput_degraded / mb(1))}  retained "
        f"{_fmt(overall.goodput_retained, pct=True)}"
    )
    lines.append("")
    lines.append(
        f"{'k':>3} {'n':>5} {'avail':>8} {'clean MB/s':>11} "
        f"{'degr MB/s':>10} {'retained':>9} {'aborted':>8}"
    )
    lines.append("-" * 68)
    for k, stats in stripe_degradation_by_k(records).items():
        lines.append(
            f"{k:>3} {stats.n_sessions:>5} "
            f"{_fmt(stats.availability, pct=True):>8} "
            f"{_fmt(stats.mean_goodput_clean / mb(1)):>11} "
            f"{_fmt(stats.mean_goodput_degraded / mb(1)):>10} "
            f"{_fmt(stats.goodput_retained, pct=True):>9} "
            f"{stats.n_aborted:>8}"
        )
    return "\n".join(lines)
