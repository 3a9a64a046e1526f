"""Critical-path attribution over observability traces.

Decomposes every session span in an :class:`~repro.obs.export.ObsTrace`
into named *phases* - where the (sim) time actually went - and aggregates
the result into tail-attribution summaries ("p99 is 71% stall, 22%
backoff").  The phases mirror the repo's session machinery:

``probe``
    the initial probe race (spans with category ``"probe"`` before the
    first recovery event);
``reprobe``
    any later probe race triggered by the resilience loop;
``stall``
    watchdog-detected idle time: a ``stall`` recovery event at time *t*
    with ``detail`` = idle seconds covers ``[t - detail, t]``;
``backoff``
    failover backoff waits: a ``backoff`` event at *t* with ``detail`` =
    wait seconds covers ``[t, t + detail]`` (clipped at the deadline);
``straggle``
    striped-lane straggling - instants where exactly one stripe lane has
    a block in flight (the other lanes have finished and the session is
    waiting on the slow one);
``transfer``
    bytes actually moving: transfer spans, or >= 2 live stripe lanes;
``other``
    the residual (scheduling gaps, request fan-out, commit bookkeeping).

When intervals overlap - a stall is detected *during* a transfer attempt,
a probe races while the deadline backoff still runs - the more diagnostic
phase wins: probe/reprobe > stall > backoff > straggle > transfer.  The
decomposition is a partition of the session interval, so the per-phase
seconds sum exactly to the session span duration (asserted in tests).

Reconstruction relies on two substrate invariants (DESIGN.md §14): each
track is written by exactly one :class:`~repro.obs.core.Observer` whose
``seq`` is monotone, and sessions execute serially per track with child
spans emitted *before* the session span and recovery events immediately
*after* it.  Grouping records per track in ``seq`` order therefore
assigns children to sessions unambiguously, even in merged multi-worker
traces.  Wall-clock records (executor ``unit`` spans) are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.core import ObsRecord
from repro.obs.export import ObsTrace

__all__ = [
    "PHASES",
    "WALLCLOCK_CATEGORIES",
    "WALLCLOCK_METRIC_PREFIXES",
    "SessionPhases",
    "TailAttribution",
    "attribute_trace",
    "decompose_session",
    "group_children",
    "is_wallclock_metric",
    "phase_totals",
    "tail_attribution",
    "render_insight",
]

#: Attribution vocabulary, highest diagnostic priority first (``other`` is
#: the residual and never competes).
PHASES: Tuple[str, ...] = (
    "probe",
    "reprobe",
    "stall",
    "backoff",
    "straggle",
    "transfer",
    "other",
)

#: Span categories recorded in executor wall-clock seconds (QA-D006 keeps
#: them out of sim payloads, but the runner's own unit spans are wall
#: time by design).  Attribution and deterministic diffing skip them.
WALLCLOCK_CATEGORIES = frozenset({"unit"})

#: Metric-name prefixes that live in the wall-clock domain (executor queue
#: waits, retry counts keyed by worker identity).
WALLCLOCK_METRIC_PREFIXES: Tuple[str, ...] = ("runner.",)

_CHILD_SPAN_CATEGORIES = frozenset({"probe", "transfer", "stripe"})
_PRIORITY: Dict[str, int] = {
    "probe": 6,
    "reprobe": 5,
    "stall": 4,
    "backoff": 3,
    "straggle": 2,
    "transfer": 1,
}
_EPS = 1e-9


@dataclass(frozen=True)
class SessionPhases:
    """One session span's time, partitioned into :data:`PHASES`."""

    name: str
    track: str
    start: float
    end: float
    outcome: str
    stripe_k: int
    phases: Dict[str, float]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TailAttribution:
    """Where the slow quantile of sessions spends its time.

    ``fractions`` maps each phase to its share of the *total* time spent
    by sessions at or above the ``q`` duration quantile.
    """

    q: float
    threshold: float
    n_sessions: int
    n_tail: int
    fractions: Dict[str, float] = field(default_factory=dict)


def _clip(lo: float, hi: float, start: float, end: float) -> Optional[Tuple[float, float]]:
    a, b = max(lo, start), min(hi, end)
    if b - a <= 0.0:
        return None
    return (a, b)


def _claims(
    session: ObsRecord, children: Sequence[ObsRecord]
) -> Tuple[List[Tuple[float, float, str]], List[Tuple[float, float]]]:
    """Phase claims plus raw stripe-lane intervals, clipped to the session."""
    s0, s1 = session.start, session.end if session.end is not None else session.start
    claims: List[Tuple[float, float, str]] = []
    lanes: List[Tuple[float, float]] = []
    first_recovery = math.inf
    for rec in children:
        if rec.kind == "event" and rec.category == "recovery":
            first_recovery = min(first_recovery, rec.start)
    for rec in children:
        r0 = rec.start
        r1 = rec.end if rec.end is not None else rec.start
        if rec.kind == "span" and rec.category == "probe":
            phase = "reprobe" if r0 > first_recovery else "probe"
            iv = _clip(r0, r1, s0, s1)
            if iv is not None:
                claims.append((iv[0], iv[1], phase))
        elif rec.kind == "span" and rec.category == "transfer":
            iv = _clip(r0, r1, s0, s1)
            if iv is not None:
                claims.append((iv[0], iv[1], "transfer"))
        elif rec.kind == "span" and rec.category == "stripe":
            iv = _clip(r0, r1, s0, s1)
            if iv is not None:
                lanes.append(iv)
        elif rec.kind == "event" and rec.category == "recovery":
            detail = rec.args.get("detail")
            width = float(detail) if isinstance(detail, (int, float)) else 0.0
            if rec.name == "stall" and width > 0.0:
                iv = _clip(r0 - width, r0, s0, s1)
                if iv is not None:
                    claims.append((iv[0], iv[1], "stall"))
            elif rec.name == "backoff" and width > 0.0:
                iv = _clip(r0, r0 + width, s0, s1)
                if iv is not None:
                    claims.append((iv[0], iv[1], "backoff"))
    return claims, lanes


def decompose_session(
    session: ObsRecord, children: Sequence[ObsRecord]
) -> SessionPhases:
    """Partition one session span's interval into :data:`PHASES`.

    Boundary sweep: every claim endpoint splits ``[start, end]`` into
    elementary segments; each segment is charged to the highest-priority
    phase active at its midpoint.  ``other`` is computed as the residual
    ``duration - sum(attributed)`` so the partition is exact by
    construction.
    """
    s0 = session.start
    s1 = session.end if session.end is not None else session.start
    claims, lanes = _claims(session, children)
    cuts = {s0, s1}
    for a, b, _phase in claims:
        cuts.add(a)
        cuts.add(b)
    for a, b in lanes:
        cuts.add(a)
        cuts.add(b)
    points = sorted(p for p in cuts if s0 <= p <= s1)
    attributed: Dict[str, List[float]] = {p: [] for p in PHASES if p != "other"}
    for left, right in zip(points, points[1:]):
        if right - left <= 0.0:
            continue
        mid = 0.5 * (left + right)
        live_lanes = sum(1 for a, b in lanes if a - _EPS <= mid <= b + _EPS)
        best: Optional[str] = None
        best_pri = 0
        for a, b, phase in claims:
            if a - _EPS <= mid <= b + _EPS and _PRIORITY[phase] > best_pri:
                best, best_pri = phase, _PRIORITY[phase]
        lane_phase: Optional[str] = None
        if live_lanes >= 2:
            lane_phase = "transfer"
        elif live_lanes == 1:
            lane_phase = "straggle"
        if lane_phase is not None and _PRIORITY[lane_phase] > best_pri:
            best = lane_phase
        if best is not None:
            attributed[best].append(right - left)
    phases = {p: math.fsum(vals) for p, vals in attributed.items()}
    phases["other"] = (s1 - s0) - math.fsum(phases.values())
    args = session.args
    stripe_k = int(args.get("stripe_k", 0)) if isinstance(args.get("stripe_k"), (int, float)) else 0
    outcome = str(args.get("outcome", ""))
    return SessionPhases(
        name=session.name,
        track=session.track,
        start=s0,
        end=s1,
        outcome=outcome,
        stripe_k=stripe_k,
        phases=phases,
    )


def group_children(
    trace: ObsTrace,
) -> List[Tuple[ObsRecord, List[ObsRecord]]]:
    """Pair each session span with the records that belong to it.

    Per track, in ``seq`` order: probe/transfer/stripe spans accumulate
    until the session span that encloses them appears; ``recovery``
    events immediately following a session span (and inside its interval)
    attach to that session.  Records outside any session interval (fault
    windows, engine spans) are dropped.
    """
    by_track: Dict[str, List[ObsRecord]] = {}
    for rec in trace.records:
        if rec.category in WALLCLOCK_CATEGORIES:
            continue
        by_track.setdefault(rec.track, []).append(rec)
    groups: List[Tuple[ObsRecord, List[ObsRecord]]] = []
    for track in sorted(by_track):
        recs = sorted(by_track[track], key=lambda r: r.seq)
        pending: List[ObsRecord] = []
        open_group: Optional[Tuple[ObsRecord, List[ObsRecord]]] = None
        for rec in recs:
            if rec.kind == "span" and rec.category == "session":
                end = rec.end if rec.end is not None else rec.start
                children = [
                    c
                    for c in pending
                    if c.start >= rec.start - _EPS
                    and (c.end if c.end is not None else c.start) <= end + _EPS
                ]
                open_group = (rec, children)
                groups.append(open_group)
                pending = []
            elif rec.kind == "event" and rec.category == "recovery":
                if open_group is not None:
                    head = open_group[0]
                    head_end = head.end if head.end is not None else head.start
                    if head.start - _EPS <= rec.start <= head_end + _EPS:
                        open_group[1].append(rec)
            elif rec.kind == "span" and rec.category in _CHILD_SPAN_CATEGORIES:
                open_group = None
                pending.append(rec)
            elif rec.kind == "event" and rec.category == "probe":
                open_group = None
                pending.append(rec)
            else:
                open_group = None
    return groups


def attribute_trace(trace: ObsTrace) -> List[SessionPhases]:
    """Phase decomposition of every session span in ``trace``.

    Output order is deterministic: tracks sorted by name, sessions in
    execution (``seq``) order within each track.
    """
    return [decompose_session(s, kids) for s, kids in group_children(trace)]


def phase_totals(sessions: Iterable[SessionPhases]) -> Dict[str, float]:
    """Summed seconds per phase across ``sessions`` (all phases present)."""
    totals = {p: 0.0 for p in PHASES}
    for s in sessions:
        for p in PHASES:
            totals[p] += s.phases.get(p, 0.0)
    return totals


def _duration_quantile(durations: Sequence[float], q: float) -> float:
    """Nearest-rank quantile without numpy (exact, deterministic)."""
    if not durations:
        return math.nan
    ordered = sorted(durations)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def tail_attribution(
    sessions: Sequence[SessionPhases], q: float = 0.99
) -> TailAttribution:
    """Phase shares of the sessions at or above the ``q`` duration quantile."""
    durations = [s.duration for s in sessions]
    threshold = _duration_quantile(durations, q)
    if not sessions or not math.isfinite(threshold):
        return TailAttribution(q=q, threshold=math.nan, n_sessions=len(sessions), n_tail=0)
    tail = [s for s in sessions if s.duration >= threshold]
    totals = phase_totals(tail)
    grand = math.fsum(totals.values())
    fractions = {
        p: (totals[p] / grand if grand > 0.0 else math.nan) for p in PHASES
    }
    return TailAttribution(
        q=q,
        threshold=threshold,
        n_sessions=len(sessions),
        n_tail=len(tail),
        fractions=fractions,
    )


def _pct(x: float) -> str:
    return "n/a" if not math.isfinite(x) else f"{100.0 * x:.1f}%"


def render_insight(
    sessions: Sequence[SessionPhases],
    quantiles: Sequence[float] = (0.5, 0.99),
) -> str:
    """Human-readable attribution report (the ``repro obs phases`` output)."""
    lines: List[str] = []
    lines.append("critical-path attribution")
    lines.append("=" * 72)
    lines.append(f"sessions: {len(sessions)}")
    totals = phase_totals(sessions)
    grand = math.fsum(totals.values())
    lines.append(f"total session time: {grand:.3f} s")
    lines.append("")
    lines.append(f"{'phase':<10} {'seconds':>12} {'share':>8}")
    lines.append("-" * 32)
    for p in PHASES:
        share = totals[p] / grand if grand > 0.0 else math.nan
        lines.append(f"{p:<10} {totals[p]:>12.3f} {_pct(share):>8}")
    for q in quantiles:
        tail = tail_attribution(sessions, q)
        lines.append("")
        if tail.n_tail == 0:
            lines.append(f"p{100 * q:g} tail: no sessions")
            continue
        lines.append(
            f"p{100 * q:g} tail ({tail.n_tail} sessions >= {tail.threshold:.3f} s):"
        )
        ranked = sorted(
            ((p, f) for p, f in tail.fractions.items() if math.isfinite(f) and f > 0.0),
            key=lambda kv: (-kv[1], kv[0]),
        )
        lines.append(
            "  " + ", ".join(f"{_pct(f)} {p}" for p, f in ranked)
            if ranked
            else "  (all phases zero)"
        )
    return "\n".join(lines)


def is_wallclock_metric(name: str) -> bool:
    """True when ``name`` belongs to the wall-clock (executor) domain."""
    return any(name.startswith(pfx) for pfx in WALLCLOCK_METRIC_PREFIXES)
