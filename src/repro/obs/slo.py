"""Declarative SLO evaluation over campaign artefacts and traces.

A spec is a small TOML-subset document (parsed here - the repo's Python
floor predates ``tomllib``) declaring objectives against the metric
catalog below.  ``repro obs slo spec.toml --records r.jsonl --trace
t.obs.jsonl`` evaluates every objective and exits non-zero on violation,
turning the chaos/failure studies' measured numbers into enforceable
gates.

Spec shape::

    name = "chaos-quick"
    description = "resilience objectives for the quick chaos study"

    [[objective]]
    name = "failover availability under gray faults"
    metric = "availability"
    mechanism = "failover"
    fault_family = "gray"
    intensity = "severe"
    min = 0.9

Record-based metrics (``--records``): ``availability``, ``mttr_mean``,
``mttr_p50``, ``p50_duration``, ``p99_duration``, ``goodput_retained``,
``byte_unavailability``, ``duplicate_waste_fraction``.  Rows are filtered
by the optional ``mechanism`` / ``fault_family`` / ``intensity`` /
``failure_mode`` keys first; chaos artefacts are evaluated through
:func:`repro.analysis.chaos.chaos_cells` (so the SLO numbers are, by
construction, the study's numbers) and failure artefacts through
:func:`repro.analysis.availability.availability_stats`; other rows (mHTTP's)
read :attr:`~repro.trace.records.FaultedRecord.available` and their durations.

Trace-based metrics (``--trace``): ``probe_overhead_fraction``,
``phase_fraction:<phase>``, ``tail_phase_fraction:<phase>`` (at the
objective's ``quantile``, default 0.99), ``counter:<name>``,
``gauge:<name>``, ``hist_p50:<name>``, ``hist_p99:<name>``,
``hist_mean:<name>``, ``hist_count:<name>``, ``span_total:<category>``,
``span_count:<category>``.

A NaN measurement fails its objective: "could not measure" must never
read as "within SLO".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.export import ObsTrace
from repro.obs.insight import PHASES, attribute_trace, phase_totals, tail_attribution

__all__ = [
    "SloObjective",
    "SloSpec",
    "SloResult",
    "SloReport",
    "parse_slo_spec",
    "load_slo_spec",
    "evaluate_slo",
    "render_slo",
]

_FILTER_KEYS = ("mechanism", "fault_family", "intensity", "failure_mode")
_RECORD_METRICS = frozenset(
    {
        "availability",
        "mttr_mean",
        "mttr_p50",
        "p50_duration",
        "p99_duration",
        "goodput_retained",
        "byte_unavailability",
        "duplicate_waste_fraction",
    }
)
_TRACE_METRIC_PREFIXES = (
    "counter:",
    "gauge:",
    "hist_p50:",
    "hist_p99:",
    "hist_mean:",
    "hist_count:",
    "span_total:",
    "span_count:",
    "phase_fraction:",
    "tail_phase_fraction:",
)


@dataclass(frozen=True)
class SloObjective:
    """One declarative objective: a metric, filters, and bounds."""

    name: str
    metric: str
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    quantile: float = 0.99
    filters: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.min_value is None and self.max_value is None:
            raise ValueError(f"objective {self.name!r} needs a min and/or max bound")
        ok = (
            self.metric in _RECORD_METRICS
            or self.metric == "probe_overhead_fraction"
            or self.metric.startswith(_TRACE_METRIC_PREFIXES)
        )
        if not ok:
            raise ValueError(f"objective {self.name!r}: unknown metric {self.metric!r}")

    @property
    def needs_trace(self) -> bool:
        return self.metric == "probe_overhead_fraction" or self.metric.startswith(
            _TRACE_METRIC_PREFIXES
        )


@dataclass(frozen=True)
class SloSpec:
    """A parsed spec: header plus objectives, in file order."""

    name: str
    description: str
    objectives: Tuple[SloObjective, ...]


@dataclass(frozen=True)
class SloResult:
    """One evaluated objective."""

    objective: SloObjective
    measured: float
    passed: bool
    detail: str


@dataclass(frozen=True)
class SloReport:
    """All evaluated objectives of one spec run."""

    spec: SloSpec
    results: Tuple[SloResult, ...]

    @property
    def clean(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def violations(self) -> List[SloResult]:
        return [r for r in self.results if not r.passed]


# --------------------------------------------------------------------- #
# TOML-subset parsing
# --------------------------------------------------------------------- #


def _strip_comment(line: str) -> str:
    out: List[str] = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out).strip()


def _parse_value(raw: str, *, lineno: int) -> Union[str, float, bool]:
    raw = raw.strip()
    if len(raw) >= 2 and raw.startswith('"') and raw.endswith('"'):
        return raw[1:-1]
    if raw == "true":
        return True
    if raw == "false":
        return False
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"slo spec line {lineno}: cannot parse value {raw!r}")


def parse_slo_spec(text: str) -> SloSpec:
    """Parse the TOML subset used by SLO specs (see module docstring).

    Supported: ``#`` comments, top-level ``key = value`` pairs, and
    ``[[objective]]`` array-of-tables with string / number / boolean
    values.  Anything else is a :class:`ValueError` naming the line.
    """
    header: Dict[str, Union[str, float, bool]] = {}
    tables: List[Dict[str, Union[str, float, bool]]] = []
    current: Optional[Dict[str, Union[str, float, bool]]] = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line)
        if not line:
            continue
        if line == "[[objective]]":
            current = {}
            tables.append(current)
            continue
        if line.startswith("["):
            raise ValueError(
                f"slo spec line {lineno}: only [[objective]] tables are supported"
            )
        if "=" not in line:
            raise ValueError(f"slo spec line {lineno}: expected key = value")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        value = _parse_value(raw_value, lineno=lineno)
        (header if current is None else current)[key] = value
    objectives: List[SloObjective] = []
    for idx, table in enumerate(tables):
        filters = {
            k: str(table[k]) for k in _FILTER_KEYS if k in table
        }
        try:
            objectives.append(
                SloObjective(
                    name=str(table.get("name", f"objective-{idx + 1}")),
                    metric=str(table.get("metric", "")),
                    min_value=(
                        float(table["min"]) if "min" in table else None  # type: ignore[arg-type]
                    ),
                    max_value=(
                        float(table["max"]) if "max" in table else None  # type: ignore[arg-type]
                    ),
                    quantile=float(table.get("quantile", 0.99)),  # type: ignore[arg-type]
                    filters=filters,
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"slo spec objective {idx + 1}: {exc}")
    if not objectives:
        raise ValueError("slo spec declares no [[objective]] tables")
    return SloSpec(
        name=str(header.get("name", "slo")),
        description=str(header.get("description", "")),
        objectives=tuple(objectives),
    )


def load_slo_spec(path: str) -> SloSpec:
    """Parse the spec file at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_slo_spec(fh.read())


# --------------------------------------------------------------------- #
# metric evaluation
# --------------------------------------------------------------------- #


def _filter_records(records: Sequence[object], filters: Dict[str, str]) -> List[object]:
    out: List[object] = []
    for r in records:
        if all(str(getattr(r, k, None)) == v for k, v in filters.items()):
            out.append(r)
    return out


def _finite_mean(values: Sequence[float]) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return math.fsum(finite) / len(finite) if finite else math.nan


def _nearest_rank(values: Sequence[float], q: float) -> float:
    finite = sorted(v for v in values if math.isfinite(v))
    if not finite:
        return math.nan
    rank = max(0, min(len(finite) - 1, math.ceil(q * len(finite)) - 1))
    return finite[rank]


def _chaos_cell_value(
    all_records: Sequence[object], objective: SloObjective
) -> Tuple[float, str]:
    """Cell statistic via :func:`chaos_cells` - the study's own numbers."""
    from repro.analysis.chaos import chaos_cells

    from repro.trace.records import ChaosRecord

    rows = [r for r in all_records if isinstance(r, ChaosRecord)]
    cells = chaos_cells(rows)
    f = objective.filters
    matching = [
        stats
        for (family, intensity, mechanism), stats in cells.items()
        if f.get("fault_family", family) == family
        and f.get("intensity", intensity) == intensity
        and f.get("mechanism", mechanism) == mechanism
    ]
    if not matching:
        return math.nan, "no chaos cell matches the filters"
    attr = {
        "availability": "availability",
        "mttr_mean": "mean_ttr",
        "mttr_p50": "p50_ttr",
        "p50_duration": "p50_duration",
        "p99_duration": "p99_duration",
        "goodput_retained": "goodput_retained",
    }[objective.metric]
    values = [float(getattr(s, attr)) for s in matching]
    if len(values) == 1:
        return values[0], f"1 cell ({matching[0].n} rows)"
    return _finite_mean(values), f"mean over {len(values)} cells"


def _record_metric(
    records: Sequence[object], objective: SloObjective
) -> Tuple[float, str]:
    from repro.analysis.availability import (
        availability_stats,
        byte_unavailability,
        duplicate_waste_fraction,
    )
    from repro.trace.records import ChaosRecord, FailureRecord

    rows = _filter_records(records, objective.filters)
    if not rows:
        return math.nan, "no records match the filters"
    metric = objective.metric

    if metric == "byte_unavailability":
        return byte_unavailability(rows), f"{len(rows)} rows"
    if metric == "duplicate_waste_fraction":
        return duplicate_waste_fraction(rows), f"{len(rows)} rows"

    chaos = all(isinstance(r, ChaosRecord) for r in rows)
    if chaos and metric in (
        "availability",
        "mttr_mean",
        "mttr_p50",
        "p50_duration",
        "p99_duration",
        "goodput_retained",
    ):
        return _chaos_cell_value(records, objective)

    if metric == "goodput_retained":
        return math.nan, "goodput_retained needs a chaos artefact"

    failure = all(isinstance(r, FailureRecord) for r in rows)
    if failure:
        stats = availability_stats(rows)  # type: ignore[arg-type]
        value = {
            "availability": stats.availability,
            "mttr_mean": stats.mean_ttr,
            "mttr_p50": stats.median_ttr,
            "p50_duration": _nearest_rank(
                [r.selected_duration for r in rows if not r.aborted], 0.5  # type: ignore[attr-defined]
            ),
            "p99_duration": _nearest_rank(
                [r.selected_duration for r in rows if not r.aborted], 0.99  # type: ignore[attr-defined]
            ),
        }[metric]
        return value, f"{stats.n_sessions} rows"

    # Generic rows: best-effort with the availability bit / durations.
    if metric == "availability":
        bits = [r for r in rows if hasattr(r, "available")]
        if not bits:
            return math.nan, "rows carry no availability bit"
        frac = sum(1 for r in bits if getattr(r, "available")) / len(bits)
        return frac, f"{len(bits)} rows"
    if metric in ("mttr_mean", "mttr_p50"):
        ttrs = [
            float(getattr(r, "time_to_recover", math.nan))
            for r in rows
        ]
        value = _finite_mean(ttrs) if metric == "mttr_mean" else _nearest_rank(ttrs, 0.5)
        return value, f"{len(rows)} rows"
    durations = [
        float(getattr(r, "selected_duration", math.nan))
        for r in rows
        if not getattr(r, "aborted", False)
    ]
    q = 0.5 if metric == "p50_duration" else 0.99
    return _nearest_rank(durations, q), f"{len(durations)} finished rows"


def _trace_metric(trace: ObsTrace, objective: SloObjective) -> Tuple[float, str]:
    metric = objective.metric
    kind, _, arg = metric.partition(":")
    if kind == "counter":
        return trace.counters.get(arg, math.nan), "counter"
    if kind == "gauge":
        return trace.gauges.get(arg, math.nan), "gauge"
    if kind in ("hist_p50", "hist_p99", "hist_mean", "hist_count"):
        hist = trace.histograms.get(arg)
        if hist is None:
            return math.nan, f"histogram {arg!r} absent"
        if kind == "hist_mean":
            return hist.mean, f"{hist.total} observations"
        if kind == "hist_count":
            return float(hist.total), "count"
        return hist.quantile(0.5 if kind == "hist_p50" else 0.99), (
            f"{hist.total} observations"
        )
    if kind in ("span_total", "span_count"):
        n, total = 0, 0.0
        for rec in trace.records:
            if rec.kind == "span" and rec.category == arg:
                n += 1
                total += (rec.end if rec.end is not None else rec.start) - rec.start
        return (float(n) if kind == "span_count" else total), f"{n} spans"
    # Phase metrics share one attribution pass.
    sessions = attribute_trace(trace)
    if not sessions:
        return math.nan, "trace has no session spans"
    if metric == "probe_overhead_fraction":
        totals = phase_totals(sessions)
        grand = math.fsum(totals.values())
        if grand <= 0.0:
            return math.nan, "zero total session time"
        return (totals["probe"] + totals["reprobe"]) / grand, (
            f"{len(sessions)} sessions"
        )
    if kind == "phase_fraction":
        if arg not in PHASES:
            return math.nan, f"unknown phase {arg!r}"
        totals = phase_totals(sessions)
        grand = math.fsum(totals.values())
        if grand <= 0.0:
            return math.nan, "zero total session time"
        return totals[arg] / grand, f"{len(sessions)} sessions"
    if kind == "tail_phase_fraction":
        if arg not in PHASES:
            return math.nan, f"unknown phase {arg!r}"
        tail = tail_attribution(sessions, objective.quantile)
        return tail.fractions.get(arg, math.nan), (
            f"{tail.n_tail} tail sessions (q={objective.quantile:g})"
        )
    return math.nan, f"unknown metric {metric!r}"


def evaluate_slo(
    spec: SloSpec,
    *,
    records: Optional[Sequence[object]] = None,
    trace: Optional[ObsTrace] = None,
) -> SloReport:
    """Evaluate every objective; missing inputs fail their objectives."""
    results: List[SloResult] = []
    for obj in spec.objectives:
        if obj.needs_trace:
            if trace is None:
                results.append(
                    SloResult(obj, math.nan, False, "needs --trace, none given")
                )
                continue
            measured, detail = _trace_metric(trace, obj)
        else:
            if records is None:
                results.append(
                    SloResult(obj, math.nan, False, "needs --records, none given")
                )
                continue
            measured, detail = _record_metric(records, obj)
        if not math.isfinite(measured):
            results.append(SloResult(obj, measured, False, detail))
            continue
        passed = True
        if obj.min_value is not None and measured < obj.min_value:
            passed = False
        if obj.max_value is not None and measured > obj.max_value:
            passed = False
        results.append(SloResult(obj, measured, passed, detail))
    return SloReport(spec=spec, results=tuple(results))


def _bounds(obj: SloObjective) -> str:
    parts = []
    if obj.min_value is not None:
        parts.append(f">= {obj.min_value:g}")
    if obj.max_value is not None:
        parts.append(f"<= {obj.max_value:g}")
    return " and ".join(parts)


def render_slo(report: SloReport) -> str:
    """Human-readable pass/fail table (the ``repro obs slo`` output)."""
    lines: List[str] = []
    lines.append(f"SLO evaluation: {report.spec.name}")
    if report.spec.description:
        lines.append(report.spec.description)
    lines.append("=" * 72)
    for res in report.results:
        obj = res.objective
        status = "PASS" if res.passed else "FAIL"
        measured = f"{res.measured:.4g}" if math.isfinite(res.measured) else "n/a"
        filt = (
            " [" + ", ".join(f"{k}={v}" for k, v in sorted(obj.filters.items())) + "]"
            if obj.filters
            else ""
        )
        lines.append(
            f"  {status}  {obj.name}: {obj.metric}{filt} = {measured} "
            f"(want {_bounds(obj)}; {res.detail})"
        )
    n_fail = len(report.violations)
    lines.append(
        "all objectives met"
        if report.clean
        else f"{n_fail} of {len(report.results)} objectives violated"
    )
    return "\n".join(lines)
