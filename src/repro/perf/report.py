"""Machine-readable bench reports (``BENCH_engine.json``) and comparison.

A report records, per bench, the optimised number, the number of the
bench's reference implementation where one exists, and their ratio
(``baseline``/``speedup`` are null otherwise).  ``compare_reports`` diffs
two reports' *optimised* numbers (current run vs a stored report), which is
how ``repro perf --baseline`` detects drift against the previous recording.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = [
    "SCHEMA",
    "BenchReport",
    "Comparison",
    "load_report",
    "compare_reports",
    "format_report",
    "format_comparison",
]

SCHEMA = "repro-perf/1"

#: Relative slowdown of a bench's optimised number (current vs stored) that
#: counts as a regression.  Generous by design: these are wall-clock numbers
#: from shared CI runners, and the gate is advisory (the CI job is
#: non-gating) — the threshold exists to rank noise out, not to block merges.
DEFAULT_TOLERANCE = 0.25


@dataclass
class BenchReport:
    """One ``repro perf`` run: per-bench results plus environment context."""

    benches: Dict[str, Dict[str, Any]]
    quick: bool = False
    schema: str = SCHEMA
    environment: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_results(
        cls, results: Dict[str, Dict[str, Any]], *, quick: bool
    ) -> "BenchReport":
        """Wrap raw bench results with schema and environment context."""
        env = {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": str(np.__version__),
            "machine": platform.machine(),
        }
        return cls(benches=results, quick=quick, environment=env)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "quick": self.quick,
            "environment": self.environment,
            "benches": self.benches,
        }

    def save(self, path: str) -> None:
        """Write the report as stable, diff-friendly JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_report(path: str) -> BenchReport:
    """Load a report written by :meth:`BenchReport.save`."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    schema = data.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench report schema {schema!r} (expected {SCHEMA!r})"
        )
    benches = data.get("benches")
    if not isinstance(benches, dict):
        raise ValueError(f"{path}: malformed bench report (no 'benches' mapping)")
    return BenchReport(
        benches=benches,
        quick=bool(data.get("quick", False)),
        schema=str(schema),
        environment=dict(data.get("environment", {})),
    )


@dataclass(frozen=True)
class Comparison:
    """Current-vs-stored optimised number for one bench."""

    name: str
    unit: str
    current: float
    stored: float
    #: current / stored: > 1 means the current run is slower.
    ratio: float
    regressed: bool
    #: Span category whose cumulative time grew the most (relative), when
    #: both reports carry ``--obs`` span summaries - names the subsystem a
    #: regression lives in ("transfer", "tick", "probe", ...).
    suspect_category: Optional[str] = None
    #: Relative growth of the suspect category's cumulative span time.
    suspect_growth: Optional[float] = None


def _suspect_category(
    current: Dict[str, Any], stored: Dict[str, Any]
) -> Optional[tuple]:
    """Largest relative growth in per-category span time, if knowable.

    Both bench entries must carry an ``obs_summary`` block (written by
    ``repro perf --obs``).  Categories absent from the stored run are
    compared against a zero floor scaled to the smallest stored total, so
    a brand-new hot category still surfaces.  Returns ``(category,
    relative_growth)`` for the worst mover with positive growth, else
    ``None``.
    """
    cur_spans = (current.get("obs_summary") or {}).get("spans")
    old_spans = (stored.get("obs_summary") or {}).get("spans")
    if not isinstance(cur_spans, dict) or not isinstance(old_spans, dict):
        return None
    old_totals = {
        cat: float(entry.get("total_time", 0.0))
        for cat, entry in old_spans.items()
        if isinstance(entry, dict)
    }
    floor = min((v for v in old_totals.values() if v > 0.0), default=0.0)
    best: Optional[tuple] = None
    for cat, entry in cur_spans.items():
        if not isinstance(entry, dict):
            continue
        cur_total = float(entry.get("total_time", 0.0))
        old_total = old_totals.get(cat, 0.0)
        denom = old_total if old_total > 0.0 else floor
        if denom <= 0.0:
            continue
        growth = (cur_total - old_total) / denom
        if growth > 0.0 and (best is None or growth > best[1]):
            best = (cat, growth)
    return best


def compare_reports(
    current: BenchReport,
    stored: BenchReport,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Comparison]:
    """Compare the optimised numbers of two reports, bench by bench.

    Benches present in only one report are skipped (a new bench is not a
    regression).  A bench regresses when its current optimised number
    exceeds the stored one by more than ``tolerance`` (relative).
    """
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    out: List[Comparison] = []
    for name, result in current.benches.items():
        stored_result = stored.benches.get(name)
        if stored_result is None:
            continue
        cur = _as_positive_float(result.get("optimised"))
        old = _as_positive_float(stored_result.get("optimised"))
        if cur is None or old is None:
            continue
        ratio = cur / old
        regressed = ratio > 1.0 + tolerance
        suspect = _suspect_category(result, stored_result) if regressed else None
        out.append(
            Comparison(
                name=name,
                unit=str(result.get("unit", "")),
                current=cur,
                stored=old,
                ratio=ratio,
                regressed=regressed,
                suspect_category=suspect[0] if suspect else None,
                suspect_growth=suspect[1] if suspect else None,
            )
        )
    return out


def _as_positive_float(value: Any) -> Optional[float]:
    if isinstance(value, (int, float)) and float(value) > 0.0:
        return float(value)
    return None


def _fmt_value(value: Optional[float], unit: str) -> str:
    if value is None:
        return "n/a"
    if unit == "s":
        return f"{value:.3f} s"
    return f"{value:,.0f} {unit}"


def format_report(report: BenchReport) -> str:
    """Human-readable rendering of a report (the CLI's stdout view)."""
    lines = [
        f"engine benchmarks ({'quick' if report.quick else 'full'} mode, "
        "best-of-N per kernel; baseline = reference implementation)"
    ]
    header = f"  {'bench':<18} {'optimised':>14} {'baseline':>14} {'speedup':>8}"
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for name, result in report.benches.items():
        unit = str(result.get("unit", ""))
        opt = _as_positive_float(result.get("optimised"))
        base = _as_positive_float(result.get("baseline"))
        speedup = _as_positive_float(result.get("speedup"))
        speedup_s = f"{speedup:.2f}x" if speedup is not None else "-"
        lines.append(
            f"  {name:<18} {_fmt_value(opt, unit):>14} "
            f"{_fmt_value(base, unit):>14} {speedup_s:>8}"
        )
    return "\n".join(lines)


def format_comparison(comparisons: List[Comparison], *, tolerance: float) -> str:
    """Human-readable regression report for ``repro perf --baseline``."""
    if not comparisons:
        return "no comparable benches between the two reports"
    lines = [f"comparison vs stored baseline (regression threshold +{tolerance:.0%}):"]
    header = f"  {'bench':<18} {'current':>14} {'stored':>14} {'ratio':>7}  status"
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for cmp_ in comparisons:
        status = "REGRESSED" if cmp_.regressed else "ok"
        lines.append(
            f"  {cmp_.name:<18} {_fmt_value(cmp_.current, cmp_.unit):>14} "
            f"{_fmt_value(cmp_.stored, cmp_.unit):>14} {cmp_.ratio:>6.2f}x  {status}"
        )
        if cmp_.regressed and cmp_.suspect_category is not None:
            lines.append(
                f"  {'':<18} suspect: {cmp_.suspect_category!r} span time "
                f"grew {cmp_.suspect_growth:+.0%} (per --obs span summary)"
            )
        elif cmp_.regressed:
            lines.append(
                f"  {'':<18} (run both sides with --obs to attribute the "
                "regression to a span category)"
            )
    n_reg = sum(1 for c in comparisons if c.regressed)
    lines.append(
        f"{n_reg} regression(s) in {len(comparisons)} compared bench(es)"
        if n_reg
        else f"all {len(comparisons)} compared bench(es) within tolerance"
    )
    return "\n".join(lines)
