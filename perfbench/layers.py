"""Pure helpers shared by run.py, the pipeline and the self-tests.

Stdlib only: the pipeline imports this module after it has timed
``import repro.cli``, and the tests import it without the program.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Metric and span names: what BENCHMARK.json and the ledger accept.
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: Profiler attribution: the first rule whose fragment occurs in a code
#: object's file path names its layer.  Longer paths come first so a module
#: rule wins over its package rule.
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("/repro/tcp/fluid.py", "tcp.fluid"),
    ("/repro/tcp/maxmin.py", "tcp.maxmin"),
    ("/repro/tcp/", "tcp.flow"),
    ("/repro/net/trace.py", "net.trace"),
    ("/repro/net/capacity.py", "net.capacity"),
    ("/repro/vec/engine.py", "vec.engine"),
    ("/repro/vec/solver.py", "vec.solver"),
    ("/repro/sim/", "sim"),
    ("/repro/core/", "core"),
    ("/repro/http/", "http"),
    ("/repro/stripe/", "stripe"),
    ("/repro/chaos/", "chaos"),
    ("/repro/workloads/", "workloads"),
    ("/repro/runner/", "runner"),
    # Program code outside the named layers: analysis, records, util, obs,
    # the rest of net/.
    ("/repro/", "other"),
)
#: numpy, builtins, the stdlib and everything else.
EXT_LAYER = "ext"
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _, layer in LAYER_RULES] + [EXT_LAYER]
))


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def ratio(numerator: float, base: float) -> Optional[float]:
    """``numerator / base``, or ``None`` (absent) when the base is zero."""
    if base == 0:
        return None
    return numerator / base


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's per-run values."""
    return {
        "median": percentile(values, 50),
        "q1": percentile(values, 25),
        "q3": percentile(values, 75),
        "n": len(values),
    }


def layer_of(filename: str) -> str:
    """The profiler layer a code object's file belongs to."""
    path = filename.replace("\\", "/")
    for fragment, layer in LAYER_RULES:
        if fragment in path:
            return layer
    return EXT_LAYER


def self_seconds_by_layer(
    entries: Iterable[Tuple[str, float]],
) -> Dict[str, float]:
    """Sum profiler self seconds, given as ``(filename, seconds)``, per layer."""
    totals = {layer: 0.0 for layer in LAYERS}
    for filename, seconds in entries:
        totals[layer_of(filename)] += seconds
    return totals


class Span:
    """One timed interval of a benchmark run: name, start, end, parent, run id."""

    __slots__ = ("sid", "name", "start", "end", "parent", "run_id")

    def __init__(
        self,
        sid: int,
        name: str,
        start: float,
        end: float,
        parent: Optional[int],
        run_id: str,
    ):
        self.sid = sid
        self.name = check_name(name)
        self.start = start
        self.end = end
        self.parent = parent
        self.run_id = run_id

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run_id": self.run_id,
        }


class SpanLog:
    """Spans kept in memory for one run; written out when the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []

    def add(
        self, name: str, start: float, end: float, parent: Optional[int] = None
    ) -> int:
        sid = len(self.spans)
        self.spans.append(Span(sid, name, start, end, parent, self.run_id))
        return sid


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self seconds per span name: each span's duration minus the part of
    its interval that its child spans cover, summed over spans of a name."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: Dict[str, float] = {}
    for span in spans:
        own = (span.end - span.start) - _covered(
            children.get(span.sid, []), span.start, span.end
        )
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def obs_layer_metrics(counters: Mapping[str, float]) -> Dict[str, Optional[float]]:
    """Exact counts and ratios from a merged obs trace's counters.

    Every ratio is returned next to its base; a ratio whose base is zero is
    ``None`` (absent).
    """
    c = lambda name: float(counters.get(name, 0.0))  # noqa: E731
    ticks = c("engine.ticks")
    # The classic engine solves once per tick with active flows, through one
    # of these exclusive paths; the vector engine counts none of them.
    fast = c("maxmin.single_flow") + c("maxmin.disjoint_fast") + c(
        "alloc.solve_disjoint_scalar"
    )
    solves = fast + c("maxmin.progressive")
    # A hit is a solve that reused the cached allocation state.
    hits = solves - c("alloc.cache_rebuild")
    issued = c("stripe.blocks.issued")
    return {
        "sim.events": c("sim.events"),
        "engine.ticks": ticks,
        "alloc.cache_hit_ratio": ratio(hits, ticks),
        "alloc.solves": solves,
        "maxmin.progressive_rounds": c("maxmin.progressive_rounds"),
        "maxmin.fast_solves": fast,
        "maxmin.fast_ratio": ratio(fast, solves),
        "probe.rounds": c("probe.rounds"),
        "stripe.blocks.issued": issued,
        "stripe.blocks.committed": c("stripe.blocks.committed"),
        "stripe.useful_ratio": ratio(c("stripe.blocks.committed"), issued),
        "recovery.failover": c("recovery.failover"),
    }
