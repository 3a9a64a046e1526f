"""Exporters for :mod:`repro.obs` traces.

:class:`ObsTrace` is the serialisable snapshot of an
:class:`~repro.obs.core.Observer`: the JSONL event log (one record per
line, bracketed by a schema line and a metrics line), the Chrome
``trace_event`` rendering (loadable in Perfetto / ``about:tracing``), the
Prometheus text metrics dump, and the human-readable summary behind
``repro obs summarize``.  It also merges multi-worker shard traces into one
deterministic timeline, the TraceStore-merge analogue for telemetry.

Sim-time spans map to trace timestamps via :data:`repro.util.units.US_PER_S`
(Chrome timestamps are microseconds), and tracks map to one synthetic
thread each, so a 300-second simulated campaign renders as a 300-second
trace regardless of how fast it actually ran.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.obs.core import SCHEMA, Histogram, ObsRecord, Observer
from repro.util.units import s_to_us

__all__ = [
    "CHROME_TRACE_SCHEMA",
    "ObsTrace",
    "validate_chrome_trace",
]

#: JSON Schema (subset) for the Chrome ``trace_event`` export, used by the
#: CI obs-smoke job and :func:`validate_chrome_trace`.
CHROME_TRACE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["ph", "pid", "tid", "name"],
                "properties": {
                    "ph": {"enum": ["X", "i", "M"]},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                    "name": {"type": "string"},
                    "cat": {"type": "string"},
                    "ts": {"type": "number"},
                    "dur": {"type": "number"},
                    "s": {"enum": ["t", "p", "g"]},
                    "args": {"type": "object"},
                },
            },
        },
        "displayTimeUnit": {"enum": ["ms", "ns"]},
    },
}

_JSON_TYPES: Dict[str, Union[type, Tuple[type, ...]]] = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
}


def _check_schema(value: Any, schema: Mapping[str, Any], path: str, errors: List[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        py_type = _JSON_TYPES[expected]
        ok = isinstance(value, py_type)
        # bool is an int subclass in Python; JSON keeps them distinct.
        if ok and expected in ("number", "integer") and isinstance(value, bool):
            ok = False
        if not ok:
            errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not one of {schema['enum']}")
        return
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check_schema(value[key], sub, f"{path}.{key}", errors)
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check_schema(item, schema["items"], f"{path}[{i}]", errors)


def validate_chrome_trace(data: Any) -> List[str]:
    """Validate ``data`` against :data:`CHROME_TRACE_SCHEMA`.

    Returns a list of human-readable problems (empty when the trace is
    valid).  Beyond the structural schema, complete spans (``ph="X"``) must
    carry ``ts`` and ``dur`` and instants (``ph="i"``) must carry ``ts``.
    """
    errors: List[str] = []
    _check_schema(data, CHROME_TRACE_SCHEMA, "$", errors)
    if errors:
        return errors
    for i, ev in enumerate(data["traceEvents"]):
        ph = ev.get("ph")
        if ph == "X" and ("ts" not in ev or "dur" not in ev):
            errors.append(f"$.traceEvents[{i}]: complete span missing ts/dur")
        elif ph == "i" and "ts" not in ev:
            errors.append(f"$.traceEvents[{i}]: instant event missing ts")
    return errors


class ObsTrace:
    """A serialisable, mergeable snapshot of one or more observers."""

    __slots__ = ("counters", "gauges", "histograms", "records", "dropped")

    def __init__(
        self,
        *,
        counters: Optional[Dict[str, float]] = None,
        gauges: Optional[Dict[str, float]] = None,
        histograms: Optional[Dict[str, Histogram]] = None,
        records: Optional[List[ObsRecord]] = None,
        dropped: int = 0,
    ):
        self.counters: Dict[str, float] = counters if counters is not None else {}
        self.gauges: Dict[str, float] = gauges if gauges is not None else {}
        self.histograms: Dict[str, Histogram] = (
            histograms if histograms is not None else {}
        )
        self.records: List[ObsRecord] = records if records is not None else []
        self.dropped = dropped

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_observer(cls, observer: Observer) -> "ObsTrace":
        """Snapshot ``observer`` (shallow copies; records are shared)."""
        return cls(
            counters=dict(observer.counters),
            gauges=dict(observer.gauges),
            histograms=dict(observer.histograms),
            records=list(observer.records),
            dropped=observer.dropped,
        )

    @classmethod
    def merge(cls, traces: Iterable["ObsTrace"]) -> "ObsTrace":
        """Merge shard traces into one deterministic timeline.

        Records sort by ``(start, track, seq)``; counters and histogram
        buckets sum exactly; gauges merge by maximum (the only order-free
        choice for last-write metrics like queue depth, so merged gauges
        read as high-water marks).
        """
        merged = cls()
        for trace in traces:
            for name, value in trace.counters.items():
                merged.counters[name] = merged.counters.get(name, 0.0) + value
            for name, value in trace.gauges.items():
                current = merged.gauges.get(name)
                if current is None or value > current:
                    merged.gauges[name] = value
            for name, hist in trace.histograms.items():
                target = merged.histograms.get(name)
                if target is None:
                    target = merged.histograms[name] = Histogram(hist.bounds)
                target.merge_in(hist)
            merged.records.extend(trace.records)
            merged.dropped += trace.dropped
        merged.records.sort(key=lambda r: r.sort_key)
        return merged

    # ------------------------------------------------------------------ #
    # JSONL event log
    # ------------------------------------------------------------------ #
    def save_jsonl(self, path: str) -> None:
        """Write the trace as JSONL: schema line, records, metrics line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": SCHEMA}, sort_keys=True) + "\n")
            for record in self.records:
                fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            metrics = {
                "counters": self.counters,
                "gauges": self.gauges,
                "histograms": {
                    name: hist.to_dict() for name, hist in self.histograms.items()
                },
                "dropped": self.dropped,
            }
            fh.write(json.dumps({"metrics": metrics}, sort_keys=True) + "\n")

    @classmethod
    def load_jsonl(cls, path: str) -> "ObsTrace":
        """Read a trace written by :meth:`save_jsonl`.

        A torn final line (a worker killed mid-dump) is tolerated and
        dropped; corruption anywhere else raises ``ValueError``.
        """
        trace = cls()
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break
                raise ValueError(f"{path}:{i + 1}: corrupt trace line") from None
            if "schema" in payload:
                if payload["schema"] != SCHEMA:
                    raise ValueError(
                        f"{path}: unsupported trace schema {payload['schema']!r}"
                    )
            elif "metrics" in payload:
                metrics = payload["metrics"]
                trace.counters.update(metrics.get("counters", {}))
                trace.gauges.update(metrics.get("gauges", {}))
                for name, d in metrics.get("histograms", {}).items():
                    trace.histograms[name] = Histogram.from_dict(d)
                trace.dropped += int(metrics.get("dropped", 0))
            else:
                trace.records.append(ObsRecord.from_dict(payload))
        return trace

    # ------------------------------------------------------------------ #
    # Chrome trace_event
    # ------------------------------------------------------------------ #
    def to_chrome(self) -> Dict[str, Any]:
        """Render as Chrome ``trace_event`` JSON (Perfetto-loadable).

        Each track becomes one synthetic thread of pid 1 (tids assigned in
        sorted track order, so the mapping is deterministic); span times map
        seconds to microseconds.
        """
        tracks = sorted({record.track for record in self.records})
        tids = {track: i + 1 for i, track in enumerate(tracks)}
        events: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "pid": 1,
                "tid": tids[track],
                "name": "thread_name",
                "args": {"name": track},
            }
            for track in tracks
        ]
        for record in self.records:
            ev: Dict[str, Any] = {
                "pid": 1,
                "tid": tids[record.track],
                "cat": record.category,
                "name": record.name,
                "ts": s_to_us(record.start),
            }
            if record.kind == "span":
                ev["ph"] = "X"
                ev["dur"] = s_to_us(record.duration)
            else:
                ev["ph"] = "i"
                ev["s"] = "t"
            if record.args:
                ev["args"] = record.args
            events.append(ev)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # ------------------------------------------------------------------ #
    # Prometheus text metrics
    # ------------------------------------------------------------------ #
    def to_prometheus(self) -> str:
        """Render counters/gauges/histograms in Prometheus text format."""
        out: List[str] = []
        for name in sorted(self.counters):
            metric = _prom_name(name)
            out.append(f"# TYPE {metric} counter")
            out.append(f"{metric} {_prom_value(self.counters[name])}")
        for name in sorted(self.gauges):
            metric = _prom_name(name)
            out.append(f"# TYPE {metric} gauge")
            out.append(f"{metric} {_prom_value(self.gauges[name])}")
        for name in sorted(self.histograms):
            hist = self.histograms[name]
            metric = _prom_name(name)
            out.append(f"# TYPE {metric} histogram")
            cum = 0
            for bound, count in zip(hist.bounds, hist.counts):
                cum += count
                out.append(f'{metric}_bucket{{le="{_prom_value(bound)}"}} {cum}')
            out.append(f'{metric}_bucket{{le="+Inf"}} {hist.total}')
            out.append(f"{metric}_sum {_prom_value(hist.sum)}")
            out.append(f"{metric}_count {hist.total}")
        return "\n".join(out) + "\n" if out else ""

    # ------------------------------------------------------------------ #
    # human-readable summary
    # ------------------------------------------------------------------ #
    def summarize(self, *, top: int = 10) -> str:
        """The ``repro obs summarize`` report: top spans by cumulative
        time, per-category totals, counters, gauges, histogram quantiles."""
        lines: List[str] = []
        per_cat: Dict[str, Tuple[int, float]] = {}
        per_span: Dict[Tuple[str, str], Tuple[int, float]] = {}
        n_events = 0
        for record in self.records:
            if record.kind != "span":
                n_events += 1
                continue
            count, total = per_cat.get(record.category, (0, 0.0))
            per_cat[record.category] = (count + 1, total + record.duration)
            key = (record.category, record.name)
            count, total = per_span.get(key, (0, 0.0))
            per_span[key] = (count + 1, total + record.duration)

        lines.append(
            f"trace: {len(self.records)} records "
            f"({len(self.records) - n_events} spans, {n_events} events"
            + (f", {self.dropped} dropped)" if self.dropped else ")")
        )
        if per_cat:
            lines.append("")
            lines.append("span categories (count, cumulative time):")
            for cat in sorted(per_cat):
                count, total = per_cat[cat]
                lines.append(f"  {cat:<12} {count:>8}  {total:>12.6f} s")
        if per_span:
            ranked = sorted(
                per_span.items(), key=lambda item: (-item[1][1], item[0])
            )[:top]
            lines.append("")
            lines.append(f"top {len(ranked)} spans by cumulative time:")
            for (cat, name), (count, total) in ranked:
                lines.append(f"  {total:>12.6f} s  {count:>6}x  {cat}:{name}")
        if self.counters:
            lines.append("")
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name:<40} {_prom_value(self.counters[name])}")
        if self.gauges:
            lines.append("")
            lines.append("gauges:")
            for name in sorted(self.gauges):
                lines.append(f"  {name:<40} {_prom_value(self.gauges[name])}")
        if self.histograms:
            lines.append("")
            lines.append("histograms (mean / p50 / p90 / p99):")
            for name in sorted(self.histograms):
                hist = self.histograms[name]
                lines.append(
                    f"  {name:<40} n={hist.total}"
                    f" mean={hist.mean:.6g}"
                    f" p50={hist.quantile(0.5):.6g}"
                    f" p90={hist.quantile(0.9):.6g}"
                    f" p99={hist.quantile(0.99):.6g}"
                )
        return "\n".join(lines) + "\n"


def _prom_name(name: str) -> str:
    """Map a dotted metric name onto the Prometheus charset."""
    safe = "".join(
        ch if ch.isalnum() or ch in "_:" else "_" for ch in name
    )
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return "repro_" + safe


def _prom_value(value: float) -> str:
    """Render a float compactly (integral values lose the trailing .0)."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))
