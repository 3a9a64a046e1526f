"""repro.obs: unified tracing, metrics and profiling layer.

The observability substrate shared by the simulation kernel, the TCP
engine, the transfer/resilience core, the campaign runner and the perf
harness.  See :mod:`repro.obs.core` for the instrumentation primitives and
:mod:`repro.obs.export` for the exporters (JSONL, Chrome ``trace_event``,
Prometheus text).

On top of the substrate sits the insight layer: critical-path phase
attribution (:mod:`repro.obs.insight`), cross-run trace diffing
(:mod:`repro.obs.diff`), declarative SLO evaluation
(:mod:`repro.obs.slo`) and the campaign health report
(:mod:`repro.obs.report`).
"""
