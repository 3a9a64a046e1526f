"""repro.chaos: deterministic fault injection (DESIGN.md §13).

Two layers share this package:

* :mod:`repro.chaos.faults` - simulation-time faults.  Declarative
  :class:`~repro.net.failures.FaultWindow` plans (gray degradation,
  flapping, correlated blackouts, partitions) compile into capacity-trace
  rewrites that both transport engines consume unchanged.
* :mod:`repro.chaos.runner` - process-level faults.  A
  :class:`RunnerFaultPlan` kills pool workers at deterministic points to
  prove the executor's crash-consistent resume.
"""

from repro.chaos.faults import (
    FAULT_FAMILIES,
    FAULT_INTENSITIES,
    FaultIntensity,
    compile_fault_plan,
    degraded_seconds,
    flapping_windows,
    intensity_params,
    plan_spans,
)
from repro.chaos.runner import RunnerFaultInjector, RunnerFaultPlan

__all__ = [
    "FAULT_FAMILIES",
    "FAULT_INTENSITIES",
    "FaultIntensity",
    "RunnerFaultInjector",
    "RunnerFaultPlan",
    "compile_fault_plan",
    "degraded_seconds",
    "flapping_windows",
    "intensity_params",
    "plan_spans",
]
