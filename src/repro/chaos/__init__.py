"""repro.chaos: deterministic fault injection (DESIGN.md §13).

Two layers share this package:

* :mod:`repro.chaos.faults` - simulation-time faults.  Declarative
  :class:`~repro.net.failures.FaultWindow` plans (gray degradation,
  flapping, correlated blackouts, partitions) compile into capacity-trace
  rewrites that both transport engines consume unchanged.
* :mod:`repro.chaos.runner` - process-level faults.  A
  :class:`~repro.chaos.runner.RunnerFaultPlan` kills pool workers at
  deterministic points to prove the executor's crash-consistent resume.
"""
