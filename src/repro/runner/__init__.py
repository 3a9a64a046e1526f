"""Campaign-execution subsystem: plan, execute, checkpoint, merge.

The paper's campaigns are thousands of *independent* paired measurements,
so they parallelise perfectly - provided nothing about the results depends
on execution order.  This package makes that guarantee structural:

:mod:`repro.runner.plan`
    Decompose a study into an ordered stream of self-describing
    :class:`~repro.runner.plan.WorkUnit` s with a campaign fingerprint.
:mod:`repro.runner.pool`
    Execute a plan inline (``jobs=1``) or on N spawn-safe worker processes,
    with bounded queues, per-unit timeout, bounded retry and a graceful
    SIGINT drain.
:mod:`repro.runner.checkpoint`
    Incremental shard JSONL stores plus an atomic fingerprinted manifest;
    ``resume`` skips completed units and refuses drifted campaigns.
:mod:`repro.runner.progress`
    stderr progress telemetry and the machine-readable run summary.

Typical use goes through the study drivers
(:meth:`~repro.workloads.experiment.Section2Study.run` and friends accept
``jobs=...``), or directly::

    plan = plan_section2(scenario, repetitions=30, interval=360.0,
                         config=STUDY_SESSION_CONFIG)
    result = execute_plan(plan, jobs=4, checkpoint="ckpt/", progress=True)
    result.store.save_jsonl("s2.jsonl")
"""

# perfbench/pipeline.py imports execute_plan from the package.
from repro.runner.pool import execute_plan

__all__ = ["execute_plan"]
