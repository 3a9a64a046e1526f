"""Executor tests: byte-identical parallelism, resume, retries, telemetry.

The parallel cases spawn real worker processes (the ``spawn`` context), so
the campaign here is deliberately tiny: 3 clients x 4 repetitions against
one site.  Byte identity is asserted on the serialised JSONL, the strongest
form of the determinism contract.
"""

import io

import pytest

from repro.net.failures import FaultWindow
from repro.net.topology import wan_link_name
from repro.obs.core import OBS_ENV_VAR, Histogram, global_observer, reset_global_observer
from repro.runner.checkpoint import CheckpointStore
from repro.runner.plan import plan_section2
from repro.runner.pool import ExecutionResult, UnitExecutionError, execute_plan, run_unit
from repro.runner.progress import ProgressReporter
from repro.trace.store import TraceStore
from repro.workloads.experiment import (
    Section2Study,
    run_paired_transfer,
)
from repro.workloads.studies import STUDY_SESSION_CONFIG

CLIENTS = ["Italy", "Sweden", "Taiwan"]
REPS = 4


@pytest.fixture(scope="module")
def plan(section2_scenario):
    return plan_section2(
        section2_scenario,
        repetitions=REPS,
        interval=360.0,
        config=STUDY_SESSION_CONFIG,
        sites=["eBay"],
        clients=CLIENTS,
    )


@pytest.fixture(scope="module")
def serial_result(plan, section2_scenario) -> ExecutionResult:
    return execute_plan(plan, jobs=1, scenario=section2_scenario)


def store_bytes(tmp_path, store: TraceStore, name: str) -> bytes:
    path = tmp_path / name
    store.save_jsonl(path)
    return path.read_bytes()


class TestSerialPath:
    def test_matches_direct_unit_execution(self, plan, section2_scenario, serial_result):
        expected = [
            run_paired_transfer(
                section2_scenario,
                study=u.study,
                client=u.client,
                site=u.site,
                repetition=u.repetition,
                start_time=u.start_time,
                offered=list(u.offered),
                config=plan.config,
            )
            for u in plan.units
        ]
        assert serial_result.store is not None
        assert serial_result.store.records == expected

    def test_summary_accounting(self, plan, serial_result):
        s = serial_result.summary
        assert s.total_units == len(plan)
        assert s.executed_units == len(plan)
        assert s.skipped_units == 0
        assert s.completed_units == len(plan)
        assert s.failed_attempts == 0
        assert s.jobs == 1
        assert s.fingerprint == plan.fingerprint()
        assert not s.interrupted


class TestParallelByteIdentity:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_jobs_n_matches_serial(self, tmp_path, plan, serial_result, jobs):
        result = execute_plan(plan, jobs=jobs)
        assert result.store is not None
        assert result.summary.jobs == jobs
        assert store_bytes(tmp_path, result.store, f"j{jobs}.jsonl") == store_bytes(
            tmp_path, serial_result.store, "j1.jsonl"
        )


class TestQueueWaitHistogram:
    def test_typical_waits_get_distinct_p50s(self, plan, monkeypatch):
        """The pool's queue-wait buckets resolve waits of about 3, 15 and
        30 ms; decade buckets read the last two as the same 0.1 s edge."""
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        reset_global_observer()
        try:
            execute_plan(plan, jobs=2)
            observer = global_observer(create=False)
            bounds = observer.histograms["runner.queue_wait_seconds"].bounds
        finally:
            reset_global_observer()
        p50s = []
        for typical in (0.003, 0.015, 0.03):
            hist = Histogram(bounds)
            for k in range(9):
                hist.observe(typical * (0.9 + 0.025 * k))
            hist.observe(0.5)  # a worker's start-up wait
            p50 = hist.quantile(0.5)
            assert typical < p50 < 2.0 * typical
            p50s.append(p50)
        assert len(set(p50s)) == 3


class TestWorkersRunTheCallersScenario:
    def test_faulted_scenario_reaches_workers(self, tmp_path, section2_scenario):
        """Workers execute on the scenario passed in, not one rebuilt from
        the plan's spec: a faulted copy shares the spec and seed, so the
        plan check cannot tell them apart."""
        faulted = section2_scenario.with_faults(
            {wan_link_name("eBay", "Italy"): [FaultWindow(0.0, 30.0, factor=0.25)]}
        )
        plan = Section2Study(section2_scenario, repetitions=2).plan(
            sites=["eBay"], clients=["Italy"]
        )
        healthy = execute_plan(plan, jobs=1, scenario=section2_scenario)
        runs = {
            jobs: store_bytes(
                tmp_path, execute_plan(plan, jobs=jobs, scenario=faulted).store, f"j{jobs}"
            )
            for jobs in (1, 2)
        }
        assert runs[2] == runs[1]
        assert runs[1] != store_bytes(tmp_path, healthy.store, "healthy")


class TestCheckpointAndResume:
    def test_interrupt_then_resume_is_identical(
        self, tmp_path, plan, section2_scenario, serial_result
    ):
        """Simulated kill after 5 units: the resumed run skips them and the
        final store is byte-identical to an uninterrupted serial run."""
        ckpt = tmp_path / "ck"
        finished = 0

        def dying_run_unit(scenario, config, unit):
            nonlocal finished
            if finished == 5:
                raise KeyboardInterrupt
            finished += 1
            return run_unit(scenario, config, unit)

        with pytest.raises(KeyboardInterrupt):
            execute_plan(
                plan,
                jobs=1,
                scenario=section2_scenario,
                checkpoint=ckpt,
                checkpoint_every=2,
                run_unit_fn=dying_run_unit,
            )
        durable = CheckpointStore.open_or_create(
            ckpt, plan, resume=True
        ).completed_units()
        assert sorted(durable) == list(range(5))  # close() flushed everything

        executed = []

        def tracking_run_unit(scenario, config, unit):
            executed.append(unit.index)
            return run_unit(scenario, config, unit)

        result = execute_plan(
            plan,
            jobs=1,
            scenario=section2_scenario,
            checkpoint=ckpt,
            resume=True,
            run_unit_fn=tracking_run_unit,
        )
        assert executed == list(range(5, len(plan)))  # no completed unit re-ran
        assert result.summary.skipped_units == 5
        assert result.summary.executed_units == len(plan) - 5
        assert result.store is not None
        assert store_bytes(tmp_path, result.store, "resumed.jsonl") == store_bytes(
            tmp_path, serial_result.store, "clean.jsonl"
        )

    def test_max_units_leaves_resumable_checkpoint(
        self, tmp_path, plan, section2_scenario, serial_result
    ):
        ckpt = tmp_path / "ck"
        partial = execute_plan(
            plan, jobs=1, scenario=section2_scenario, checkpoint=ckpt, max_units=7
        )
        assert partial.store is None  # deliberately incomplete
        assert partial.summary.executed_units == 7
        resumed = execute_plan(plan, jobs=2, checkpoint=ckpt, resume=True)
        assert resumed.summary.skipped_units == 7
        assert resumed.store is not None
        assert store_bytes(tmp_path, resumed.store, "resumed.jsonl") == store_bytes(
            tmp_path, serial_result.store, "clean.jsonl"
        )

    def test_summary_written_to_checkpoint(self, tmp_path, plan, section2_scenario):
        import json

        ckpt = tmp_path / "ck"
        execute_plan(
            plan, jobs=1, scenario=section2_scenario, checkpoint=ckpt, max_units=2
        )
        summary = json.loads((ckpt / "summary.json").read_text(encoding="utf-8"))
        assert summary["executed_units"] == 2
        assert summary["fingerprint"] == plan.fingerprint()


class TestRetries:
    def test_transient_fault_retried_then_identical(
        self, tmp_path, plan, section2_scenario, serial_result
    ):
        attempts = {}

        def flaky_run_unit(scenario, config, unit):
            attempts[unit.index] = attempts.get(unit.index, 0) + 1
            if unit.index == 3 and attempts[unit.index] == 1:
                raise RuntimeError("injected transient fault")
            return run_unit(scenario, config, unit)

        result = execute_plan(
            plan, jobs=1, scenario=section2_scenario, run_unit_fn=flaky_run_unit
        )
        assert attempts[3] == 2
        assert result.summary.failed_attempts == 1
        assert result.summary.retried_units == 1
        assert result.store is not None
        assert store_bytes(tmp_path, result.store, "flaky.jsonl") == store_bytes(
            tmp_path, serial_result.store, "clean.jsonl"
        )

    def test_persistent_fault_surfaces_structured_error(self, plan, section2_scenario):
        def broken_run_unit(scenario, config, unit):
            if unit.index == 3:
                raise RuntimeError("injected permanent fault")
            return run_unit(scenario, config, unit)

        with pytest.raises(UnitExecutionError) as excinfo:
            execute_plan(
                plan,
                jobs=1,
                scenario=section2_scenario,
                run_unit_fn=broken_run_unit,
                max_retries=2,
            )
        failure = excinfo.value.failure
        assert failure.unit_index == 3
        assert failure.unit_id == plan.units[3].unit_id
        assert failure.attempts == 3  # initial try + 2 retries
        assert "injected permanent fault" in failure.error
        assert "unit 3" in str(excinfo.value)


class TestArgumentValidation:
    def test_jobs_must_be_positive(self, plan):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            execute_plan(plan, jobs=0)

    def test_run_unit_fn_is_inline_only(self, plan):
        with pytest.raises(ValueError, match="inline-only"):
            execute_plan(plan, jobs=2, run_unit_fn=lambda *a: None)

    def test_scenario_must_match_plan(self, plan, section4_scenario):
        with pytest.raises(ValueError, match="does not match the plan"):
            execute_plan(plan, jobs=1, scenario=section4_scenario)


class TestProgressTelemetry:
    def test_executor_emits_progress(self, plan, section2_scenario):
        ticks = iter(float(i) for i in range(10_000))
        stream = io.StringIO()
        execute_plan(
            plan,
            jobs=1,
            scenario=section2_scenario,
            progress=True,
            progress_stream=stream,
            clock=lambda: next(ticks),
        )
        out = stream.getvalue()
        assert f"{len(plan)}/{len(plan)} units (100%)" in out
        assert "units/s" in out and "eta" in out

    def test_reporter_reports_failures_and_resume(self):
        ticks = iter(float(i) for i in range(100))
        stream = io.StringIO()
        reporter = ProgressReporter(
            total=4, skipped=2, clock=lambda: next(ticks), stream=stream, label="t"
        )
        reporter.start()
        reporter.attempt_failed("worker-0", unit_index=2, retrying=True)
        reporter.unit_finished("worker-0")
        reporter.unit_finished("worker-0")
        reporter.finish()
        out = stream.getvalue()
        assert "resuming: 2/4 units" in out
        assert "unit 2 failed on worker-0" in out and "retrying" in out
        assert "4/4 units (100%)" in out
        assert reporter.worker_failures == {"worker-0": 1}

    def test_reporter_deltas_against_shared_observer(self):
        # A process-global observer outlives one campaign: a second reporter
        # over the same registry must report only its own campaign's units.
        from repro.obs.core import Observer

        obs = Observer()
        stream = io.StringIO()
        first = ProgressReporter(
            total=2, clock=lambda: 0.0, stream=stream, observer=obs
        )
        first.unit_finished("inline")
        first.attempt_failed("worker-0", unit_index=0, retrying=True)
        assert first.done == 1 and first.failed_attempts == 1
        second = ProgressReporter(
            total=2, clock=lambda: 0.0, stream=stream, observer=obs
        )
        assert second.done == 0
        assert second.failed_attempts == 0
        assert second.worker_failures == {}
        second.unit_finished("inline")
        assert second.done == 1
        assert obs.counter("runner.units_done") == 2.0

    def test_disabled_reporter_is_silent(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            total=2, clock=lambda: 0.0, stream=stream, enabled=False
        )
        reporter.start()
        reporter.unit_finished("inline")
        reporter.finish()
        assert stream.getvalue() == ""
