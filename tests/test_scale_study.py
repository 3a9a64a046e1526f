"""Scale study tests: records, planner, runner, analysis, CLI, perf report."""

import json
import math
import os
from contextlib import contextmanager

import pytest

from repro.analysis.scale import render_scale, scale_totals
from repro.cli import main
from repro.obs.core import OBS_DIR_ENV_VAR, OBS_ENV_VAR, reset_global_observer
from repro.perf import BENCHES, BenchReport, BenchSpec, format_report
from repro.trace.records import ScaleRecord, TransferRecord
from repro.trace.store import TraceStore
from repro.workloads.scale import ScaleStudyParams, plan_scale, relay_names
from tests.engines import forced_engine


def _record(**overrides):
    base = dict(
        study="scale",
        client="wave000",
        site="eBay",
        repetition=0,
        start_time=0.0,
        set_size=4,
        offered=("relay0", "relay1", "relay2", "relay3"),
        selected_via=None,
        direct_throughput=1e6,
        selected_throughput=2e6,
        end_to_end_throughput=5e8,
        probe_overhead=0.1,
        file_bytes=1e10,
        n_clients=1000,
        n_completed=1000,
        n_direct=700,
        n_indirect=300,
        makespan=20.0,
        mean_throughput=1.5e6,
        throughput_p10=5e5,
        throughput_p50=1.4e6,
        throughput_p90=2.5e6,
        throughput_p99=2.7e6,
        latency_p50=4.0,
        latency_p90=9.0,
        latency_p99=15.0,
        latency_max=20.0,
    )
    base.update(overrides)
    return ScaleRecord(**base)


class TestScaleRecord:
    def test_round_trip_via_registry(self):
        rec = _record()
        d = rec.to_dict()
        assert d["record_type"] == "scale"
        back = TransferRecord.from_dict(d)
        assert isinstance(back, ScaleRecord)
        assert back == rec

    def test_derived_properties(self):
        rec = _record()
        assert rec.indirect_fraction == pytest.approx(0.3)
        assert rec.sim_transfers_per_sec == pytest.approx(50.0)
        empty = _record(
            n_clients=0, n_completed=0, n_direct=0, n_indirect=0, makespan=0.0
        )
        assert empty.indirect_fraction == 0.0
        assert empty.sim_transfers_per_sec == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _record(n_clients=-1)
        with pytest.raises(ValueError):
            _record(n_direct=800, n_indirect=300)  # cohorts > population
        # Cohort means of zero are legal (empty cohort), unlike the base
        # record's strictly-positive pair columns.
        _record(direct_throughput=0.0, selected_throughput=0.0)

    def test_sort_key_extends_base_with_population(self):
        small = _record(n_clients=10, n_completed=10, n_direct=5, n_indirect=5)
        big = _record()
        assert small.sort_key < big.sort_key
        assert small.sort_key[:-1] == big.sort_key[:-1]


class TestPlanner:
    def test_plan_geometry(self, section2_scenario):
        params = ScaleStudyParams(clients_per_wave=50)
        plan = plan_scale(section2_scenario, waves=3, params=params)
        assert len(plan.units) == 3
        assert [u.client for u in plan.units] == ["wave000", "wave001", "wave002"]
        assert all(u.runner == "scale" for u in plan.units)
        assert all(u.offered == relay_names(params) for u in plan.units)
        assert plan.extra is params

    def test_plan_rejects_bad_waves(self, section2_scenario):
        with pytest.raises(ValueError):
            plan_scale(section2_scenario, waves=0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ScaleStudyParams(clients_per_wave=0)
        with pytest.raises(ValueError):
            ScaleStudyParams(relay_rtt_factor=0.5)
        with pytest.raises(ValueError):
            ScaleStudyParams(size_classes=())

    def test_fingerprint_depends_on_params(self, section2_scenario):
        a = plan_scale(
            section2_scenario,
            waves=1,
            params=ScaleStudyParams(clients_per_wave=50),
        )
        b = plan_scale(
            section2_scenario,
            waves=1,
            params=ScaleStudyParams(clients_per_wave=60),
        )
        assert a.fingerprint() != b.fingerprint()


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def tiny_campaign(self, section2_scenario):
        from repro.runner.pool import execute_plan

        plan = plan_scale(
            section2_scenario,
            waves=2,
            params=ScaleStudyParams(clients_per_wave=150),
        )
        serial = execute_plan(plan, scenario=section2_scenario, jobs=1)
        return plan, serial.store

    def test_emits_one_scale_record_per_wave(self, tiny_campaign):
        plan, store = tiny_campaign
        assert len(store) == len(plan)
        assert all(isinstance(r, ScaleRecord) for r in store.records)
        for r in store.records:
            assert r.n_clients == 150
            assert r.n_completed == r.n_clients
            assert r.n_direct + r.n_indirect == r.n_clients
            assert r.makespan > 0.0

    def test_percentiles_are_ordered(self, tiny_campaign):
        _plan, store = tiny_campaign
        for r in store.records:
            assert (
                r.throughput_p10 <= r.throughput_p50
                <= r.throughput_p90 <= r.throughput_p99
            )
            assert (
                r.latency_p50 <= r.latency_p90
                <= r.latency_p99 <= r.latency_max <= r.makespan
            )
            assert r.mean_throughput > 0.0

    def test_parallel_execution_is_byte_identical(
        self, section2_scenario, tiny_campaign
    ):
        from repro.runner.pool import execute_plan

        plan, serial_store = tiny_campaign
        parallel = execute_plan(plan, scenario=section2_scenario, jobs=2)
        assert [r.to_dict() for r in parallel.store.records] == [
            r.to_dict() for r in serial_store.records
        ]

    def test_classic_engine_is_byte_identical(
        self, section2_scenario, tiny_campaign
    ):
        """Per-object tick vs vector core on the same small population."""
        from repro.runner.pool import execute_plan

        plan, classic_store = tiny_campaign  # 300 flows at most: never promotes
        with forced_engine(True):
            vector = execute_plan(plan, scenario=section2_scenario, jobs=1)
        assert [r.to_dict() for r in vector.store.records] == [
            r.to_dict() for r in classic_store.records
        ]

    def test_rows_round_trip_through_store(self, tiny_campaign, tmp_path):
        _plan, store = tiny_campaign
        path = tmp_path / "scale.jsonl"
        store.save_jsonl(str(path))
        loaded = TraceStore.load_jsonl(str(path))
        assert [r.to_dict() for r in loaded.records] == [
            r.to_dict() for r in store.records
        ]


@contextmanager
def _env(**overrides):
    saved = {key: os.environ.get(key) for key in overrides}
    for key, value in overrides.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


SCALE_ARGS = ["scale", "--clients", "150", "--waves", "2", "--seed", "11"]


def _run_cli(argv, *, obs_env=None):
    with _env(**{OBS_ENV_VAR: obs_env, OBS_DIR_ENV_VAR: None}):
        reset_global_observer()
        try:
            assert main(argv) == 0
        finally:
            reset_global_observer()


class TestCli:
    @pytest.fixture(scope="class")
    def plain_artefact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("scale") / "scale.jsonl"
        _run_cli(SCALE_ARGS + ["--out", str(path)])
        return path.read_bytes()

    def test_artefact_rows_parse(self, plain_artefact):
        rows = [
            json.loads(line)
            for line in plain_artefact.decode().splitlines()
            if line and not line.startswith("#")
        ]
        assert [r["record_type"] for r in rows] == ["scale", "scale"]

    def test_jobs2_byte_identical(self, plain_artefact, tmp_path):
        out = tmp_path / "scale.jsonl"
        _run_cli(SCALE_ARGS + ["--out", str(out), "--jobs", "2"])
        assert out.read_bytes() == plain_artefact

    def test_obs_byte_identical(self, plain_artefact, tmp_path):
        out = tmp_path / "scale.jsonl"
        _run_cli(SCALE_ARGS + ["--out", str(out)], obs_env="1")
        assert out.read_bytes() == plain_artefact
        assert (tmp_path / "scale.jsonl.obs.jsonl").exists()

    def test_classic_engine_byte_identical(self, plain_artefact, tmp_path):
        # The plain run's 150 clients never promote; force the vector core.
        out = tmp_path / "scale.jsonl"
        with forced_engine(True):
            _run_cli(SCALE_ARGS + ["--out", str(out)])
        assert out.read_bytes() == plain_artefact

    def test_renders_study_table(self, tmp_path, capsys):
        out = tmp_path / "scale.jsonl"
        _run_cli(SCALE_ARGS + ["--out", str(out)])
        printed = capsys.readouterr().out
        assert "scale study" in printed
        assert "wave000" in printed and "wave001" in printed

    def test_quick_caps_population(self, tmp_path):
        # --quick caps at 10k; at 150 requested it must change nothing.
        out = tmp_path / "scale.jsonl"
        _run_cli(SCALE_ARGS + ["--out", str(out), "--quick"])
        rows = [
            json.loads(line)
            for line in out.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert all(r["n_clients"] == 150 for r in rows)

    def test_rejects_unknown_site(self, tmp_path, capsys):
        out = tmp_path / "scale.jsonl"
        assert main(["scale", "--site", "nope", "--out", str(out)]) == 2
        assert "unknown site" in capsys.readouterr().err

    def test_rejects_bad_waves(self, tmp_path, capsys):
        out = tmp_path / "scale.jsonl"
        assert main(SCALE_ARGS[:1] + ["--waves", "0", "--out", str(out)]) == 2
        assert "--waves" in capsys.readouterr().err


class TestAnalysis:
    def _rows(self):
        return [
            _record(),
            _record(
                client="wave001",
                repetition=1,
                start_time=600.0,
                n_clients=3000,
                n_completed=3000,
                n_direct=1500,
                n_indirect=1500,
                mean_throughput=3e6,
                latency_p99=25.0,
                latency_max=30.0,
                makespan=30.0,
            ),
        ]

    def test_totals_weighted_by_population(self):
        totals = scale_totals(self._rows())
        assert totals.n_waves == 2
        assert totals.n_clients == 4000
        assert totals.n_completed == 4000
        assert totals.indirect_fraction == pytest.approx(1800 / 4000)
        assert totals.mean_throughput == pytest.approx(
            (1.5e6 * 1000 + 3e6 * 3000) / 4000
        )
        assert totals.worst_latency_p99 == 25.0
        assert totals.worst_latency_max == 30.0

    def test_totals_empty_input_is_nan_safe(self):
        totals = scale_totals([])
        assert totals.n_waves == 0 and totals.n_clients == 0
        assert math.isnan(totals.indirect_fraction)
        assert math.isnan(totals.mean_throughput)
        assert math.isnan(totals.worst_latency_p99)

    def test_render_scale(self):
        text = render_scale(self._rows())
        assert "wave000" in text and "wave001" in text
        assert "indirect share 45.0%" in text
        text_empty = render_scale([])
        assert "n/a" in text_empty  # NaN totals render as n/a, not nan


class TestBaselineSeeding:
    """Benches without a reference implementation report a null baseline."""

    def test_unmeasured_bench_stays_null(self):
        spec = BenchSpec("x", "no reference", "s", lambda quick: {
            "optimised": 1.5, "baseline": None,
        })
        result = spec.run(quick=True)
        assert result["baseline"] is None
        assert result["speedup"] is None

    def test_format_report_renders_na(self):
        report = BenchReport(
            benches={"a": {"optimised": 100.0, "baseline": None, "unit": "ns/op"}}
        )
        line = next(ln for ln in format_report(report).splitlines() if " a " in ln)
        assert "n/a" in line and line.rstrip().endswith("-")

    def test_new_benches_are_registered(self):
        assert "vec_epoch" in BENCHES
