"""Scale study tests: records, planner, runner, analysis, CLI, perf report."""

import dataclasses
import json
import math
import os
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.scale import render_scale, scale_totals
from repro.cli import main
from repro.net.link import Link
from repro.net.route import Route
from repro.net.trace import CapacityTrace
from repro.obs.core import OBS_DIR_ENV_VAR, OBS_ENV_VAR, reset_global_observer
from repro.perf.benches import BENCHES, BenchSpec
from repro.perf.report import BenchReport, format_report
from repro.sim.errors import TransferError
from repro.sim.simulator import Simulator
from repro.tcp.flow import FluidFlow
from repro.tcp.fluid import FluidNetwork
from repro.tcp.model import SlowStartRamp
from repro.trace.records import ScaleRecord, TransferRecord
from repro.trace.store import TraceStore
from repro.vec.race import ProbeRace
from repro.workloads import scale as scale_module
from repro.workloads.scale import (
    ScaleStudyParams,
    plan_scale,
    relay_names,
    run_scale_unit,
)
from tests import scale_oracle
from tests.scale_oracle import run_oracle_unit


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
        empty = _record(
            n_clients=0, n_completed=0, n_direct=0, n_indirect=0, makespan=0.0
        )
        assert empty.indirect_fraction == 0.0

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
        """The columnar race vs one FluidFlow per probe and transfer on the
        per-object tick."""
        from repro.runner.pool import execute_plan

        plan, store = tiny_campaign
        oracle = execute_plan(
            plan, scenario=section2_scenario, jobs=1,
            run_unit_fn=lambda sc, cfg, unit: run_oracle_unit(
                sc, cfg, unit, plan.extra
            ),
        )
        assert [r.to_dict() for r in oracle.store.records] == [
            r.to_dict() for r in store.records
        ]

    def test_rows_round_trip_through_store(self, tiny_campaign, tmp_path):
        _plan, store = tiny_campaign
        path = tmp_path / "scale.jsonl"
        store.save_jsonl(str(path))
        loaded = TraceStore.load_jsonl(str(path))
        assert [r.to_dict() for r in loaded.records] == [
            r.to_dict() for r in store.records
        ]


def _unit(scenario, params, repetition=0):
    return plan_scale(scenario, waves=repetition + 1, params=params).units[repetition]


def _records(scenario, params, repetition=0):
    """The columnar wave's record and the per-object oracle's."""
    unit = _unit(scenario, params, repetition)
    columnar = run_scale_unit(scenario, None, unit, params).to_dict()
    return columnar, run_oracle_unit(scenario, None, unit, params).to_dict()


class TestColumnarRace:
    @pytest.mark.parametrize("n", [10, 1000])
    def test_tied_probes_go_to_the_direct_probe(self, section2_scenario, n):
        # One tier and no relay overhead: both probes of every client
        # complete in one tick, and the earlier row (direct) wins.
        params = ScaleStudyParams(
            clients_per_wave=n, tier_rtts=(0.024,), relay_rtt_factor=1.0
        )
        columnar, oracle = _records(section2_scenario, params)
        assert columnar["n_completed"] == n
        assert columnar["n_indirect"] == 0 and columnar["n_direct"] == n
        assert oracle == columnar

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.one_of(st.integers(1, 60), st.integers(150, 400)),
        tiers=st.lists(
            st.sampled_from([0.012, 0.024, 0.03, 0.072, 0.2]),
            min_size=1, max_size=3, unique=True,
        ),
        relays=st.integers(1, 4),
        slots=st.integers(1, 3),
        spacing=st.sampled_from([0.0, 0.01, 0.5]),
        sizes=st.lists(
            st.sampled_from([2e4, 64e3, 2.5e5, 1e6]), min_size=1, max_size=3
        ),
        factor=st.sampled_from([1.0, 1.25]),
        repetition=st.integers(0, 3),
    )
    def test_records_match_the_per_object_oracle(
        self, section2_scenario, n, tiers, relays, slots, spacing, sizes,
        factor, repetition,
    ):
        params = ScaleStudyParams(
            clients_per_wave=n,
            tier_rtts=tuple(tiers),
            n_relays=relays,
            start_slots=slots,
            slot_spacing=spacing,
            size_classes=tuple(sizes),
            relay_rtt_factor=factor,
        )
        columnar, oracle = _records(section2_scenario, params, repetition)
        assert oracle == columnar

    @pytest.mark.parametrize("factor", [1.0, 1.25])
    def test_rows_activate_in_the_per_object_order(self, section2_scenario, factor):
        """Every activation instant takes the same (client, kind) rows in
        the same order as the per-object race activates its flows."""

        params = ScaleStudyParams(
            clients_per_wave=300, tier_rtts=(0.024, 0.03, 0.072),
            relay_rtt_factor=factor, start_slots=3, slot_spacing=0.01,
            size_classes=(2e4, 64e3, 2.5e5),
        )
        unit = _unit(section2_scenario, params)

        kind_of = {}
        activated = []
        start_flow = scale_oracle._Wave.start_flow
        activate = FluidFlow._activate

        def record_start(wave, path, size, done):
            flow = start_flow(wave, path, size, done)
            client = done.__self__
            kind = 2 if done.__name__ == "transfer_done" else int(
                path is client.relay
            )
            kind_of[flow.id] = (client.idx, kind)
            return flow

        def record_activate(flow, now):
            activate(flow, now)
            activated.append((now, kind_of[flow.id]))

        with mock.patch.object(scale_oracle._Wave, "start_flow", record_start), \
                mock.patch.object(FluidFlow, "_activate", record_activate):
            run_oracle_unit(section2_scenario, None, unit, params)

        rows = []
        flush = ProbeRace.flush

        def record_flush(race):
            for clients, kinds, _routes, at in race.pending:
                rows.extend((at, (c, k)) for c, k in zip(clients.tolist(), kinds.tolist()))
            flush(race)

        with mock.patch.object(ProbeRace, "flush", record_flush):
            run_scale_unit(section2_scenario, None, unit, params)
        assert len(rows) == len(activated) > 2 * params.clients_per_wave
        assert rows == activated

    def test_wave_builds_no_fluid_flow(self, section2_scenario):
        params = ScaleStudyParams(clients_per_wave=500)
        with mock.patch.object(
            FluidFlow, "__init__", side_effect=AssertionError("a FluidFlow")
        ):
            record = run_scale_unit(
                section2_scenario, None, _unit(section2_scenario, params), params
            )
        assert record.n_completed == 500

    def test_a_network_runs_a_race_or_object_flows(self):
        route = Route([Link("l", "a", "b", CapacityTrace.constant(1e6), delay=0.01)])
        race = dict(
            probe_bytes=1e3, direct=[0], relay=[0], size=[0], slot=[0],
            slot_times=[0.0],
        )
        ramp = SlowStartRamp(rtt=route.rtt, max_window=65_536.0)
        net = FluidNetwork(Simulator())
        net.start_races([route], [ramp], [1e4], **race)
        with pytest.raises(TransferError):
            net.start_flow(route, 1e4)
        with pytest.raises(TransferError):
            net.start_races([route], [ramp], [1e4], **race)
        net = FluidNetwork(Simulator())
        net.start_flow(route, 1e4)
        with pytest.raises(TransferError):
            net.start_races([route], [ramp], [1e4], **race)


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

    def test_classic_engine_byte_identical(
        self, plain_artefact, tmp_path, monkeypatch
    ):
        # The same CLI run with the per-object oracle as the unit runner.
        monkeypatch.setattr(
            scale_module,
            "STUDY",
            dataclasses.replace(scale_module.STUDY, run_unit=run_oracle_unit),
        )
        out = tmp_path / "scale.jsonl"
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
        assert "scenario_build" in BENCHES
