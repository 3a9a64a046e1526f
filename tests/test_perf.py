"""Tests for the ``repro.perf`` benchmark subsystem and its CLI surface.

Benches are run in ``quick`` mode only and the assertions are structural
(fields present, units sane, determinism of the workloads) — wall-clock
numbers are never asserted against thresholds, because CI machines vary.
"""

import json

import pytest

from repro.cli import main
from repro.perf.benches import BENCHES, run_benches
from repro.perf.microbench import measure
from repro.perf.report import (
    SCHEMA,
    BenchReport,
    Comparison,
    compare_reports,
    format_comparison,
    format_report,
    load_report,
)


class TestMeasure:
    def test_basic_measurement(self):
        m = measure(lambda: None, ops=10, rounds=3, warmup=1)
        assert m.ns_per_op >= 0.0
        assert m.ops == 10
        assert m.rounds == 3
        assert m.elapsed_s >= 0.0

    def test_rejects_nonpositive_ops(self):
        with pytest.raises(ValueError, match="ops"):
            measure(lambda: None, ops=0)

    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ValueError, match="rounds"):
            measure(lambda: None, ops=1, rounds=0)

    def test_counts_invocations(self):
        calls = []
        measure(lambda: calls.append(1), ops=1, rounds=4, warmup=2)
        assert len(calls) == 6  # 2 warmup + 4 timed


class TestBenchRegistry:
    def test_expected_benches_registered(self):
        assert set(BENCHES) == {
            "trace_scalar",
            "event_queue",
            "alloc_shared",
            "alloc_small_shared",
            "tick_breakpoint",
            "stripe_session",
            "scenario_build",
        }

    def test_specs_have_metadata(self):
        for name, spec in BENCHES.items():
            assert spec.name == name
            assert spec.summary
            assert spec.unit

    def test_unknown_bench_rejected(self):
        with pytest.raises(ValueError, match="no_such_bench"):
            run_benches(["no_such_bench"], quick=True)

    def test_quick_bench_result_shape(self):
        results = run_benches(["trace_scalar"], quick=True)
        result = results["trace_scalar"]
        assert result["unit"] == "ns/op"
        assert result["optimised"] > 0.0
        assert result["baseline"] > 0.0
        assert result["speedup"] == pytest.approx(
            result["baseline"] / result["optimised"]
        )

    def test_bench_without_reference_has_null_baseline(self):
        result = run_benches(["tick_breakpoint"], quick=True)["tick_breakpoint"]
        assert result["optimised"] > 0.0
        assert result["baseline"] is None
        assert result["speedup"] is None

    def test_progress_callback_invoked(self):
        seen = []
        run_benches(["event_queue"], quick=True, progress=seen.append)
        assert seen == ["event_queue"]


class TestReport:
    def _report(self, optimised, *, name="alloc_shared", baseline=None):
        bench = {"unit": "ns/op", "optimised": optimised}
        if baseline is not None:
            bench["baseline"] = baseline
            bench["speedup"] = baseline / optimised
        return BenchReport(benches={name: bench}, quick=True)

    def test_roundtrip(self, tmp_path):
        report = BenchReport.from_results(
            {"alloc_shared": {"unit": "ns/op", "optimised": 123.0}}, quick=True
        )
        path = str(tmp_path / "bench.json")
        report.save(path)
        loaded = load_report(path)
        assert loaded.schema == SCHEMA
        assert loaded.quick is True
        assert loaded.benches == report.benches
        assert "python" in loaded.environment

    def test_saved_json_is_stable(self, tmp_path):
        report = self._report(100.0)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        report.save(p1)
        report.save(p2)
        assert open(p1).read() == open(p2).read()

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9", "benches": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_report(str(path))

    def test_rejects_missing_benches(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": SCHEMA}))
        with pytest.raises(ValueError, match="benches"):
            load_report(str(path))

    def test_compare_flags_regression(self):
        comparisons = compare_reports(
            self._report(200.0), self._report(100.0), tolerance=0.25
        )
        assert len(comparisons) == 1
        assert comparisons[0].regressed
        assert comparisons[0].ratio == pytest.approx(2.0)

    def test_compare_within_tolerance_ok(self):
        comparisons = compare_reports(
            self._report(110.0), self._report(100.0), tolerance=0.25
        )
        assert not comparisons[0].regressed

    def test_compare_skips_unmatched_benches(self):
        comparisons = compare_reports(
            self._report(100.0, name="new_bench"), self._report(100.0)
        )
        assert comparisons == []

    def test_compare_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            compare_reports(self._report(1.0), self._report(1.0), tolerance=-0.1)

    def test_format_report_smoke(self):
        text = format_report(self._report(123.0, baseline=246.0))
        assert "alloc_shared" in text
        assert "2.00x" in text

    def test_format_comparison_smoke(self):
        comparisons = [
            Comparison(
                name="alloc_shared",
                unit="ns/op",
                current=200.0,
                stored=100.0,
                ratio=2.0,
                regressed=True,
            )
        ]
        text = format_comparison(comparisons, tolerance=0.25)
        assert "REGRESSED" in text
        assert format_comparison([], tolerance=0.25).startswith("no comparable")


class TestPerfCli:
    def test_unknown_bench_is_usage_error(self, capsys, tmp_path):
        out = str(tmp_path / "b.json")
        assert main(["perf", "--only", "nope", "--out", out]) == 2
        assert "unknown bench" in capsys.readouterr().err

    def test_negative_tolerance_is_usage_error(self, tmp_path):
        out = str(tmp_path / "b.json")
        assert main(["perf", "--tolerance", "-1", "--out", out]) == 2

    def test_missing_baseline_file(self, capsys, tmp_path):
        out = str(tmp_path / "b.json")
        code = main(
            ["perf", "--quick", "--only", "event_queue", "--out", out,
             "--baseline", str(tmp_path / "absent.json")]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("stored_quick", [False, True])
    def test_baseline_mode_mismatch_is_usage_error(self, capsys, tmp_path, stored_quick):
        # Quick and full workloads differ in size, so their ratio is
        # meaningless: refuse before any bench runs or the report is written.
        stored = tmp_path / "stored.json"
        BenchReport(
            benches={"event_queue": {"unit": "ns/op", "optimised": 1.0}},
            quick=stored_quick,
        ).save(str(stored))
        out = tmp_path / "b.json"
        argv = ["perf", "--only", "event_queue", "--out", str(out),
                "--baseline", str(stored)]
        if not stored_quick:
            argv.append("--quick")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert ("quick" if stored_quick else "full") + "-mode report" in captured.err
        assert "running" not in captured.err
        assert not out.exists()

    def test_quick_run_writes_report(self, capsys, tmp_path):
        out = str(tmp_path / "bench.json")
        assert main(["perf", "--quick", "--only", "event_queue", "--out", out]) == 0
        report = load_report(out)
        assert "event_queue" in report.benches
        assert "event_queue" in capsys.readouterr().out

    def test_baseline_comparison_regression_exits_1(self, capsys, tmp_path):
        out = str(tmp_path / "bench.json")
        assert main(["perf", "--quick", "--only", "event_queue", "--out", out]) == 0
        # Doctor the stored report so the fresh run looks 10x slower.
        data = json.load(open(out))
        data["benches"]["event_queue"]["optimised"] /= 10.0
        stored = tmp_path / "stored.json"
        stored.write_text(json.dumps(data))
        code = main(
            ["perf", "--quick", "--only", "event_queue",
             "--out", str(tmp_path / "b2.json"), "--baseline", str(stored)]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_baseline_comparison_ok_exits_0(self, tmp_path):
        out = str(tmp_path / "bench.json")
        assert main(["perf", "--quick", "--only", "event_queue", "--out", out]) == 0
        # Comparing against itself with a generous tolerance must pass.
        code = main(
            ["perf", "--quick", "--only", "event_queue",
             "--out", str(tmp_path / "b2.json"),
             "--baseline", out, "--tolerance", "5.0"]
        )
        assert code == 0


class TestSuspectCategory:
    """``repro perf --obs`` span summaries name the regressing subsystem."""

    def _report(self, optimised, spans=None):
        bench = {"unit": "ns/op", "optimised": optimised}
        if spans is not None:
            bench["obs_summary"] = {
                "spans": {
                    cat: {"count": 1, "total_time": total}
                    for cat, total in spans.items()
                }
            }
        return BenchReport(benches={"alloc_shared": bench}, quick=True)

    def test_names_worst_growing_category(self):
        current = self._report(200.0, spans={"transfer": 30.0, "tick": 1.0})
        stored = self._report(100.0, spans={"transfer": 10.0, "tick": 1.0})
        (cmp_,) = compare_reports(current, stored, tolerance=0.25)
        assert cmp_.regressed
        assert cmp_.suspect_category == "transfer"
        assert cmp_.suspect_growth == pytest.approx(2.0)
        text = format_comparison([cmp_], tolerance=0.25)
        assert "suspect: 'transfer' span time grew +200%" in text

    def test_new_category_surfaces_against_floor(self):
        current = self._report(200.0, spans={"tick": 1.0, "stripe": 5.0})
        stored = self._report(100.0, spans={"tick": 1.0})
        (cmp_,) = compare_reports(current, stored, tolerance=0.25)
        assert cmp_.suspect_category == "stripe"

    def test_no_obs_summary_no_suspect(self):
        (cmp_,) = compare_reports(
            self._report(200.0), self._report(100.0), tolerance=0.25
        )
        assert cmp_.regressed
        assert cmp_.suspect_category is None
        text = format_comparison([cmp_], tolerance=0.25)
        assert "run both sides with --obs" in text

    def test_not_regressed_no_suspect(self):
        current = self._report(100.0, spans={"transfer": 30.0})
        stored = self._report(100.0, spans={"transfer": 10.0})
        (cmp_,) = compare_reports(current, stored, tolerance=0.25)
        assert not cmp_.regressed
        assert cmp_.suspect_category is None

    def test_all_categories_shrank_no_suspect(self):
        current = self._report(200.0, spans={"transfer": 5.0, "tick": 0.5})
        stored = self._report(100.0, spans={"transfer": 10.0, "tick": 1.0})
        (cmp_,) = compare_reports(current, stored, tolerance=0.25)
        assert cmp_.regressed
        assert cmp_.suspect_category is None
