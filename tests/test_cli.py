"""CLI tests: argument handling, campaign runs, artefact rendering."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.workloads.studies import STUDIES


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_section2_defaults(self):
        args = build_parser().parse_args(["section2", "--out", "x.jsonl"])
        assert args.reps == 30
        assert args.sites == "eBay"

    def test_report_artifact_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "s.jsonl", "--artifact", "fig99"])


class TestImportDiet:
    @staticmethod
    def _loaded(names):
        """Which of ``names`` a fresh ``import repro.cli`` puts in sys.modules."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        code = (
            "import sys, repro.cli; "
            f"print(sorted(m for m in {tuple(names)!r} if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_import_pulls_no_scipy_or_networkx(self):
        assert self._loaded(("scipy", "networkx")) == "[]"

    def test_cli_import_pulls_no_study_obs_reno_svg_or_network_stack(self):
        studies = {target.partition(":")[0] for target, _ in STUDIES.values()}
        # repro.analysis is loaded whenever any of its modules is.
        never = (
            "repro.obs.slo", "repro.obs.insight", "repro.tcp.reno", "repro.util.svg",
            "urllib.request", "ssl", "repro.analysis", "repro.qa.lint", *sorted(studies),
        )
        assert self._loaded(never) == "[]"


class TestCatalog:
    def test_prints_tables(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out and "Table V" in out
        assert "planetlab1.polito.it" in out
        assert "extrapolated" in out


class TestSection2Command:
    def test_small_run_writes_store(self, tmp_path, capsys):
        out = tmp_path / "s2.jsonl"
        rc = main(
            [
                "section2",
                "--reps",
                "2",
                "--clients",
                "Italy,Sweden",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.exists()
        from repro.trace.store import TraceStore

        store = TraceStore.load_jsonl(out)
        assert len(store) == 4
        assert set(store.unique("client")) == {"Italy", "Sweden"}

    def test_unknown_site_rejected(self, tmp_path, capsys):
        rc = main(
            ["section2", "--sites", "AltaVista", "--out", str(tmp_path / "x.jsonl")]
        )
        assert rc == 2
        assert "unknown sites" in capsys.readouterr().err

    def test_unknown_client_rejected(self, tmp_path, capsys):
        rc = main(
            [
                "section2",
                "--clients",
                "Atlantis",
                "--out",
                str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == 2


class TestDedupe:
    def test_duplicate_clients_warned_and_dropped(self, tmp_path, capsys):
        out = tmp_path / "s2.jsonl"
        rc = main(
            [
                "section2",
                "--reps",
                "2",
                "--clients",
                "Italy,Sweden,Italy",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "ignoring 1 duplicate clients entry" in err
        assert "order preserved" in err
        from repro.trace.store import TraceStore

        store = TraceStore.load_jsonl(out)
        assert len(store) == 4  # Italy ran once, not twice
        assert store.unique("client") == ["Italy", "Sweden"]

    def test_duplicate_sites_warned(self, tmp_path, capsys):
        rc = main(
            [
                "section2",
                "--reps",
                "1",
                "--sites",
                "eBay,eBay",
                "--clients",
                "Italy",
                "--out",
                str(tmp_path / "s2.jsonl"),
            ]
        )
        assert rc == 0
        assert "duplicate sites entry" in capsys.readouterr().err


class TestRunnerFlags:
    def test_resume_requires_checkpoint(self, tmp_path, capsys):
        rc = main(
            ["section2", "--resume", "--out", str(tmp_path / "x.jsonl")]
        )
        assert rc == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        rc = main(
            ["section2", "--jobs", "0", "--out", str(tmp_path / "x.jsonl")]
        )
        assert rc == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_checkpoint_every_validated(self, tmp_path, capsys):
        rc = main(
            [
                "section2",
                "--checkpoint-every",
                "0",
                "--out",
                str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == 2
        assert "--checkpoint-every" in capsys.readouterr().err

    def _run(self, tmp_path, *extra):
        return main(
            [
                "section2",
                "--reps",
                "2",
                "--clients",
                "Italy,Sweden",
                "--checkpoint",
                str(tmp_path / "ck"),
                "--out",
                str(tmp_path / "out.jsonl"),
                *extra,
            ]
        )

    def test_checkpoint_exists_without_resume_exits_2(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        rc = self._run(tmp_path)
        assert rc == 2
        assert "already holds a campaign checkpoint" in capsys.readouterr().err

    def test_resume_completed_campaign_rewrites_store(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        first = (tmp_path / "out.jsonl").read_bytes()
        assert self._run(tmp_path, "--resume") == 0
        assert (tmp_path / "out.jsonl").read_bytes() == first

    def test_resume_fingerprint_mismatch_exits_2(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        rc = main(
            [
                "section2",
                "--reps",
                "3",  # different unit stream than the checkpoint
                "--clients",
                "Italy,Sweden",
                "--checkpoint",
                str(tmp_path / "ck"),
                "--resume",
                "--out",
                str(tmp_path / "out.jsonl"),
            ]
        )
        assert rc == 2
        assert "refusing to mix" in capsys.readouterr().err

    def test_progress_flag_prints_telemetry(self, tmp_path, capsys):
        rc = main(
            [
                "section2",
                "--reps",
                "1",
                "--clients",
                "Italy",
                "--progress",
                "--out",
                str(tmp_path / "s2.jsonl"),
            ]
        )
        assert rc == 0
        assert "units/s" in capsys.readouterr().err


class TestSection4Command:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "s4.jsonl"
        rc = main(
            ["section4", "--reps", "2", "--set-sizes", "1,3", "--out", str(out)]
        )
        assert rc == 0
        from repro.trace.store import TraceStore

        store = TraceStore.load_jsonl(out)
        assert len(store) == 3 * 2 * 2  # clients x sizes x reps
        assert sorted(set(store.column("set_size"))) == [1, 3]

    def test_bad_set_sizes(self, tmp_path, capsys):
        rc = main(
            ["section4", "--set-sizes", "a,b", "--out", str(tmp_path / "x.jsonl")]
        )
        assert rc == 2
        rc = main(
            ["section4", "--set-sizes", "0", "--out", str(tmp_path / "x.jsonl")]
        )
        assert rc == 2


class TestReportCommand:
    @pytest.fixture()
    def store_path(self, tmp_path, section2_store):
        path = tmp_path / "campaign.jsonl"
        section2_store.save_jsonl(path)
        return path

    def test_headline_default(self, store_path, capsys):
        assert main(["report", str(store_path)]) == 0
        assert "Headline rates" in capsys.readouterr().out

    def test_multiple_artifacts(self, store_path, capsys):
        rc = main(
            ["report", str(store_path), "--artifact", "fig1", "table1", "table2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Table I" in out and "Table II" in out

    def test_fig_series_artifacts(self, store_path, capsys):
        rc = main(
            ["report", str(store_path), "--artifact", "fig2", "fig3", "fig4", "fig5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for tag in ("Figure 2", "Figure 3", "Figure 4", "Figure 5"):
            assert tag in out

    def test_table3_with_client(self, tmp_path, section4_store, capsys):
        path = tmp_path / "s4.jsonl"
        section4_store.save_jsonl(path)
        rc = main(
            ["report", str(path), "--artifact", "fig6", "table3", "--client", "Duke"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "Duke" in out

    def test_missing_store(self, capsys):
        assert main(["report", "/nonexistent/path.jsonl"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_empty_store(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["report", str(path)]) == 2


class TestFullReport:
    def test_all_artifact_on_section2(self, tmp_path, section2_store, capsys):
        path = tmp_path / "c.jsonl"
        section2_store.save_jsonl(path)
        assert main(["report", str(path), "--artifact", "all"]) == 0
        out = capsys.readouterr().out
        for tag in ("Headline rates", "Figure 1", "Table I", "Table II",
                    "Figure 3", "Figure 4", "Figure 5"):
            assert tag in out
        assert "Figure 6" not in out  # single-candidate campaign

    def test_all_artifact_on_section4(self, tmp_path, section4_store, capsys):
        path = tmp_path / "s4.jsonl"
        section4_store.save_jsonl(path)
        assert main(["report", str(path), "--artifact", "all"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "Table III" in out

    def test_full_report_empty(self):
        from repro.analysis.summary import full_report
        from repro.trace.store import TraceStore

        assert "empty" in full_report(TraceStore())


class TestFailuresCommand:
    def test_quick_run_writes_store_and_report(self, tmp_path, capsys):
        out = tmp_path / "failures.jsonl"
        rc = main(["failures", "--quick", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        from repro.trace.records import FailureRecord
        from repro.trace.store import TraceStore

        store = TraceStore.load_jsonl(out)
        assert len(store) == 16  # 2 quick clients x 8 repetitions
        assert all(isinstance(r, FailureRecord) for r in store.records)
        modes = {r.failure_mode for r in store.records}
        assert modes == {"none", "link", "node", "both"}
        text = capsys.readouterr().out
        assert "Availability study" in text
        assert "availability:" in text

    def test_unknown_site_rejected(self, tmp_path, capsys):
        rc = main(
            ["failures", "--site", "AltaVista", "--out", str(tmp_path / "x.jsonl")]
        )
        assert rc == 2
        assert "unknown site" in capsys.readouterr().err

    def test_unknown_client_rejected(self, tmp_path, capsys):
        rc = main(
            [
                "failures",
                "--clients",
                "Narnia",
                "--out",
                str(tmp_path / "x.jsonl"),
            ]
        )
        assert rc == 2
        assert "unknown clients" in capsys.readouterr().err
