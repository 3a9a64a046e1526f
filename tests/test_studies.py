"""Study registry tests: CLI driver, usage errors, unit dispatch, CI matrix."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main, plan_study
from repro.runner.plan import WorkUnit
from repro.runner.pool import run_unit
from repro.workloads.experiment import run_paired_unit
from repro.workloads.studies import STUDIES, get_study, unit_runner

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A bad invocation per study; every registered study needs at least one.
BAD_ARGS = [
    ("section2", ["--reps", "0", "--clients", "Beirut"]),
    ("section4", ["--reps", "0"]),
    ("section4", ["--reps", "1", "--set-sizes", "35,99"]),
    ("failures", ["--reps", "0"]),
    ("failures", ["--quick", "--interval", "-5"]),
    ("failures", ["--quick", "--interval", "nan"]),
    ("failures", ["--quick", "--link-mtbf", "0"]),
    ("failures", ["--quick", "--link-duration", "0"]),
    ("failures", ["--quick", "--node-mtbf", "-1"]),
    ("failures", ["--quick", "--node-duration", "0"]),
    ("mhttp", ["--reps", "0"]),
    ("mhttp", ["--quick", "--interval", "-5"]),
    ("mhttp", ["--quick", "--interval", "nan"]),
    ("mhttp", ["--quick", "--crash-duration", "0"]),
    ("mhttp", ["--quick", "--crash-duration", "nan"]),
    ("mhttp", ["--quick", "--block-kb", "0"]),
    ("mhttp", ["--quick", "--window", "0"]),
    ("mhttp", ["--ks", "2,x"]),
    ("mhttp", ["--quick", "--ks", "0"]),
    ("chaos", ["--reps", "0"]),
    ("chaos", ["--quick", "--interval", "-5"]),
    ("chaos", ["--quick", "--interval", "nan"]),
    ("chaos", ["--quick", "--families", "bogus"]),
    ("scale", ["--waves", "0"]),
]


def test_every_study_has_a_bad_argument_case():
    assert {name for name, _ in BAD_ARGS} == set(STUDIES)


@pytest.mark.parametrize(
    "study,bad", BAD_ARGS, ids=[f"{n}:{' '.join(a)}" for n, a in BAD_ARGS]
)
def test_bad_argument_is_a_usage_error(study, bad, tmp_path, capsys):
    """Exit 2 with one ``error:`` line, before any unit runs or file is written."""
    out = tmp_path / "out.jsonl"
    assert main([study, *bad, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_quick_preset_keeps_explicit_flags():
    """``--quick`` fills only the flags the user did not give."""
    from collections import Counter

    args = build_parser("chaos").parse_args(
        ["chaos", "--quick", "--reps", "2", "--out", "unused.jsonl"]
    )
    _scenario, plan = plan_study(get_study("chaos"), args)
    cells = Counter((u.client, u.variant) for u in plan.units)
    assert set(cells.values()) == {2}
    # The preset still fills the flags left out: its families, one intensity.
    assert {v.split("+")[1] for _, v in cells} == {
        "none:severe", "gray:severe", "correlated:severe"
    }


def test_duplicate_set_sizes_warn_and_run_once(tmp_path, capsys):
    single, dup = tmp_path / "single.jsonl", tmp_path / "dup.jsonl"
    assert main(["section4", "--reps", "1", "--set-sizes", "2", "--out", str(single)]) == 0
    capsys.readouterr()
    assert main(["section4", "--reps", "1", "--set-sizes", "2,2", "--out", str(dup)]) == 0
    assert "ignoring 1 duplicate set-sizes entry in --set-sizes" in capsys.readouterr().err
    assert dup.read_bytes() == single.read_bytes()


class TestRegistry:
    def test_unknown_study_rejected(self):
        with pytest.raises(ValueError, match="unknown study"):
            get_study("teleport")

    def test_unregistered_study_units_run_the_paired_transfer(self):
        unit = WorkUnit(
            index=0, study="history", client="Duke", site="eBay", repetition=0,
            start_time=0.0, offered=("MIT",),
        )
        assert unit_runner(unit) is run_paired_unit

    def test_failure_units_dispatch_by_study_name(self):
        from repro.workloads.failures import run_failure_unit

        unit = WorkUnit(
            index=0, study="failures", client="Italy", site="eBay", repetition=0,
            start_time=0.0, offered=("MIT",), variant="link",
        )
        assert unit_runner(unit) is run_failure_unit

    def test_run_unit_delegates_to_the_registry(self, section2_scenario):
        from repro.workloads.studies import STUDY_SESSION_CONFIG

        unit = WorkUnit(
            index=0, study="section2", client="Italy", site="eBay", repetition=0,
            start_time=0.0, offered=(section2_scenario.relay_names[0],),
        )
        assert run_unit(section2_scenario, STUDY_SESSION_CONFIG, unit) == run_paired_unit(
            section2_scenario, STUDY_SESSION_CONFIG, unit
        )


def _fresh_modules(code):
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestLazyStudyImports:
    #: Every registered study's module: each loads on first use only.
    LATE = tuple(sorted({target.partition(":")[0] for target, _ in STUDIES.values()}))
    #: What a campaign worker never runs: the report, lint and packet-level
    #: layers, and the standard library's network stack.
    WORKER_NEVER = (
        "repro.obs.slo", "repro.obs.insight", "repro.tcp.reno", "repro.qa.lint",
        "repro.util.svg", "urllib.request", "ssl",
    )

    def test_cli_import_loads_no_late_study(self):
        loaded = _fresh_modules(
            "import sys, repro.cli; "
            f"print(*[m for m in {self.LATE!r} if m in sys.modules])"
        )
        assert loaded == []

    def test_one_study_parser_loads_only_that_study(self):
        loaded = _fresh_modules(
            "import sys, repro.cli; repro.cli.build_parser('chaos'); "
            f"print(*[m for m in {self.LATE!r} if m in sys.modules])"
        )
        assert loaded == ["repro.workloads.chaos"]

    def test_worker_import_loads_no_study_or_report_module(self):
        never = self.WORKER_NEVER + self.LATE
        loaded = _fresh_modules(
            "import sys, repro.runner.pool; "
            f"print(*sorted(m for m in sys.modules if m in {never!r} "
            "or m == 'repro.analysis' or m.startswith('repro.analysis.')))"
        )
        assert loaded == []


class TestPackageInits:
    """One import path per name: a package ``__init__.py`` is its docstring."""

    #: The names a package may bind besides its docstring: perfbench imports
    #: ``execute_plan`` and ``full_report`` from the package.
    ALLOWED = {
        "repro": {"__version__"},
        "repro.analysis": {"full_report"},
        "repro.qa.flow": {"analyze_paths", "analyze_project"},
        "repro.runner": {"execute_plan"},
    }

    @staticmethod
    def _exported(tree):
        """What the module defines, and the imports its own code does not use."""
        defined, imported, used = set(), set(), set()
        for node in tree.body[1:]:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                used |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            elif not (
                isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
            ):
                defined.add(f"<{type(node).__name__} at line {node.lineno}>")
        return defined | (imported - used)

    def test_inits_hold_only_their_docstring_and_the_allowed_names(self):
        src = Path(repro.__file__).resolve().parent.parent
        inits = sorted(src.glob("repro/**/__init__.py"))
        assert len(inits) > 10
        for path in inits:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            package = ".".join(path.parent.relative_to(src).parts)
            assert ast.get_docstring(tree), path
            assert self._exported(tree) == self.ALLOWED.get(package, set()), path


def test_ci_matrix_lists_every_registered_study():
    """The study-determinism job has one matrix row per registered study."""
    text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    job = re.search(r"^  study-determinism:\n(.*?)(?=^  \S)", text, re.M | re.S)
    assert job is not None, "ci.yml has no study-determinism job"
    rows = re.findall(r"^\s+- study: (\S+)$", job.group(1), re.M)
    assert rows == list(STUDIES)


#: The smallest plan each registered study accepts, for the engine check.
SMALLEST_PLAN = {
    "section2": ["--reps", "1", "--clients", "Italy"],
    "section4": ["--reps", "1", "--set-sizes", "2"],
    "failures": ["--reps", "1", "--clients", "Italy"],
    "mhttp": ["--reps", "1", "--ks", "2", "--clients", "Italy"],
    "chaos": ["--reps", "1", "--families", "none", "--intensities", "severe",
              "--clients", "Italy"],
    "scale": ["--clients", "50"],
}


@pytest.mark.parametrize("study", list(STUDIES))
def test_engines_write_byte_identical_artefacts(study, tmp_path, monkeypatch):
    """Plain and sanitized runs of every study write the same bytes: the
    sanitized tick (either one) checks every solve and changes none."""
    assert study in SMALLEST_PLAN, f"add {study!r} to SMALLEST_PLAN"
    artefacts = []
    for sanitize in ("0", "1"):
        monkeypatch.setenv("REPRO_SANITIZE", sanitize)
        out = tmp_path / f"{sanitize}.jsonl"
        assert main([study, *SMALLEST_PLAN[study], "--out", str(out)]) == 0
        artefacts.append(out.read_bytes())
    assert artefacts[0], "the smallest plan wrote no records"
    assert artefacts[0] == artefacts[1]
