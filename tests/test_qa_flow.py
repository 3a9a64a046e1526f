"""Whole-program QA-F flow analyzer tests (``repro check``).

Every planted hazard here is *interprocedural* - the construction and the
violation live in different functions (usually different modules), so the
per-file linter cannot see them.  Fixture packages are generated under
``tmp_path`` so the repository's own lint/check runs never trip on them.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.qa.flow import analyze_paths
from repro.qa.flow.baseline import Baseline, BaselineEntry, write_baseline
from repro.qa.flow.callgraph import build_project
from repro.qa.flow.report import to_sarif, validate_sarif
from repro.qa.flow.taint import ARTEFACT_CTORS
from repro.trace import records as records_module

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_pkg(tmp_path, files):
    """Write a ``fixpkg`` package from {filename: source} and return its path."""
    pkg = tmp_path / "fixpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    for name, src in files.items():
        (pkg / name).write_text(src, encoding="utf-8")
    return str(pkg)


@pytest.fixture(scope="module")
def src_project():
    """The call graph of the repository's own ``src`` tree (built once)."""
    return build_project([str(REPO_ROOT / "src")])


def by_code(findings, code):
    return [f for f in findings if f.code == code]


# --------------------------------------------------------------------------- #
# fixture sources (module-level constants so line numbers stay reviewable)
# --------------------------------------------------------------------------- #
GEN_PY = """\
from numpy.random import default_rng


def make_stream(seed=None):
    return default_rng(seed)
"""

MID_PY = """\
from fixpkg.gen import make_stream


def build(seed=None):
    return make_stream(seed)
"""

STUDY_PY = """\
from fixpkg.gen import make_stream
from fixpkg.mid import build


def main():
    direct = make_stream()
    explicit = make_stream(None)
    chained = build()
    ok = make_stream(derive_seed(7))
    return direct, explicit, chained, ok
"""

CLOCK_PY = """\
import time


def stamp():
    return time.time()
"""

SINK_PY = """\
from fixpkg.clockmod import stamp


def persist(store):
    store.save_jsonl([stamp()])


def record(store, when):
    store.save_jsonl([when])


def relay(store):
    record(store, stamp())
"""

BUILD_PY = """\
def collect():
    return {"b": 1, "a": 2}
"""

OUT_PY = """\
from fixpkg.build import collect


def save(store):
    rows = [key for key in collect()]
    store.save_jsonl(rows)


def save_sorted(store):
    rows = [key for key in sorted(collect())]
    store.save_jsonl(rows)


def just_count():
    return sum(1 for _ in collect())
"""

STATE_PY = """\
CACHE = {}


def remember(key, value):
    CACHE[key] = value
"""

WORKER_PY = """\
from multiprocessing import Process

from fixpkg.state import remember


def work(item):
    remember(item, item)


def launch():
    p = Process(target=work, args=(1,))
    p.start()


def launch_lambda():
    p = Process(target=lambda: None)
    p.start()
"""

DEFAULTS_PY = """\
def extend(items=[]):
    items.append(1)
    return items
"""


WALL_RECORD_PY = """\
import time
from repro.trace.records import ChaosRecord


def build(**kw):
    return ChaosRecord(start_time=time.perf_counter(), **kw)
"""

REDUCED_DICT_PY = """\
def save(store, plan: dict, t):
    hit = {reducer}(
        o > t
        for outages in plan.values()
        for o in outages
    )
    store.save_jsonl([hit])
"""

REDUCED_CALLEE_PY = """\
def outages(table: dict):
    return [o for o in table.values()]


def save(store, table, t):
    store.save_jsonl([{reducer}(o > t for o in outages(table))])
"""


@pytest.fixture
def full_fixture(tmp_path):
    pkg = make_pkg(
        tmp_path,
        {
            "gen.py": GEN_PY,
            "mid.py": MID_PY,
            "study.py": STUDY_PY,
            "clockmod.py": CLOCK_PY,
            "sink.py": SINK_PY,
            "build.py": BUILD_PY,
            "out.py": OUT_PY,
            "state.py": STATE_PY,
            "worker.py": WORKER_PY,
            "defaults.py": DEFAULTS_PY,
        },
    )
    return pkg, analyze_paths([pkg])


class TestUnseededFlow:
    def test_cross_module_omission_flagged_at_construction_site(self, full_fixture):
        pkg, findings = full_fixture
        hits = by_code(findings, "QA-F001")
        # main() omitting the seed (direct + via build) and passing literal
        # None each complete an unseeded chain into gen.make_stream.
        assert len(hits) == 3
        for f in hits:
            assert f.path.endswith("gen.py")
            assert f.line == 5  # the default_rng(seed) call
            assert f.symbol == "fixpkg.gen.make_stream"

    def test_reports_both_omission_and_literal_none(self, full_fixture):
        _, findings = full_fixture
        messages = [f.message for f in by_code(findings, "QA-F001")]
        assert any("omits `seed`" in m for m in messages)
        assert any("passes None for `seed`" in m for m in messages)

    def test_chain_through_middle_module_recorded_in_trace(self, full_fixture):
        _, findings = full_fixture
        chained = [
            f
            for f in by_code(findings, "QA-F001")
            if any("fixpkg.mid.build" in hop for hop in f.trace)
        ]
        assert len(chained) == 1
        # Trace runs entry -> construction site.
        assert "fixpkg.study.main" in chained[0].trace[0]
        assert "fixpkg.gen.make_stream" in chained[0].trace[-1]

    def test_seed_producer_call_discharges_obligation(self, full_fixture):
        _, findings = full_fixture
        # make_stream(derive_seed(7)) must not be reported: only the three
        # genuinely unseeded chains are.
        assert len(by_code(findings, "QA-F001")) == 3

    def test_unreachable_caller_not_reported(self, tmp_path):
        pkg = make_pkg(
            tmp_path,
            {
                "gen.py": GEN_PY,
                "study.py": (
                    "from fixpkg.gen import make_stream\n"
                    "\n"
                    "\n"
                    "def main():\n"
                    "    return make_stream(7)\n"
                    "\n"
                    "\n"
                    "def _dead_helper():\n"
                    "    return make_stream()\n"
                ),
            },
        )
        findings = analyze_paths([pkg])
        # _dead_helper is not reachable from the entry point `main`.
        assert by_code(findings, "QA-F001") == []


#: ``src`` defs that no code in the four trees reaches, each with the reason
#: it stays.
UNREACHED_SRC_DEFS = {
    "repro.qa.flow.report.validate_sarif": (
        "CI's repro-check step runs it on the SARIF file it uploads"
    ),
}


class TestReachability:
    """A def is reached when reached code calls it *or names it*."""

    @staticmethod
    def reach(tmp_path, files):
        project = build_project([make_pkg(tmp_path, files)])
        return project.reachable_from(project.entry_points())

    def test_function_passed_as_callback_is_reachable(self, tmp_path):
        reached = self.reach(
            tmp_path,
            {
                "study.py": (
                    "def main(sim):\n"
                    "    sim.schedule(1.0, tick)\n"
                    "\n"
                    "\n"
                    "def tick():\n"
                    "    return 1\n"
                )
            },
        )
        assert "fixpkg.study.tick" in reached

    def test_method_nothing_names_is_unreachable_on_a_reached_class(self, tmp_path):
        reached = self.reach(
            tmp_path,
            {
                "box.py": (
                    "class Box:\n"
                    "    def __repr__(self):\n"
                    "        return 'Box'\n"
                    "\n"
                    "    def used(self):\n"
                    "        return 1\n"
                    "\n"
                    "    def dead(self):\n"
                    "        return 2\n"
                ),
                "study.py": (
                    "from fixpkg.box import Box\n"
                    "\n"
                    "\n"
                    "def main():\n"
                    "    return Box().used()\n"
                ),
            },
        )
        assert "fixpkg.box.Box" in reached
        assert "fixpkg.box.Box.__repr__" in reached
        assert "fixpkg.box.Box.used" in reached
        assert "fixpkg.box.Box.dead" not in reached

    def test_property_that_is_only_read_is_reachable(self, tmp_path):
        reached = self.reach(
            tmp_path,
            {
                "box.py": (
                    "class Box:\n"
                    "    @property\n"
                    "    def size(self):\n"
                    "        return 3\n"
                ),
                "study.py": (
                    "def main(box):\n"
                    "    return box.size + 1\n"
                ),
            },
        )
        assert "fixpkg.box.Box.size" in reached

    def test_visitor_methods_of_a_reached_node_visitor_are_reachable(self, tmp_path):
        reached = self.reach(
            tmp_path,
            {
                "walk.py": (
                    "import ast\n"
                    "\n"
                    "\n"
                    "class Walker(ast.NodeVisitor):\n"
                    "    def __init__(self):\n"
                    "        self.calls = 0\n"
                    "\n"
                    "    def visit_Call(self, node):\n"
                    "        self.calls += 1\n"
                    "\n"
                    "\n"
                    "def main(tree):\n"
                    "    Walker().visit(tree)\n"
                ),
            },
        )
        assert "fixpkg.walk.Walker.visit_Call" in reached

    @pytest.mark.parametrize(
        "imports, base",
        [
            ("from fixpkg import base as mod\n", "mod.Base"),
            ("import fixpkg.base as mod\n", "mod.Base"),
            ("import fixpkg\n", "fixpkg.base.Base"),
        ],
        ids=["from-import-alias", "import-alias", "full-path"],
    )
    def test_self_call_resolves_through_a_dotted_base(self, tmp_path, imports, base):
        """``self.m()`` on a subclass of ``mod.Base`` is the inherited
        ``Base.m``, not every method named ``m``."""
        project = build_project(
            [
                make_pkg(
                    tmp_path,
                    {
                        "base.py": (
                            "class Base:\n"
                            "    def m(self):\n"
                            "        return 1\n"
                        ),
                        "other.py": (
                            "class Other:\n"
                            "    def m(self):\n"
                            "        return 2\n"
                        ),
                        "sub.py": (
                            f"{imports}"
                            "\n"
                            "\n"
                            f"class Sub({base}):\n"
                            "    def run(self):\n"
                            "        return self.m()\n"
                        ),
                    },
                )
            ]
        )
        (site,) = project.calls_in("fixpkg.sub.Sub.run")
        assert site.callees == ("fixpkg.base.Base.m",)
        assert site.kind == "method"

    def test_engine_hot_paths_reachable_on_real_tree(self, src_project):
        reached = src_project.reachable_from(src_project.entry_points())
        assert "repro.vec.engine.VectorCore.tick" in reached
        assert "repro.vec.solver.waterfill_sparse" in reached

    def test_src_has_no_unreached_defs(self):
        """Every ``src`` def is reached from the CLI, a study, a bench, an
        example or perfbench, or is allow-listed here with its reason."""
        src = REPO_ROOT / "src"
        trees = [src] + [REPO_ROOT / d for d in ("benchmarks", "examples", "perfbench")]
        project = build_project([str(tree) for tree in trees])
        outside = [
            qual
            for qual, info in project.functions.items()
            if not Path(info.path).resolve().is_relative_to(src)
        ]
        reached = project.reachable_from([*outside, *project.entry_points()])
        unreached = {
            qual
            for qual, info in project.functions.items()
            if qual not in reached and Path(info.path).resolve().is_relative_to(src)
        }
        assert unreached == set(UNREACHED_SRC_DEFS)


class TestWallClockFlow:
    def test_cross_module_wall_value_in_sink_call(self, full_fixture):
        pkg, findings = full_fixture
        hits = by_code(findings, "QA-F002")
        direct = [f for f in hits if f.symbol == "fixpkg.sink.persist"]
        assert len(direct) == 1
        assert direct[0].path.endswith("sink.py")
        assert direct[0].line == 5  # store.save_jsonl([stamp()])
        assert "save_jsonl" in direct[0].message

    def test_wall_value_onto_sink_flowing_parameter(self, full_fixture):
        _, findings = full_fixture
        hits = [
            f for f in by_code(findings, "QA-F002") if f.symbol == "fixpkg.sink.relay"
        ]
        assert len(hits) == 1
        assert hits[0].line == 13  # record(store, stamp())
        assert "parameter `when`" in hits[0].message
        assert any("fixpkg.sink.record" in hop for hop in hits[0].trace)


    def test_every_transfer_record_class_is_an_artefact_sink(self):
        records = {
            name
            for name, obj in vars(records_module).items()
            if isinstance(obj, type) and issubclass(obj, records_module.TransferRecord)
        }
        assert {"FaultedRecord", "ChaosRecord", "ScaleRecord"} <= records
        assert records <= ARTEFACT_CTORS

    def test_wall_clock_start_time_in_a_chaos_record(self, tmp_path):
        pkg = make_pkg(tmp_path, {"rows.py": WALL_RECORD_PY})
        hits = by_code(analyze_paths([pkg]), "QA-F002")
        assert [(f.symbol, f.line) for f in hits] == [("fixpkg.rows.build", 6)]
        assert "ChaosRecord" in hits[0].message


class TestIterationOrder:
    def test_dict_returning_callee_iterated_into_sink(self, full_fixture):
        _, findings = full_fixture
        hits = [
            f for f in by_code(findings, "QA-F003") if f.path.endswith("out.py")
        ]
        assert [f.symbol for f in hits] == ["fixpkg.out.save"]
        assert hits[0].line == 5  # [key for key in collect()]

    def test_sorted_wrapper_and_non_artefact_consumer_are_clean(self, full_fixture):
        _, findings = full_fixture
        symbols = {f.symbol for f in by_code(findings, "QA-F003")}
        assert "fixpkg.out.save_sorted" not in symbols
        assert "fixpkg.out.just_count" not in symbols

    def test_any_over_dict_values_is_clean(self, tmp_path):
        pkg = make_pkg(tmp_path, {"plan.py": REDUCED_DICT_PY.format(reducer="any")})
        assert by_code(analyze_paths([pkg]), "QA-F003") == []

    def test_sum_over_dict_values_is_flagged(self, tmp_path):
        pkg = make_pkg(tmp_path, {"plan.py": REDUCED_DICT_PY.format(reducer="sum")})
        hits = by_code(analyze_paths([pkg]), "QA-F003")
        assert [(f.symbol, f.line) for f in hits] == [("fixpkg.plan.save", 4)]

    @pytest.mark.parametrize("reducer, flagged", [("any", False), ("sum", True)])
    def test_callee_read_only_through_any_is_off_the_artefact_path(
        self, tmp_path, reducer, flagged
    ):
        """A callee whose result only feeds ``any`` in a sink call cannot
        order the artefact, so its own dict iteration is no finding; one
        whose result feeds ``sum`` can."""
        pkg = make_pkg(tmp_path, {"plan.py": REDUCED_CALLEE_PY.format(reducer=reducer)})
        hits = by_code(analyze_paths([pkg]), "QA-F003")
        expected = [("fixpkg.plan.outages", 2)] if flagged else []
        assert [(f.symbol, f.line) for f in hits] == expected


class TestSpawnSafety:
    def test_worker_reachable_global_mutation_in_other_module(self, full_fixture):
        _, findings = full_fixture
        hits = [
            f for f in by_code(findings, "QA-F004") if f.path.endswith("state.py")
        ]
        assert len(hits) == 1
        assert hits[0].symbol == "fixpkg.state.remember"
        assert hits[0].line == 5  # CACHE[key] = value

    def test_lambda_process_target_flagged(self, full_fixture):
        _, findings = full_fixture
        hits = [
            f
            for f in by_code(findings, "QA-F004")
            if f.symbol == "fixpkg.worker.launch_lambda"
        ]
        assert len(hits) == 1


class TestMutableDefaults:
    def test_mutable_default_flagged(self, full_fixture):
        _, findings = full_fixture
        hits = by_code(findings, "QA-F005")
        assert len(hits) == 1
        assert hits[0].symbol == "fixpkg.defaults.extend"
        assert hits[0].path.endswith("defaults.py")
        assert hits[0].line == 1


class TestSuppression:
    def test_ignore_comment_silences_finding_line(self, tmp_path):
        pkg = make_pkg(
            tmp_path,
            {
                "build.py": BUILD_PY,
                "out.py": OUT_PY.replace(
                    "rows = [key for key in collect()]",
                    "rows = [key for key in collect()]  # qa: ignore[QA-F003]",
                ),
            },
        )
        findings = analyze_paths([pkg])
        assert by_code(findings, "QA-F003") == []


class TestBaseline:
    def test_write_load_apply_roundtrip(self, full_fixture, tmp_path):
        pkg, findings = full_fixture
        path = tmp_path / "baseline.json"
        write_baseline(findings, str(path), justification="fixture accepted")
        result = Baseline.load(str(path)).apply(findings)
        assert result.new == []
        assert len(result.accepted) == len(findings)
        assert result.stale == []

    def test_new_and_stale_detection(self, full_fixture):
        _, findings = full_fixture
        stale_entry = BaselineEntry(
            code="QA-F001",
            path="fixpkg/nowhere.py",
            symbol="fixpkg.nowhere.gone",
            justification="obsolete",
        )
        result = Baseline(
            [stale_entry]
        ).apply(findings)
        assert len(result.new) == len(findings)
        assert result.stale == [stale_entry]

    def test_path_matching_tolerates_absolute_prefix(self, full_fixture):
        _, findings = full_fixture
        target = by_code(findings, "QA-F005")[0]
        entry = BaselineEntry(
            code=target.code,
            path="fixpkg/defaults.py",
            symbol=target.symbol,
            justification="accepted",
        )
        assert entry.matches(target)

    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope", "findings": []}))
        with pytest.raises(ValueError, match="schema"):
            Baseline.load(str(path))


class TestSarif:
    def test_sarif_output_validates_and_carries_code_flows(self, full_fixture):
        _, findings = full_fixture
        doc = to_sarif(findings)
        assert validate_sarif(doc) == []
        run = doc["runs"][0]
        assert len(run["results"]) == len(findings)
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"QA-F001", "QA-F002", "QA-F003", "QA-F004", "QA-F005"} <= rule_ids
        with_flow = [r for r in run["results"] if "codeFlows" in r]
        assert with_flow, "interprocedural findings must carry codeFlows"

    def test_validator_catches_structural_damage(self, full_fixture):
        _, findings = full_fixture
        doc = to_sarif(findings)
        doc["runs"][0]["results"][0].pop("message")
        assert validate_sarif(doc) != []


class TestRealTree:
    def test_repo_tree_matches_committed_baseline(self):
        findings = analyze_paths([str(REPO_ROOT / "src")])
        baseline = Baseline.load(str(REPO_ROOT / "qa-baseline.json"))
        result = baseline.apply(findings)
        assert result.new == [], [f.format(hints=False) for f in result.new]
        assert result.stale == [], [e.to_dict() for e in result.stale]

    def test_project_covers_repo_modules(self, src_project):
        assert "repro.workloads.failures" in src_project.modules
        assert any(
            q.endswith("execute_plan") for q in src_project.entry_points()
        )

    def test_registered_unit_runners_are_reachable(self, src_project):
        """Runners dispatched through the study registry stay analyzed."""
        reachable = src_project.reachable_from(src_project.entry_points())
        for qualname in (
            "repro.workloads.experiment.run_paired_transfer",
            "repro.workloads.failures.run_failure_unit",
            "repro.workloads.mhttp.run_mhttp_unit",
            "repro.workloads.chaos.run_chaos_unit",
            "repro.workloads.scale.run_scale_unit",
        ):
            assert qualname in reachable, qualname


class TestCheckCli:
    def test_exit_one_on_findings_and_zero_with_baseline(
        self, full_fixture, tmp_path, capsys
    ):
        pkg, findings = full_fixture
        assert main(["check", pkg]) == 1
        out = capsys.readouterr().out
        assert "QA-F001" in out and "finding(s)" in out

        baseline = tmp_path / "b.json"
        assert main(["check", pkg, "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["check", pkg, "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert f"{len(findings)} accepted by baseline" in out

    def test_sarif_flag_writes_valid_file(self, full_fixture, tmp_path, capsys):
        pkg, _ = full_fixture
        sarif = tmp_path / "out.sarif"
        main(["check", pkg, "--sarif", str(sarif)])
        capsys.readouterr()
        doc = json.loads(sarif.read_text(encoding="utf-8"))
        assert doc["version"] == "2.1.0"
        assert validate_sarif(doc) == []

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "missing")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        pkg = make_pkg(tmp_path, {"defaults.py": DEFAULTS_PY})
        assert main(["check", pkg, "--baseline", str(bad)]) == 2
        capsys.readouterr()

    def test_rule_catalogue_lists_flow_rules(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "Whole-program flow rules" in out
        for code in ("QA-F001", "QA-F002", "QA-F003", "QA-F004", "QA-F005"):
            assert code in out
