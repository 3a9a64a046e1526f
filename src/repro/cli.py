"""Command-line interface: run campaigns, render artefacts, browse catalogues.

Usage (also available as ``python -m repro``):

.. code-block:: bash

    repro section2 --reps 30 --out s2.jsonl            # the §2-3 campaign
    repro section4 --reps 40 --set-sizes 1,4,10,35 --out s4.jsonl
    repro failures --quick --out fail.jsonl             # availability study
    repro mhttp --quick --out mhttp.jsonl               # select-one vs striping
    repro chaos --quick --out chaos.jsonl               # fault-injection grid
    repro scale --clients 300 --waves 2 --out scale.jsonl  # population waves
    repro section2 --reps 30 --out s2.jsonl --obs       # + obs trace
    repro obs summarize s2.jsonl.obs.jsonl              # span/counter summary
    repro obs chrome s2.jsonl.obs.jsonl                 # Perfetto-loadable JSON
    repro report s2.jsonl --artifact fig1 table1 headline
    repro report s4.jsonl --artifact fig6 table3 --client Duke
    repro catalog                                       # Tables IV & V
    repro lint src tests benchmarks                     # QA-* static linter
    repro lint --rules                                  # rule catalogue
    repro check src --baseline qa-baseline.json         # QA-F flow analyzer
    repro check src --sarif findings.sarif              # SARIF 2.1 output
    repro selfcheck                                     # sanitizer battery
    repro perf --out BENCH_engine.json                  # engine benchmarks
    repro perf --baseline BENCH_engine.json --out new.json  # regression check
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.qa.rules import INVARIANTS, RULES
from repro.runner.checkpoint import CheckpointError
from repro.runner.pool import RunnerError, UnitExecutionError, execute_plan
from repro.trace.store import TraceStore
from repro.util.tables import render_table
from repro.workloads.planetlab import (
    CLIENT_CATALOG,
    DEFAULT_SITE,
    SECTION4_RELAY_CATALOG,
    RELAY_CATALOG,
    SITES,
)
from repro.workloads.scenario import Scenario
from repro.workloads.studies import STUDIES, Study, get_study

__all__ = ["main", "build_parser", "plan_study"]

#: Artefact name -> renderer over a loaded store.
_ARTIFACTS = (
    "all",
    "headline",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table1",
    "table2",
    "table3",
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs).

    Every registered study (:mod:`repro.workloads.studies`) gets a
    subcommand.  Its flags come from the study's entry, whose module is
    imported only when ``command`` names that study or is ``None`` (the
    full parser), so a run loads no study module it does not run.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Performance Analysis of Indirect Routing' "
            "(IPPS 2007): run simulated campaigns and regenerate the "
            "paper's tables and figures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_entry, help_text) in STUDIES.items():
        study_parser = sub.add_parser(name, help=help_text)
        if command in (None, name):
            _add_study_args(study_parser, get_study(name))

    rep = sub.add_parser("report", help="render artefacts from a saved store")
    rep.add_argument("store", help="JSONL store written by section2/section4")
    rep.add_argument(
        "--artifact",
        nargs="+",
        choices=_ARTIFACTS,
        default=["headline"],
        help="artefacts to render",
    )
    rep.add_argument(
        "--client", default="Duke", help="client for table3 (default: Duke)"
    )

    sub.add_parser("catalog", help="print the PlanetLab node catalogues")

    lint = sub.add_parser(
        "lint",
        help="run the project QA-* linter (determinism / units / sim safety)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--no-hints", action="store_true", help="omit fix hints from findings"
    )
    lint.add_argument(
        "--rules",
        action="store_true",
        help="print the rule and invariant catalogues and exit",
    )

    check = sub.add_parser(
        "check",
        help="run the whole-program QA-F flow analyzer (determinism / spawn safety)",
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    check.add_argument(
        "--baseline",
        metavar="FILE",
        help="accepted-findings baseline; only findings beyond it fail the run",
    )
    check.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write a baseline accepting every current finding, then exit",
    )
    check.add_argument(
        "--sarif",
        metavar="FILE",
        help="also write findings as SARIF 2.1 to FILE ('-' for stdout)",
    )
    check.add_argument(
        "--no-hints", action="store_true", help="omit fix hints from findings"
    )

    sub.add_parser(
        "selfcheck",
        help="prove every runtime invariant check fires (sanitizer battery)",
    )

    perf = sub.add_parser(
        "perf",
        help="run engine hot-path benchmarks (vs reference implementations)",
    )
    perf.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads for CI smoke runs (noisier numbers)",
    )
    perf.add_argument(
        "--only",
        default=None,
        metavar="NAMES",
        help="comma-separated bench subset (see repro.perf.BENCHES)",
    )
    perf.add_argument(
        "--out",
        default="BENCH_engine.json",
        metavar="FILE",
        help="write the JSON report here (default: BENCH_engine.json)",
    )
    perf.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="compare against a stored report; exit 1 on regression",
    )
    perf.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRAC",
        help="relative slowdown counted as a regression (default 0.25)",
    )
    perf.add_argument(
        "--obs",
        action="store_true",
        help="instrument each bench; adds an obs_summary block per bench "
        "to the JSON report (numbers include instrumentation overhead)",
    )

    obs = sub.add_parser(
        "obs",
        help="inspect obs traces written by --obs campaign runs",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summ = obs_sub.add_parser(
        "summarize",
        help="print span/counter/histogram summary of a trace",
    )
    summ.add_argument("trace", help="obs JSONL trace path")
    summ.add_argument(
        "--top",
        type=int,
        default=10,
        help="span names listed in the cumulative-time table (default 10)",
    )
    chrome = obs_sub.add_parser(
        "chrome",
        help="convert a trace to Chrome trace_event JSON (Perfetto-loadable)",
    )
    chrome.add_argument("trace", help="obs JSONL trace path")
    chrome.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="output path (default: <trace>.chrome.json)",
    )
    metrics = obs_sub.add_parser(
        "metrics",
        help="dump counters/gauges/histograms as Prometheus-style text",
    )
    metrics.add_argument("trace", help="obs JSONL trace path")
    metrics.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="output path (default: stdout)",
    )
    phases = obs_sub.add_parser(
        "phases",
        help="critical-path attribution: decompose each session into "
        "probe/stall/backoff/straggle/transfer phases",
    )
    phases.add_argument("trace", help="obs JSONL trace path")
    phases.add_argument(
        "--quantile",
        type=float,
        default=0.99,
        help="tail quantile for the attribution summary (default 0.99)",
    )
    diff = obs_sub.add_parser(
        "diff",
        help="align two traces and report drift; exit 0 clean, 1 drift "
        "(wall-clock runner records are reported but never gated)",
    )
    diff.add_argument("trace_a", help="baseline obs JSONL trace")
    diff.add_argument("trace_b", help="candidate obs JSONL trace")
    diff.add_argument(
        "--duration-rel",
        type=float,
        default=0.0,
        help="relative tolerance on per-category span durations (default 0)",
    )
    diff.add_argument(
        "--duration-abs",
        type=float,
        default=0.0,
        help="absolute tolerance (seconds) on span durations (default 0)",
    )
    diff.add_argument(
        "--counter-rel",
        type=float,
        default=0.0,
        help="relative tolerance on counters/gauges (default 0)",
    )
    diff.add_argument(
        "--counter-abs",
        type=float,
        default=0.0,
        help="absolute tolerance on counters/gauges (default 0)",
    )
    diff.add_argument(
        "--quantile-rel",
        type=float,
        default=0.0,
        help="relative tolerance on histogram sum/p50/p99 (default 0)",
    )
    diff.add_argument(
        "--include-wallclock",
        action="store_true",
        help="gate executor-domain (wall-clock) records and runner.* "
        "metrics too (nondeterministic across runs; off by default)",
    )
    diff.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also list matching quantities",
    )
    slo = obs_sub.add_parser(
        "slo",
        help="evaluate a declarative SLO spec against a campaign artefact "
        "and/or obs trace; exit 0 pass, 1 violation",
    )
    slo.add_argument("spec", help="SLO spec path (TOML subset; see DESIGN.md §14)")
    slo.add_argument(
        "--records",
        default=None,
        metavar="FILE",
        help="campaign artefact JSONL (chaos/failures/mhttp rows)",
    )
    slo.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="obs JSONL trace for trace-derived metrics",
    )
    health = obs_sub.add_parser(
        "report",
        help="render a self-contained HTML campaign health report "
        "(phase attribution, histogram sparklines, SLO table)",
    )
    health.add_argument("trace", help="obs JSONL trace path")
    health.add_argument(
        "--out",
        "-o",
        default=None,
        metavar="FILE",
        help="output path (default: <trace>.health.html)",
    )
    health.add_argument(
        "--slo",
        default=None,
        metavar="FILE",
        help="SLO spec to evaluate and include in the report",
    )
    health.add_argument(
        "--records",
        default=None,
        metavar="FILE",
        help="campaign artefact JSONL for record-based SLO metrics",
    )
    health.add_argument(
        "--title",
        default="campaign health",
        help='report title (default "campaign health")',
    )
    return parser


def _add_study_args(parser: argparse.ArgumentParser, study: Study) -> None:
    """A study's own flags, then the flags every study shares."""
    study.arguments(parser)
    parser.add_argument("--seed", type=int, default=2007)
    if study.site_flag == "sites":
        parser.add_argument(
            "--sites", default=DEFAULT_SITE, help="comma-separated sites (default: eBay)"
        )
    elif study.site_flag == "site":
        parser.add_argument(
            "--site", default=DEFAULT_SITE, help="target site (default: eBay)"
        )
    if study.client_subset:
        parser.add_argument("--clients", default=None, help="comma-separated client subset")
    if study.quick is not None:
        parser.add_argument(
            "--quick", action="store_true",
            help=f"{study.quick_help}; flags given explicitly win",
        )
        # Wrap the preset's defaults so plan_study can tell a given flag
        # (which the preset never overrides) from an absent one.
        parser.set_defaults(
            **{dest: _Default(parser.get_default(dest)) for dest in study.quick}
        )
    parser.add_argument("--out", required=True, help="output JSONL path")
    _add_runner_args(parser)


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    """Campaign-runner and obs flags shared by every study subcommand."""
    group = parser.add_argument_group("execution")
    group.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = in-process serial path; output is "
        "byte-identical for every value)",
    )
    group.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="shard-checkpoint directory (enables incremental persistence "
        "and --resume)",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="continue a checkpointed campaign, skipping completed units "
        "(requires --checkpoint; refuses a mismatched campaign fingerprint)",
    )
    group.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="flush shard files every N completed units (default 25)",
    )
    group.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry a unit that runs longer than this on a worker",
    )
    group.add_argument(
        "--progress",
        action="store_true",
        help="print progress/rate/ETA telemetry to stderr",
    )
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--obs",
        action="store_true",
        help="record a deterministic obs trace alongside the artefact "
        "(also enabled by REPRO_OBS=1; study output stays byte-identical)",
    )
    obs.add_argument(
        "--obs-out",
        default=None,
        metavar="FILE",
        help="obs trace path (default: <out>.obs.jsonl)",
    )


def _csv(dest: str, value: Optional[str], cast: Callable[[str], Any] = str) -> Optional[List[Any]]:
    """Split the comma-separated flag ``dest`` into typed, distinct items.

    Blank items are skipped; ``None`` stands for an absent or empty list.
    A duplicate would silently repeat work (a twice-listed client runs every
    paired measurement twice and double-counts it in every figure), so
    duplicates are dropped, keeping first-seen order, with one warning.
    """
    if value is None:
        return None
    flag = "--" + dest.replace("_", "-")
    try:
        items = [cast(v.strip()) for v in value.split(",") if v.strip()]
    except ValueError:
        raise _UsageError(f"{flag} must be a comma-separated list of {cast.__name__}")
    distinct = list(dict.fromkeys(items))
    dropped = len(items) - len(distinct)
    if dropped:
        print(
            f"warning: ignoring {dropped} duplicate {flag[2:]} entr"
            f"{'y' if dropped == 1 else 'ies'} in {flag} "
            f"(kept first occurrence, order preserved)",
            file=sys.stderr,
        )
    return distinct or None


def _runner_kwargs(args) -> dict:
    if args.resume and args.checkpoint is None:
        raise _UsageError("--resume requires --checkpoint DIR")
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    kwargs = {
        "jobs": args.jobs,
        "checkpoint": args.checkpoint,
        "resume": args.resume,
        "progress": args.progress,
        "unit_timeout": args.unit_timeout,
    }
    if args.checkpoint_every is not None:
        if args.checkpoint_every < 1:
            raise _UsageError("--checkpoint-every must be >= 1")
        kwargs["checkpoint_every"] = args.checkpoint_every
    return kwargs


class _UsageError(Exception):
    """Bad flag combination; rendered to stderr with exit code 2."""


class _Default:
    """A flag's parser default while a ``--quick`` preset may still fill it."""

    def __init__(self, value: Any):
        self.value = value


@contextmanager
def _obs_capture(args) -> Iterator[None]:
    """Capture an obs trace around a campaign when ``--obs``/REPRO_OBS is on.

    Installs a fresh process-global observer, exports REPRO_OBS and a shard
    directory (worker processes dump their own traces there at shutdown),
    runs the campaign, then merges the parent trace with every worker shard
    into ``--obs-out`` (default ``<out>.obs.jsonl``).  Study artefacts are
    untouched: observation is read-only and spans are keyed by sim-time.
    """
    from repro.obs.core import (
        OBS_DIR_ENV_VAR,
        OBS_ENV_VAR,
        global_observer,
        observe_enabled_from_env,
        reset_global_observer,
    )

    if not (getattr(args, "obs", False) or observe_enabled_from_env()):
        yield
        return
    out = args.obs_out if args.obs_out else args.out + ".obs.jsonl"
    shard_dir = out + ".shards"
    os.makedirs(shard_dir, exist_ok=True)
    saved = {k: os.environ.get(k) for k in (OBS_ENV_VAR, OBS_DIR_ENV_VAR)}
    os.environ[OBS_ENV_VAR] = "1"
    os.environ[OBS_DIR_ENV_VAR] = shard_dir
    reset_global_observer()
    observer = global_observer(create=True)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        if observer is not None:
            _write_obs_trace(observer, out, shard_dir)
        reset_global_observer()


def _write_obs_trace(observer, out: str, shard_dir: str) -> None:
    """Merge the parent observer with worker shards and write ``out``."""
    import shutil

    from repro.obs.export import ObsTrace

    traces = [ObsTrace.from_observer(observer)]
    for name in sorted(os.listdir(shard_dir)):
        if not name.endswith(".obs.jsonl"):
            continue
        try:
            traces.append(ObsTrace.load_jsonl(os.path.join(shard_dir, name)))
        except ValueError as exc:
            print(
                f"warning: skipping corrupt obs shard {name}: {exc}",
                file=sys.stderr,
            )
    merged = ObsTrace.merge(traces)
    merged.save_jsonl(out)
    shutil.rmtree(shard_dir, ignore_errors=True)
    n_spans = sum(1 for r in merged.records if r.kind == "span")
    print(
        f"wrote obs trace to {out} "
        f"({len(merged.records)} records, {n_spans} spans)"
    )


def plan_study(study: Study, args: argparse.Namespace) -> Tuple[Scenario, Any]:
    """Validate a parsed study invocation and plan it, running nothing.

    Every study goes through here: list flags are split and deduplicated,
    sites and clients validated, the ``--quick`` preset applied to the flags
    the user did not give, and a ``ValueError`` from the study's planner
    becomes a usage error.
    """
    for dest, preset in (study.quick or {}).items():
        value = getattr(args, dest)
        if isinstance(value, _Default):
            setattr(args, dest, preset if args.quick else value.value)
    lists = dict(study.lists)
    if study.site_flag == "sites":
        lists["sites"] = str
    if study.client_subset:
        lists["clients"] = str
    for dest, cast in lists.items():
        setattr(args, dest, _csv(dest, getattr(args, dest), cast))
    sites: List[str] = []
    if study.site_flag == "sites":
        args.sites = args.sites or [DEFAULT_SITE]
        sites = args.sites
    elif study.site_flag == "site":
        sites = [args.site]
    unknown = [s for s in sites if s not in SITES]
    if unknown:
        raise _UsageError(f"unknown sites {unknown}; choose from {list(SITES)}")
    scenario = Scenario.build(study.spec(tuple(sites)), seed=args.seed)
    if study.client_subset and args.clients:
        missing = [c for c in args.clients if c not in scenario.client_names]
        if missing:
            raise _UsageError(f"unknown clients {missing}")
    if study.quick is not None and args.quick and study.client_subset:
        args.clients = args.clients or scenario.client_names[:2]
    try:
        return scenario, study.plan(scenario, args)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _run_study(args: argparse.Namespace) -> int:
    """The one driver for every registered study: plan, execute, save, render."""
    study = get_study(args.command)
    runner_kwargs = _runner_kwargs(args)
    scenario, plan = plan_study(study, args)
    with _obs_capture(args):
        result = execute_plan(plan, scenario=scenario, **runner_kwargs)
    store = result.store
    if store is None:  # pragma: no cover - max_units is not exposed here
        print("campaign incomplete; resume with --checkpoint/--resume")
        return 1
    store.save_jsonl(args.out)
    print(f"wrote {len(store)} records to {args.out}")
    if study.render is not None:
        print()
        print(study.render(store.records))
    return 0


def _render_artifact(name: str, store: TraceStore, *, client: str) -> str:
    from repro.analysis.improvement import (
        improvement_histogram,
        improvement_vs_throughput,
        per_client_histograms,
    )
    from repro.analysis.metrics import headline_stats
    from repro.analysis.penalties import penalty_table
    from repro.analysis.random_set import random_set_curves
    from repro.analysis.report import (
        render_fig1,
        render_fig2,
        render_fig3,
        render_fig4,
        render_fig5,
        render_fig6,
        render_headline,
        render_table1,
        render_table2,
        render_table3,
    )
    from repro.analysis.summary import full_report
    from repro.analysis.timeseries import indirect_throughput_series
    from repro.analysis.utilization import (
        top_relays_per_client,
        total_utilization_stats,
        utilization_vs_improvement,
    )

    if name == "all":
        return full_report(store, table3_client=client)
    if name == "headline":
        return render_headline(headline_stats(store))
    if name == "fig1":
        return render_fig1(improvement_histogram(store))
    if name == "fig2":
        return render_fig2(per_client_histograms(store))
    if name == "fig3":
        return render_fig3([improvement_vs_throughput(store, label="all clients")])
    if name == "fig4":
        return render_fig4(indirect_throughput_series(store))
    if name == "fig5":
        return render_fig5(total_utilization_stats(store))
    if name == "fig6":
        return render_fig6(random_set_curves(store))
    if name == "table1":
        return render_table1(penalty_table(store))
    if name == "table2":
        return render_table2(top_relays_per_client(store))
    if name == "table3":
        rows = utilization_vs_improvement(store, client)
        return render_table3(rows, client=client)
    raise ValueError(f"unknown artifact {name!r}")  # pragma: no cover


def _cmd_report(args) -> int:
    try:
        store = TraceStore.load_jsonl(args.store)
    except FileNotFoundError:
        print(f"error: store {args.store!r} not found", file=sys.stderr)
        return 2
    if len(store) == 0:
        print("error: store is empty", file=sys.stderr)
        return 2
    for name in args.artifact:
        print(_render_artifact(name, store, client=args.client))
        print()
    return 0


def _cmd_catalog(_args) -> int:
    print(
        render_table(
            ["#", "country", "domain name"],
            [(i + 1, e.name, e.hostname) for i, e in enumerate(CLIENT_CATALOG)],
            title="Table IV - PlanetLab client nodes",
        )
    )
    print()
    print(
        render_table(
            ["#", "university", "domain name"],
            [(i + 1, e.name, e.hostname) for i, e in enumerate(RELAY_CATALOG)],
            title="Table V - PlanetLab intermediate nodes",
        )
    )
    print()
    extras = [e for e in SECTION4_RELAY_CATALOG if e not in RELAY_CATALOG]
    print(
        render_table(
            ["#", "university", "domain name", "extrapolated"],
            [
                (i + 1, e.name, e.hostname, "yes" if e.extrapolated else "no")
                for i, e in enumerate(extras)
            ],
            title="Additional §4 intermediate nodes (Table III / extrapolated)",
        )
    )
    return 0


def _render_rule_catalog() -> str:
    lines = ["Static lint rules (suppress with `# qa: ignore[CODE]`):"]
    for code, rule in RULES.items():
        if rule.analyzer != "lint":
            continue
        lines.append(f"  {code}  {rule.name} [{rule.scope}]")
        lines.append(f"      {rule.summary}")
        lines.append(f"      fix: {rule.hint}")
    lines.append("")
    lines.append("Whole-program flow rules (`repro check`, same suppression syntax):")
    for code, rule in RULES.items():
        if rule.analyzer != "flow":
            continue
        lines.append(f"  {code}  {rule.name} [{rule.scope}]")
        lines.append(f"      {rule.summary}")
        lines.append(f"      fix: {rule.hint}")
    lines.append("")
    lines.append("Runtime invariants (enable with REPRO_SANITIZE=1):")
    for code, inv in INVARIANTS.items():
        lines.append(f"  {code}  {inv.name}")
        lines.append(f"      {inv.summary}")
    return "\n".join(lines)


def _cmd_lint(args) -> int:
    from repro.qa.files import iter_python_files
    from repro.qa.lint import lint_paths

    if args.rules:
        print(_render_rule_catalog())
        return 0
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such file or directory: {missing}", file=sys.stderr)
        return 2
    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding.format(hints=not args.no_hints))
    n_files = sum(1 for _ in iter_python_files(args.paths))
    if findings:
        print(f"{len(findings)} finding(s) in {n_files} file(s)")
        return 1
    print(f"clean: 0 findings in {n_files} file(s)")
    return 0


def _cmd_check(args) -> int:
    # Imported lazily: the flow analyzer is only needed by this command.
    import json as _json

    from repro.qa.files import iter_python_files as _iter_files
    from repro.qa.flow import analyze_paths
    from repro.qa.flow.baseline import Baseline, write_baseline
    from repro.qa.flow.report import to_sarif

    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such file or directory: {missing}", file=sys.stderr)
        return 2
    findings = analyze_paths(args.paths)
    n_files = sum(1 for _ in _iter_files(args.paths))

    if args.write_baseline:
        write_baseline(
            findings,
            args.write_baseline,
            justification="TODO: justify this accepted finding or fix it",
        )
        print(
            f"wrote baseline accepting {len(findings)} finding(s) "
            f"to {args.write_baseline}"
        )
        return 0

    # With `--sarif -` the JSON owns stdout; the human report moves to
    # stderr so the output stays machine-consumable.
    report = sys.stdout
    if args.sarif:
        doc = to_sarif(findings)
        text = _json.dumps(doc, indent=2, sort_keys=False)
        if args.sarif == "-":
            print(text)
            report = sys.stderr
        else:
            with open(args.sarif, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")

    accepted_n = 0
    to_report = findings
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except FileNotFoundError:
            print(f"error: baseline {args.baseline!r} not found", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = baseline.apply(findings)
        to_report = result.new
        accepted_n = len(result.accepted)
        for entry in result.stale:
            print(
                f"warning: stale baseline entry {entry.code} {entry.path} "
                f"{entry.symbol} (no matching finding; remove it)",
                file=sys.stderr,
            )

    for finding in to_report:
        print(finding.format(hints=not args.no_hints), file=report)

    suffix = f", {accepted_n} accepted by baseline" if args.baseline else ""
    if to_report:
        print(f"{len(to_report)} finding(s) in {n_files} file(s){suffix}", file=report)
        return 1
    print(f"clean: 0 findings in {n_files} file(s){suffix}", file=report)
    return 0


def _cmd_perf(args) -> int:
    # Imported lazily: the perf package pulls in the whole simulator stack.
    from repro.perf.benches import BENCHES, run_benches
    from repro.perf.report import (
        DEFAULT_TOLERANCE,
        BenchReport,
        compare_reports,
        format_comparison,
        format_report,
        load_report,
    )

    names = _csv("only", args.only)
    if names:
        unknown = [n for n in names if n not in BENCHES]
        if unknown:
            raise _UsageError(
                f"unknown bench(es) {unknown}; choose from {list(BENCHES)}"
            )
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    if tolerance < 0.0:
        raise _UsageError("--tolerance must be >= 0")

    stored = None
    if args.baseline is not None:
        try:
            stored = load_report(args.baseline)
        except FileNotFoundError:
            print(f"error: baseline {args.baseline!r} not found", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if stored.quick != args.quick:
            # Quick and full workloads differ in size: their ratio means nothing.
            mode = "quick" if stored.quick else "full"
            print(
                f"error: baseline {args.baseline!r} is a {mode}-mode report; "
                f"rerun {'with' if stored.quick else 'without'} --quick",
                file=sys.stderr,
            )
            return 2

    def progress(name: str) -> None:
        print(f"running {name} ...", file=sys.stderr)

    if args.obs:
        from repro.obs.core import OBS_ENV_VAR

        saved_obs = os.environ.get(OBS_ENV_VAR)
        os.environ[OBS_ENV_VAR] = "1"
        try:
            results = run_benches(names, quick=args.quick, progress=progress)
        finally:
            if saved_obs is None:
                os.environ.pop(OBS_ENV_VAR, None)
            else:
                os.environ[OBS_ENV_VAR] = saved_obs
    else:
        results = run_benches(names, quick=args.quick, progress=progress)
    report = BenchReport.from_results(results, quick=args.quick)
    print(format_report(report))
    report.save(args.out)
    print(f"wrote {args.out}")

    if stored is None:
        return 0
    comparisons = compare_reports(report, stored, tolerance=tolerance)
    print()
    print(format_comparison(comparisons, tolerance=tolerance))
    return 1 if any(c.regressed for c in comparisons) else 0


def _load_obs_trace(path: str):
    """Load an obs trace, mapping load failures onto exit-code-2 errors."""
    from repro.obs.export import ObsTrace

    try:
        return ObsTrace.load_jsonl(path)
    except FileNotFoundError:
        raise _UsageError(f"trace {path!r} not found")
    except ValueError as exc:
        raise _UsageError(str(exc))


def _load_records(path: str):
    """Load a campaign artefact's records for the SLO evaluator."""
    from repro.trace.store import TraceStore

    try:
        return TraceStore.load_jsonl(path).records
    except FileNotFoundError:
        raise _UsageError(f"records {path!r} not found")
    except (ValueError, KeyError, TypeError) as exc:
        raise _UsageError(f"cannot load records {path!r}: {exc}")


def _cmd_obs(args) -> int:
    import json

    from repro.obs.export import validate_chrome_trace

    if args.obs_command == "diff":
        from repro.obs.diff import DiffTolerances, diff_traces, render_diff

        trace_a = _load_obs_trace(args.trace_a)
        trace_b = _load_obs_trace(args.trace_b)
        for name in ("duration_rel", "duration_abs", "counter_rel",
                     "counter_abs", "quantile_rel"):
            if getattr(args, name) < 0.0:
                raise _UsageError(f"--{name.replace('_', '-')} must be >= 0")
        diff = diff_traces(
            trace_a,
            trace_b,
            DiffTolerances(
                counter_rel=args.counter_rel,
                counter_abs=args.counter_abs,
                duration_rel=args.duration_rel,
                duration_abs=args.duration_abs,
                quantile_rel=args.quantile_rel,
            ),
            include_wallclock=args.include_wallclock,
        )
        print(render_diff(diff, verbose=args.verbose))
        return 0 if diff.clean else 1
    if args.obs_command == "slo":
        from repro.obs.slo import evaluate_slo, load_slo_spec, render_slo

        try:
            spec = load_slo_spec(args.spec)
        except FileNotFoundError:
            raise _UsageError(f"spec {args.spec!r} not found")
        except ValueError as exc:
            raise _UsageError(str(exc))
        records = _load_records(args.records) if args.records else None
        trace = _load_obs_trace(args.trace) if args.trace else None
        report = evaluate_slo(spec, records=records, trace=trace)
        print(render_slo(report))
        return 0 if report.clean else 1
    if args.obs_command == "report":
        from repro.obs.report import render_report
        from repro.obs.slo import evaluate_slo, load_slo_spec

        trace = _load_obs_trace(args.trace)
        slo_report = None
        if args.slo:
            try:
                spec = load_slo_spec(args.slo)
            except FileNotFoundError:
                raise _UsageError(f"spec {args.slo!r} not found")
            except ValueError as exc:
                raise _UsageError(str(exc))
            records = _load_records(args.records) if args.records else None
            slo_report = evaluate_slo(spec, records=records, trace=trace)
        html = render_report(trace, title=args.title, slo=slo_report)
        out = args.out if args.out else args.trace + ".health.html"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(html)
        print(f"wrote campaign health report to {out}")
        return 0
    if args.obs_command == "phases":
        from repro.obs.insight import attribute_trace, render_insight

        if not 0.0 < args.quantile <= 1.0:
            raise _UsageError("--quantile must be in (0, 1]")
        trace = _load_obs_trace(args.trace)
        sessions = attribute_trace(trace)
        print(render_insight(sessions, quantiles=(0.5, args.quantile)))
        return 0

    trace = _load_obs_trace(args.trace)
    if args.obs_command == "summarize":
        print(trace.summarize(top=args.top))
        return 0
    if args.obs_command == "chrome":
        data = trace.to_chrome()
        errors = validate_chrome_trace(data)
        if errors:
            for err in errors:
                print(f"error: {err}", file=sys.stderr)
            return 1
        out = args.out if args.out else args.trace + ".chrome.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(data['traceEvents'])} trace events to {out}")
        return 0
    if args.obs_command == "metrics":
        text = trace.to_prometheus()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {args.out}")
        else:
            print(text, end="")
        return 0
    raise ValueError(
        f"unknown obs command {args.obs_command!r}"
    )  # pragma: no cover


def _cmd_selfcheck(_args) -> int:
    # Imported lazily: selfcheck pulls in the whole simulator stack.
    from repro.qa.selfcheck import render_results, run_selfcheck

    results = run_selfcheck()
    print(render_results(results))
    return 0 if all(r.passed for r in results) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    handlers = {
        **{name: _run_study for name in STUDIES},
        "report": _cmd_report,
        "catalog": _cmd_catalog,
        "lint": _cmd_lint,
        "check": _cmd_check,
        "selfcheck": _cmd_selfcheck,
        "perf": _cmd_perf,
        "obs": _cmd_obs,
    }
    try:
        return handlers[args.command](args)
    except (_UsageError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnitExecutionError as exc:
        failure = exc.failure
        print(
            f"error: campaign aborted: unit {failure.unit_index} "
            f"(id {failure.unit_id}) failed {failure.attempts} attempt(s)",
            file=sys.stderr,
        )
        print(failure.error, file=sys.stderr)
        return 1
    except RunnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # The runner flushes its checkpoint before re-raising, so the run
        # is resumable; tell the user how.
        checkpoint = getattr(args, "checkpoint", None)
        hint = (
            f"; resume with --checkpoint {checkpoint} --resume"
            if checkpoint
            else ""
        )
        print(f"interrupted{hint}", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro lint | head`); exit quietly
        # like other Unix filters. Point stdout at devnull so the interpreter
        # does not raise again while flushing during shutdown.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
