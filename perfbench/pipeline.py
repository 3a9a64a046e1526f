"""One pass of one benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per measured iteration, with ``src`` on
``PYTHONPATH`` and the checkout root as working directory::

    python3 perfbench/pipeline.py --workload fault_grid --seed 2007 \\
        --mode plain --jobs 2 --out .perfbench/tmp/it0

It calls the same public functions the CLI calls and times each call from
outside: ``import repro.cli``, ``Scenario.build``, the study planner,
``execute_plan``, ``TraceStore.save_jsonl`` and the study renderer.  Then it
checks every artefact it wrote and prints one JSON object on stdout.

Modes:

``plain``
    timed calls only (the end-to-end numbers);
``obs``
    the program's own observer on (``REPRO_OBS=1`` comes from the
    environment), worker shards merged; adds counts and runner unit and
    queue-wait numbers;
``profile``
    cProfile around everything after the import; adds self seconds by layer.

Wall-clock readings stay in this process's output; no study artefact sees
them.
"""

import sys
import time


def _timed_import():
    before = len(sys.modules)
    t0 = time.monotonic()
    import repro.cli  # noqa: F401  (the CLI's own start-up cost)

    t1 = time.monotonic()
    return t0, t1, len(sys.modules) - before


# Spawned runner workers re-import this file as ``__mp_main__``; everything
# below that does work sits under the ``__main__`` check.
if __name__ == "__main__":
    _IMPORT = _timed_import()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Tuple  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402

#: The seed the recorded artefact digests belong to (the CLI default).
DEFAULT_SEED = 2007
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass(frozen=True)
class Study:
    """One study as the CLI runs it: scenario, planner and renderer."""

    name: str
    spec: Callable[[], Any]
    plan: Callable[[Any], Any]
    render: Callable[[Any], str]
    #: Sessions a store holds and how many completed; default one per record.
    sessions: Callable[[Any], Tuple[int, int]] = lambda store: (len(store), len(store))


def _section2() -> Study:
    from repro.workloads.experiment import Section2Study
    from repro.workloads.planetlab import SITES
    from repro.workloads.scenario import ScenarioSpec
    from repro.analysis import full_report

    return Study(
        "section2",
        lambda: ScenarioSpec.section2(sites=SITES),
        lambda sc: Section2Study(sc, repetitions=30).plan(sites=SITES),
        full_report,
    )


def _section4() -> Study:
    from repro.workloads.experiment import Section4Study
    from repro.workloads.scenario import ScenarioSpec
    from repro.analysis import full_report

    set_sizes = (1, 2, 4, 6, 10, 16, 24, 35)  # `repro section4` defaults
    return Study(
        "section4",
        ScenarioSpec.section4,
        lambda sc: Section4Study(sc, repetitions=40).plan_random_set_sweep(set_sizes),
        full_report,
    )


def _chaos() -> Study:
    from repro.analysis.chaos import render_chaos
    from repro.chaos.faults import FAULT_FAMILIES, FAULT_INTENSITIES
    from repro.workloads.chaos import (
        CHAOS_SESSION_CONFIG,
        ChaosStudyParams,
        plan_chaos,
    )
    from repro.workloads.scenario import ScenarioSpec

    return Study(
        "chaos",
        lambda: ScenarioSpec.section2(sites=("eBay",)),
        lambda sc: plan_chaos(
            sc,
            repetitions=1,
            interval=360.0,
            k=3,
            families=FAULT_FAMILIES,
            intensities=FAULT_INTENSITIES,
            config=CHAOS_SESSION_CONFIG,
            params=ChaosStudyParams(),
            site="eBay",
        ),
        lambda store: render_chaos(store.records),
    )


def _scale() -> Study:
    from repro.analysis.scale import render_scale
    from repro.workloads.scale import (
        SCALE_SESSION_CONFIG,
        ScaleStudyParams,
        plan_scale,
    )
    from repro.workloads.scenario import ScenarioSpec

    def clients(store: Any) -> Tuple[int, int]:
        return (
            sum(r.n_clients for r in store),
            sum(r.n_completed for r in store),
        )

    return Study(
        "scale",
        lambda: ScenarioSpec.section2(sites=("eBay",)),
        lambda sc: plan_scale(
            sc,
            waves=1,
            config=SCALE_SESSION_CONFIG,
            params=ScaleStudyParams(clients_per_wave=100_000, n_relays=4),
            site="eBay",
        ),
        lambda store: render_scale(store.records),
        clients,
    )


#: Workload name -> (runner worker processes, studies run one after another).
WORKLOADS: Dict[str, Tuple[int, Tuple[Callable[[], Study], ...]]] = {
    "paper_campaign": (1, (_section2, _section4)),
    "fault_grid": (2, (_chaos,)),
    "population_wave": (1, (_scale,)),
}


def load_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_artefact(
    path: str, expected_records: int, expected_digest: Optional[str]
) -> List[str]:
    """Problems with one saved store (empty when it passes).

    The store must hold one record per planned unit, must round-trip through
    ``TraceStore.load_jsonl`` -> ``save_jsonl`` byte-identically, and, when a
    digest is given, must match it.
    """
    from repro.trace.store import TraceStore

    problems = []
    try:
        store = TraceStore.load_jsonl(path)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{path}: does not load: {exc!r}"]
    if len(store) != expected_records:
        problems.append(
            f"{path}: {len(store)} records, plan has {expected_records} units"
        )
    copy = path + ".roundtrip"
    store.save_jsonl(copy)
    try:
        with open(path, "rb") as a, open(copy, "rb") as b:
            if a.read() != b.read():
                problems.append(f"{path}: load/save round trip is not byte-identical")
    finally:
        os.remove(copy)
    if expected_digest is not None:
        actual = sha256_file(path)
        if actual != expected_digest:
            problems.append(f"{path}: sha256 {actual} != recorded {expected_digest}")
    return problems


def _obs_metrics(trace: Any) -> Dict[str, Any]:
    unit_ms = [
        r.duration * 1e3 for r in trace.records if r.kind == "span" and r.category == "unit"
    ]
    wait = trace.histograms.get("runner.queue_wait_seconds")
    out: Dict[str, Any] = dict(layers.obs_layer_metrics(trace.counters))
    out.update(
        {
            "runner.unit_p50_ms": layers.percentile(unit_ms, 50) if unit_ms else None,
            "runner.unit_p99_ms": layers.percentile(unit_ms, 99) if unit_ms else None,
            # Only the parallel path queues units; inline units never wait.
            "runner.queue_wait_p50_s": wait.quantile(0.5) if wait else 0.0,
            "runner.queue_wait_p99_s": wait.quantile(0.99) if wait else 0.0,
        }
    )
    return out


def run_pass(workload: str, seed: int, mode: str, jobs: int, out_dir: str) -> Dict[str, Any]:
    """Run every study of ``workload`` once and check the artefacts."""
    from repro.obs.core import global_observer, reset_global_observer
    from repro.obs.export import ObsTrace
    from repro.runner import execute_plan
    from repro.workloads.scenario import Scenario

    import_t0, import_t1, import_modules = _IMPORT
    spans: List[Tuple[str, float, float]] = [("import", import_t0, import_t1)]

    def timed(name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        t0 = time.monotonic()
        value = fn(*args, **kwargs)
        spans.append((name, t0, time.monotonic()))
        return value

    digests = load_digests().get(workload, {}) if seed == DEFAULT_SEED else {}
    os.makedirs(out_dir, exist_ok=True)

    obs_traces: list = []
    profiler = None
    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    usage = resource.RUSAGE_CHILDREN if jobs > 1 else resource.RUSAGE_SELF
    result: Dict[str, Any] = {
        "units": 0, "sessions": 0, "completed": 0, "trace_bytes": 0,
        "failed_attempts": 0, "retried_units": 0, "execute_cpu_s": 0.0,
        "problems": [],
    }
    for make_study in WORKLOADS[workload][1]:
        study = make_study()
        scenario = timed("scenario.build", Scenario.build, study.spec(), seed=seed)
        plan = timed("runner.plan", study.plan, scenario)
        if mode == "obs":
            # A fresh observer per study, as `repro <study> --obs` installs.
            reset_global_observer()
            observer = global_observer(create=True)
        before = resource.getrusage(usage)
        run = timed("runner.execute", execute_plan, plan, scenario=scenario, jobs=jobs)
        after = resource.getrusage(usage)
        result["execute_cpu_s"] += (after.ru_utime - before.ru_utime) + (
            after.ru_stime - before.ru_stime
        )
        if mode == "obs":
            obs_traces.append(ObsTrace.from_observer(observer))
            # Worker shards of this call; the next call's workers reuse the names.
            shard_dir = os.environ["REPRO_OBS_DIR"]
            for name in sorted(os.listdir(shard_dir)):
                obs_traces.append(ObsTrace.load_jsonl(os.path.join(shard_dir, name)))
                os.remove(os.path.join(shard_dir, name))
            reset_global_observer()
        store = run.store
        path = os.path.join(out_dir, f"{study.name}.jsonl")
        timed("trace.save", store.save_jsonl, path)
        timed("analysis.render", study.render, store)
        sessions, completed = study.sessions(store)
        result["units"] += len(plan)
        result["sessions"] += sessions
        result["completed"] += completed
        result["trace_bytes"] += os.path.getsize(path)
        result["failed_attempts"] += run.summary.failed_attempts
        result["retried_units"] += run.summary.retried_units
        result["problems"] += timed(
            "artefact.check", check_artefact, path, len(plan), digests.get(study.name)
        )
        os.remove(path)

    if profiler is not None:
        import pstats

        profiler.disable()
        stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
        result["self_s"] = layers.self_seconds_by_layer(
            (key[0], entry[2]) for key, entry in stats.items()
        )
    if mode == "obs":
        result["obs"] = _obs_metrics(ObsTrace.merge(obs_traces))

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(own, workers) / 1024.0  # ru_maxrss is in KiB
    result["import_modules"] = import_modules
    result["numpy"] = sys.modules["numpy"].__version__
    result["spans"] = spans
    result["ok"] = not result["problems"] and result["completed"] == result["sessions"]
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "obs", "profile"), required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the artefacts")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.mode, args.jobs, args.out)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
