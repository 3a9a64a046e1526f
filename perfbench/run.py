"""Layer-by-layer benchmark of the study pipeline (see perfbench/README.md).

Run from the repository root::

    python3 perfbench/run.py --workload fault_grid --seed 2007 --seconds 40 --trace 0

``--trace 0`` repeats the workload, one fresh interpreter per iteration,
until ``--seconds`` have passed, and reports the median of each end-to-end
metric.  ``--trace 1`` runs the traced passes once and reports the per-layer
metrics.  Either way the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every run is also
appended, with its spans and provenance, to ``.perfbench/ledger.jsonl``.
The exit code is 0 only when every artefact check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402
from pipeline import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
PIPELINE = os.path.join(HERE, "pipeline.py")
OUT_DIR = ".perfbench"
#: Every run, pass or not, ends well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0

#: End-to-end metrics: name -> unit (timed runs, tracing off).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "transfers_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit (the traced run).
PER_LAYER = {
    "import.s": "s",
    "import.modules": "count",
    "scenario.build_s": "s",
    "runner.plan_s": "s",
    "runner.units": "count",
    "runner.execute_s": "s",
    "trace.save_s": "s",
    "trace.bytes": "bytes",
    "analysis.render_s": "s",
    "process.self_s": "s",
    "runner.worker_idle_frac": "ratio",
    "runner.failed_attempts": "count",
    "runner.retried_units": "count",
    "runner.unit_p50_ms": "ms",
    "runner.unit_p99_ms": "ms",
    "runner.queue_wait_p50_s": "s",
    "runner.queue_wait_p99_s": "s",
    "sim.events": "count",
    "engine.ticks": "count",
    "alloc.solves": "count",
    "alloc.cache_hit_ratio": "ratio",
    "maxmin.progressive_rounds": "count",
    "maxmin.fast_solves": "count",
    "probe.rounds": "count",
    "stripe.blocks.issued": "count",
    "stripe.blocks.committed": "count",
    "recovery.failover": "count",
    "obs.overhead_frac": "ratio",
    "trace.overhead_frac": "ratio",
    **{f"self_s.{layer}": "s" for layer in layers.LAYERS},
}

#: Ratios whose base can be zero on some workload: reported on stdout and in
#: the ledger, absent where the base is zero, never in the result line.
OPTIONAL_RATIOS = {"maxmin.fast_ratio": "ratio", "stripe.useful_ratio": "ratio"}

#: Pipeline span name -> the per-layer metric that sums its durations.
TIMED_CALLS = {
    "import": "import.s",
    "scenario.build": "scenario.build_s",
    "runner.plan": "runner.plan_s",
    "runner.execute": "runner.execute_s",
    "trace.save": "trace.save_s",
    "analysis.render": "analysis.render_s",
}


# --------------------------------------------------------------------------- #
# child processes
# --------------------------------------------------------------------------- #
def _become_subreaper() -> None:
    """Adopt orphans of our children (the multiprocessing resource tracker
    outlives a pipeline by a moment), so they can be waited for."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, and _reap_group still waits


def _reap_group(pgid: int, grace: float = 10.0) -> None:
    """Wait until every process of a child's process group has ended."""
    deadline = time.monotonic() + grace
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            deadline = time.monotonic() + grace
        time.sleep(0.02)


def run_child(
    cmd: List[str], env: Dict[str, str], timeout: float
) -> Tuple[Optional[Dict[str, Any]], float, float, float, str]:
    """Run one pipeline process in its own process group.

    Returns (parsed last stdout line or None, start, end, cpu seconds of the
    whole process tree, error text).
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err = f"timed out after {timeout:.0f}s\n{err}"
    end = time.monotonic()
    _reap_group(proc.pid)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    result = None
    if proc.returncode == 0 and out.strip():
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except json.JSONDecodeError:
            err = f"unparseable pipeline output\n{err}"
    elif not err:
        err = f"exit code {proc.returncode}"
    return result, start, end, cpu, err


class Runner:
    """One benchmark run: its child processes, spans and accounting."""

    def __init__(self, workload: str, seed: int, root: str):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.run_id = f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}"
        self.tmp = os.path.join(root, OUT_DIR, "tmp", self.run_id)
        self.started = time.monotonic()
        self.spans = layers.SpanLog(self.run_id)
        self.root_span = self.spans.add("run", self.started, self.started)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            TMPDIR=self.tmp,
        )
        self.env.pop("REPRO_OBS", None)
        self.env.pop("REPRO_OBS_DIR", None)
        self.last_sessions = 1
        self.numpy_version: Optional[str] = None

    def warm_up(self) -> None:
        """Compile bytecode and load the program once, untimed: users do not
        pay compilation or a cold file cache on every run."""
        for cmd in (["-m", "compileall", "-q", "src", HERE], ["-c", "import repro.cli"]):
            subprocess.run(
                [sys.executable, *cmd],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, check=True,
            )

    def run_pass(self, mode: str, jobs: int, index: int) -> Optional[Dict[str, Any]]:
        """One pipeline process; returns its result with wall and cpu added."""
        out = os.path.join(self.tmp, f"{mode}{index}")
        env = dict(self.env)
        if mode == "obs":
            shards = os.path.join(out, "shards")
            os.makedirs(shards, exist_ok=True)
            env.update(REPRO_OBS="1", REPRO_OBS_DIR=shards)
        os.makedirs(self.tmp, exist_ok=True)
        cmd = [
            sys.executable, PIPELINE, "--workload", self.workload,
            "--seed", str(self.seed), "--mode", mode, "--jobs", str(jobs),
            "--out", out,
        ]
        remaining = RUN_BUDGET_S - (time.monotonic() - self.started)
        result, start, end, cpu, err = run_child(cmd, env, remaining)
        shutil.rmtree(out, ignore_errors=True)
        sid = self.spans.add(f"pass.{mode}", start, end, self.root_span)
        if result is None:
            self.account(None, f"{mode} pass failed: {err.strip()[-2000:]}")
            return None
        for name, t0, t1 in result["spans"]:
            self.spans.add(name, t0, t1, sid)
        self.numpy_version = result["numpy"]
        self.account(result)
        result["wall_s"] = end - start
        result["cpu_s"] = cpu
        result["span_id"] = sid
        return result

    def account(self, result: Optional[Dict[str, Any]], error: str = "") -> None:
        """Count one pass's sessions as attempted, and its failures."""
        if result is None:
            # The pass died before it could say how many sessions it had.
            self.attempted += self.last_sessions
            self.failed += self.last_sessions
            self.problems.append(error)
            return
        self.last_sessions = result["sessions"]
        self.attempted += result["sessions"]
        if not result["ok"]:
            # A failed artefact check counts every unit of the run as failed.
            self.failed += result["sessions"]
            self.problems.extend(result["problems"] or ["sessions did not complete"])

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        root = self.spans.spans[self.root_span]
        root.end = time.monotonic()


def span_total(result: Dict[str, Any], name: str) -> float:
    return sum(t1 - t0 for n, t0, t1 in result["spans"] if n == name)


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of one timed iteration."""
    return {
        "wall_s": result["wall_s"],
        "setup_s": sum(span_total(result, n) for n in ("import", "scenario.build", "runner.plan")),
        "transfers_per_s": result["completed"] / span_total(result, "runner.execute"),
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def measure(runner: Runner, seconds: float) -> Dict[str, Dict[str, float]]:
    """Closed loop: one study run after another while the next is expected
    to end within ``seconds``; at least two, so a slow host still yields a
    median of several."""
    jobs = WORKLOADS[runner.workload][0]
    samples: Dict[str, List[float]] = {name: [] for name in END_TO_END}
    t0 = time.monotonic()
    index = 0
    while True:
        result = runner.run_pass("plain", jobs, index)
        index += 1
        if result is not None:
            for name, value in end_to_end(result).items():
                samples[name].append(value)
        elapsed = time.monotonic() - t0
        if index >= 2 and elapsed + elapsed / index > min(seconds, RUN_BUDGET_S - 10):
            break
    return {name: layers.summarize(v) for name, v in samples.items() if v}


def trace(runner: Runner) -> Dict[str, Optional[float]]:
    """The traced run: plain, obs and profiler passes over the same seed."""
    jobs = WORKLOADS[runner.workload][0]
    plain = runner.run_pass("plain", jobs, 0)
    obs = runner.run_pass("obs", jobs, 0)
    serial = plain if jobs == 1 else runner.run_pass("plain", 1, 1)
    profile = runner.run_pass("profile", 1, 0)
    if None in (plain, obs, serial, profile):
        return {}
    out: Dict[str, Optional[float]] = {
        metric: span_total(plain, name) for name, metric in TIMED_CALLS.items()
    }
    execute_s = out["runner.execute_s"]
    self_s = layers.self_times(
        [s for s in runner.spans.spans if s.sid == plain["span_id"] or s.parent == plain["span_id"]]
    )
    out.update(
        {
            "import.modules": plain["import_modules"],
            "runner.units": plain["units"],
            "trace.bytes": plain["trace_bytes"],
            "process.self_s": self_s["pass.plain"],
            "runner.worker_idle_frac": 1.0 - plain["execute_cpu_s"] / (jobs * execute_s),
            "runner.failed_attempts": plain["failed_attempts"],
            "runner.retried_units": plain["retried_units"],
            "obs.overhead_frac": span_total(obs, "runner.execute") / execute_s - 1.0,
            "trace.overhead_frac": span_total(profile, "runner.execute")
            / span_total(serial, "runner.execute") - 1.0,
        }
    )
    out.update(obs["obs"])
    out.update({f"self_s.{layer}": s for layer, s in profile["self_s"].items()})
    return out


# --------------------------------------------------------------------------- #
# provenance and the ledger
# --------------------------------------------------------------------------- #
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_head(root: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(root: str) -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


#: Provenance keys that must agree before two ledger entries are compared.
ENV_KEYS = ("python", "numpy", "nproc", "cpu")


def provenance(root: str, numpy_version: Optional[str]) -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_head": _git_head(root),
        "source_sha256": _source_digest(root),
    }


def compare_with_ledger(
    ledger: str, entry: Dict[str, Any]
) -> List[str]:
    """Drift lines against the previous entry of the same workload, seed and
    mode, or one line flagging that the environments differ."""
    previous = None
    if os.path.exists(ledger):
        with open(ledger, encoding="utf-8") as fh:
            for line in fh:
                try:
                    old = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if all(old.get(k) == entry[k] for k in ("workload", "seed", "trace")):
                    previous = old
    if previous is None:
        return ["no earlier ledger entry to compare with"]
    differs = [
        k for k in ENV_KEYS if previous["provenance"].get(k) != entry["provenance"].get(k)
    ]
    if differs:
        return [
            f"environment differs from {previous['run_id']} in {', '.join(differs)}: "
            "not compared"
        ]
    lines = []
    for name, now in entry["metrics"].items():
        before = previous["metrics"].get(name)
        if not isinstance(now, dict) or not isinstance(before, dict):
            continue
        change = layers.ratio(now["median"] - before["median"], before["median"])
        if change is not None:
            lines.append(f"{name}: {change:+.1%} vs {previous['run_id']}")
    return lines


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: run from the repository root (src/repro/cli.py not found)",
              file=sys.stderr)
        return 2
    _become_subreaper()
    runner = Runner(args.workload, args.seed, root)
    runner.warm_up()
    if args.trace:
        values = trace(runner)
        units = {**PER_LAYER, **OPTIONAL_RATIOS}
        metrics: Dict[str, Any] = {name: values.get(name) for name in units}
    else:
        metrics = measure(runner, args.seconds)
        units = END_TO_END
    runner.close()

    correct = not runner.problems and runner.failed == 0
    entry = {
        "run_id": runner.run_id,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(root, runner.numpy_version),
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_frac": layers.ratio(runner.failed, runner.attempted),
        "problems": runner.problems,
        "metrics": metrics,
        "self_time_s": layers.self_times(runner.spans.spans),
        "spans": [s.to_dict() for s in runner.spans.spans],
    }
    ledger = os.path.join(root, OUT_DIR, "ledger.jsonl")
    for line in compare_with_ledger(ledger, entry):
        print(f"ledger: {line}")
    os.makedirs(os.path.dirname(ledger), exist_ok=True)
    with open(ledger, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")

    for problem in runner.problems:
        print(f"problem: {problem}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={runner.attempted} failed={runner.failed} "
          f"failed_frac={entry['failed_frac']}")
    for name, unit in units.items():
        value = metrics.get(name)
        if isinstance(value, dict):
            print(f"  {name:<28} {value['median']:.6g} {unit}  "
                  f"[q1 {value['q1']:.6g}, q3 {value['q3']:.6g}]  n={value['n']}")
        else:
            print(f"  {name:<28} {'absent' if value is None else f'{value:.6g}'} {unit}")
    listed = END_TO_END if not args.trace else PER_LAYER
    result_metrics = {}
    for name, unit in listed.items():
        value = metrics.get(name)
        if isinstance(value, dict):
            value = value["median"]
        if value is not None:
            result_metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, runner.attempted),
        "failed": runner.failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
