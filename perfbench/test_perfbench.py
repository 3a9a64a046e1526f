"""Self-tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_valid():
    names = list(run.END_TO_END) + list(run.PER_LAYER) + list(run.OPTIONAL_RATIOS)
    spec = _benchmark_json()
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        assert layers.check_name(name) == name
    with pytest.raises(ValueError):
        layers.check_name("self s/tcp")


def test_benchmark_json_matches_run_py():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(pipeline.WORKLOADS)
    assert set(pipeline.load_digests()) == set(pipeline.WORKLOADS)


def test_self_time_is_span_minus_children():
    log = layers.SpanLog("synthetic")
    root = log.add("run", 0.0, 10.0)
    a = log.add("pass", 1.0, 9.0, root)
    log.add("import", 1.5, 3.0, a)
    log.add("execute", 2.5, 6.0, a)  # overlaps import: covered time counts once
    log.add("save", 7.0, 8.0, a)
    log.add("pass", 9.5, 10.0, root)
    self_s = layers.self_times(log.spans)
    assert self_s["run"] == pytest.approx(10.0 - (8.0 + 0.5))
    assert self_s["pass"] == pytest.approx((8.0 - (4.5 + 1.0)) + 0.5)
    assert self_s["import"] == pytest.approx(1.5)
    assert self_s["execute"] == pytest.approx(3.5)


def _tiny_store(path):
    from repro.trace.records import TransferRecord
    from repro.trace.store import TraceStore

    store = TraceStore(
        TransferRecord(
            study="section2", client=f"c{i}", site="eBay", repetition=0,
            start_time=0.0, set_size=1, offered=("r1",), selected_via="r1",
            direct_throughput=1.0e5, selected_throughput=2.0e5 + i,
            end_to_end_throughput=1.5e5, probe_overhead=0.25, file_bytes=1.0e6,
        )
        for i in range(3)
    )
    store.save_jsonl(path)
    return pipeline.sha256_file(path)


def test_corrupted_artefact_is_caught_and_fails_every_session(tmp_path):
    path = str(tmp_path / "store.jsonl")
    digest = _tiny_store(path)
    assert pipeline.check_artefact(path, 3, digest) == []
    assert pipeline.check_artefact(path, 4, None)  # count mismatch

    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[1] = lines[1].replace('"client": "c1"', '"client":  "c1"')
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    problems = pipeline.check_artefact(path, 3, digest)
    assert any("round trip" in p for p in problems)
    assert any("sha256" in p for p in problems)

    lines[2] = lines[2][:20] + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    assert pipeline.check_artefact(path, 3, None)  # torn line: does not load

    runner = run.Runner("paper_campaign", 1, str(tmp_path))
    runner.account({"sessions": 3, "completed": 3, "ok": True, "problems": []})
    runner.account({"sessions": 3, "completed": 3, "ok": False, "problems": problems})
    assert (runner.attempted, runner.failed) == (6, 3)
    assert layers.ratio(runner.failed, runner.attempted) == 0.5


def test_zero_base_ratios_are_absent_not_nan():
    assert layers.ratio(0.0, 0) is None
    assert layers.ratio(1.0, 4) == 0.25
    metrics = layers.obs_layer_metrics({"engine.ticks": 10.0})
    assert metrics["stripe.useful_ratio"] is None
    assert metrics["maxmin.fast_ratio"] is None
    assert metrics["alloc.cache_hit_ratio"] == 0.0
    for value in metrics.values():
        assert value is None or not math.isnan(value)
    # The result line carries only metrics with a value; zero-base ratios
    # are kept out of it by construction.
    assert not set(run.OPTIONAL_RATIOS) & set(run.PER_LAYER)


def test_profiler_layers_follow_module_paths():
    assert layers.layer_of("/x/src/repro/tcp/fluid.py") == "tcp.fluid"
    assert layers.layer_of("/x/src/repro/tcp/model.py") == "tcp.flow"
    assert layers.layer_of("/x/src/repro/vec/solver.py") == "vec.solver"
    assert layers.layer_of("/x/src/repro/trace/records.py") == "other"
    assert layers.layer_of("~") == "ext"
    assert layers.layer_of("/usr/lib/python3/site-packages/numpy/core/x.py") == "ext"
    totals = layers.self_seconds_by_layer([("/r/repro/sim/simulator.py", 1.0), ("~", 2.0)])
    assert set(totals) == set(layers.LAYERS)
    assert (totals["sim"], totals["ext"]) == (1.0, 2.0)


def test_percentiles_and_summary():
    assert layers.percentile([3.0], 99) == 3.0
    assert layers.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert layers.summarize([4.0, 1.0, 3.0, 2.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4,
    }
