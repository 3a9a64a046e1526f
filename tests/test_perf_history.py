"""``python -m repro.perf.history``: ledger entries -> committed history."""

import json

from repro.perf.history import append_history, main

PROVENANCE = {
    "cpu": "test cpu",
    "git_head": None,
    "nproc": 2,
    "numpy": "2.0",
    "python": "3.11",
    "source_sha256": "ab" * 32,
}


def _timed(run_id, workload, median):
    return {
        "run_id": run_id,
        "workload": workload,
        "seed": 2007,
        "trace": 0,
        "seconds": 40.0,
        "provenance": PROVENANCE,
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "failed_frac": 0.0,
        "problems": [],
        "metrics": {
            "wall_s": {"median": median, "q1": median - 0.5, "q3": median + 0.5, "n": 4},
        },
        "self_time_s": {"runner.execute": 3.0},
        "spans": [{"name": "run", "start": 0.0, "end": 1.0}],
    }


def _write(path, entries, junk=False):
    with open(path, "a", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry) + "\n")
        if junk:
            fh.write("{truncated\n")


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_one_line_per_entry_without_spans(tmp_path):
    ledger, history = tmp_path / "ledger.jsonl", tmp_path / "BENCH_history.jsonl"
    traced = dict(_timed("t1", "population_wave", 0.0), trace=1)
    traced["metrics"] = {"engine.ticks": 154, "self_s.vec.engine": None}
    _write(ledger, [_timed("a", "population_wave", 7.5), traced], junk=True)
    _write(ledger, [_timed("b", "fault_grid", 11.0)])

    assert append_history(str(ledger), str(history)) == 3
    lines = _lines(history)
    assert [line["run_id"] for line in lines] == ["a", "t1", "b"]
    for line in lines:
        assert set(line) == {
            "run_id", "workload", "seed", "trace", "seconds", "correct",
            "attempted", "failed", "provenance", "metrics",
        }
        assert line["provenance"] == PROVENANCE
    assert lines[0]["metrics"] == {"wall_s": {"median": 7.5, "q1": 7.0, "q3": 8.0, "n": 4}}
    assert lines[1]["metrics"] == {"engine.ticks": 154, "self_s.vec.engine": None}

    # Re-running appends nothing; a new ledger entry appends one line.
    assert append_history(str(ledger), str(history)) == 0
    _write(ledger, [_timed("c", "population_wave", 6.0)])
    assert append_history(str(ledger), str(history)) == 1
    assert [line["run_id"] for line in _lines(history)] == ["a", "t1", "b", "c"]


def test_cli_refuses_perfbench_and_missing_ledger(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    _write(ledger, [_timed("a", "fault_grid", 11.0)])
    inside = tmp_path / "perfbench" / "history.jsonl"
    assert main(["--ledger", str(ledger), "--history", str(inside)]) == 2
    assert not inside.parent.exists()
    assert main(["--ledger", str(tmp_path / "none.jsonl"),
                 "--history", str(tmp_path / "h.jsonl")]) == 2
    assert main(["--ledger", str(ledger), "--history", str(tmp_path / "h.jsonl")]) == 0
    assert "1 line(s) appended" in capsys.readouterr().out
