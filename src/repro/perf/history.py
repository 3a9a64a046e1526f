"""Committed bench history: one line per perfbench ledger entry.

``perfbench/run.py`` appends every run to ``.perfbench/ledger.jsonl``, which
is local to a checkout and carries each run's spans.  This tool copies the
part worth keeping into a committed ``BENCH_history.jsonl``: per entry its
workload, seed, mode, outcome, per-metric median, quartiles and sample
count, and provenance (python, numpy, ``nproc``, CPU model, git HEAD and the
source digest).  Spans and span self times stay in the ledger.  Run from
the repository root after a benchmark run::

    python -m repro.perf.history                      # .perfbench/ledger.jsonl
    python -m repro.perf.history --ledger other/.perfbench/ledger.jsonl

Entries already in the history (same ``run_id``) are skipped, so running it
twice appends nothing.  It never writes under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["HISTORY_KEYS", "history_line", "append_history", "main"]

#: Ledger keys copied into a history line (``metrics`` is trimmed below).
HISTORY_KEYS = (
    "run_id",
    "workload",
    "seed",
    "trace",
    "seconds",
    "correct",
    "attempted",
    "failed",
    "provenance",
)

#: Summary statistics kept per timed metric.
_STATS = ("median", "q1", "q3", "n")


def _entries(path: str) -> Iterator[Dict[str, Any]]:
    """JSON objects of a JSONL file, skipping lines that do not parse."""
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                yield entry


def history_line(entry: Dict[str, Any]) -> Dict[str, Any]:
    """The history line of one ledger entry.

    A timed run's metric is its summary (median, q1, q3, n); a traced run's
    metric is a single value (or null) and is kept as it is.
    """
    line = {key: entry.get(key) for key in HISTORY_KEYS}
    line["metrics"] = {
        name: {k: value[k] for k in _STATS if k in value}
        if isinstance(value, dict)
        else value
        for name, value in sorted((entry.get("metrics") or {}).items())
    }
    return line


def append_history(ledger: str, history: str) -> int:
    """Append a line to ``history`` for each ``ledger`` entry it lacks;
    return how many were appended."""
    seen = {entry.get("run_id") for entry in _entries(history)}
    lines: List[str] = []
    for entry in _entries(ledger):
        if entry.get("run_id") in seen:
            continue
        seen.add(entry.get("run_id"))
        lines.append(json.dumps(history_line(entry), sort_keys=True))
    if lines:
        with open(history, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return len(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ledger",
        default=os.path.join(".perfbench", "ledger.jsonl"),
        help="perfbench ledger to read (default: %(default)s)",
    )
    parser.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        help="committed history to append to (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if "perfbench" in os.path.abspath(args.history).split(os.sep):
        print("error: the history is never written under perfbench/", file=sys.stderr)
        return 2
    if not os.path.isfile(args.ledger):
        print(f"error: no ledger at {args.ledger}", file=sys.stderr)
        return 2
    added = append_history(args.ledger, args.history)
    print(f"{args.history}: {added} line(s) appended")
    return 0


if __name__ == "__main__":
    sys.exit(main())
