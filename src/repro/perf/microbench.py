"""Minimal best-of-N timing harness for kernel microbenchmarks.

Methodology (documented in DESIGN.md §"Engine performance"): each bench is a
callable that performs ``ops`` operations per invocation; we run it
``rounds`` times after a warm-up invocation and report the *minimum*
per-operation time.  The minimum — not the mean — estimates the cost of the
code itself: scheduler preemption, allocator hiccups and cache-cold first
runs only ever add time, so the fastest observed round is the least
contaminated sample (the classic ``timeit`` argument).

The workload inside a bench must be deterministic (seeded RNG, fixed sizes)
so successive runs and successive PRs measure the same work; only the
wall-clock varies.  Wall-clock access is confined to this module and the CLI
edge — the simulation core itself is wall-clock-free (QA-D004).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Measurement", "measure"]

#: Nanoseconds per second (perf_counter_ns -> per-op seconds conversions).
NS_PER_S: float = 1e9


@dataclass(frozen=True)
class Measurement:
    """Best-of-N timing for one benchmark workload."""

    #: Best observed nanoseconds per operation.
    ns_per_op: float
    #: Operations performed per round.
    ops: int
    #: Timed rounds (excluding warm-up).
    rounds: int
    #: Total wall-clock seconds spent measuring (all rounds + warm-up).
    elapsed_s: float


def measure(
    fn: Callable[[], Any],
    *,
    ops: int,
    rounds: int = 5,
    warmup: int = 1,
) -> Measurement:
    """Time ``fn`` (which performs ``ops`` operations) best-of-``rounds``.

    Parameters
    ----------
    fn:
        The workload; called once per round with no arguments.  It should
        perform ``ops`` homogeneous operations and be deterministic.
    ops:
        Operations per round, used to normalise to ns/op.  Must be positive.
    rounds:
        Timed invocations; the minimum is reported.
    warmup:
        Untimed invocations before measuring (JIT-less Python still benefits:
        imports resolve, allocators warm, branch caches fill).
    """
    if ops <= 0:
        raise ValueError(f"ops must be positive, got {ops}")
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    t_start = time.perf_counter_ns()
    for _ in range(warmup):
        fn()
    best_ns = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - t0
        if elapsed < best_ns:
            best_ns = float(elapsed)
    total_ns = float(time.perf_counter_ns() - t_start)
    return Measurement(
        ns_per_op=best_ns / float(ops),
        ops=ops,
        rounds=rounds,
        elapsed_s=total_ns / NS_PER_S,
    )
