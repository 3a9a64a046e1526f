"""Sanitizer self-check battery (``repro selfcheck``).

A sanitizer that silently stopped firing is worse than none, so this module
*proves* the instrumentation works in the current installation: every
``QA-R*`` invariant is exercised against a deliberately broken input (the
check must fire) and against a healthy simulation (the check must stay
silent).  All injections run in ``mode="collect"`` on throwaway kernels, so
a self-check never perturbs real state.

This module imports the simulator stack; import it lazily (the ``repro.qa``
package intentionally does not pull it in at import time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from repro.qa.sanitize import Sanitizer

__all__ = ["CheckResult", "run_selfcheck", "render_results"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one self-check."""

    name: str
    passed: bool
    detail: str


@dataclass
class _StubFlow:
    """Minimal flow-shaped object for feeding the sanitizer directly."""

    id: int
    name: str
    delivered: float
    size: float
    rate: float


def _expect_violation(sanitizer: Sanitizer, code: str, context: str) -> CheckResult:
    codes = [v.code for v in sanitizer.violations]
    if codes and codes[-1] == code:
        return CheckResult(
            name=context, passed=True, detail=f"{code} fired as expected"
        )
    return CheckResult(
        name=context,
        passed=False,
        detail=f"expected {code} to fire, sanitizer recorded {codes!r}",
    )


# --------------------------------------------------------------------------- #
# individual checks
# --------------------------------------------------------------------------- #
def _check_event_monotonicity() -> CheckResult:
    """QA-R001 must catch an event pushed behind the clock's back."""
    from repro.sim.simulator import Simulator

    sanitizer = Sanitizer(mode="collect")
    sim = Simulator(start_time=0.0, sanitizer=sanitizer)
    sim.schedule_at(2.0, lambda: None, name="legitimate")
    # Bypass schedule_at's guard the way only buggy code could: push straight
    # onto the queue once the clock has already passed the event time.
    sim.schedule_at(
        3.0,
        lambda: sim._queue.push(1.0, lambda: None, name="backdated"),  # qa: ignore[QA-S202]
        name="injector",
    )
    sim.run()
    return _expect_violation(sanitizer, "QA-R001", "event-time-monotonic fires")


def _check_flow_conservation() -> CheckResult:
    """QA-R002 must catch a delivered-bytes regression."""
    sanitizer = Sanitizer(mode="collect")
    flow = _StubFlow(id=1, name="stub", delivered=500.0, size=1000.0, rate=10.0)
    sanitizer.check_flow_progress(flow, now=1.0)
    flow.delivered = 400.0  # regression: bytes "undelivered"
    sanitizer.check_flow_progress(flow, now=2.0)
    return _expect_violation(sanitizer, "QA-R002", "flow-byte-conservation fires")


def _check_overdelivery() -> CheckResult:
    """QA-R002 must also catch delivery beyond the requested size."""
    sanitizer = Sanitizer(mode="collect")
    flow = _StubFlow(id=2, name="stub2", delivered=1500.0, size=1000.0, rate=10.0)
    sanitizer.check_flow_progress(flow, now=1.0)
    return _expect_violation(sanitizer, "QA-R002", "flow over-delivery fires")


def _check_link_capacity() -> CheckResult:
    """QA-R004 must catch an oversubscribed link."""
    sanitizer = Sanitizer(mode="collect")
    capacities = np.array([100.0])
    lids, frow = np.array([0, 0]), np.array([0, 1])  # both flows cross link 0
    caps = np.array([np.inf, np.inf])
    rates = np.array([80.0, 80.0])  # 160 > 100: infeasible
    sanitizer.check_allocation(
        0.0, capacities, lids, frow, caps, rates, ["access:stub"]
    )
    return _expect_violation(sanitizer, "QA-R004", "link-capacity-respected fires")


def _check_allocation_fairness() -> CheckResult:
    """QA-R003 must catch a feasible but non-max-min allocation."""
    sanitizer = Sanitizer(mode="collect")
    capacities = np.array([100.0])
    lids, frow = np.array([0, 0]), np.array([0, 1])  # both flows cross link 0
    caps = np.array([np.inf, np.inf])
    rates = np.array([10.0, 20.0])  # link not full, flow 0 not bottlenecked
    sanitizer.check_allocation(
        0.0, capacities, lids, frow, caps, rates, ["access:stub"]
    )
    return _expect_violation(sanitizer, "QA-R003", "maxmin-allocation-valid fires")


@dataclass
class _StubOutcome:
    winner: object
    probes: Tuple[object, ...]
    started_at: float
    decided_at: float
    probe_bytes: float


@dataclass
class _StubPath:
    label: str


def _check_probe_accounting() -> CheckResult:
    """QA-R005 must catch a probe phase that ends before it starts."""
    sanitizer = Sanitizer(mode="collect")
    outcome = _StubOutcome(
        winner=_StubPath(label="direct"),
        probes=(),
        started_at=10.0,
        decided_at=9.0,  # decided before started
        probe_bytes=100_000.0,
    )
    sanitizer.check_probe_outcome(outcome, ["direct"])
    return _expect_violation(sanitizer, "QA-R005", "probe-accounting fires")


def _check_fault_window_blackout() -> CheckResult:
    """QA-R006 must catch traffic crossing a registered blackout window."""
    sanitizer = Sanitizer(mode="collect")
    sanitizer.watch_fault_windows({"wan:stub": [(5.0, 15.0)]})
    capacities = np.array([100.0])
    lids, frow = np.array([0]), np.array([0])
    caps = np.array([np.inf])
    rates = np.array([50.0])  # link is supposed to be dead at t=10
    sanitizer.check_allocation(10.0, capacities, lids, frow, caps, rates, ["wan:stub"])
    return _expect_violation(sanitizer, "QA-R006", "fault-window-blackout fires")


@dataclass
class _StubRecoveryEvent:
    time: float
    kind: str
    bytes_received: float


@dataclass
class _StubSessionResult:
    client: str
    server: str
    resource: str
    requested_at: float
    completed_at: float
    remainder_started_at: object
    size: float
    recovery_events: Tuple[object, ...]
    bytes_received: float


def _check_recovery_bytes_monotone() -> CheckResult:
    """QA-R007 must catch a recovery timeline whose byte count regresses."""
    sanitizer = Sanitizer(mode="collect")
    result = _StubSessionResult(
        client="Italy",
        server="eBay",
        resource="/download",
        requested_at=0.0,
        completed_at=100.0,
        remainder_started_at=None,
        size=4.0e6,
        recovery_events=(
            _StubRecoveryEvent(time=10.0, kind="stall", bytes_received=2.0e6),
            _StubRecoveryEvent(time=20.0, kind="failover", bytes_received=1.0e6),
        ),
        bytes_received=4.0e6,
    )
    sanitizer.check_session_result(result)
    return _expect_violation(sanitizer, "QA-R007", "recovery-bytes-monotone fires")


def _check_clean_run() -> CheckResult:
    """A healthy two-flow contention scenario must produce zero violations."""
    from repro.net.link import Link
    from repro.net.route import Route
    from repro.net.trace import CapacityTrace
    from repro.sim.simulator import Simulator
    from repro.tcp.fluid import FluidNetwork

    sanitizer = Sanitizer(mode="raise")
    sim = Simulator(sanitizer=sanitizer)
    net = FluidNetwork(sim)
    shared = Link(
        "access:stub", "stub", "stub",
        CapacityTrace([0.0, 5.0], [1000.0, 400.0]), delay=0.01,
    )
    tail = Link("wan:stub", "src", "stub", CapacityTrace([0.0], [800.0]), delay=0.02)
    route_a = Route(links=(shared, tail))
    route_b = Route(links=(shared,))
    net.start_flow(route_a, 4000.0, name="a")
    net.start_flow(route_b, 2500.0, name="b")
    sim.run()
    if net.completed_count != 2:
        return CheckResult(
            name="clean run stays silent",
            passed=False,
            detail=f"expected 2 completions, got {net.completed_count}",
        )
    if sanitizer.violations:
        return CheckResult(
            name="clean run stays silent",
            passed=False,
            detail=f"unexpected violations: {[v.code for v in sanitizer.violations]}",
        )
    return CheckResult(
        name="clean run stays silent",
        passed=True,
        detail=f"{sanitizer.checks_run} checks, 0 violations",
    )


_CHECKS: Tuple[Callable[[], CheckResult], ...] = (
    _check_event_monotonicity,
    _check_flow_conservation,
    _check_overdelivery,
    _check_link_capacity,
    _check_allocation_fairness,
    _check_probe_accounting,
    _check_fault_window_blackout,
    _check_recovery_bytes_monotone,
    _check_clean_run,
)


def run_selfcheck() -> List[CheckResult]:
    """Run the full battery; a check that raises counts as failed."""
    results: List[CheckResult] = []
    for check in _CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # noqa: BLE001 - report, don't crash the CLI
            results.append(
                CheckResult(
                    name=check.__name__.replace("_check_", "").replace("_", " "),
                    passed=False,
                    detail=f"raised {type(exc).__name__}: {exc}",
                )
            )
    return results


def render_results(results: List[CheckResult]) -> str:
    """Render the battery outcome as aligned terminal text."""
    width = max(len(r.name) for r in results) if results else 0
    lines = [
        f"{'ok' if r.passed else 'FAIL':4s} {r.name:<{width}s}  {r.detail}"
        for r in results
    ]
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(
        f"selfcheck: {len(results) - n_fail}/{len(results)} invariant checks healthy"
    )
    return "\n".join(lines)
