"""Deterministic microbenchmarks for the simulation kernel's hot paths.

Each bench measures one kernel (scalar trace queries, max-min allocation,
event-queue churn, the fluid tick, the striped session's block
scheduler, the scenario build); end-to-end study timings
are perfbench's job (``perfbench/run.py``).  The **optimised** number is
the code the studies run.  A bench also reports a **baseline** where a
live reference implementation of the same kernel exists and the tests
hold the two equal:
the ``searchsorted`` trace lookups (``CapacityTrace.value_at``), and the
sparse ``waterfill_sparse`` under ``maxmin_scalar``, which returns its
bits.  Every other bench reports ``baseline: null``; drift over time is
``repro perf --baseline``'s job.

Workloads are seeded and fixed-size, so successive runs (and successive
PRs) measure identical work.  Results are plain dicts; the ``repro perf``
CLI assembles them into ``BENCH_engine.json`` via :mod:`repro.perf.report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.link import Link
from repro.net.route import Route
from repro.net.trace import CapacityTrace, TraceCursor
from repro.perf.microbench import Measurement, measure
from repro.sim.event_queue import Event, EventQueue
from repro.sim.simulator import Simulator
from repro.tcp.fluid import FluidNetwork
from repro.tcp.maxmin import maxmin_scalar
from repro.tcp.model import SlowStartRamp
from repro.util.rng import derive_seed
from repro.util.units import MB, mbps_to_bytes_per_s
from repro.vec.solver import flow_coords, waterfill_sparse
from repro.workloads.scale import ScaleStudyParams

__all__ = ["BenchSpec", "BENCHES", "run_benches"]

#: Root seed for every bench workload (fixed: benches must measure
#: identical work across runs and PRs).
_BENCH_SEED = 1894


@dataclass(frozen=True)
class BenchSpec:
    """One named benchmark: a deterministic workload plus how to report it."""

    name: str
    summary: str
    unit: str
    runner: Callable[[bool], Dict[str, Any]]

    def run(self, quick: bool) -> Dict[str, Any]:
        """Execute the bench; returns the result dict for the report."""
        result = self.runner(quick)
        result["unit"] = self.unit
        optimised = result.get("optimised")
        baseline = result.get("baseline")
        if (
            isinstance(optimised, float)
            and isinstance(baseline, float)
            and optimised > 0.0
        ):
            result["speedup"] = baseline / optimised
        else:
            result["speedup"] = None
        return result


def _measurement_fields(m: Measurement) -> Dict[str, Any]:
    return {"ops": m.ops, "rounds": m.rounds}


def _measure_counted(run: Callable[[], int], *, rounds: int) -> Measurement:
    """Time ``run`` per op, where each call returns the ops it performed.

    A first warm-up-plus-one call learns the op count (its wall time is
    added to ``elapsed_s``); the timed rounds then normalise by it.
    """
    ops = 0

    def call() -> None:
        nonlocal ops
        ops = run()

    first = measure(call, ops=1, rounds=1, warmup=1)
    if ops <= 0:  # pragma: no cover - defensive
        raise RuntimeError("bench workload performed no operations")
    m = measure(call, ops=ops, rounds=rounds, warmup=0)
    return Measurement(
        ns_per_op=m.ns_per_op,
        ops=m.ops,
        rounds=m.rounds,
        elapsed_s=m.elapsed_s + first.elapsed_s,
    )


# --------------------------------------------------------------------------- #
# trace scalar queries: cursor vs searchsorted
# --------------------------------------------------------------------------- #
def _bench_trace_scalar(quick: bool) -> Dict[str, Any]:
    pieces = 500 if quick else 2_000
    queries = 5_000 if quick else 50_000
    rounds = 3 if quick else 5
    rng = np.random.default_rng(derive_seed(_BENCH_SEED, "trace-scalar"))
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 2.0, size=pieces - 1))))
    values = rng.uniform(1.0, 100.0, size=pieces)
    trace = CapacityTrace(times, values)
    horizon = float(times[-1]) * 1.05
    query_times = np.sort(rng.uniform(0.0, horizon, size=queries)).tolist()

    def run_cursor() -> float:
        cursor = TraceCursor(trace)
        acc = 0.0
        for t in query_times:
            acc += cursor.value_at(t)
            acc += cursor.next_change_after(t)
        return acc

    def run_searchsorted() -> float:
        acc = 0.0
        for t in query_times:
            acc += trace.value_at(t)
            acc += trace.next_change_after(t)
        return acc

    ops = queries * 2
    opt = measure(run_cursor, ops=ops, rounds=rounds)
    base = measure(run_searchsorted, ops=ops, rounds=rounds)
    return {
        "optimised": opt.ns_per_op,
        "baseline": base.ns_per_op,
        **_measurement_fields(opt),
    }


# --------------------------------------------------------------------------- #
# event queue churn
# --------------------------------------------------------------------------- #
def _bench_event_queue(quick: bool) -> Dict[str, Any]:
    n_events = 2_000 if quick else 20_000
    rounds = 3 if quick else 5
    rng = np.random.default_rng(derive_seed(_BENCH_SEED, "event-queue"))
    event_times = rng.uniform(0.0, 1_000.0, size=n_events).tolist()
    cancel_every = 7

    def run() -> int:
        queue = EventQueue()
        push = queue.push
        noop = _noop
        cancels: List[Event] = []
        for i, t in enumerate(event_times):
            event = push(t, noop)
            if i % cancel_every == 0:
                cancels.append(event)
        for event in cancels:
            queue.cancel(event)
        popped = 0
        while queue.pop() is not None:
            popped += 1
        return popped

    # One op = one push + its share of cancels/pops.
    m = measure(run, ops=n_events, rounds=rounds)
    return {"optimised": m.ns_per_op, "baseline": None, **_measurement_fields(m)}


def _noop() -> None:
    return None


# --------------------------------------------------------------------------- #
# max-min allocation: the sparse solve and the scalar solver
# --------------------------------------------------------------------------- #
def _random_shared_problem(
    rng: np.random.Generator, n_flows: int, n_links: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(capacities, lids, frow, caps)`` of flows that all cross link 0."""
    capacities = rng.uniform(1.0, 100.0, size=n_links)
    incidence = np.zeros((n_links, n_flows), dtype=bool)
    for j in range(n_flows):
        picks = rng.choice(n_links, size=max(2, n_links // 3), replace=False)
        incidence[picks, j] = True
    # Guarantee sharing: every flow also crosses link 0.
    incidence[0, :] = True
    caps = rng.uniform(1.0, 120.0, size=n_flows)
    frow, lids = np.nonzero(incidence.T)
    return capacities, lids, frow, caps


def _bench_alloc_shared(quick: bool) -> Dict[str, Any]:
    n_problems = 100 if quick else 400
    rounds = 3 if quick else 5
    rng = np.random.default_rng(derive_seed(_BENCH_SEED, "alloc-shared"))
    problems = [
        _random_shared_problem(
            rng, n_flows=int(rng.integers(2, 12)), n_links=int(rng.integers(4, 16))
        )
        for _ in range(n_problems)
    ]

    def run() -> None:
        for c, lids, frow, caps in problems:
            waterfill_sparse(c, lids, frow, caps.size, caps)

    m = measure(run, ops=len(problems), rounds=rounds)
    return {"optimised": m.ns_per_op, "baseline": None, **_measurement_fields(m)}


def _small_shared_problem(
    rng: np.random.Generator, n_flows: int
) -> Tuple[List[float], List[List[int]], List[float]]:
    """A paper session's allocation shape, as plain lists.

    Every flow crosses link 0 (the client's access link) plus one or two
    links of a pool of ``n_flows + (n_flows - 1) // 2`` (its direct or
    relay path), and about half the flows carry a slow-start cap.  For 2-6
    flows that is ``fault_grid``'s shape: 3-9 links, one of them carried by
    all flows.
    """
    pool = n_flows + (n_flows - 1) // 2
    capacities = rng.uniform(1.0, 100.0, size=1 + pool).tolist()
    flow_links = [
        [0] + sorted((1 + rng.choice(pool, size=int(k), replace=False)).tolist())
        for k in rng.integers(1, 3, size=n_flows)
    ]
    caps = np.where(
        rng.random(n_flows) < 0.5, np.inf, rng.uniform(1.0, 120.0, size=n_flows)
    ).tolist()
    return capacities, flow_links, caps


def _scale_wave_problem(
    rng: np.random.Generator, n_flows: int
) -> Tuple[List[float], List[List[int]], List[float]]:
    """A ``repro scale`` wave's shape, as plain lists (default parameters).

    Every flow crosses the site access link (link 0); a direct flow adds
    its RTT tier's WAN link, a relay flow its tier's relay WAN link and one
    relay access link.  The flows of one (tier, direct or relay) class
    started together, so they share one slow-start cap, and the caps sit
    far below the link capacities: every round is a cap round that freezes
    a whole class on the site link.
    """
    params = ScaleStudyParams()
    n_tiers, n_relays = len(params.tier_rtts), params.n_relays
    capacities = (
        [params.site_capacity]
        + [params.relay_capacity] * n_relays
        + [params.wan_capacity] * (2 * n_tiers)
    )
    class_caps = {}
    for tier, rtt in enumerate(params.tier_rtts):
        for relay, factor in ((0, 1.0), (1, params.relay_rtt_factor)):
            ramp = SlowStartRamp(rtt=rtt * factor, max_window=params.max_window)
            age = rng.uniform(0.0, (ramp.rounds_to_peak() + 1) * ramp.rtt)
            class_caps[tier, relay] = ramp.cap_at(age)
    flow_links, caps = [], []
    for tier, relay, r in zip(
        rng.integers(0, n_tiers, size=n_flows).tolist(),
        rng.integers(0, 2, size=n_flows).tolist(),
        rng.integers(0, n_relays, size=n_flows).tolist(),
    ):
        if relay:
            flow_links.append([1 + n_relays + n_tiers + tier, 1 + r, 0])
        else:
            flow_links.append([1 + n_relays + tier, 0])
        caps.append(class_caps[tier, relay])
    return capacities, flow_links, caps


def _probe_race_problem(
    rng: np.random.Generator, n_flows: int
) -> Tuple[List[float], List[List[int]], List[float]]:
    """Concurrent probes from one client (the A3 ablation's shape).

    Every flow crosses the client's access link (link 0) and the site's
    (link 1); the direct probe adds one WAN link, each relay probe three
    of its own.  The probes ramp in lockstep, so they share one slow-start
    cap, except that in half the problems one probe is a doubling ahead.
    """
    capacities = [rng.uniform(1e7, 3e7), rng.uniform(1e6, 3e6)]
    flow_links = []
    for j in range(n_flows):
        first = len(capacities)
        n_private = 1 if j == 0 else 3
        capacities.extend(rng.uniform(2e5, 4e6, size=n_private).tolist())
        flow_links.append([0, *range(first, first + n_private), 1])
    ramp = SlowStartRamp(rtt=rng.uniform(0.05, 0.3), max_window=131_072.0)
    age = rng.uniform(0.0, ramp.rounds_to_peak() * ramp.rtt)
    caps = [ramp.cap_at(age)] * n_flows
    if rng.random() < 0.5:
        caps[int(rng.integers(n_flows))] = ramp.cap_at(age + ramp.rtt)
    return capacities, flow_links, caps


#: Flow counts of ``alloc_small_shared``'s sweep, run on every problem
#: shape; the tick's bound ``repro.tcp.fluid._SCALAR_MAX_FLOWS`` is read
#: off it: past the bound the tick runs ``waterfill_sparse``.
_SMALL_SHARED_SWEEP = (2, 4, 8, 12, 16, 24, 32, 48, 64, 128)


def _bench_alloc_small_shared(quick: bool) -> Dict[str, Any]:
    n_problems = 100 if quick else 400
    rounds = 3 if quick else 5
    rng = np.random.default_rng(derive_seed(_BENCH_SEED, "alloc-small-shared"))

    def timed(
        problems: Sequence[Tuple[List[float], List[List[int]], List[float]]]
    ) -> Tuple[Measurement, Measurement]:
        coords = [
            (np.array(c), *flow_coords(fl), np.array(caps)) for c, fl, caps in problems
        ]

        def run_scalar() -> None:
            for c, fl, caps in problems:
                maxmin_scalar(c, fl, caps)

        def run_sparse() -> None:
            for c, lids, frow, caps in coords:
                waterfill_sparse(c, lids, frow, caps.size, caps)

        ops = len(problems)
        return (
            measure(run_scalar, ops=ops, rounds=rounds),
            measure(run_sparse, ops=ops, rounds=rounds),
        )

    opt, base = timed(
        [
            _small_shared_problem(rng, int(rng.integers(2, 7)))
            for _ in range(n_problems)
        ]
    )
    # The shapes of the traffic the per-object tick solves: paper and
    # chaos sessions, and the shared problems of more flows that scale
    # waves and concurrent probe races bring.
    sweep = []
    for shape, make in (
        ("session", _small_shared_problem),
        ("scale_wave", _scale_wave_problem),
        ("probe_race", _probe_race_problem),
    ):
        for n_flows in _SMALL_SHARED_SWEEP:
            s_m, r_m = timed([make(rng, n_flows) for _ in range(n_problems // 4)])
            sweep.append(
                {
                    "shape": shape,
                    "flows": n_flows,
                    "scalar": s_m.ns_per_op,
                    "sparse": r_m.ns_per_op,
                }
            )
    return {
        "optimised": opt.ns_per_op,
        "baseline": base.ns_per_op,
        "sweep": sweep,
        **_measurement_fields(opt),
    }


# --------------------------------------------------------------------------- #
# fluid tick: capacity-breakpoint ticks over a stable flow set
# --------------------------------------------------------------------------- #
def _breakpoint_network(n_flows: int, n_pieces: int) -> Tuple[Simulator, float]:
    """Disjoint long-lived flows over breakpoint-heavy traces.

    Every trace breakpoint wakes the engine while the flow set stays
    unchanged — exactly the tick shape the alloc-state cache targets.
    """
    rng = np.random.default_rng(derive_seed(_BENCH_SEED, "tick-breakpoint"))
    sim = Simulator(sanitize=False)
    network = FluidNetwork(sim)
    piece_s = 0.25
    horizon = n_pieces * piece_s
    times = np.arange(n_pieces) * piece_s
    for i in range(n_flows):
        values = mbps_to_bytes_per_s(1.0) * rng.uniform(0.5, 1.5, size=n_pieces)
        trace = CapacityTrace(times, values)
        link = Link(f"access:{i}", f"src{i}", f"dst{i}", trace, delay=0.01)
        route = Route([link])
        # Big enough to stay active through every breakpoint.
        network.start_flow(route, 100.0 * MB, name=f"bulk{i}", activation_delay=0.0)
    return sim, horizon


def _bench_tick_breakpoint(quick: bool) -> Dict[str, Any]:
    n_flows = 4 if quick else 8
    n_pieces = 200 if quick else 1_000
    rounds = 3 if quick else 5

    def run() -> int:
        sim, horizon = _breakpoint_network(n_flows, n_pieces)
        sim.run(until=horizon)
        return sim.events_processed

    m = _measure_counted(run, rounds=rounds)
    return {"optimised": m.ns_per_op, "baseline": None, **_measurement_fields(m)}


# --------------------------------------------------------------------------- #
# striped session: block-scheduler overhead per committed block
# --------------------------------------------------------------------------- #
def _bench_stripe_session(quick: bool) -> Dict[str, Any]:
    # Imported lazily: the workloads package pulls in the whole stack and the
    # kernel benches should not pay for it.
    from repro.stripe.blocks import StripeConfig
    from repro.util.units import kb
    from repro.workloads.scenario import Scenario, ScenarioSpec

    # Deliberately small blocks: the object is fixed, so shrinking the block
    # multiplies scheduler decisions (claim/commit/refill) while the fluid
    # work stays constant - the per-block cost isolates scheduler overhead.
    block_kb = 128.0 if quick else 64.0
    rounds = 2 if quick else 3
    scenario = Scenario.build(ScenarioSpec.section2(sites=("eBay",)), seed=2007)
    relays = scenario.relay_names[:2]
    stripe = StripeConfig(block_bytes=kb(block_kb), window=2)

    def run_session() -> int:
        universe = scenario.universe(0.0)
        result = universe.session.download_striped(
            "Taiwan", "eBay", scenario.resource, relays, stripe=stripe
        )
        return result.n_blocks

    m = _measure_counted(run_session, rounds=rounds)
    return {
        "optimised": m.ns_per_op,
        "baseline": None,
        "blocks": m.ops,
        **_measurement_fields(m),
    }


# --------------------------------------------------------------------------- #
# scenario build: sample every link's capacity trace and wire the test-bed
# --------------------------------------------------------------------------- #
def _bench_scenario_build(quick: bool) -> Dict[str, Any]:
    from repro.workloads.scenario import Scenario, ScenarioSpec

    rounds = 3 if quick else 7
    spec = ScenarioSpec.section2(sites=("eBay",))
    links = 0

    def build() -> None:
        nonlocal links
        links = len(Scenario.build(spec, seed=_BENCH_SEED).topology.links)

    m = measure(build, ops=1, rounds=rounds)
    return {
        "optimised": m.ns_per_op,
        "baseline": None,
        "links": links,
        **_measurement_fields(m),
    }


#: Registry, in report order.
BENCHES: Dict[str, BenchSpec] = {
    spec.name: spec
    for spec in (
        BenchSpec(
            "trace_scalar",
            "scalar trace queries: TraceCursor vs per-query searchsorted",
            "ns/op",
            _bench_trace_scalar,
        ),
        BenchSpec(
            "event_queue",
            "event queue push/cancel/pop churn (slots Event)",
            "ns/op",
            _bench_event_queue,
        ),
        BenchSpec(
            "alloc_shared",
            "max-min allocation, shared links: the sparse solve",
            "ns/op",
            _bench_alloc_shared,
        ),
        BenchSpec(
            "alloc_small_shared",
            "max-min allocation, few flows on a shared access link: "
            "scalar solver vs the sparse solve, plus a flow-count sweep",
            "ns/op",
            _bench_alloc_small_shared,
        ),
        BenchSpec(
            "tick_breakpoint",
            "fluid tick at capacity breakpoints over a stable flow set",
            "ns/op",
            _bench_tick_breakpoint,
        ),
        BenchSpec(
            "stripe_session",
            "striped session, small blocks: scheduler overhead per block",
            "ns/block",
            _bench_stripe_session,
        ),
        BenchSpec(
            "scenario_build",
            "Scenario.build of the one-site section2 test-bed: every link's "
            "capacity trace sampled",
            "ns/build",
            _bench_scenario_build,
        ),
    )
}


def run_benches(
    names: Optional[Sequence[str]] = None,
    *,
    quick: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Run the named benches (default: all) and return name -> result."""
    selected = list(BENCHES) if names is None else list(names)
    unknown = [n for n in selected if n not in BENCHES]
    if unknown:
        raise ValueError(f"unknown bench(es) {unknown}; available: {list(BENCHES)}")
    from repro.obs.core import (
        global_observer,
        observe_enabled_from_env,
        reset_global_observer,
    )

    observing = observe_enabled_from_env()
    results: Dict[str, Dict[str, Any]] = {}
    for name in selected:
        if progress is not None:
            progress(name)
        obs = None
        if observing:
            # Fresh registry per bench so span counts attribute cleanly.
            reset_global_observer()
            obs = global_observer(create=True)
        result = BENCHES[name].run(quick)
        if obs is not None and obs.has_data:
            result["obs_summary"] = obs.span_summary()
        results[name] = result
    if observing:
        reset_global_observer()
    return results
