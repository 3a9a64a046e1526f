"""The QA rule and invariant catalogues.

Static lint rules carry ``QA-D*`` (determinism), ``QA-U*`` (units) and
``QA-S*`` (simulator safety) codes; whole-program flow rules enforced by the
``repro check`` analyzer carry ``QA-F*`` codes; runtime invariants enforced
by the sanitizer carry ``QA-R*`` codes.  Codes are stable: once shipped they
are never renumbered, so suppression comments, baselines and CI logs stay
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Rule", "Invariant", "RULES", "INVARIANTS"]

#: Library subpackages that constitute the simulation core: wall-clock access
#: is banned there outright (QA-D004).
SIM_SCOPED_SUBPACKAGES: Tuple[str, ...] = ("sim", "tcp", "net", "core", "overlay")


@dataclass(frozen=True)
class Rule:
    """One static lint rule.

    ``scope`` names where the rule applies:

    * ``"everywhere"`` - all linted files (library, tests, benchmarks);
    * ``"library"`` - only files inside the ``repro`` package;
    * ``"sim-core"`` - only the simulation subpackages
      (:data:`SIM_SCOPED_SUBPACKAGES`).

    ``analyzer`` names the tool that enforces the rule: ``"lint"`` for the
    single-file AST linter (``repro lint``), ``"flow"`` for the whole-program
    call-graph analyzer (``repro check``).
    """

    code: str
    name: str
    summary: str
    hint: str
    scope: str = "everywhere"
    example_bad: str = ""
    example_good: str = ""
    analyzer: str = "lint"


@dataclass(frozen=True)
class Invariant:
    """One runtime invariant enforced by the sanitizer."""

    code: str
    name: str
    summary: str
    hint: str


_RULE_LIST: Tuple[Rule, ...] = (
    # ------------------------------------------------------------- D-rules #
    Rule(
        code="QA-D001",
        name="no-stdlib-random",
        summary=(
            "the stdlib `random` module is banned: its global state makes runs "
            "order-dependent and irreproducible"
        ),
        hint=(
            "draw from a numpy Generator obtained via "
            "repro.util.rng.SeedBank.generator(...) / derive_seed(...)"
        ),
        scope="everywhere",
        example_bad="import random\nrandom.shuffle(order)",
        example_good='bank.generator("class-plan").shuffle(order)',
    ),
    Rule(
        code="QA-D002",
        name="no-legacy-numpy-rng",
        summary=(
            "legacy/global numpy RNG (np.random.seed, np.random.RandomState, "
            "module-level draws like np.random.uniform) is banned: it shares "
            "hidden global state across consumers"
        ),
        hint=(
            "use the new-style Generator API seeded through "
            "repro.util.rng.SeedBank (np.random.Generator / SeedSequence / "
            "default_rng(seed) are fine)"
        ),
        scope="everywhere",
        example_bad="np.random.seed(0); x = np.random.uniform()",
        example_good='rng = bank.generator("noise"); x = rng.uniform()',
    ),
    Rule(
        code="QA-D003",
        name="no-unseeded-default-rng",
        summary=(
            "argless numpy.random.default_rng() draws OS entropy: every run "
            "differs and results cannot be reproduced"
        ),
        hint=(
            "pass an explicit seed, ideally derived via "
            "repro.util.rng.derive_seed / SeedBank.seed(...)"
        ),
        scope="everywhere",
        example_bad="rng = np.random.default_rng()",
        example_good="rng = np.random.default_rng(derive_seed(root, 'probe', 3))",
    ),
    Rule(
        code="QA-D004",
        name="no-wall-clock-in-sim",
        summary=(
            "wall-clock access (time.time, time.monotonic, datetime.now, ...) "
            "inside the simulation core makes results depend on host speed"
        ),
        hint="use the simulation clock (Simulator.now); timestamps belong at the CLI edge",
        scope="sim-core",
        example_bad="started = time.time()",
        example_good="started = sim.now",
    ),
    Rule(
        code="QA-D005",
        name="no-module-level-generator",
        summary=(
            "a random Generator constructed at module import time is shared by "
            "every consumer of the module: stream identity then depends on "
            "import order and call interleaving"
        ),
        hint=(
            "construct generators where they are used, from a SeedBank handed "
            "down by the caller"
        ),
        scope="everywhere",
        example_bad="_RNG = np.random.default_rng(42)  # at module scope",
        example_good="def sample(rng: np.random.Generator): ...",
    ),
    Rule(
        code="QA-D006",
        name="no-wall-clock-in-span-payload",
        summary=(
            "a wall-clock call inside an obs span/event payload leaks host "
            "timing into the trace: traces then differ run to run and cannot "
            "be diffed or replayed"
        ),
        hint=(
            "key spans by sim-time (Simulator.now) or a pre-sampled injected "
            "clock value; sample wall clocks outside the payload expression"
        ),
        scope="everywhere",
        example_bad='obs.span("unit", uid, t0, time.monotonic())',
        example_good='ended = clock()\nobs.span("unit", uid, t0, ended - origin)',
    ),
    # ------------------------------------------------------------- U-rules #
    Rule(
        code="QA-U101",
        name="no-magic-unit-literal",
        summary=(
            "magic numeric literal that looks like a unit conversion factor "
            "(1e6, 1000, 3600, 125000, 1024, ...) in a multiplication/division"
        ),
        hint=(
            "use repro.util.units (KB/MB/GB, mbps_to_bytes_per_s, "
            "bytes_per_s_to_mbps, s_to_ms, MINUTE/HOUR) or a named constant"
        ),
        scope="library",
        example_bad="mbps = rate * 8.0 / 1e6",
        example_good="mbps = units.bytes_per_s_to_mbps(rate)",
    ),
    Rule(
        code="QA-U102",
        name="no-mismatched-unit-conversion",
        summary=(
            "a unit converter applied to a value whose name says it is already "
            "in the target unit (or whose result is stored under the wrong "
            "unit suffix)"
        ),
        hint=(
            "check the direction: mbps_to_bytes_per_s takes Mbps and returns "
            "bytes/s; bytes_per_s_to_mbps the reverse; name variables after "
            "what they hold"
        ),
        scope="everywhere",
        example_bad="cap_mbps = mbps_to_bytes_per_s(profile.rate_mbps)",
        example_good="cap_bytes_per_s = mbps_to_bytes_per_s(profile.rate_mbps)",
    ),
    # ------------------------------------------------------------- F-rules #
    # Whole-program flow rules: enforced by `repro check` (repro.qa.flow),
    # which sees across call and module boundaries the per-file linter
    # cannot.  Suppress inline with `# qa: ignore[CODE]` or accept a finding
    # in qa-baseline.json with a justification.
    Rule(
        code="QA-F001",
        name="no-unseeded-rng-flow",
        summary=(
            "a generator-construction site (default_rng / SeedSequence / "
            "PCG64 / SeedBank) can receive None through a call chain: some "
            "caller omits the seed argument, so the stream is drawn from OS "
            "entropy and the run is irreproducible"
        ),
        hint=(
            "thread a SeedBank-derived seed through every call path; drop "
            "`= None` seed defaults so forgetting a seed is a TypeError"
        ),
        scope="library",
        example_bad=(
            "def make(seed=None): return default_rng(seed)\n"
            "gen = make()  # three files away"
        ),
        example_good="gen = make(bank.seed('probe', i))",
        analyzer="flow",
    ),
    Rule(
        code="QA-F002",
        name="no-wall-clock-into-artefact",
        summary=(
            "a wall-clock value (time.time, datetime.now, ...) flows across "
            "a call boundary into an artefact sink (TraceStore records, "
            "saved JSONL/CSV, obs payloads, checkpoint manifests): the "
            "artefact then differs run to run"
        ),
        hint=(
            "keep wall clocks in telemetry (stderr/progress); artefact "
            "fields must derive from the simulation clock or the plan"
        ),
        scope="library",
        example_bad=(
            "def stamp(): return time.time()\n"
            "store.append(replace(rec, note=stamp()))"
        ),
        example_good="record fields carry sim.now; wall time goes to stderr",
        analyzer="flow",
    ),
    Rule(
        code="QA-F003",
        name="no-unordered-iteration-into-artefact",
        summary=(
            "iteration over a dict/set whose order is not pinned feeds an "
            "artefact sink or WorkUnit plan construction (possibly through "
            "intermediate calls): output order then depends on insertion "
            "history or hash seeds instead of a sorted key"
        ),
        hint=(
            "iterate `sorted(d)` / `sorted(d.items())` (sets always; dicts "
            "whenever construction order is not itself canonical) before "
            "the values reach an artefact"
        ),
        scope="library",
        example_bad="rows = [fmt(k, v) for k, v in groups.items()]",
        example_good="rows = [fmt(k, groups[k]) for k in sorted(groups)]",
        analyzer="flow",
    ),
    Rule(
        code="QA-F004",
        name="no-spawn-unsafe-worker-state",
        summary=(
            "state reachable from a worker-process entry point does not "
            "survive the spawn boundary: module-global mutables mutated in "
            "workers, unpicklable captures (lambdas, open handles, locks) "
            "passed as process args, or nested functions used as targets"
        ),
        hint=(
            "workers must receive their context as picklable data "
            "(module-level target fn + plain-data args such as an "
            "immutable scenario); module globals "
            "written in a worker are invisible to the parent and to other "
            "workers"
        ),
        scope="library",
        example_bad="Process(target=lambda: run(unit), args=())",
        example_good="Process(target=_worker_main, args=(scenario, config))",
        analyzer="flow",
    ),
    Rule(
        code="QA-F005",
        name="no-mutable-default-argument",
        summary=(
            "a mutable default argument ([] / {} / set() / dict() / list()) "
            "is evaluated once at def time and shared by every call: state "
            "leaks between logically independent invocations"
        ),
        hint="default to None and construct the fresh container inside the body",
        scope="library",
        example_bad="def collect(into=[]): into.append(x); return into",
        example_good="def collect(into=None): into = [] if into is None else into",
        analyzer="flow",
    ),
    # ------------------------------------------------------------- S-rules #
    Rule(
        code="QA-S201",
        name="no-float-time-equality",
        summary=(
            "== / != between event/simulation times: float time arithmetic "
            "makes exact equality fragile (use ordering, tolerances, or "
            "math.isnan/math.isinf for the special values)"
        ),
        hint=(
            "compare times with < / <= / math.isclose; test NaN with "
            "math.isnan(t) and infinity with math.isinf(t)"
        ),
        scope="library",
        example_bad='if next_time == float("inf"): ...',
        example_good="if math.isinf(next_time): ...",
    ),
    Rule(
        code="QA-S202",
        name="no-event-queue-state-mutation",
        summary=(
            "access to EventQueue/Simulator internals (_heap, _counter, "
            "_len_active, _now, _processed, _queue) outside repro.sim breaks "
            "the kernel's ordering and accounting invariants"
        ),
        hint=(
            "use the public API (push/pop/cancel/peek_time, schedule_at/"
            "schedule_after/run); if the API is missing something, extend "
            "repro.sim instead of reaching around it"
        ),
        scope="library",
        example_bad="sim._now = 0.0",
        example_good="sim = Simulator(start_time=0.0)",
    ),
)

_INVARIANT_LIST: Tuple[Invariant, ...] = (
    Invariant(
        code="QA-R001",
        name="event-time-monotonic",
        summary="the event loop never executes an event scheduled before the current clock",
        hint=(
            "an event with time < now means something pushed directly onto the "
            "queue, bypassing Simulator.schedule_at's guard"
        ),
    ),
    Invariant(
        code="QA-R002",
        name="flow-byte-conservation",
        summary=(
            "a flow's delivered byte count never decreases, never exceeds its "
            "requested size (plus completion slack), and its rate is finite "
            "and non-negative"
        ),
        hint="check FluidFlow._advance call sites and the allocation the engine installed",
    ),
    Invariant(
        code="QA-R003",
        name="maxmin-allocation-valid",
        summary=(
            "every rate vector the engine installs is feasible, cap-respecting "
            "and max-min fair (the certify_maxmin post-condition)"
        ),
        hint=(
            "the engine's max-min solve (repro.tcp.maxmin.maxmin_scalar, "
            "repro.vec.solver.waterfill_sparse or the disjoint "
            "min(bottleneck, cap) rule) returned an invalid allocation"
        ),
    ),
    Invariant(
        code="QA-R004",
        name="link-capacity-respected",
        summary="the summed rate across each link never exceeds its capacity at that instant",
        hint=(
            "a link is oversubscribed: either the allocator ignored a link or "
            "a stale rate survived a capacity breakpoint"
        ),
    ),
    Invariant(
        code="QA-R005",
        name="probe-accounting-consistent",
        summary=(
            "probe phases are time-ordered (started <= decided <= completed), "
            "the winner is one of the candidates, and probes never move more "
            "than the requested probe bytes"
        ),
        hint="check ProbeEngine teardown of losing probes and session phase bookkeeping",
    ),
    Invariant(
        code="QA-R006",
        name="fault-window-blackout",
        summary=(
            "a link inside a registered blackout fault window carries (near) "
            "zero capacity and zero load: no bytes cross a partitioned or "
            "fully failed path while the fault is active"
        ),
        hint=(
            "a fault plan and the capacity traces it rewrote disagree; "
            "check Scenario.with_faults / apply_fault_windows and that the "
            "blackout spans Scenario.universe hands to watch_fault_windows "
            "use the same link names as the topology"
        ),
    ),
    Invariant(
        code="QA-R007",
        name="recovery-bytes-monotone",
        summary=(
            "bytes_received snapshots along a session's recovery timeline "
            "never decrease: progress survives stalls, failovers and reprobes"
        ),
        hint=(
            "a recovery event recorded fewer delivered bytes than its "
            "predecessor; check how the resilient session snapshots flow "
            "progress when tearing down and re-issuing transfers"
        ),
    ),
)


def _index_rules(rules: Tuple[Rule, ...]) -> Dict[str, Rule]:
    out: Dict[str, Rule] = {}
    for r in rules:
        if r.code in out:
            raise ValueError(f"duplicate rule code {r.code}")
        out[r.code] = r
    return out


def _index_invariants(invs: Tuple[Invariant, ...]) -> Dict[str, Invariant]:
    out: Dict[str, Invariant] = {}
    for inv in invs:
        if inv.code in out:
            raise ValueError(f"duplicate invariant code {inv.code}")
        out[inv.code] = inv
    return out


#: Code -> rule, in catalogue order.
RULES: Dict[str, Rule] = _index_rules(_RULE_LIST)
#: Code -> runtime invariant, in catalogue order.
INVARIANTS: Dict[str, Invariant] = _index_invariants(_INVARIANT_LIST)
