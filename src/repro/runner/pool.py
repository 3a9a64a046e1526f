"""Campaign executor: run a plan's work units on N processes, deterministically.

The executor is a classic parent/worker pool specialised for simulation
campaigns:

* **Spawn-safe workers.**  Workers are started with the ``spawn`` context
  and receive their execution context - the parent's immutable
  :class:`~repro.workloads.scenario.Scenario`, its session config and the
  plan's study parameters - as pickled spawn arguments.  Only plain data
  crosses the process boundary (no handles, locks or live simulations), so
  the pool behaves identically on fork- and spawn-default platforms, and a
  worker runs on exactly the scenario the caller passed, faults included.
* **Bounded queues.**  Each worker owns a short task queue
  (:data:`QUEUE_DEPTH`); the parent keeps them topped up and tracks the
  in-flight units per worker, which is what makes per-unit timeouts and
  crash recovery precise.
* **Retry with structured failure.**  A unit that fails (exception in the
  worker, worker crash, or timeout) is retried up to ``max_retries`` times;
  exhaustion raises :class:`UnitExecutionError` carrying a
  :class:`UnitFailure` (unit id, attempts, last traceback) after the
  checkpoint has been flushed.
* **Graceful SIGINT drain.**  Ctrl-C stops dispatch, collects any finished
  results, flushes the checkpoint and summary, then re-raises
  ``KeyboardInterrupt`` - an interrupted campaign resumes with ``--resume``.
* **Deterministic output.**  Results are keyed by plan index and merged in
  plan order (:func:`repro.runner.checkpoint.merge_completed`), so the final
  store is byte-identical to the serial path for every ``jobs`` value.
  Duplicate executions (a timed-out unit that finished anyway) are harmless:
  units are pure functions of the plan, and completion is idempotent.

``jobs=1`` never touches ``multiprocessing``: the same planner/checkpoint/
retry machinery runs inline, which is both the migration path for the old
serial API and the fast path for small campaigns.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import queue as queue_mod
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Set, TextIO, Tuple

from repro.core.session import SessionConfig
from repro.obs.core import Observer, global_observer, shard_directory_from_env
from repro.runner.checkpoint import CheckpointStore, merge_completed
from repro.runner.plan import CampaignPlan, WorkUnit
from repro.runner.progress import ProgressReporter, RunSummary
from repro.trace.records import TransferRecord
from repro.trace.store import TraceStore
from repro.workloads.scenario import Scenario
from repro.workloads.studies import unit_runner

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_MAX_RETRIES",
    "ExecutionResult",
    "RunnerError",
    "UnitExecutionError",
    "UnitFailure",
    "execute_plan",
    "run_unit",
]

#: Units buffered per worker so result/dispatch latency overlaps compute.
QUEUE_DEPTH = 4
#: Seconds the parent blocks on the result queue before re-checking workers.
_POLL_INTERVAL = 0.1
#: Flush the checkpoint after this many newly completed units by default.
DEFAULT_CHECKPOINT_EVERY = 25
#: Failed attempts tolerated per unit before the campaign aborts.
DEFAULT_MAX_RETRIES = 2

RunUnitFn = Callable[[Scenario, SessionConfig, WorkUnit], TransferRecord]


class RunnerError(RuntimeError):
    """The execution machinery itself failed (e.g. a corrupt checkpoint)."""


@dataclass(frozen=True)
class UnitFailure:
    """Structured description of a unit whose retries were exhausted."""

    unit_index: int
    unit_id: str
    attempts: int
    error: str

    def __str__(self) -> str:
        return (
            f"unit {self.unit_index} (id {self.unit_id}) failed "
            f"{self.attempts} attempt(s); last error:\n{self.error}"
        )


class UnitExecutionError(RuntimeError):
    """A work unit kept failing after every allowed retry."""

    def __init__(self, failure: UnitFailure):
        super().__init__(str(failure))
        self.failure = failure


@dataclass
class ExecutionResult:
    """Outcome of :func:`execute_plan`.

    ``store`` is the merged campaign store; it is ``None`` only for
    deliberately partial runs (``max_units``), where the checkpoint holds
    the completed prefix.
    """

    store: Optional[TraceStore]
    summary: RunSummary


def run_unit(
    scenario: Scenario,
    config: SessionConfig,
    unit: WorkUnit,
    extra: Optional[Any] = None,
) -> TransferRecord:
    """Execute one work unit (the default unit runner, used by workers).

    The study registry names the function that runs the unit
    (:func:`repro.workloads.studies.unit_runner`); it receives the plan's
    ``extra`` parameters.
    """
    return unit_runner(unit)(scenario, config, unit, extra)


# --------------------------------------------------------------------------- #
# worker process
# --------------------------------------------------------------------------- #
def _worker_main(
    worker_id: int,
    scenario: Scenario,
    config: SessionConfig,
    extra: Any,
    task_q: Any,
    result_conn: Any,
) -> None:
    """Worker loop: execute units on the parent's scenario until sentinel.

    SIGINT is ignored so Ctrl-C is handled solely by the parent's drain
    logic; the parent terminates workers explicitly.  Results travel over a
    pipe owned by this worker alone: a crash mid-``send`` can tear at most
    this worker's own stream, never a sibling's (the parent discards the
    pipe when it reaps the process).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # When the parent enabled observability (REPRO_OBS travels through the
    # spawn environment), label this worker's records with its own track so
    # merged traces keep one timeline per worker.
    obs = global_observer()
    if obs is not None:
        # Same name the parent uses for this worker's unit spans, so the
        # worker's engine spans land on the same Chrome-trace track.
        obs.track = f"worker-{worker_id}"
    def send(message: Tuple[str, int, int, Any]) -> bool:
        try:
            result_conn.send(message)
        except (BrokenPipeError, OSError):
            return False  # parent is gone; nothing left to report to
        return True

    while True:
        unit = task_q.get()
        if unit is None:
            _dump_obs_shard(worker_id)
            return
        try:
            record = run_unit(scenario, config, unit, extra)
        except BaseException:
            alive = send(("err", worker_id, unit.index, traceback.format_exc()))
        else:
            alive = send(("ok", worker_id, unit.index, record))
        if not alive:
            return


def _dump_obs_shard(worker_id: int) -> None:
    """Write this worker's trace shard for the parent to merge.

    Only runs on the orderly (sentinel) shutdown path: a worker killed by a
    timeout or crash loses its shard, which is a documented limitation -
    study artefacts never depend on traces, and the shard loader tolerates
    a torn final line.
    """
    shard_dir = shard_directory_from_env()
    if shard_dir is None:
        return
    obs = global_observer(create=False)
    if obs is None or not obs.has_data:
        return
    from repro.obs.export import ObsTrace

    import os

    path = os.path.join(shard_dir, f"worker-{worker_id:03d}.obs.jsonl")
    try:
        ObsTrace.from_observer(obs).save_jsonl(path)
    except OSError:
        pass  # telemetry is best-effort; never fail the campaign over it


@dataclass
class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    worker_id: int
    process: Any
    task_q: Any
    result_conn: Any
    inflight: Deque[WorkUnit] = field(default_factory=deque)
    head_since: float = 0.0

    @property
    def name(self) -> str:
        return f"worker-{self.worker_id}"


# --------------------------------------------------------------------------- #
# executor state
# --------------------------------------------------------------------------- #
class _Execution:
    """Shared completion/retry/checkpoint bookkeeping for one invocation."""

    def __init__(
        self,
        plan: CampaignPlan,
        *,
        reporter: ProgressReporter,
        ckpt: Optional[CheckpointStore],
        checkpoint_every: int,
        max_retries: int,
        clock: Callable[[], float],
        done: Dict[int, Tuple[str, TransferRecord]],
        observer: Optional[Observer] = None,
    ):
        self.plan = plan
        self.reporter = reporter
        self.ckpt = ckpt
        self.checkpoint_every = max(1, checkpoint_every)
        self.max_retries = max(0, max_retries)
        self.clock = clock
        self.done = done
        self.executed = 0
        self.failed_attempts: Dict[int, int] = {}
        self.retried_units: Set[int] = set()
        self._since_flush = 0
        #: Trace sink for per-unit spans (None = observability off).  Span
        #: times are executor-clock seconds relative to this origin, so a
        #: campaign trace always starts at t=0.
        self.obs = observer
        self.origin = clock()

    def unit_span(
        self, unit: WorkUnit, started_at: float, ended_at: float, track: str, ok: bool
    ) -> None:
        """Record one execution attempt as a span on the worker's track."""
        if self.obs is not None:
            self.obs.span(
                "unit",
                unit.unit_id,
                started_at - self.origin,
                ended_at - self.origin,
                track=track,
                index=unit.index,
                ok=ok,
            )

    def complete(self, unit: WorkUnit, record: TransferRecord, worker: str) -> None:
        """Record a finished unit; idempotent for duplicate completions."""
        if unit.index in self.done:
            return
        self.done[unit.index] = (unit.unit_id, record)
        self.executed += 1
        if self.ckpt is not None:
            self.ckpt.append(unit.index, unit.unit_id, record)
            self._since_flush += 1
            if self._since_flush >= self.checkpoint_every:
                self.ckpt.flush()
                self._since_flush = 0
        self.reporter.unit_finished(worker)

    def register_failure(self, unit: WorkUnit, error: str, worker: str) -> None:
        """Record a failed attempt; raise when the unit's retries are spent."""
        count = self.failed_attempts.get(unit.index, 0) + 1
        self.failed_attempts[unit.index] = count
        retrying = count <= self.max_retries
        self.reporter.attempt_failed(worker, unit_index=unit.index, retrying=retrying)
        if self.obs is not None and retrying:
            self.obs.count("runner.retries")
        if not retrying:
            raise UnitExecutionError(
                UnitFailure(
                    unit_index=unit.index,
                    unit_id=unit.unit_id,
                    attempts=count,
                    error=error,
                )
            )
        self.retried_units.add(unit.index)

    @property
    def total_failed_attempts(self) -> int:
        return sum(self.failed_attempts.values())


# --------------------------------------------------------------------------- #
# inline backend
# --------------------------------------------------------------------------- #
def _run_inline(
    state: _Execution,
    pending: List[WorkUnit],
    scenario: Scenario,
    run_unit_fn: RunUnitFn,
) -> None:
    """Execute units in-process (``jobs=1``), sharing the retry machinery."""
    for unit in pending:
        while True:
            attempt_started = state.clock()
            try:
                record = run_unit_fn(scenario, state.plan.config, unit)
            except KeyboardInterrupt:
                raise
            except Exception:
                state.unit_span(unit, attempt_started, state.clock(), "inline", False)
                state.register_failure(unit, traceback.format_exc(), "inline")
                continue
            state.unit_span(unit, attempt_started, state.clock(), "inline", True)
            state.complete(unit, record, "inline")
            break


# --------------------------------------------------------------------------- #
# multiprocessing backend
# --------------------------------------------------------------------------- #
def _spawn_worker(
    ctx: Any, worker_id: int, plan: CampaignPlan, scenario: Scenario
) -> _WorkerHandle:
    task_q = ctx.Queue(maxsize=QUEUE_DEPTH)
    # One result pipe per worker.  A shared result queue would let a worker
    # that dies mid-``send`` (chaos SIGKILL, OOM) leave a truncated pickle
    # frame in the common stream and wedge every survivor; with a private
    # pipe the damage is confined to a channel the parent throws away.
    recv_conn, send_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_worker_main,
        args=(
            worker_id,
            scenario,
            plan.config,
            plan.extra,
            task_q,
            send_conn,
        ),
        daemon=True,
        name=f"repro-runner-{worker_id}",
    )
    process.start()
    # Drop the parent's copy of the write end: once the worker dies, reads
    # hit EOF instead of blocking forever on a half-written frame.
    send_conn.close()
    return _WorkerHandle(
        worker_id=worker_id, process=process, task_q=task_q, result_conn=recv_conn
    )


def _retire_worker(handle: _WorkerHandle) -> None:
    handle.task_q.cancel_join_thread()
    handle.task_q.close()
    try:
        handle.result_conn.close()
    except OSError:  # pragma: no cover - close is best-effort
        pass


def _drain_conn(handle: _WorkerHandle, deliver: Callable[[Any], None]) -> None:
    """Deliver every complete message already buffered on a worker's pipe.

    Safe on dead workers: the parent holds no write end, so a torn frame
    (killed mid-``send``) raises ``EOFError``/``OSError`` instead of
    blocking, and we simply stop there.
    """
    while True:
        try:
            if not handle.result_conn.poll(0):
                return
            message = handle.result_conn.recv()
        except (EOFError, OSError):
            return
        deliver(message)


def _shutdown_workers(workers: Dict[int, _WorkerHandle]) -> None:
    """Best-effort orderly stop: sentinel, short join, then terminate."""
    for handle in workers.values():
        try:
            handle.task_q.put_nowait(None)
        except (queue_mod.Full, ValueError, OSError):
            pass
    for handle in workers.values():
        handle.process.join(timeout=1.0)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=1.0)
        _retire_worker(handle)


def _run_parallel(
    state: _Execution,
    pending: List[WorkUnit],
    scenario: Scenario,
    *,
    jobs: int,
    unit_timeout: Optional[float],
    runner_faults: Optional[Any] = None,
) -> None:
    """Dispatch units to a spawn pool, handling crashes, timeouts, retries.

    ``runner_faults`` (a :class:`~repro.chaos.runner.RunnerFaultPlan`)
    SIGKILLs a worker at each of its completion counts - chaos for the
    executor itself.  The kill lands between completions, so the dead
    worker's in-flight units ride the ordinary crash path (head charged,
    rest requeued, respawn) and the artefact stays byte-identical.
    """
    injector = runner_faults.injector() if runner_faults is not None else None
    ctx = mp.get_context("spawn")
    todo: Deque[WorkUnit] = deque(pending)
    target = len(pending)
    next_worker_id = 0
    workers: Dict[int, _WorkerHandle] = {}
    #: Dispatch time per unit index, for the queue-wait histogram.
    enqueued_at: Dict[int, float] = {}

    def spawn_one() -> None:
        nonlocal next_worker_id
        handle = _spawn_worker(ctx, next_worker_id, state.plan, scenario)
        handle.head_since = state.clock()
        workers[handle.worker_id] = handle
        next_worker_id += 1

    def requeue_inflight(handle: _WorkerHandle, *, error: str) -> None:
        """A worker died or was killed: charge the head unit, requeue the rest."""
        inflight = list(handle.inflight)
        handle.inflight.clear()
        if not inflight:
            return
        head, rest = inflight[0], inflight[1:]
        # Queued-but-unstarted units never ran; they go back without penalty.
        for unit in reversed(rest):
            todo.appendleft(unit)
        state.register_failure(head, error, handle.name)
        todo.appendleft(head)

    def _deliver(message: Any) -> None:
        kind, worker_id, index, payload = message
        handle = workers.get(worker_id)
        if handle is None:  # pragma: no cover - defensive
            # Result drained from a worker we already reaped.  Completion
            # is idempotent, so credit successes and drop errors.
            if kind == "ok":
                state.complete(state.plan.units[index], payload, "stale")
        elif kind == "ok" or kind == "err":
            unit = handle.inflight.popleft()
            if unit.index != index:  # pragma: no cover - invariant
                raise RunnerError(
                    f"{handle.name} returned unit {index} but "
                    f"{unit.index} was at the head of its queue"
                )
            started_at = handle.head_since  # when the unit became head
            handle.head_since = state.clock()
            if state.obs is not None:
                dispatched = enqueued_at.pop(unit.index, started_at)
                # 1-2-5 steps: waits are milliseconds to seconds, and a
                # decade bucket's upper edge would read them all as 0.1 s.
                state.obs.observe_value(
                    "runner.queue_wait_seconds",
                    max(0.0, started_at - dispatched),
                    bounds=(
                        1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 0.01, 0.02, 0.05,
                        0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0,
                    ),
                )
                state.unit_span(
                    unit, started_at, handle.head_since,
                    handle.name, kind == "ok",
                )
            if kind == "ok":
                state.complete(unit, payload, handle.name)
            else:
                state.register_failure(unit, payload, handle.name)
                todo.appendleft(unit)

    for _ in range(max(1, min(jobs, len(pending)))):
        spawn_one()

    try:
        while state.executed < target:
            # Top up every live worker's bounded queue.
            for handle in workers.values():
                while (
                    todo
                    and handle.process.is_alive()
                    and len(handle.inflight) < QUEUE_DEPTH
                ):
                    unit = todo.popleft()
                    try:
                        handle.task_q.put_nowait(unit)
                    except queue_mod.Full:
                        todo.appendleft(unit)
                        break
                    enqueued_at[unit.index] = state.clock()
                    if not handle.inflight:
                        handle.head_since = state.clock()
                    handle.inflight.append(unit)

            ready = mp_connection.wait(
                [h.result_conn for h in workers.values()],
                timeout=_POLL_INTERVAL,
            )
            for conn in ready:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # Worker died, possibly mid-send; whatever completed
                    # before the torn frame was already delivered.  The
                    # liveness sweep below requeues its in-flight units.
                    continue
                _deliver(message)

            if injector is not None and workers:
                victim = injector.victim(state.executed, sorted(workers))
                if victim is not None:
                    # SIGKILL, not terminate: a chaos kill models a hard
                    # crash (OOM, power loss), so the victim gets no chance
                    # to flush anything.  The sweep below treats it exactly
                    # like any other dead worker.
                    workers[victim].process.kill()

            now = state.clock()
            for worker_id in list(workers):
                handle = workers[worker_id]
                dead = not handle.process.is_alive()
                timed_out = (
                    unit_timeout is not None
                    and bool(handle.inflight)
                    and now - handle.head_since > unit_timeout
                )
                if not dead and not timed_out:
                    continue
                if not dead:
                    handle.process.terminate()
                cause = (
                    f"unit exceeded the {unit_timeout}s timeout on {handle.name}"
                    if timed_out and not dead
                    else f"{handle.name} exited with code "
                    f"{handle.process.exitcode} mid-campaign"
                )
                handle.process.join(timeout=2.0)
                # Credit any results the worker finished sending before it
                # died (or was timed out) - they must not be re-charged as
                # failures.  A frame torn by the kill just ends the drain.
                _drain_conn(handle, _deliver)
                del workers[worker_id]
                _retire_worker(handle)
                requeue_inflight(handle, error=cause)
                if state.executed < target:
                    spawn_one()

            if state.executed < target and not workers:  # pragma: no cover
                raise RunnerError(
                    "no live workers remain but the campaign is incomplete"
                )
    except KeyboardInterrupt:
        # Graceful drain: credit anything that already finished, then stop.
        for handle in list(workers.values()):
            _drain_conn(handle, _deliver)
        raise
    finally:
        _shutdown_workers(workers)


# --------------------------------------------------------------------------- #
# public entry point
# --------------------------------------------------------------------------- #
def execute_plan(
    plan: CampaignPlan,
    *,
    jobs: int = 1,
    scenario: Optional[Scenario] = None,
    checkpoint: Optional[Any] = None,
    resume: bool = False,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    progress: bool = False,
    progress_stream: Optional[TextIO] = None,
    unit_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    max_units: Optional[int] = None,
    run_unit_fn: Optional[RunUnitFn] = None,
    runner_faults: Optional[Any] = None,
    clock: Callable[[], float] = time.monotonic,
) -> ExecutionResult:
    """Execute a campaign plan and return the merged store plus a summary.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs inline in this process
        through the identical planner/checkpoint/retry path.
    scenario:
        Pre-built scenario every unit runs on, inline or in workers (which
        receive it as a spawn argument); built once from the plan when
        omitted.  Must match the plan's spec and seed - a faulted copy
        (:meth:`~repro.workloads.scenario.Scenario.with_faults`) does.
    checkpoint / resume / checkpoint_every:
        Shard-store directory, resume switch, and flush granularity; see
        :mod:`repro.runner.checkpoint`.
    progress / progress_stream:
        Stderr telemetry (off by default; the summary is always produced).
    unit_timeout:
        Seconds a single unit may run on a worker before that worker is
        killed and the unit retried (parallel path only).
    max_retries:
        Failed attempts tolerated per unit before
        :class:`UnitExecutionError` aborts the campaign.
    max_units:
        Execute at most this many *new* units, then stop with a flushed
        checkpoint (``store=None`` in the result).  Useful for smoke tests
        and budgeted runs; resuming later completes the campaign.
    run_unit_fn:
        Test hook replacing :func:`run_unit` on the inline path.
    runner_faults:
        Optional :class:`~repro.chaos.runner.RunnerFaultPlan` killing
        workers at deterministic completion counts (parallel path only;
        there is no worker to murder inline).  Artefacts never depend on
        it - that is the property the kill/resume fuzz asserts.
    clock:
        Monotonic clock used for telemetry and timeouts only; measurement
        results never depend on it.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if run_unit_fn is not None and jobs > 1:
        raise ValueError("run_unit_fn is an inline-only test hook; use jobs=1")
    if runner_faults is not None and jobs == 1:
        raise ValueError("runner_faults needs worker processes; use jobs > 1")
    if scenario is not None and (
        scenario.spec != plan.scenario_spec
        or scenario.bank.root_seed != plan.seed
    ):
        raise ValueError("provided scenario does not match the plan's spec/seed")

    ckpt: Optional[CheckpointStore] = None
    done: Dict[int, Tuple[str, TransferRecord]] = {}
    if checkpoint is not None:
        ckpt = CheckpointStore.open_or_create(checkpoint, plan, resume=resume)
        done = ckpt.completed_units()
        for index, (unit_id, _record) in sorted(done.items()):
            if index >= len(plan) or plan.units[index].unit_id != unit_id:
                raise RunnerError(
                    f"checkpoint unit {index} does not belong to this plan "
                    "despite a matching fingerprint; checkpoint is corrupt"
                )
    skipped = len(done)

    pending = [u for u in plan.units if u.index not in done]
    if max_units is not None:
        pending = pending[: max(0, max_units)]

    # The process-global observer (None unless REPRO_OBS / --obs enabled it):
    # the reporter accounts into it and the executor adds per-unit spans.
    obs = global_observer()
    reporter = ProgressReporter(
        total=len(plan),
        skipped=skipped,
        clock=clock,
        stream=progress_stream,
        enabled=progress,
        label=plan.study,
        observer=obs,
    )
    state = _Execution(
        plan,
        reporter=reporter,
        ckpt=ckpt,
        checkpoint_every=checkpoint_every,
        max_retries=max_retries,
        clock=clock,
        done=done,
        observer=obs,
    )

    started = clock()
    interrupted = False
    try:
        reporter.start()
        if pending:
            if scenario is None:
                scenario = Scenario.build(plan.scenario_spec, seed=plan.seed)
            if jobs == 1:

                def _default_fn(
                    s: Scenario, c: SessionConfig, u: WorkUnit
                ) -> TransferRecord:
                    return run_unit(s, c, u, plan.extra)

                _run_inline(state, pending, scenario, run_unit_fn or _default_fn)
            else:
                _run_parallel(
                    state,
                    pending,
                    scenario,
                    jobs=jobs,
                    unit_timeout=unit_timeout,
                    runner_faults=runner_faults,
                )
    except KeyboardInterrupt:
        interrupted = True
        raise
    finally:
        reporter.finish()
        summary = RunSummary(
            study=plan.study,
            fingerprint=ckpt.fingerprint if ckpt is not None else plan.fingerprint(),
            total_units=len(plan),
            skipped_units=skipped,
            executed_units=state.executed,
            failed_attempts=state.total_failed_attempts,
            retried_units=len(state.retried_units),
            jobs=jobs,
            wall_seconds=clock() - started,
            interrupted=interrupted,
            worker_failures=dict(reporter.worker_failures),
        )
        if ckpt is not None:
            ckpt.write_summary(summary.to_dict())
            ckpt.close()

    store: Optional[TraceStore] = None
    if len(done) == len(plan):
        store = merge_completed(plan, done)
    return ExecutionResult(store=store, summary=summary)
