"""Event-driven fluid transport engine.

:class:`FluidNetwork` simulates concurrent TCP transfers at flow level on top
of the discrete-event kernel.  Between events every flow moves at a constant
rate, so the engine only needs to wake at moments a rate could change:

* a flow activates (its request latency elapsed) or completes;
* a link's capacity trace hits a breakpoint;
* a flow's slow-start ramp doubles its cap;
* the user starts or aborts a flow.

At each wake-up the engine advances delivered byte counts, fires completion
callbacks, re-solves the max-min fair allocation over the active flows and
schedules the next wake-up.

Hot-path design (see DESIGN.md §"Engine performance"): the allocation
*structure* — the link list, each flow's link indices and the per-link
trace cursors — depends only on the set of active flows, which
changes far less often than rates do (every capacity breakpoint and ramp
doubling re-solves rates over an unchanged flow set).  The engine therefore
caches that structure and invalidates it only when a flow activates,
completes or aborts; per-tick work reduces to reading the capacities and
caps and re-running the allocator.  Scalar trace queries go through
per-link :class:`~repro.net.trace.TraceCursor` objects, which are amortised
O(1) because event times never decrease.

The solver depends on the problem (DESIGN.md §7):

* no link carries two flows (a lone flow included): each flow gets
  ``min(bottleneck, cap)`` in plain floats;
* a shared problem of at most ``_SCALAR_MAX_FLOWS`` flows - every shared
  solve of a sequentially probing or striped session - runs
  :func:`repro.tcp.maxmin.maxmin_scalar`, the water-filling rounds in
  plain floats;
* a larger shared problem - a concurrent probe race's, say - runs the
  sparse :func:`repro.vec.solver.waterfill_sparse` over the structure's
  coordinate lists, in O(nnz) per round: the solver the vector core runs
  on a race's rows.

Both solvers sum each link's frozen caps sequentially in flow order, so
they return the same bits and the bound between them only moves speed.
Under ``REPRO_SANITIZE=1`` the same solvers run and the sanitizer checks
the rates they returned.

The traffic picks the tick (DESIGN.md §12).  Object flows
(:meth:`FluidNetwork.start_flow`) always run the per-object tick above,
which is fastest for the handful of concurrent flows a paper session runs.
:meth:`FluidNetwork.start_races` runs a whole population's direct/relay
probe race (:mod:`repro.vec.race`) on a
:class:`repro.vec.engine.VectorCore`, as columns with no
:class:`~repro.tcp.flow.FluidFlow` per probe or transfer.  A network runs
either a race or object flows, never both.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.link import Link
from repro.net.route import Route
from repro.net.trace import TraceCursor
from repro.sim.errors import TransferError
from repro.sim.event_queue import Event
from repro.sim.simulator import Simulator
from repro.tcp.flow import FlowState, FluidFlow
from repro.tcp.maxmin import maxmin_scalar
from repro.tcp.model import SlowStartRamp
from repro.vec.solver import flow_coords, waterfill_sparse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vec.race import ProbeRace

__all__ = ["FluidNetwork"]

#: Bytes of slack when deciding a flow has finished (float-precision guard).
_COMPLETION_SLACK = 1e-3
#: Relative completion-time safety margin (schedule exactly, detect with slack).
_TIME_EPS = 1e-12

#: Largest shared (non-disjoint) problem the per-object tick solves with
#: the plain-float ``maxmin_scalar``; larger ones run ``waterfill_sparse``.
#: Both return the same bits, so this bound only moves speed.  Read off the
#: ``alloc_small_shared`` bench's sweep (BENCH_engine.json, DESIGN.md §7).
_SCALAR_MAX_FLOWS = 12


class _AllocState:
    """Cached allocation structure for one active-flow set.

    Valid exactly as long as the active-flow set is unchanged: flows and
    routes are immutable while active, and capacity traces are immutable
    always, so only set membership can invalidate this.  ``disjoint`` (no
    link carries two flows) is a property of the structure and is decided
    once here rather than on every tick.  The ``coords`` lists (read by
    the sparse solve and the sanitizer) are built on first use.
    """

    __slots__ = (
        "flows",
        "links",
        "link_names",
        "cursors",
        "flow_links",
        "disjoint",
        "_coords",
    )

    def __init__(
        self,
        flows: List[FluidFlow],
        links: List[Link],
        flow_links: List[List[int]],
        cursors: List[TraceCursor],
    ):
        self.flows = flows
        self.links = links
        self.link_names = [link.name for link in links]
        self.cursors = cursors
        self.flow_links = flow_links
        # Links are numbered on first use and a route never repeats one,
        # so every link is carried once exactly when the (flow, link)
        # pairs number no more than the links.
        self.disjoint = sum(len(idxs) for idxs in flow_links) == len(links)
        self._coords: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """The incidence as coordinate lists ``(lids, frow)``: entry ``i``
        says flow ``frow[i]`` crosses link ``lids[i]``."""
        if self._coords is None:
            self._coords = flow_coords(self.flow_links)
        return self._coords


class FluidNetwork:
    """Fluid-model transport engine bound to a simulator.

    Parameters
    ----------
    sim:
        The discrete-event kernel driving this network.
    default_request_latency:
        When :meth:`start_flow` is not given an explicit activation delay,
        the flow activates after ``route.rtt`` (one RTT covers the request
        and the first payload byte's propagation) scaled by this factor.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        default_request_latency: float = 1.0,
    ):
        self._sim = sim
        self._active: Dict[int, FluidFlow] = {}
        self._tick_event: Optional[Event] = None
        self._default_request_latency = float(default_request_latency)
        #: Flows sharing an activation instant share one simulator event
        #: (population-scale workloads create thousands of flows per
        #: instant); they activate in creation order.
        self._pending_activations: Dict[float, List[FluidFlow]] = {}
        #: The VectorCore a probe race runs on (None: per-object tick).
        self._vec = None
        #: Cached allocation structure; None whenever the active set changed.
        self._alloc_state: Optional[_AllocState] = None
        #: Persistent per-link trace cursors (survive alloc-state rebuilds,
        #: so their monotone position is kept across flow churn).
        self._cursors: Dict[str, TraceCursor] = {}
        #: Bound-method reference reused by every tick (re)schedule, so the
        #: hot reschedule path allocates no new callable per tick.
        self._tick_cb = self._tick
        #: Count of completed flows (monitoring/testing aid).
        self.completed_count = 0
        #: Cached observer handle (None = disabled; one attribute test on
        #: the hot paths).  Observation never alters allocation decisions.
        self._obs = sim.observer
        self._last_tick_at: Optional[float] = None

    @property
    def sim(self) -> Simulator:
        """The simulator this network schedules on."""
        return self._sim

    # ------------------------------------------------------------------ #
    # user API
    # ------------------------------------------------------------------ #
    def start_flow(
        self,
        route: Route,
        size: float,
        *,
        ramp: Optional[SlowStartRamp] = None,
        on_complete: Optional[Callable[[FluidFlow], None]] = None,
        name: str = "",
        activation_delay: Optional[float] = None,
    ) -> FluidFlow:
        """Request a transfer of ``size`` bytes along ``route``.

        The flow begins delivering bytes after ``activation_delay`` seconds
        (default: one route RTT, modelling request propagation and the first
        data byte's return).  Returns the flow handle immediately.
        """
        if self._vec is not None:
            raise TransferError("a network running a probe race takes no object flows")
        flow = FluidFlow(
            route,
            size,
            ramp=ramp,
            on_complete=on_complete,
            name=name,
            requested_at=self._sim.now,
        )
        if activation_delay is None:
            activation_delay = route.rtt * self._default_request_latency
        if activation_delay < 0.0:
            raise ValueError(f"activation_delay must be >= 0, got {activation_delay}")
        at = self._sim.now + activation_delay
        batch = self._pending_activations.get(at)
        if batch is None:
            self._pending_activations[at] = batch = []
            self._sim.schedule_at(
                at, lambda: self._activate_batch(at), name="activate-batch"
            )
        batch.append(flow)
        return flow

    def start_races(
        self,
        routes: Sequence[Route],
        ramps: Sequence[SlowStartRamp],
        sizes: Sequence[float],
        *,
        probe_bytes: float,
        direct: Sequence[int],
        relay: Sequence[int],
        size: Sequence[int],
        slot: Sequence[int],
        slot_times: Sequence[float],
    ) -> "ProbeRace":
        """Race a population's direct and relay probes by the column.

        Client ``i`` starts at ``slot_times[slot[i]]``, probes
        ``routes[direct[i]]`` and ``routes[relay[i]]`` with
        ``probe_bytes`` each, and fetches ``sizes[size[i]]`` bytes over the
        route whose probe completes first; ``ramps[j]`` is route ``j``'s
        slow-start ramp.  The race runs on a vector core, whatever the
        population.  Returns the
        :class:`~repro.vec.race.ProbeRace` whose result columns fill in as
        the simulator runs.
        """
        if self._vec is not None or self._active or self._pending_activations:
            raise TransferError("a probe race needs a network with no other flows")
        from repro.vec.engine import VectorCore  # deferred: import cycle
        from repro.vec.race import ProbeRace

        vec = VectorCore(self)
        race = vec._race = ProbeRace(
            vec, routes, ramps, sizes, probe_bytes=probe_bytes,
            direct=direct, relay=relay, size=size, slot=slot,
            slot_times=slot_times,
        )
        self._vec = vec
        return race

    def abort_flow(self, flow: FluidFlow) -> None:
        """Cancel a pending or active flow (idempotent for finished flows)."""
        if flow.done:
            return
        if flow.state is FlowState.ACTIVE:
            flow._advance(self._sim.now)
            self._active.pop(flow.id, None)
            self._invalidate_alloc("abort")
        flow._abort(self._sim.now)
        if self._sim.sanitizer is not None:
            self._sim.sanitizer.forget_flow(flow.id)
        self._request_tick()

    # ------------------------------------------------------------------ #
    # engine internals
    # ------------------------------------------------------------------ #
    def _activate_batch(self, at: float) -> None:
        """Activate every flow whose activation instant is ``at``, in
        creation order."""
        now = self._sim.now
        activated = False
        for flow in self._pending_activations.pop(at):
            if flow.state is FlowState.ABORTED:
                continue  # aborted while pending
            flow._activate(now)
            self._active[flow.id] = flow
            activated = True
        if not activated:
            return
        self._invalidate_alloc("activate")
        self._request_tick()

    def _invalidate_alloc(self, reason: str) -> None:
        """Drop the cached allocation structure, counting the cause."""
        if self._alloc_state is not None:
            self._alloc_state = None
            if self._obs is not None:
                self._obs.count("alloc.cache_invalidate." + reason)

    def _request_tick(self) -> None:
        """Coalesce mutations into a single recompute at the current instant."""
        if self._tick_event is not None and self._tick_event.active:
            if self._tick_event.time <= self._sim.now + _TIME_EPS:
                return  # a tick at (or before) now is already pending
            self._sim.cancel(self._tick_event)
        self._tick_event = self._sim.schedule_at(self._sim.now, self._tick_cb, name="fluid-tick")

    def _cursor(self, link: Link) -> TraceCursor:
        """The persistent monotone cursor for ``link``'s trace."""
        cursor = self._cursors.get(link.name)
        if cursor is None or cursor.trace is not link.trace:
            cursor = TraceCursor(link.trace)
            self._cursors[link.name] = cursor
        return cursor

    def _build_alloc_state(self, flows: List[FluidFlow]) -> _AllocState:
        """Collect links and incidence for the current active-flow set."""
        links: List[Link] = []
        link_index: Dict[str, int] = {}
        flow_links: List[List[int]] = []
        for flow in flows:
            idxs: List[int] = []
            for link in flow.route.links:
                idx = link_index.get(link.name)
                if idx is None:
                    idx = link_index[link.name] = len(links)
                    links.append(link)
                else:
                    self._check_link_merge(links[idx], link)
                idxs.append(idx)
            flow_links.append(idxs)
        return _AllocState(flows, links, flow_links, [self._cursor(link) for link in links])

    @staticmethod
    def _check_link_merge(kept: Link, dup: Link) -> None:
        """Refuse to merge distinct links that share a name but disagree.

        Links are keyed by name, so two distinct :class:`Link` objects with
        the same name become a *single* capacity constraint.  That is the
        intended sharing mechanism when they carry the same trace, but a
        silent merge of links with *different* traces would drop one
        constraint entirely — raise instead.
        """
        if kept is dup or kept.trace is dup.trace:
            return
        if kept.trace != dup.trace:
            raise TransferError(
                f"two distinct links named {kept.name!r} with different "
                "capacity traces are in use by concurrent flows; link names "
                "must identify a unique capacity constraint"
            )

    def _tick(self) -> None:
        if self._vec is not None:
            self._vec.tick()
            return
        now = self._sim.now
        self._tick_event = None
        sanitizer = self._sim.sanitizer
        obs = self._obs
        if obs is not None:
            # One span per constant-rate epoch: from the previous tick to
            # this one, annotated with the flow count that held during it.
            prev = self._last_tick_at
            if prev is not None and now > prev:
                obs.span("tick", "fluid-epoch", prev, now, flows=len(self._active))
            self._last_tick_at = now
            obs.count("engine.ticks")

        # 1. Accrue bytes at the rates chosen at the previous tick.
        for flow in self._active.values():
            flow._advance(now)
        if sanitizer is not None:
            for flow in self._active.values():
                sanitizer.check_flow_progress(flow, now)

        # 2. Detect and finalise completions; callbacks run after removal so
        #    they observe a consistent active set and may start/abort flows.
        finished = [f for f in self._active.values() if f.remaining <= _COMPLETION_SLACK]
        for flow in finished:
            del self._active[flow.id]
            flow._complete(now)
            self.completed_count += 1
            if sanitizer is not None:
                sanitizer.forget_flow(flow.id)
        if finished:
            self._invalidate_alloc("complete")
        for flow in finished:
            if flow.on_complete is not None:
                flow.on_complete(flow)

        # A callback may have scheduled a same-instant tick; drop it, we are
        # about to do that work right now.
        if self._tick_event is not None and self._tick_event.active:
            self._sim.cancel(self._tick_event)
            self._tick_event = None

        if not self._active:
            return

        # 3. Re-solve the allocation over the current active set.
        state = self._alloc_state
        if state is None:
            state = self._alloc_state = self._build_alloc_state(
                list(self._active.values())
            )
            if obs is not None:
                obs.count("alloc.cache_rebuild")
        flows = state.flows
        cursors = state.cursors
        capv = [cursor.value_at(now) for cursor in cursors]
        if obs is not None:
            obs.span(
                "alloc", "solve", now, now,
                flows=len(flows), links=len(state.links),
                disjoint=state.disjoint,
            )
        capl = [flow.cap_at(now) for flow in flows]
        if state.disjoint:
            # No link is shared, so no sharing to arbitrate: each flow
            # gets min(bottleneck, cap) in plain floats, skipping numpy
            # entirely.
            rates: List[float] = []
            for cap, idxs in zip(capl, state.flow_links):
                bottleneck = capv[idxs[0]]
                for i in idxs:
                    v = capv[i]
                    if v < bottleneck:
                        bottleneck = v
                rates.append(bottleneck if bottleneck < cap else cap)
            if obs is not None:
                obs.count("alloc.solve_disjoint_scalar")
        elif len(flows) <= _SCALAR_MAX_FLOWS:
            rates = maxmin_scalar(capv, state.flow_links, capl, observer=obs)
        else:
            lids, frow = state.coords
            rates = waterfill_sparse(
                np.array(capv), lids, frow, len(flows), np.array(capl), observer=obs
            )[0].tolist()
        if sanitizer is not None:
            # Checks the rates the solver that ran returned.
            lids, frow = state.coords
            sanitizer.check_allocation(
                now, np.array(capv), lids, frow, np.array(capl),
                np.array(rates), state.link_names,
            )
        for flow, rate in zip(flows, rates):
            flow.rate = rate
        next_time = float("inf")
        for flow in flows:
            if flow.rate > 0.0:
                next_time = min(next_time, now + flow.remaining / flow.rate)
            next_time = min(next_time, flow.next_cap_increase(now))
        for cursor in cursors:
            next_time = min(next_time, cursor.next_change_after(now))

        # 4. Schedule the next moment any rate could change.
        if math.isinf(next_time):
            raise TransferError(
                f"transfer deadlock at t={now:.3f}: {len(flows)} active flow(s) "
                "have zero rate and no future capacity or window changes"
            )
        # Defensive minimum step: a wake-up so close that float addition
        # cannot advance the clock would spin forever at one instant.
        min_step = 1e-9 * max(now, 1.0)
        self._tick_event = self._sim.schedule_at(
            max(next_time, now + min_step), self._tick_cb, name="fluid-tick"
        )

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def run_to_completion(self, flow: FluidFlow, *, limit: Optional[float] = None) -> FluidFlow:
        """Advance the simulation until ``flow`` finishes; return it.

        Raises :class:`~repro.sim.errors.SimulationDeadlock` if the event
        queue drains first (which indicates an engine bug or an aborted
        flow).
        """
        self._sim.run_until_true(lambda: flow.done, limit=limit)
        return flow
