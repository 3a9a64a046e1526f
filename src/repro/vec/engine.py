"""Struct-of-arrays core driving :class:`repro.tcp.fluid.FluidNetwork`.

A ``FluidNetwork`` promotes itself to a :class:`VectorCore` the first time
its active population exceeds ``repro.tcp.fluid._DENSE_MAX_FLOWS``, and
delegates every later tick to it.  The core keeps the *entire* active
population in numpy arrays:

* per-flow: total/delivered bytes, current rate, activation time and the
  slow-start ramp parameters (rtt, w0, w_max, rounds-to-peak);
* path->link incidence as an append-only CSR (``indptr``/``link_idx``) over
  a persistent global link table;
* per-link: cached capacities for constant traces, a live
  :class:`~repro.net.trace.TraceCursor` for the (few) time-varying ones,
  and an active-flow refcount.

One tick then mirrors the per-object tick's steps with array ops: accrue bytes for
the whole population with one fused ``delivered = min(size, delivered +
rate*dt)`` (valid because every row's last accrual time is the previous
tick — new rows carry rate 0), detect completions with one vectorized scan,
re-solve max-min fairness for everyone at once, and compute the next wake-up
from the next completion, one fused ramp pass (caps and next increase from
one doubling-round computation) and the dynamic trace cursors.  The
simulator's event queue is only touched at epoch boundaries — exactly one
pending ``fluid-tick`` event, as in the per-object tick.

Rows enter and leave by the column.  Activations are buffered and flushed
at the next tick: a population shares a handful of ``Route`` and
``SlowStartRamp`` objects, so the flush interns each distinct route and
reads each distinct ramp once per batch, then fills the row columns and
the CSR with gathers.  Aborts only queue their row; the next same-instant
tick releases them together with that tick's completions in one
vectorised ``_release_rows`` (one CSR gather and ``bincount`` for the link
refcounts).  The solver's gather of the live rows is kept until the rows
change, so ticks that only move a ramp or a trace reuse it.

Byte-identity contract: rows are append-only in activation order (dead rows
are tombstoned and compacted without reordering), so completion callbacks
fire in the per-object tick's dict order and the solver sees columns in its
order.  At populations up to ``_DENSE_MAX_FLOWS`` the allocation is routed
through the *same* dense :func:`repro.tcp.maxmin.maxmin_allocate` call the
per-object tick makes, making results bit-identical; above it the sparse
water-filling of :mod:`repro.vec.solver` takes over (same math, reductions
ordered by CSR position).  A promotion therefore never changes a byte, and
a population that later drains back under the bound stays on the core.

Flow objects stay lazily consistent: the core installs a sync hook on each
:class:`~repro.tcp.flow.FluidFlow` so external readers (watchdogs, stripe
windows, probes) that touch ``flow.delivered`` / ``flow.rate`` mid-flight
transparently materialise the row's array state.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.link import Link
from repro.net.trace import TraceCursor
from repro.sim.errors import TransferError
from repro.tcp.flow import FlowState, FluidFlow
from repro.tcp.fluid import _COMPLETION_SLACK, _DENSE_MAX_FLOWS
from repro.tcp.maxmin import maxmin_allocate
from repro.vec.solver import waterfill_sparse

__all__ = ["VectorCore"]

#: Slow-start round mapping slack (== SlowStartRamp._ROUND_EPS).
_ROUND_EPS = 1e-9

_GROW_MIN = 64


def _slots(objs: Sequence[object]) -> Tuple[list, np.ndarray]:
    """The distinct objects of ``objs`` by identity, in first-appearance
    order, and each element's index into that list."""
    ids = np.array([id(o) for o in objs], dtype=np.int64)
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return [objs[i] for i in first[order].tolist()], rank[inverse]


def _segments(starts: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Flat positions of the (non-empty list of) segments
    ``[starts[i], starts[i] + deg[i])``, concatenated in order."""
    ends = np.cumsum(deg)
    return np.repeat(starts - (ends - deg), deg) + np.arange(ends[-1], dtype=np.int64)


def _grow(arr: np.ndarray, need: int) -> np.ndarray:
    """Return ``arr`` or an enlarged copy with capacity >= ``need``."""
    cap = arr.shape[0]
    if need <= cap:
        return arr
    new_cap = max(_GROW_MIN, cap * 2, need)
    out = np.empty(new_cap, dtype=arr.dtype)
    out[:cap] = arr
    return out


class VectorCore:
    """Batched population state for one :class:`FluidNetwork`."""

    def __init__(self, net) -> None:  # net: repro.tcp.fluid.FluidNetwork
        self._net = net
        # --- per-flow SoA (capacity-doubling arrays, first _n rows live) ---
        self._size = np.empty(_GROW_MIN)
        self._deliv = np.empty(_GROW_MIN)
        self._rate = np.empty(_GROW_MIN)
        self._act = np.empty(_GROW_MIN)
        self._rtt = np.empty(_GROW_MIN)
        self._w0 = np.empty(_GROW_MIN)
        self._wmax = np.empty(_GROW_MIN)
        self._rtp = np.empty(_GROW_MIN)
        self._has_ramp = np.empty(_GROW_MIN, dtype=bool)
        self._alive = np.empty(_GROW_MIN, dtype=bool)
        self._flows: List[Optional[FluidFlow]] = []
        self._row_of: Dict[int, int] = {}
        self._n = 0
        self._dead = 0
        #: Flows activated since the last tick, not yet materialised as
        #: rows.  Bulk-appending at tick start amortises the per-row numpy
        #: scalar writes across the whole batch (a same-instant tick is
        #: always pending when this list is non-empty).
        self._pending: List[FluidFlow] = []
        #: Rows of aborted or completed flows awaiting one batched release.
        self._retiring: List[int] = []
        #: The solve's gather of the live rows (see _gather); None when stale.
        self._gathered: Optional[tuple] = None
        #: Shared capacity of all per-flow arrays (they grow in lockstep,
        #: so one comparison per flush covers every array).
        self._row_cap = _GROW_MIN
        # --- CSR incidence: row r uses link_idx[indptr[r]:indptr[r+1]] ---
        self._indptr = np.zeros(_GROW_MIN + 1, dtype=np.int64)
        self._link_idx = np.empty(_GROW_MIN, dtype=np.int64)
        self._nnz = 0
        # --- global link table (persistent; grows only) ---
        self._lid: Dict[str, int] = {}
        self._links: List[Link] = []
        self._link_cap = np.empty(_GROW_MIN)
        self._link_refs = np.zeros(_GROW_MIN, dtype=np.int64)
        self._dyn: Dict[int, TraceCursor] = {}
        #: Simulation time the delivered array was last accrued to.
        self._accrued_at = float(net._sim.now)

    # ------------------------------------------------------------------ #
    # population maintenance (called by FluidNetwork)
    # ------------------------------------------------------------------ #
    def _grow_rows(self, need: int) -> None:
        self._size = _grow(self._size, need)
        self._deliv = _grow(self._deliv, need)
        self._rate = _grow(self._rate, need)
        self._act = _grow(self._act, need)
        self._rtt = _grow(self._rtt, need)
        self._w0 = _grow(self._w0, need)
        self._wmax = _grow(self._wmax, need)
        self._rtp = _grow(self._rtp, need)
        self._has_ramp = _grow(self._has_ramp, need)
        self._alive = _grow(self._alive, need)
        self._row_cap = int(self._size.shape[0])
        self._indptr = _grow(self._indptr, self._row_cap + 1)

    def add_flow(self, flow: FluidFlow) -> None:
        """Buffer a just-activated flow; rows materialise at the next tick.

        A same-instant ``fluid-tick`` is always scheduled right after this
        call (the network requests one on every activation), so the buffer
        is flushed before any allocation or completion logic can observe
        the population.  Until then the flow's own scalars are authoritative
        (rate 0, delivered as at activation), so readers stay consistent.
        """
        self._pending.append(flow)

    def _flush_pending(self) -> None:
        """Materialise buffered flows as rows, in activation order.

        Flows aborted while buffered are skipped.  A population shares a
        handful of :class:`Route` and ramp objects, so each distinct route
        is interned once and each distinct ramp read once; the row columns
        and the CSR are then filled by gathers over those few slots.
        """
        pend = [f for f in self._pending if f.state is FlowState.ACTIVE]
        self._pending = []
        if not pend:
            return
        row0 = self._n
        row = row0 + len(pend)
        if row > self._row_cap:
            self._grow_rows(row)
        routes, rslot = _slots([f.route for f in pend])
        ramps, pslot = _slots([f.ramp for f in pend])

        # Intern each route at its first appearance, bumping its links'
        # refcounts once then, so _intern_link's in-use conflict check sees
        # every earlier route of this batch exactly as a per-flow walk would.
        intern = self._intern_link
        rlids: List[int] = []
        rdeg: List[int] = []
        for route in routes:
            lids = [intern(link) for link in route.links]
            # Interning may reallocate the refs array: re-read it here.
            refs = self._link_refs
            for l in lids:
                refs[l] += 1
            rlids.extend(lids)
            rdeg.append(len(lids))
        rl = np.array(rlids, dtype=np.int64)
        rd = np.array(rdeg, dtype=np.int64)
        uses = np.bincount(rslot, minlength=len(routes))
        np.add.at(self._link_refs, rl, np.repeat(uses - 1, rd))

        # CSR: each row copies its route's segment of ``rl``.
        deg = rd[rslot]
        seg = rl[_segments((np.cumsum(rd) - rd)[rslot], deg)]
        start = self._nnz
        end = start + seg.size
        self._link_idx = _grow(self._link_idx, end)
        self._link_idx[start:end] = seg
        self._indptr[row0 + 1 : row + 1] = start + np.cumsum(deg)
        self._nnz = end

        # Ramp columns, gathered from one parameter row per distinct ramp.
        # A flow without a ramp gets (1, 1, 1, 0): see _ramp.
        params = np.array(
            [
                (r.rtt, r.initial_window, r.max_window, float(r.rounds_to_peak()))
                if r is not None
                else (1.0, 1.0, 1.0, 0.0)
                for r in ramps
            ]
        )[pslot]
        self._rtt[row0:row] = params[:, 0]
        self._w0[row0:row] = params[:, 1]
        self._wmax[row0:row] = params[:, 2]
        self._rtp[row0:row] = params[:, 3]
        self._has_ramp[row0:row] = np.array([r is not None for r in ramps])[pslot]
        self._size[row0:row] = [f.size for f in pend]
        self._deliv[row0:row] = [f._delivered for f in pend]
        self._act[row0:row] = [f.activated_at for f in pend]
        self._rate[row0:row] = 0.0
        self._alive[row0:row] = True

        self._flows.extend(pend)
        self._row_of.update(zip([f.id for f in pend], range(row0, row)))
        hook = self._sync_flow
        for flow in pend:
            flow._sync = hook
        self._n = row
        self._gathered = None

    def detach_flow(self, flow: FluidFlow) -> None:
        """Materialise an aborting flow's row and queue it for release.

        The row is released by the next same-instant tick; a flow still in
        the buffer needs nothing, since the flush skips flows no longer
        active.
        """
        row = self._row_of.get(flow.id)
        if row is None:
            return
        self._sync_flow(flow)
        self._retiring.append(row)
        flow._sync = None

    def _release_rows(self) -> None:
        """Tombstone every queued row and drop its link references at once."""
        rows = self._retiring
        self._retiring = []
        idx = np.array(rows, dtype=np.int64)
        starts = self._indptr[idx]
        lids = self._link_idx[_segments(starts, self._indptr[idx + 1] - starts)]
        counts = np.bincount(lids)
        self._link_refs[: counts.size] -= counts
        self._alive[idx] = False
        self._rate[idx] = 0.0
        self._dead += len(rows)
        self._gathered = None
        flows = self._flows
        row_of = self._row_of
        for r in rows:
            del row_of[flows[r].id]
            flows[r] = None

    def _sync_flow(self, flow: FluidFlow) -> None:
        """Sync hook: copy a row's array state back onto the flow object."""
        row = self._row_of.get(flow.id)
        if row is None:
            return
        flow._delivered = float(self._deliv[row])
        flow._rate = float(self._rate[row])
        flow._last_update = self._accrued_at

    # ------------------------------------------------------------------ #
    # link table
    # ------------------------------------------------------------------ #
    def _intern_link(self, link: Link) -> int:
        lid = self._lid.get(link.name)
        if lid is None:
            lid = len(self._links)
            self._links.append(link)
            self._link_cap = _grow(self._link_cap, lid + 1)
            self._link_refs = _grow(self._link_refs, lid + 1)
            self._link_refs[lid] = 0
            self._lid[link.name] = lid
            self._install_link(lid, link)
            return lid
        stored = self._links[lid]
        if stored is link or stored.trace is link.trace:
            return lid
        if self._link_refs[lid] > 0:
            if stored.trace != link.trace:
                raise TransferError(
                    f"two distinct links named {stored.name!r} with different "
                    "capacity traces are in use by concurrent flows; link names "
                    "must identify a unique capacity constraint"
                )
            return lid
        # No active flow uses the old entry: adopt the new link's trace
        # (mirrors the per-object tick replacing a stale cursor after e.g. an outage
        # rebuild swapped in a modified trace under the same link name).
        self._links[lid] = link
        self._install_link(lid, link)
        return lid

    def _install_link(self, lid: int, link: Link) -> None:
        trace = link.trace
        if trace.n_pieces == 1:
            # Constant trace: capacity never changes, no cursor needed.
            self._dyn.pop(lid, None)
            self._link_cap[lid] = float(trace.values[0])
        else:
            self._dyn[lid] = TraceCursor(trace)
            self._link_cap[lid] = float(trace.values[0])

    # ------------------------------------------------------------------ #
    # the tick
    # ------------------------------------------------------------------ #
    def tick(self) -> None:
        """One fluid tick over the whole population (mirrors the per-object tick)."""
        net = self._net
        sim = net._sim
        now = sim.now
        net._tick_event = None
        obs = net._obs
        if obs is not None:
            prev = net._last_tick_at
            if prev is not None and now > prev:
                obs.span("tick", "fluid-epoch", prev, now, flows=len(net._active))
            net._last_tick_at = now
            obs.count("engine.ticks")
        if self._retiring:
            self._release_rows()  # rows of flows aborted since the last tick

        # 1. Accrue bytes at the rates chosen at the previous tick.  Every
        # live row's rate was assigned at the previous tick (rows added since
        # carry rate 0), so one global dt is exact.  Buffered activations
        # flush afterwards — their rows also enter at rate 0, before the
        # completion scan, exactly where the per-object tick would see them.
        n = self._n
        if n and now > self._accrued_at:
            dt = now - self._accrued_at
            d = self._deliv[:n]
            np.minimum(self._size[:n], d + self._rate[:n] * dt, out=d)
        self._accrued_at = now
        if self._pending:
            self._flush_pending()
            n = self._n

        # 2. Detect and finalise completions in activation (row) order;
        # callbacks run after removal, exactly as in the per-object tick.
        # Completed rows join the release queue, so they and any flow a
        # callback aborts are released together below.
        finished: List[FluidFlow] = []
        if n:
            done = np.flatnonzero(
                self._alive[:n]
                & (self._size[:n] - self._deliv[:n] <= _COMPLETION_SLACK)
            ).tolist()
            flows = self._flows
            finished = [flows[r] for r in done]
            self._retiring.extend(done)
            active = net._active
            for flow in finished:
                del active[flow.id]
                flow._complete(now)
            net.completed_count += len(finished)
        for flow in finished:
            if flow.on_complete is not None:
                flow.on_complete(flow)
        if self._retiring:
            self._release_rows()

        # A callback may have scheduled a same-instant tick; drop it.
        if net._tick_event is not None and net._tick_event.active:
            sim.cancel(net._tick_event)
            net._tick_event = None

        if not net._active:
            return

        if self._dead > _GROW_MIN and self._dead * 2 > self._n:
            self._compact()
            if obs is not None:
                obs.count("vec.compactions")

        # 3. Re-solve the allocation over the whole population.
        if self._gathered is None:
            self._gathered = self._gather()
        rows, n_flows, lids, frow = self._gathered
        caps, ramp_next = self._ramp(rows, now)

        # Refresh time-varying link capacities through their cursors.
        for lid, cursor in sorted(self._dyn.items()):
            if self._link_refs[lid] > 0:
                self._link_cap[lid] = cursor.value_at(now)

        if obs is not None:
            obs.gauge("vec.population", float(n_flows))
            n_used = int(np.count_nonzero(self._link_refs[: len(self._links)] > 0))
            obs.span("alloc", "solve", now, now, flows=n_flows, links=n_used)

        if n_flows <= _DENSE_MAX_FLOWS:
            # Small population: run the per-object tick's own dense solver
            # on its own inputs — bit-identical rates by construction.
            ulinks, inv = np.unique(lids, return_inverse=True)
            incidence = np.zeros((ulinks.size, n_flows), dtype=bool)
            incidence[inv, frow] = True
            link_counts = np.bincount(inv, minlength=ulinks.size)
            disjoint = bool(link_counts.max(initial=0) <= 1)
            rates = maxmin_allocate(
                self._link_cap[ulinks],
                incidence,
                caps,
                validate=False,
                fast=disjoint,
                observer=obs,
            )
            if obs is not None:
                obs.count("vec.solve_dense")
        else:
            m = len(self._links)
            rates, _ = waterfill_sparse(
                self._link_cap[:m], lids, frow, n_flows, caps, observer=obs
            )
            if obs is not None:
                obs.count("vec.solve_sparse")
        self._rate[rows] = rates

        # 4. Next wake-up: first completion, ramp increase or trace change.
        next_time = ramp_next
        pos = rates > 0.0
        if pos.any():
            t_done = now + (self._size[rows][pos] - self._deliv[rows][pos]) / rates[pos]
            next_time = min(float(t_done.min()), next_time)
        for lid, cursor in sorted(self._dyn.items()):
            if self._link_refs[lid] > 0:
                nxt = cursor.next_change_after(now)
                if nxt < next_time:
                    next_time = nxt

        if math.isinf(next_time):
            raise TransferError(
                f"transfer deadlock at t={now:.3f}: {n_flows} active flow(s) "
                "have zero rate and no future capacity or window changes"
            )
        min_step = 1e-9 * max(now, 1.0)
        net._tick_event = sim.schedule_at(
            max(next_time, now + min_step), net._tick_cb, name="fluid-tick"
        )

    def _gather(self) -> tuple:
        """The live population's solver coordinates, in activation order:
        its rows, their count, and each CSR entry's link id and flow index.

        With no tombstones the stored CSR *is* the gather and every column
        is read through a slice; otherwise dead rows' segments are masked
        out.  The result holds until the rows change (flush, release or
        compaction), so ticks that only move a ramp or a trace reuse it.
        """
        n = self._n
        deg = self._indptr[1 : n + 1] - self._indptr[:n]
        if self._dead == 0:
            frow = np.repeat(np.arange(n, dtype=np.int64), deg)
            return slice(0, n), n, self._link_idx[: self._nnz], frow
        alive = self._alive[:n]
        rows = np.flatnonzero(alive)
        lids = self._link_idx[: self._nnz][np.repeat(alive, deg)]
        frow = np.repeat(np.arange(rows.size, dtype=np.int64), deg[rows])
        return rows, int(rows.size), lids, frow

    # ------------------------------------------------------------------ #
    # vectorized ramp math (bit-identical to SlowStartRamp.cap_at /
    # next_increase_after for elapsed >= 0)
    # ------------------------------------------------------------------ #
    def _ramp(self, rows, now: float) -> Tuple[np.ndarray, float]:
        """Rate caps of ``rows`` (a slice or index array) at ``now``, and
        the earliest later instant any of their caps increases.

        The doubling round is computed once and feeds both.  Rows without
        a ramp carry rounds-to-peak 0, so their next increase is always
        past the peak (``inf``) and only their caps need masking.
        """
        rtt = self._rtt[rows]
        act = self._act[rows]
        rtp = self._rtp[rows]
        k = np.floor((now - act) / rtt + _ROUND_EPS)
        window = self._w0[rows] * np.exp2(np.minimum(k, rtp))
        caps = np.minimum(window, self._wmax[rows]) / rtt
        caps[~self._has_ramp[rows]] = np.inf
        k += 1.0
        nxt = act + k * rtt
        nxt[k > rtp] = np.inf
        return caps, float(nxt.min())

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def _compact(self) -> None:
        """Drop tombstoned rows, preserving activation order."""
        n = self._n
        keep = self._alive[:n]
        k = int(np.count_nonzero(keep))
        deg = self._indptr[1 : n + 1] - self._indptr[:n]
        nnz_keep = np.repeat(keep, deg)
        new_link_idx = self._link_idx[: self._nnz][nnz_keep]
        new_deg = deg[keep]
        self._indptr[0] = 0
        self._indptr[1 : k + 1] = np.cumsum(new_deg)
        self._nnz = int(new_link_idx.size)
        self._link_idx[: self._nnz] = new_link_idx
        for arr in (
            self._size, self._deliv, self._rate, self._act,
            self._rtt, self._w0, self._wmax, self._rtp,
        ):
            arr[:k] = arr[:n][keep]
        self._has_ramp[:k] = self._has_ramp[:n][keep]
        self._alive[:k] = True
        flows = [f for f in self._flows if f is not None]
        assert len(flows) == k
        self._flows = flows
        for i, f in enumerate(flows):
            self._row_of[f.id] = i
        self._n = k
        self._dead = 0
        self._gathered = None
