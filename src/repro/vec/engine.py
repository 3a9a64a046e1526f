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
with vectorized next-completion / next-ramp-increase scans plus the dynamic
trace cursors.  The simulator's event queue is only touched at epoch
boundaries — exactly one pending ``fluid-tick`` event, as in the per-object
tick.

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
from typing import Dict, List, Optional

import numpy as np

from repro.net.link import Link
from repro.net.trace import TraceCursor
from repro.sim.errors import TransferError
from repro.tcp.flow import FluidFlow
from repro.tcp.fluid import _COMPLETION_SLACK, _DENSE_MAX_FLOWS
from repro.tcp.maxmin import maxmin_allocate
from repro.vec.solver import waterfill_sparse

__all__ = ["VectorCore"]

#: Slow-start round mapping slack (== SlowStartRamp._ROUND_EPS).
_ROUND_EPS = 1e-9

_GROW_MIN = 64


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
        #: Shared capacity of all per-flow arrays (they grow in lockstep,
        #: so one comparison per add_flow covers every array).
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
        """Materialise buffered flows as rows, in activation order."""
        pend = self._pending
        row0 = self._n
        need = row0 + len(pend)
        if need > self._row_cap:
            self._grow_rows(need)
        intern = self._intern_link
        row_of = self._row_of
        flows = self._flows
        size_l: List[float] = []
        deliv_l: List[float] = []
        act_l: List[float] = []
        rtt_l: List[float] = []
        w0_l: List[float] = []
        wmax_l: List[float] = []
        rtp_l: List[float] = []
        ramp_l: List[bool] = []
        deg_l: List[int] = []
        lids_l: List[int] = []
        row = row0
        for flow in pend:
            lids = [intern(link) for link in flow.route.links]
            # Refcounts go up per flow (not deferred to the batch end) so
            # _intern_link's in-use conflict check sees earlier flows of
            # this same batch.  Route links are name-unique, and interning
            # may have reallocated the refs array, so re-read it here.
            refs = self._link_refs
            for l in lids:
                refs[l] += 1
            lids_l.extend(lids)
            deg_l.append(len(lids))
            size_l.append(flow.size)
            deliv_l.append(flow._delivered)
            act_l.append(
                flow.activated_at if flow.activated_at is not None else 0.0
            )
            ramp = flow.ramp
            if ramp is None:
                ramp_l.append(False)
                rtt_l.append(1.0)
                w0_l.append(1.0)
                wmax_l.append(1.0)
                rtp_l.append(0.0)
            else:
                ramp_l.append(True)
                rtt_l.append(ramp.rtt)
                w0_l.append(ramp.initial_window)
                wmax_l.append(ramp.max_window)
                rtp_l.append(float(ramp.rounds_to_peak()))
            flows.append(flow)
            row_of[flow.id] = row
            flow._sync = self._sync_flow
            row += 1
        pend.clear()

        self._size[row0:row] = size_l
        self._deliv[row0:row] = deliv_l
        self._rate[row0:row] = 0.0
        self._act[row0:row] = act_l
        self._rtt[row0:row] = rtt_l
        self._w0[row0:row] = w0_l
        self._wmax[row0:row] = wmax_l
        self._rtp[row0:row] = rtp_l
        self._has_ramp[row0:row] = ramp_l
        self._alive[row0:row] = True

        start = self._nnz
        end = start + len(lids_l)
        self._link_idx = _grow(self._link_idx, end)
        self._link_idx[start:end] = lids_l
        self._indptr[row0 + 1 : row + 1] = start + np.cumsum(deg_l)
        self._nnz = end
        self._n = row

    def detach_flow(self, flow: FluidFlow) -> None:
        """Materialise and drop an active flow's row (abort path)."""
        row = self._row_of.get(flow.id)
        if row is None:
            # Activated but not yet flushed (aborted between the activation
            # event and the same-instant tick): drop it from the buffer.
            pend = self._pending
            for i, f in enumerate(pend):
                if f is flow:
                    del pend[i]
                    break
            return
        self._sync_flow(flow)
        self._release_row(row)
        flow._sync = None

    def _release_row(self, row: int) -> None:
        flow = self._flows[row]
        assert flow is not None
        del self._row_of[flow.id]
        self._flows[row] = None
        self._alive[row] = False
        self._rate[row] = 0.0
        s, e = int(self._indptr[row]), int(self._indptr[row + 1])
        self._link_refs[self._link_idx[s:e]] -= 1
        self._dead += 1

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
        finished: List[FluidFlow] = []
        if n:
            done_rows = np.flatnonzero(
                self._alive[:n]
                & (self._size[:n] - self._deliv[:n] <= _COMPLETION_SLACK)
            )
            if done_rows.size > 8:
                # Batch the array-side release; the per-flow loop below
                # keeps the per-object tick's removal/callback ordering.
                degd = (
                    self._indptr[done_rows + 1] - self._indptr[done_rows]
                )
                offs = np.arange(int(degd.sum()), dtype=np.int64) - np.repeat(
                    np.cumsum(degd) - degd, degd
                )
                dlids = self._link_idx[
                    np.repeat(self._indptr[done_rows], degd) + offs
                ]
                counts = np.bincount(dlids, minlength=len(self._links))
                self._link_refs[: counts.size] -= counts
                self._alive[done_rows] = False
                self._rate[done_rows] = 0.0
                self._dead += int(done_rows.size)
                for r in done_rows:
                    flow = self._flows[int(r)]
                    assert flow is not None
                    finished.append(flow)
                    del net._active[flow.id]
                    del self._row_of[flow.id]
                    self._flows[int(r)] = None
                    flow._complete(now)
                    net.completed_count += 1
            else:
                for r in done_rows:
                    flow = self._flows[int(r)]
                    assert flow is not None
                    finished.append(flow)
                    del net._active[flow.id]
                    self._release_row(int(r))
                    flow._complete(now)
                    net.completed_count += 1
        for flow in finished:
            if flow.on_complete is not None:
                flow.on_complete(flow)

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

        # 3. Re-solve the allocation over the whole population.  Gather the
        # population's CSR coordinates (activation order): with no
        # tombstones the stored CSR *is* the gather; otherwise mask dead
        # rows' segments out of it.
        n = self._n
        deg = self._indptr[1 : n + 1] - self._indptr[:n]
        if self._dead == 0:
            n_flows = n
            rows = np.arange(n, dtype=np.int64)
            lids = self._link_idx[: self._nnz]
            frow = np.repeat(rows, deg)
        else:
            alive = self._alive[:n]
            rows = np.flatnonzero(alive)
            n_flows = int(rows.size)
            degr = deg[rows]
            keep_nz = np.repeat(alive, deg)
            lids = self._link_idx[: self._nnz][keep_nz]
            frow = np.repeat(np.arange(n_flows, dtype=np.int64), degr)
        caps = self._flow_caps(rows, now)

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
        next_time = float("inf")
        pos = rates > 0.0
        if pos.any():
            t_done = now + (self._size[rows][pos] - self._deliv[rows][pos]) / rates[pos]
            next_time = float(t_done.min())
        ramp_next = self._next_cap_increase(rows, now)
        if ramp_next < next_time:
            next_time = ramp_next
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

    # ------------------------------------------------------------------ #
    # vectorized ramp math (bit-identical to SlowStartRamp.cap_at /
    # next_increase_after for elapsed >= 0)
    # ------------------------------------------------------------------ #
    def _flow_caps(self, rows: np.ndarray, now: float) -> np.ndarray:
        rtt = self._rtt[rows]
        elapsed = now - self._act[rows]
        k = np.floor(elapsed / rtt + _ROUND_EPS)
        np.minimum(k, self._rtp[rows], out=k)
        window = self._w0[rows] * np.exp2(k)
        caps = np.minimum(window, self._wmax[rows]) / rtt
        caps[~self._has_ramp[rows]] = np.inf
        return caps

    def _next_cap_increase(self, rows: np.ndarray, now: float) -> float:
        ramped = self._has_ramp[rows]
        if not ramped.any():
            return float("inf")
        r = rows[ramped]
        rtt = self._rtt[r]
        k = np.floor((now - self._act[r]) / rtt + _ROUND_EPS) + 1.0
        nxt = self._act[r] + k * rtt
        nxt[k > self._rtp[r]] = np.inf
        return float(nxt.min())

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
