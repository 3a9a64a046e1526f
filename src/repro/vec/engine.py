"""Struct-of-arrays core driving a probe race's :class:`repro.tcp.fluid.FluidNetwork`.

A network running a probe race
(:meth:`~repro.tcp.fluid.FluidNetwork.start_races`) delegates every tick
to a :class:`VectorCore`; object flows never run here (the per-object tick
is faster on the handful of flows a session runs, DESIGN.md §12).  The
core keeps the *entire* active population in numpy arrays:

* per-row: total/delivered bytes, current rate, an alive mask, the row's
  cohort, and the race's client and row kind;
* per-cohort: the rows of one admission batch that share a route, and so
  a ramp and an activation instant.  A cohort holds its links (a small
  CSR, ``indptr``/``link_idx``, over a persistent global link table), its
  activation time, its slow-start ramp parameters (rtt, w0, w_max,
  rounds-to-peak) and its live multiplicity;
* per-link: cached capacities for constant traces, a live
  :class:`~repro.net.trace.TraceCursor` for the (few) time-varying ones,
  and an active-row refcount.

One tick then mirrors the per-object tick's steps with array ops: accrue bytes for
the whole population with one fused ``delivered = min(size, delivered +
rate*dt)`` (valid because every row's last accrual time is the previous
tick — new rows carry rate 0), detect completions with one vectorized scan,
re-solve max-min fairness for everyone at once, and compute the next wake-up
from the next completion, one fused ramp pass over the live cohorts (caps
and next increase from one doubling-round computation) and the dynamic
trace cursors.  The simulator's event queue is only touched at epoch
boundaries — exactly one pending ``fluid-tick`` event, as in the per-object
tick.

Every population-sized step of a tick runs over the first ``n`` rows of the
columns, dead rows included, and writes into two work columns sized with
the row capacity (``_work`` and ``_flag``; they hold nothing between ticks),
so a tick that leaves the rows as they were allocates nothing the size of
the population.  That rests on one invariant: a dead row reads rate 0.
``_release_rows`` zeroes it, and the rate column is rewritten by one
``take`` of the per-cohort rates with a 0 appended, which every dead row
reads.  So a dead row accrues nothing, and in the next-completion scan its
``remaining / rate`` is ``inf`` (or NaN with nothing remaining), which
``fmin`` passes over.  Only a rows solve, when the cohort solve cannot give
its bits, scatters rates into the live rows.

Rows enter and leave by the column.  The race
(:class:`repro.vec.race.ProbeRace`) buffers its activations and flushes
them at the next tick through :meth:`VectorCore._append_rows`; it settles
each tick's completed rows by the column and returns them with the probes
they beat, and ``_release_rows`` tombstones them all at once (per-cohort
multiplicities and link refcounts drop by one ``bincount`` each).  The
solver's gather of the live population is kept until the rows change, so
ticks that only move a ramp or a trace reuse it.

Byte-identity contract: rows are append-only in activation order (dead rows
are tombstoned and compacted without reordering), so the race settles
completions in the order per-flow callbacks would run.  When no link
carries two live rows (no link refcount above 1) each row gets
``min(bottleneck, cap)``, the per-object tick's rule for disjoint flows.
Otherwise the sparse water-filling of :mod:`repro.vec.solver` solves one
flow per live cohort, weighted by its multiplicity, and returns the rates
the row-by-row solve would (see that module for why).  When it cannot (a
cap round freezing two cap values on one link), the tick re-solves the
expanded rows and counts ``vec.cohort_fallbacks``.  The per-object tick's
shared solvers sum frozen caps in the same order as the rows solve, so a
race equals its per-object reference (``tests/scale_oracle.py``) at any
population.

Under a sanitizer the core checks its columns on every tick: QA-R002 on
``delivered``/``size``/``rate`` against the previous tick's snapshot, and
QA-R006, QA-R004 and QA-R003 on the solve's row coordinates, caps and rates
through :func:`repro.vec.solver.certify_maxmin`, so the cohort solve is
certified row by row.  The snapshot column ``_snap`` exists only when the
simulator has a sanitizer, which is fixed when the simulator is built, so
a plain run neither writes, grows nor compacts it.  The checks only read,
so a sanitized race solves exactly like a plain one.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net.link import Link
from repro.net.trace import TraceCursor
from repro.sim.errors import TransferError
from repro.tcp.fluid import _COMPLETION_SLACK
from repro.vec.solver import waterfill_sparse

__all__ = ["VectorCore"]

#: Slow-start round mapping slack (== SlowStartRamp._ROUND_EPS).
_ROUND_EPS = 1e-9

_GROW_MIN = 64


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


class _Gather:
    """The live population's solver problem, kept until the rows change.

    ``rows`` (a slice or index array, ``n`` of them) are the live rows in
    activation order and ``cohorts`` the live cohorts in table order.  Row
    ``i`` of the core's columns belongs to live cohort ``of_all[i]`` (an
    index into ``cohorts``); a dead row reads ``cohorts.size``, one past
    the last, so a rate per cohort with a 0 appended expands to the whole
    rate column by one ``take``.  Entry ``j`` of ``lids``/``frow`` says live
    cohort ``frow[j]`` crosses link ``lids[j]``; ``deg`` and ``mult`` are
    each live cohort's link count and multiplicity.  ``disjoint`` says no
    link carries two rows.  ``of`` (the live rows' cohorts) and ``coords``
    (the rows' own coordinate lists) are built on first use: only a row
    solve and the sanitizer read them.
    """

    __slots__ = (
        "rows", "n", "cohorts", "of_all", "lids", "frow", "deg", "mult",
        "disjoint", "of", "coords",
    )

    def __init__(self, rows, n, cohorts, of_all, lids, frow, deg, mult, disjoint) -> None:
        self.rows, self.n, self.cohorts, self.of_all = rows, n, cohorts, of_all
        self.lids, self.frow, self.deg, self.mult = lids, frow, deg, mult
        self.disjoint = disjoint
        self.of: Optional[np.ndarray] = None
        self.coords: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def live_of(self) -> np.ndarray:
        """Each live row's cohort, an index into ``cohorts``."""
        if self.of is None:
            self.of = self.of_all[self.rows]
        return self.of

    def row_coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """The rows' ``(lids, frow)``, each row's links in route order."""
        if self.coords is None:
            of = self.live_of()
            rdeg = self.deg[of]
            start = (np.cumsum(self.deg) - self.deg)[of]
            self.coords = (
                self.lids[_segments(start, rdeg)],
                np.repeat(np.arange(self.n, dtype=np.int64), rdeg),
            )
        return self.coords


class VectorCore:
    """Batched population state for one probe race's :class:`FluidNetwork`."""

    def __init__(self, net) -> None:  # net: repro.tcp.fluid.FluidNetwork
        self._net = net
        # --- per-row SoA (capacity-doubling arrays, first _n rows live) ---
        self._size = np.empty(_GROW_MIN)
        self._deliv = np.empty(_GROW_MIN)
        self._rate = np.empty(_GROW_MIN)
        self._alive = np.empty(_GROW_MIN, dtype=bool)
        self._cohort = np.empty(_GROW_MIN, dtype=np.int64)
        #: Delivered bytes at the previous tick: the sanitizer's QA-R002
        #: baseline.  A simulator's sanitizer is fixed at its construction,
        #: so a plain run never keeps one.
        self._snap = None if net._sim.sanitizer is None else np.empty(_GROW_MIN)
        #: Work columns for the tick's column arithmetic: they hold nothing
        #: between ticks, so a step writes into them instead of allocating.
        self._work = np.empty(_GROW_MIN)
        self._flag = np.empty(_GROW_MIN, dtype=bool)
        #: A race row's client and kind (see repro.vec.race).
        self._client = np.empty(_GROW_MIN, dtype=np.int64)
        self._kind = np.empty(_GROW_MIN, dtype=np.int8)
        #: The probe race these rows belong to (set by start_races).
        self._race = None
        self._n = 0
        self._dead = 0
        #: The solve's gather of the live population; None when stale.
        self._gathered: Optional[_Gather] = None
        #: Shared capacity of all per-row arrays (they grow in lockstep,
        #: so one comparison per flush covers every array).
        self._row_cap = _GROW_MIN
        # --- cohort table (first _nc cohorts; empty ones go at compaction) ---
        self._c_act = np.empty(_GROW_MIN)
        self._c_rtt = np.empty(_GROW_MIN)
        self._c_w0 = np.empty(_GROW_MIN)
        self._c_wmax = np.empty(_GROW_MIN)
        self._c_rtp = np.empty(_GROW_MIN)
        #: Live rows of each cohort.
        self._c_mult = np.empty(_GROW_MIN, dtype=np.int64)
        self._nc = 0
        # --- cohort links: cohort c uses link_idx[indptr[c]:indptr[c+1]] ---
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
    # population maintenance (called by the race)
    # ------------------------------------------------------------------ #
    def _grow_rows(self, need: int) -> None:
        self._size = _grow(self._size, need)
        self._deliv = _grow(self._deliv, need)
        self._rate = _grow(self._rate, need)
        self._alive = _grow(self._alive, need)
        self._cohort = _grow(self._cohort, need)
        if self._snap is not None:
            self._snap = _grow(self._snap, need)
        self._client = _grow(self._client, need)
        self._kind = _grow(self._kind, need)
        self._row_cap = cap = int(self._size.shape[0])
        self._work = np.empty(cap)
        self._flag = np.empty(cap, dtype=bool)

    def _grow_cohorts(self, need: int) -> None:
        self._c_act = _grow(self._c_act, need)
        self._c_rtt = _grow(self._c_rtt, need)
        self._c_w0 = _grow(self._c_w0, need)
        self._c_wmax = _grow(self._c_wmax, need)
        self._c_rtp = _grow(self._c_rtp, need)
        self._c_mult = _grow(self._c_mult, need)
        self._indptr = _grow(self._indptr, int(self._c_act.shape[0]) + 1)

    def _append_rows(self, cohort, rl, rd, route, ramp, act, size) -> int:
        """Append one row per entry of ``cohort``; return the first new row.

        Row ``i`` belongs to new cohort ``cohort[i]`` (labels ``0..k-1``,
        each used) and has ``size[i]`` bytes to deliver.  New cohort ``j``
        uses the links of route ``route[j]``, whose ``rd[r]`` interned link
        ids lie concatenated in ``rl``; ``ramp[j]`` holds its (rtt, initial
        window, max window, rounds to peak) and ``act[j]`` its activation
        instant.  Link refcounts are the caller's to bump.
        """
        k = route.size
        c0 = self._nc
        c1 = c0 + k
        if c1 > self._c_act.shape[0]:
            self._grow_cohorts(c1)
        deg = rd[route]
        seg = rl[_segments((np.cumsum(rd) - rd)[route], deg)]
        start = self._nnz
        end = start + seg.size
        self._link_idx = _grow(self._link_idx, end)
        self._link_idx[start:end] = seg
        self._indptr[c0 + 1 : c1 + 1] = start + np.cumsum(deg)
        self._nnz = end
        self._c_rtt[c0:c1] = ramp[:, 0]
        self._c_w0[c0:c1] = ramp[:, 1]
        self._c_wmax[c0:c1] = ramp[:, 2]
        self._c_rtp[c0:c1] = ramp[:, 3]
        self._c_act[c0:c1] = act
        self._c_mult[c0:c1] = np.bincount(cohort, minlength=k)
        self._nc = c1

        row0 = self._n
        row = row0 + cohort.size
        if row > self._row_cap:
            self._grow_rows(row)
        self._cohort[row0:row] = cohort + c0
        self._size[row0:row] = size
        self._deliv[row0:row] = 0.0
        if self._snap is not None:
            self._snap[row0:row] = 0.0
        self._rate[row0:row] = 0.0
        self._alive[row0:row] = True
        self._n = row
        self._gathered = None
        return row0

    def _release_rows(self, rows: np.ndarray) -> None:
        """Tombstone ``rows`` and drop their cohorts' multiplicities and
        link references at once."""
        gone = np.bincount(self._cohort[rows])
        cohorts = np.flatnonzero(gone)
        gone = gone[cohorts]
        self._c_mult[cohorts] -= gone
        starts = self._indptr[cohorts]
        deg = self._indptr[cohorts + 1] - starts
        lids = self._link_idx[_segments(starts, deg)]
        counts = np.bincount(lids, weights=np.repeat(gone, deg)).astype(np.int64)
        self._link_refs[: counts.size] -= counts
        self._alive[rows] = False
        self._rate[rows] = 0.0
        self._dead += rows.size
        self._gathered = None

    # ------------------------------------------------------------------ #
    # link table
    # ------------------------------------------------------------------ #
    def _intern_link(self, link: Link) -> int:
        """The link table's id for ``link``'s name, adding it on first use.

        The race checks up front that links sharing a name share a trace,
        so the first such link stands for all of them.
        """
        lid = self._lid.get(link.name)
        if lid is None:
            lid = len(self._links)
            self._links.append(link)
            self._link_cap = _grow(self._link_cap, lid + 1)
            self._link_refs = _grow(self._link_refs, lid + 1)
            self._link_refs[lid] = 0
            self._lid[link.name] = lid
            trace = link.trace
            self._link_cap[lid] = float(trace.values[0])
            if trace.n_pieces > 1:
                self._dyn[lid] = TraceCursor(trace)
        return lid

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
                obs.span("tick", "fluid-epoch", prev, now, flows=self._race.live)
            net._last_tick_at = now
            obs.count("engine.ticks")

        # 1. Accrue bytes at the rates chosen at the previous tick.  Every
        # live row's rate was assigned at the previous tick (rows added since
        # carry rate 0), so one global dt is exact.  Buffered activations
        # flush afterwards — their rows also enter at rate 0, before the
        # completion scan, exactly where the per-object tick would see them.
        n = self._n
        if n and now > self._accrued_at:
            self._accrue(n, now - self._accrued_at)
        self._accrued_at = now
        race = self._race
        if race.pending:
            race.flush()
        n = self._n
        sanitizer = sim.sanitizer
        if sanitizer is not None and n:
            snap = self._snap[:n]
            sanitizer.check_rows_progress(
                now, self._deliv[:n], snap, self._size[:n], self._rate[:n],
                self._alive[:n],
            )
            snap[:] = self._deliv[:n]

        # 2. Detect completions in activation (row) order; the race settles
        # them by the column (repro.vec.race) and they are released with the
        # probes they beat.
        if n:
            done = self._completed(n)
            net.completed_count += done.size
            if done.size:
                self._release_rows(race.complete(done, now))

        if not race.live:
            return

        if self._dead > _GROW_MIN and self._dead * 2 > n:
            self._compact()
            n = self._n
            if obs is not None:
                obs.count("vec.compactions")

        # 3. Re-solve the allocation over the whole population.
        if self._gathered is None:
            self._gathered = self._gather()
        g = self._gathered
        rows, n_flows = g.rows, g.n
        c_caps, ramp_next = self._ramp(g.cohorts, now)

        # Refresh time-varying link capacities through their cursors.
        for lid, cursor in sorted(self._dyn.items()):
            if self._link_refs[lid] > 0:
                self._link_cap[lid] = cursor.value_at(now)

        if obs is not None:
            obs.gauge("vec.population", float(n_flows))
            n_used = int(np.count_nonzero(self._link_refs[: len(self._links)] > 0))
            obs.span("alloc", "solve", now, now, flows=n_flows, links=n_used)

        m = len(self._links)
        if g.disjoint:
            # No link carries two rows, so every cohort is one row and
            # each gets min(bottleneck, cap): the per-object tick's rule.
            bottleneck = np.full(g.cohorts.size, np.inf)
            np.minimum.at(bottleneck, g.frow, self._link_cap[g.lids])
            c_rates = np.minimum(bottleneck, c_caps)
        else:
            # One solver flow per live cohort, unless every cohort is one
            # row; the rows' own solve when the cohort solve cannot give
            # its bits (repro.vec.solver).
            c_rates = None
            if g.cohorts.size < n_flows:
                c_rates, _ = waterfill_sparse(
                    self._link_cap[:m], g.lids, g.frow, g.cohorts.size, c_caps,
                    mult=g.mult, observer=obs,
                )
                if c_rates is None and obs is not None:
                    obs.count("vec.cohort_fallbacks")
            if c_rates is None:
                lids, frow = g.row_coords()
                rates, _ = waterfill_sparse(
                    self._link_cap[:m], lids, frow, n_flows, c_caps[g.live_of()],
                    observer=obs,
                )
                self._rate[rows] = rates
            if obs is not None:
                obs.count("vec.solve_sparse")
        if c_rates is not None:
            self._expand_rates(g, c_rates)
        if sanitizer is not None:
            lids, frow = g.row_coords()
            sanitizer.check_allocation(
                now, self._link_cap[:m], lids, frow, c_caps[g.live_of()],
                self._rate[rows], [link.name for link in self._links],
            )

        # 4. Next wake-up: first completion, ramp increase or trace change.
        next_time = ramp_next
        first = self._first_completion(n)
        if math.isfinite(first):
            next_time = min(now + first, next_time)
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
    # column steps over the first ``n`` rows, through the work columns
    # ------------------------------------------------------------------ #
    def _accrue(self, n: int, dt: float) -> None:
        """``delivered = min(size, delivered + rate*dt)`` in place."""
        w = self._work[:n]
        np.multiply(self._rate[:n], dt, out=w)
        np.add(self._deliv[:n], w, out=w)
        np.minimum(self._size[:n], w, out=self._deliv[:n])

    def _completed(self, n: int) -> np.ndarray:
        """The live rows within the completion slack, ascending."""
        w = self._work[:n]
        flag = self._flag[:n]
        np.subtract(self._size[:n], self._deliv[:n], out=w)
        np.less_equal(w, _COMPLETION_SLACK, out=flag)
        np.logical_and(self._alive[:n], flag, out=flag)
        return np.flatnonzero(flag)

    def _expand_rates(self, g: _Gather, c_rates: np.ndarray) -> None:
        """Give every row its cohort's rate and every dead row 0."""
        n = g.of_all.size
        np.take(np.append(c_rates, 0.0), g.of_all, out=self._rate[:n], mode="clip")

    def _first_completion(self, n: int) -> float:
        """The least time to completion over the rows at their rates.

        A row at rate 0 gives ``inf``, or NaN when nothing remains, and
        ``fmin`` skips NaN, so no mask is needed: dead rows hold rate 0.
        The result is NaN or ``inf`` when no row completes.  ``x / r`` and
        ``now + x`` both round monotonically, so ``now`` plus this equals
        the least of ``now + remaining / rate`` bit for bit.
        """
        w = self._work[:n]
        np.subtract(self._size[:n], self._deliv[:n], out=w)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(w, self._rate[:n], out=w)
        return float(np.fmin.reduce(w))

    def _gather(self) -> _Gather:
        """The live population's solver problem, in activation order.

        With no tombstones every row column is read through a slice.  The
        result holds until the rows change (flush, release or compaction),
        so ticks that only move a ramp or a trace reuse it.
        """
        n = self._n
        nc = self._nc
        cohorts = np.flatnonzero(self._c_mult[:nc])
        starts = self._indptr[cohorts]
        deg = self._indptr[cohorts + 1] - starts
        lids = self._link_idx[_segments(starts, deg)]
        frow = np.repeat(np.arange(cohorts.size, dtype=np.int64), deg)
        local = np.empty(nc, dtype=np.int64)
        local[cohorts] = np.arange(cohorts.size)
        of_all = local[self._cohort[:n]]
        if self._dead == 0:
            rows = slice(0, n)
            n_rows = n
        else:
            dead = ~self._alive[:n]
            of_all[dead] = cohorts.size
            rows = np.flatnonzero(~dead)
            n_rows = int(rows.size)
        disjoint = int(self._link_refs[: len(self._links)].max(initial=0)) <= 1
        return _Gather(
            rows, n_rows, cohorts, of_all, lids, frow, deg, self._c_mult[cohorts],
            disjoint,
        )

    # ------------------------------------------------------------------ #
    # vectorized ramp math (bit-identical to SlowStartRamp.cap_at /
    # next_increase_after for elapsed >= 0)
    # ------------------------------------------------------------------ #
    def _ramp(self, cohorts: np.ndarray, now: float) -> Tuple[np.ndarray, float]:
        """Rate caps of ``cohorts`` at ``now``, and the earliest later
        instant any of their caps increases.

        The doubling round is computed once and feeds both; a cohort past
        its rounds-to-peak never increases again (``inf``).
        """
        rtt = self._c_rtt[cohorts]
        act = self._c_act[cohorts]
        rtp = self._c_rtp[cohorts]
        k = np.floor((now - act) / rtt + _ROUND_EPS)
        window = self._c_w0[cohorts] * np.exp2(np.minimum(k, rtp))
        caps = np.minimum(window, self._c_wmax[cohorts]) / rtt
        k += 1.0
        nxt = act + k * rtt
        nxt[k > rtp] = np.inf
        return caps, float(nxt.min())

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def _compact(self) -> None:
        """Drop tombstoned rows and empty cohorts, preserving order."""
        n = self._n
        keep = self._alive[:n]
        k = int(np.count_nonzero(keep))
        for arr in (
            self._size, self._deliv, self._rate, self._snap,
            self._cohort, self._client, self._kind,
        ):
            if arr is not None:
                arr[:k] = arr[:n][keep]
        self._race.renumber(keep)  # before ``keep``, a view, is overwritten
        self._alive[:k] = True
        self._n = k
        self._dead = 0

        nc = self._nc
        ckeep = self._c_mult[:nc] > 0
        kc = int(np.count_nonzero(ckeep))
        self._cohort[:k] = (np.cumsum(ckeep) - 1)[self._cohort[:k]]
        deg = self._indptr[1 : nc + 1] - self._indptr[:nc]
        link_idx = self._link_idx[: self._nnz][np.repeat(ckeep, deg)]
        self._indptr[1 : kc + 1] = np.cumsum(deg[ckeep])
        self._nnz = int(link_idx.size)
        self._link_idx[: self._nnz] = link_idx
        for arr in (
            self._c_act, self._c_rtt, self._c_w0, self._c_wmax, self._c_rtp,
            self._c_mult,
        ):
            arr[:kc] = arr[:nc][ckeep]
        self._nc = kc
        self._gathered = None
