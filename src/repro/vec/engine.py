"""Struct-of-arrays core driving a probe race's :class:`repro.tcp.fluid.FluidNetwork`.

A network running a probe race
(:meth:`~repro.tcp.fluid.FluidNetwork.start_races`) delegates every tick
to a :class:`VectorCore`; object flows never run here (the per-object tick
is faster on the handful of flows a session runs, DESIGN.md §12).  The
core keeps the *entire* active population in numpy arrays:

* per-row: an alive mask, the row's group, and the race's client and row
  kind;
* per-group: the rows of one cohort with one size class.  A group holds
  their total and delivered bytes, their current rate, their cohort, its
  live multiplicity and a segment of a group-sorted row list;
* per-cohort: the rows of one admission batch that share a route, and so
  a ramp and an activation instant.  A cohort holds its links (a small
  CSR, ``indptr``/``link_idx``, over a persistent global link table), its
  activation time, its slow-start ramp parameters (rtt, w0, w_max,
  rounds-to-peak) and its live multiplicity;
* per-link: cached capacities for constant traces, a live
  :class:`~repro.net.trace.TraceCursor` for the (few) time-varying ones,
  and an active-row refcount.

The group invariant: the rows of a group enter in one flush with nothing
delivered and rate 0, share their links and their ramp (one cohort) and
their size (one size class), and every solve gives them one rate.  So at
every tick they hold the same delivered bytes and the same rate, bit for
bit, and they complete at the same tick; an aborted row leaving a live
group changes nothing for the others.  The tick therefore keeps those
bits once per group.

One tick then mirrors the per-object tick's steps with array ops over the
groups: accrue bytes with one fused ``delivered = min(size, delivered +
rate*dt)`` (valid because every group's last accrual time is the previous
tick — new groups carry rate 0), detect the completed groups with one
scan and expand them to their live rows, re-solve max-min fairness for
everyone at once, and compute the next wake-up from the next completion,
one fused ramp pass over the live cohorts (caps and next increase from
one doubling-round computation) and the dynamic trace cursors.  The
simulator's event queue is only touched at epoch boundaries — exactly
one pending ``fluid-tick`` event, as in the per-object tick.

Every per-tick step runs over the groups ``[_g0, _ng)``, from the first
that may still be live to the last, empty groups included, and writes
into two work columns sized with the group capacity (``_work`` and
``_flag``; they hold nothing between ticks), so a steady tick reads and
allocates nothing the size of the population.  That rests on one rule: a
group with no live row reads rate 0.  ``_release_rows`` zeroes a group it
empties, and the rate column is rewritten by one ``take`` of the
per-cohort rates with a 0 appended, which every empty group reads.  So an
empty group accrues nothing, and in the next-completion scan its
``remaining / rate`` is ``inf`` (or NaN with nothing remaining), which
``fmin`` passes over.  Groups die roughly in the order they came, and
``_release_rows`` moves ``_g0`` past the empty ones, so the window stays
near the live groups even where every group is one row.

Rows enter and leave by the column.  The race
(:class:`repro.vec.race.ProbeRace`) buffers its activations and flushes
them at the next tick through :meth:`VectorCore._append_rows`; it settles
each tick's completed rows by the column and returns them with the probes
they beat, and ``_release_rows`` tombstones them all at once (group and
cohort multiplicities and link refcounts drop by one ``bincount`` each).
Rows are append-only, at most three per client, and are only read at
their flush, their completion and their release.  The solver's gather of
the live population is kept until the rows change, so ticks that only
move a ramp or a trace reuse it.

Byte-identity contract: rows are append-only in activation order, and a
tick's completed rows are sorted before the race settles them, so the race
settles completions in the order per-flow callbacks would run.  When no
link carries two live rows (no link refcount above 1) each row gets
``min(bottleneck, cap)``, the per-object tick's rule for disjoint flows.
Otherwise the sparse water-filling of :mod:`repro.vec.solver` solves one
flow per live cohort, weighted by its multiplicity, and returns the rates
the row-by-row solve would (see that module for why).  When it cannot (a
cap round freezing two cap values on one link), the tick re-solves the
expanded rows and counts ``vec.cohort_fallbacks``; the rows' rates are
written back per group, and two rows of one group with different bits
raise.  The per-object tick's shared solvers sum frozen caps in the same
order as the rows solve, so a race equals its per-object reference
(``tests/scale_oracle.py``) at any population.

Under a sanitizer the core checks its columns on every tick: QA-R002 on
the groups' ``delivered``/``size``/``rate`` against the previous tick's
snapshot, and QA-R006, QA-R004 and QA-R003 on the solve's row coordinates,
caps and the group rates expanded to rows through
:func:`repro.vec.solver.certify_maxmin`, so the cohort solve is certified
row by row.  The snapshot column ``_g_snap`` exists only when the
simulator has a sanitizer, which is fixed when the simulator is built, so
a plain run neither writes nor grows it.  The checks only read, so a
sanitized race solves exactly like a plain one.
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


def _stable_order(labels: np.ndarray, k: int) -> np.ndarray:
    """The stable sort order of ``labels`` (each in ``0..k-1``).

    numpy sorts 8- and 16-bit keys stably with a radix sort, one counting
    pass per byte, so the usual few hundred labels of a flush sort in
    O(rows).
    """
    if k <= 1 << 8:
        labels = labels.astype(np.uint8)
    elif k <= 1 << 16:
        labels = labels.astype(np.uint16)
    return np.argsort(labels, kind="stable")


class _Gather:
    """The live population's solver problem, kept until the rows change.

    ``cohorts`` are the live cohorts in table order, ``n`` the live rows
    and ``n_groups`` the live groups.  Group ``g0 + i`` of the core's
    columns belongs to live cohort ``of_all[i]`` (an index into
    ``cohorts``); a group with no live row reads ``cohorts.size``, one past
    the last, so a rate per cohort with a 0 appended expands to the group
    rate column's window by one ``take``.  Entry ``j`` of ``lids``/``frow``
    says live cohort ``frow[j]`` crosses link ``lids[j]``; ``deg`` and
    ``mult`` are each live cohort's link count and multiplicity.
    ``disjoint`` says no link carries two rows.  ``alive`` and ``group``
    are the core's row columns as of the gather.  The live rows in
    activation order, their cohorts and their coordinate lists are built
    on first use: only a rows solve and the sanitizer read them.
    """

    __slots__ = (
        "n", "n_groups", "cohorts", "g0", "of_all", "lids", "frow", "deg", "mult",
        "disjoint", "alive", "group", "live", "of", "coords",
    )

    def __init__(
        self, n, n_groups, cohorts, g0, of_all, lids, frow, deg, mult, disjoint,
        alive, group,
    ) -> None:
        self.n, self.n_groups = n, n_groups
        self.cohorts, self.g0, self.of_all = cohorts, g0, of_all
        self.lids, self.frow, self.deg, self.mult = lids, frow, deg, mult
        self.disjoint, self.alive, self.group = disjoint, alive, group
        self.live: Optional[np.ndarray] = None
        self.of: Optional[np.ndarray] = None
        self.coords: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def rows(self) -> np.ndarray:
        """The live rows, in activation order."""
        if self.live is None:
            self.live = np.flatnonzero(self.alive)
        return self.live

    def live_of(self) -> np.ndarray:
        """Each live row's cohort, an index into ``cohorts``."""
        if self.of is None:
            self.of = self.of_all[self.group[self.rows()] - self.g0]
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
        # --- per-row columns (capacity-doubling, first _n rows used) ---
        self._alive = np.empty(_GROW_MIN, dtype=bool)
        self._group = np.empty(_GROW_MIN, dtype=np.int64)
        #: A race row's client and kind (see repro.vec.race).
        self._client = np.empty(_GROW_MIN, dtype=np.int64)
        self._kind = np.empty(_GROW_MIN, dtype=np.int8)
        #: The rows sorted by group: group g's rows, ascending, are
        #: ``_g_rows[_g_indptr[g]:_g_indptr[g + 1]]``.
        self._g_rows = np.empty(_GROW_MIN, dtype=np.int64)
        #: The probe race these rows belong to (set by start_races).
        self._race = None
        self._n = 0
        #: Shared capacity of the per-row columns (they grow in lockstep,
        #: so one comparison per flush covers every column).
        self._row_cap = _GROW_MIN
        # --- group table (first _ng groups; append-only) ---
        self._g_size = np.empty(_GROW_MIN)
        self._g_deliv = np.empty(_GROW_MIN)
        self._g_rate = np.empty(_GROW_MIN)
        self._g_cohort = np.empty(_GROW_MIN, dtype=np.int64)
        #: Live rows of each group, and whether there are any.
        self._g_mult = np.empty(_GROW_MIN, dtype=np.int64)
        self._g_live = np.empty(_GROW_MIN, dtype=bool)
        self._g_indptr = np.zeros(_GROW_MIN + 1, dtype=np.int64)
        #: Delivered bytes at the previous tick: the sanitizer's QA-R002
        #: baseline.  A simulator's sanitizer is fixed at its construction,
        #: so a plain run never keeps one.
        self._g_snap = None if net._sim.sanitizer is None else np.empty(_GROW_MIN)
        #: Work columns for the tick's column arithmetic: they hold nothing
        #: between ticks, so a step writes into them instead of allocating.
        self._work = np.empty(_GROW_MIN)
        self._flag = np.empty(_GROW_MIN, dtype=bool)
        self._ng = 0
        #: Every group before ``_g0`` is empty: the tick's steps run over
        #: ``[_g0, _ng)`` only.
        self._g0 = 0
        #: The solve's gather of the live population; None when stale.
        self._gathered: Optional[_Gather] = None
        # --- cohort table (first _nc cohorts; append-only) ---
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
        #: Simulation time the delivered column was last accrued to.
        self._accrued_at = float(net._sim.now)

    # ------------------------------------------------------------------ #
    # population maintenance (called by the race)
    # ------------------------------------------------------------------ #
    def _grow_rows(self, need: int) -> None:
        self._alive = _grow(self._alive, need)
        self._group = _grow(self._group, need)
        self._client = _grow(self._client, need)
        self._kind = _grow(self._kind, need)
        self._g_rows = _grow(self._g_rows, need)
        self._row_cap = int(self._alive.shape[0])

    def _grow_groups(self, need: int) -> None:
        self._g_size = _grow(self._g_size, need)
        self._g_deliv = _grow(self._g_deliv, need)
        self._g_rate = _grow(self._g_rate, need)
        self._g_cohort = _grow(self._g_cohort, need)
        self._g_mult = _grow(self._g_mult, need)
        self._g_live = _grow(self._g_live, need)
        if self._g_snap is not None:
            self._g_snap = _grow(self._g_snap, need)
        cap = int(self._g_size.shape[0])
        self._g_indptr = _grow(self._g_indptr, cap + 1)
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

    def _append_rows(self, group, g_cohort, g_size, rl, rd, route, ramp, act) -> int:
        """Append one row per entry of ``group``; return the first new row.

        Row ``i`` belongs to new group ``group[i]`` (labels ``0..kg-1``,
        each used).  New group ``j`` belongs to new cohort ``g_cohort[j]``
        (labels ``0..k-1``, each used, non-decreasing: groups come in
        cohort order, so every cohort before the first live group's is
        empty) and its rows each have ``g_size[j]`` bytes to deliver.  New
        cohort ``c`` uses the links of route ``route[c]``, whose ``rd[r]``
        interned link ids lie concatenated in ``rl``; ``ramp[c]`` holds its
        (rtt, initial window, max window, rounds to peak) and ``act[c]``
        its activation instant.  Link refcounts are the caller's to bump.
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
        kg = g_cohort.size
        g_mult = np.bincount(group, minlength=kg)
        self._c_mult[c0:c1] = np.bincount(g_cohort, weights=g_mult, minlength=k)
        self._nc = c1

        g0 = self._ng
        g1 = g0 + kg
        if g1 > self._g_size.shape[0]:
            self._grow_groups(g1)
        row0 = self._n
        row = row0 + group.size
        if row > self._row_cap:
            self._grow_rows(row)
        self._g_cohort[g0:g1] = g_cohort + c0
        self._g_size[g0:g1] = g_size
        self._g_deliv[g0:g1] = 0.0
        if self._g_snap is not None:
            self._g_snap[g0:g1] = 0.0
        self._g_rate[g0:g1] = 0.0
        self._g_mult[g0:g1] = g_mult
        self._g_live[g0:g1] = True
        self._g_indptr[g0 + 1 : g1 + 1] = row0 + np.cumsum(g_mult)
        self._g_rows[row0:row] = row0 + _stable_order(group, kg)
        self._ng = g1

        self._group[row0:row] = group + g0
        self._alive[row0:row] = True
        self._n = row
        self._gathered = None
        return row0

    def _release_rows(self, rows: np.ndarray) -> None:
        """Tombstone ``rows`` and drop their groups' and cohorts'
        multiplicities and their link references at once."""
        g0 = self._g0
        gone = np.bincount(self._group[rows] - g0)
        groups = np.flatnonzero(gone)
        gone = gone[groups]
        groups += g0
        mult = self._g_mult[groups] - gone
        self._g_mult[groups] = mult
        emptied = groups[mult == 0]
        self._g_live[emptied] = False
        self._g_rate[emptied] = 0.0
        c0 = int(self._g_cohort[g0])
        c_gone = np.bincount(self._g_cohort[groups] - c0, weights=gone)
        cohorts = np.flatnonzero(c_gone)
        c_gone = c_gone[cohorts].astype(np.int64)
        cohorts += c0
        self._c_mult[cohorts] -= c_gone
        starts = self._indptr[cohorts]
        deg = self._indptr[cohorts + 1] - starts
        lids = self._link_idx[_segments(starts, deg)]
        counts = np.bincount(lids, weights=np.repeat(c_gone, deg)).astype(np.int64)
        self._link_refs[: counts.size] -= counts
        self._alive[rows] = False
        self._gathered = None
        if not self._g_live[g0]:
            live = self._g_live[g0 : self._ng]
            first = int(np.argmax(live))
            self._g0 = g0 + first if live[first] else self._ng

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
        # live group's rate was assigned at the previous tick (groups added
        # since carry rate 0), so one global dt is exact.  Buffered
        # activations flush afterwards — their rows also enter at rate 0,
        # before the completion scan, exactly where the per-object tick
        # would see them.
        if self._ng > self._g0 and now > self._accrued_at:
            self._accrue(now - self._accrued_at)
        self._accrued_at = now
        race = self._race
        if race.pending:
            race.flush()
        g0, ng = self._g0, self._ng
        sanitizer = sim.sanitizer
        if sanitizer is not None and ng > g0:
            snap = self._g_snap[g0:ng]
            sanitizer.check_groups_progress(
                now, self._g_deliv[g0:ng], snap, self._g_size[g0:ng],
                self._g_rate[g0:ng], self._g_live[g0:ng],
            )
            snap[:] = self._g_deliv[g0:ng]

        # 2. Detect completions in activation (row) order; the race settles
        # them by the column (repro.vec.race) and they are released with the
        # probes they beat.
        if ng > g0:
            done = self._completed()
            net.completed_count += done.size
            if done.size:
                self._release_rows(race.complete(done, now))

        if not race.live:
            return

        # 3. Re-solve the allocation over the whole population.
        if self._gathered is None:
            self._gathered = self._gather()
        g = self._gathered
        n_flows = g.n
        c_caps, ramp_next = self._ramp(g.cohorts, now)

        # Refresh time-varying link capacities through their cursors.
        for lid, cursor in sorted(self._dyn.items()):
            if self._link_refs[lid] > 0:
                self._link_cap[lid] = cursor.value_at(now)

        if obs is not None:
            obs.gauge("vec.population", float(n_flows))
            obs.gauge("vec.groups", float(g.n_groups))
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
                self._group_rates_from_rows(g, rates)
            if obs is not None:
                obs.count("vec.solve_sparse")
        if c_rates is not None:
            self._expand_rates(g, c_rates)
        if sanitizer is not None:
            lids, frow = g.row_coords()
            sanitizer.check_allocation(
                now, self._link_cap[:m], lids, frow, c_caps[g.live_of()],
                self._g_rate[g.group[g.rows()]], [link.name for link in self._links],
            )

        # 4. Next wake-up: first completion, ramp increase or trace change.
        next_time = ramp_next
        first = self._first_completion()
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
    # column steps over the groups ``[_g0, _ng)``, through the work columns
    # ------------------------------------------------------------------ #
    def _accrue(self, dt: float) -> None:
        """``delivered = min(size, delivered + rate*dt)`` in place."""
        g0, ng = self._g0, self._ng
        w = self._work[g0:ng]
        np.multiply(self._g_rate[g0:ng], dt, out=w)
        np.add(self._g_deliv[g0:ng], w, out=w)
        np.minimum(self._g_size[g0:ng], w, out=self._g_deliv[g0:ng])

    def _completed(self) -> np.ndarray:
        """The live rows of the groups within the completion slack, ascending."""
        g0, ng = self._g0, self._ng
        w = self._work[g0:ng]
        flag = self._flag[g0:ng]
        np.subtract(self._g_size[g0:ng], self._g_deliv[g0:ng], out=w)
        np.less_equal(w, _COMPLETION_SLACK, out=flag)
        np.logical_and(self._g_live[g0:ng], flag, out=flag)
        done = np.flatnonzero(flag)
        if not done.size:
            return done
        done += g0
        starts = self._g_indptr[done]
        rows = self._g_rows[_segments(starts, self._g_indptr[done + 1] - starts)]
        rows = rows[self._alive[rows]]
        rows.sort()
        return rows

    def _expand_rates(self, g: _Gather, c_rates: np.ndarray) -> None:
        """Give every group its cohort's rate and every empty group 0."""
        rate = self._g_rate[g.g0 : g.g0 + g.of_all.size]
        np.take(np.append(c_rates, 0.0), g.of_all, out=rate, mode="clip")

    def _group_rates_from_rows(self, g: _Gather, rates: np.ndarray) -> None:
        """Give every live group the rate the rows solve gave its live rows
        (empty groups keep rate 0); raise if two rows of one group differ."""
        group = g.group[g.rows()]
        self._g_rate[group] = rates
        if g.n_groups < g.n and self._g_rate[group].tobytes() != rates.tobytes():
            raise RuntimeError("the rows solve gave two rows of one group different rates")

    def _first_completion(self) -> float:
        """The least time to completion over the groups at their rates.

        A group at rate 0 gives ``inf``, or NaN when nothing remains, and
        ``fmin`` skips NaN, so no mask is needed: empty groups hold rate 0.
        The result is NaN or ``inf`` when no group completes.  The live
        rows hold their group's bits, so this is the least over the rows.
        ``x / r`` and ``now + x`` both round monotonically, so ``now`` plus
        this equals the least of ``now + remaining / rate`` bit for bit.
        """
        g0, ng = self._g0, self._ng
        w = self._work[g0:ng]
        np.subtract(self._g_size[g0:ng], self._g_deliv[g0:ng], out=w)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(w, self._g_rate[g0:ng], out=w)
        return float(np.fmin.reduce(w))

    def _gather(self) -> _Gather:
        """The live population's solver problem, in table order.

        The result holds until the rows change (flush or release), so
        ticks that only move a ramp or a trace reuse it.
        """
        n, nc, g0, ng = self._n, self._nc, self._g0, self._ng
        # The cohorts before the first live group's are all empty.
        c0 = int(self._g_cohort[g0])
        cohorts = np.flatnonzero(self._c_mult[c0:nc])
        local = np.empty(nc - c0, dtype=np.int64)
        local[cohorts] = np.arange(cohorts.size)
        live = self._g_live[g0:ng]
        of_all = np.where(live, local[self._g_cohort[g0:ng] - c0], cohorts.size)
        cohorts += c0
        starts = self._indptr[cohorts]
        deg = self._indptr[cohorts + 1] - starts
        lids = self._link_idx[_segments(starts, deg)]
        frow = np.repeat(np.arange(cohorts.size, dtype=np.int64), deg)
        mult = self._c_mult[cohorts]
        disjoint = int(self._link_refs[: len(self._links)].max(initial=0)) <= 1
        return _Gather(
            int(mult.sum()), int(np.count_nonzero(live)), cohorts, g0, of_all, lids,
            frow, deg, mult, disjoint, self._alive[:n], self._group[:n],
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
