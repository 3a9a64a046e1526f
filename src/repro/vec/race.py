"""The paper's probe race, run by the column inside a :class:`VectorCore`.

Every client of a race sends the same small request over its direct route
and over a relay route at its start instant, keeps whichever probe
completes first, aborts the other and fetches its object over the winner
(PAPER.md §1).  :meth:`repro.tcp.fluid.FluidNetwork.start_races` hands a
whole population of such clients to the network's vector core as integer
columns - route, size class and start slot per client, indexing a few
shared :class:`~repro.net.route.Route`, ramp and size objects - and the
core runs them as rows, with no Python object per flow and no callback per
completion.

A :class:`ProbeRace` holds the per-client state and result columns and
does the race's three columnar steps for the core:

* **admission** - a slot's clients, or one tick's winners, join the
  network's activation batches, keyed by the exact float instant
  ``now + route.rtt`` that :meth:`~repro.tcp.fluid.FluidNetwork.start_flow`
  uses, so they share each instant's one ``activate-batch`` event;
* **flush** - an activated batch becomes rows, one cohort per route it
  uses, whose links and ramp are gathered from per-route tables built
  once, and one group per (cohort, size class) present, a probe being one
  more class past the transfer sizes;
* **completion** - in each tick the first probe of a client to complete
  wins (a same-tick tie goes to the earlier row), its partner is aborted
  (skipped at activation if still pending, released with the tick's
  completions if active), the winner's transfer is admitted, and a
  completed transfer writes the client's latency and throughput.

Byte contract: rows enter in the order per-flow callbacks would create
flows - a slot's clients in index order, each client's direct probe before
its relay probe, and a tick's transfers in the row order of the probes
that won - and ``probe_overhead_sum`` adds ``now - t0`` one winner at a
time in that order.  A race therefore writes exactly what the same
population of :class:`~repro.tcp.flow.FluidFlow` objects and callbacks
writes (``tests/scale_oracle.py`` keeps that reference).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from repro.net.route import Route
from repro.tcp.fluid import _COMPLETION_SLACK, FluidNetwork
from repro.tcp.model import SlowStartRamp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vec.engine import VectorCore

__all__ = ["ProbeRace"]

#: Row kinds: the two probes of a client, then its transfer.
DIRECT, RELAY, TRANSFER = 0, 1, 2


def _labels(key: np.ndarray, n_keys: int) -> Tuple[np.ndarray, np.ndarray]:
    """Dense labels of ``key`` (each in ``0..n_keys-1``) in ascending key
    order, and the keys present, ascending."""
    present = np.zeros(n_keys, dtype=bool)
    present[key] = True
    return (np.cumsum(present) - 1)[key], np.flatnonzero(present)


def _column(values: Sequence[int], n: int, name: str) -> np.ndarray:
    col = np.asarray(values, dtype=np.int64)
    if col.shape != (n,):
        raise ValueError(f"{name} must be a column of {n} indices, got shape {col.shape}")
    return col


class ProbeRace:
    """One population's direct/relay probe race on a vector core.

    Built by :meth:`repro.tcp.fluid.FluidNetwork.start_races`; read its
    result columns once the simulator has drained:

    * ``latency`` / ``throughput`` - per client, request to transfer
      completion (NaN until the client completes);
    * ``indirect`` - per client, True when the relay probe won;
    * ``probe_overhead_sum`` - the sum over clients of the time from
      start to the winning probe's completion;
    * ``n_completed`` - clients whose transfer completed.
    """

    def __init__(
        self,
        core: "VectorCore",
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
    ):
        if len(ramps) != len(routes):
            raise ValueError("one ramp per route is required")
        if probe_bytes <= 0.0 or any(s <= 0.0 for s in sizes):
            raise ValueError("probe and transfer sizes must be positive")
        n = len(direct)
        self._core = core
        net = core._net
        self._net = net
        self._direct = _column(direct, n, "direct")
        self._relay = _column(relay, n, "relay")
        self._size_class = _column(size, n, "size")
        if n and (self._size_class.min() < 0 or self._size_class.max() >= len(sizes)):
            raise ValueError("size index out of range")
        slot = _column(slot, n, "slot")
        for col in (self._direct, self._relay):
            if n and (col.min() < 0 or col.max() >= len(routes)):
                raise ValueError("route index out of range")
        if n and (slot.min() < 0 or slot.max() >= len(slot_times)):
            raise ValueError("slot index out of range")
        #: Bytes of each size class: the transfer sizes, then the probe.
        self._class_bytes = np.append(np.asarray(sizes, dtype=np.float64), probe_bytes)

        # Per-route tables: activation delay, ramp parameters and links.
        self._delay = np.array(
            [route.rtt * net._default_request_latency for route in routes]
        )
        self._ramp = np.array(
            [
                (r.rtt, r.initial_window, r.max_window, float(r.rounds_to_peak()))
                for r in ramps
            ]
        ).reshape(len(routes), 4)
        seen = {}
        lids: List[int] = []
        deg: List[int] = []
        for route in routes:
            for link in route.links:
                kept = seen.setdefault(link.name, link)
                FluidNetwork._check_link_merge(kept, link)
                lids.append(core._intern_link(link))
            deg.append(len(route.links))
        self._lids = np.array(lids, dtype=np.int64)
        self._deg = np.array(deg, dtype=np.int64)

        # Per-client state and results.
        self.t0 = np.zeros(n)
        self._chosen = np.zeros(n, dtype=bool)
        #: Row of each client's (direct, relay) probe; -1 until it flushes.
        self._probe_row = np.full((n, 2), -1, dtype=np.int64)
        self.latency = np.full(n, np.nan)
        self.throughput = np.full(n, np.nan)
        self.indirect = np.zeros(n, dtype=bool)
        self.probe_overhead_sum = 0.0
        self.n_completed = 0
        #: Activated rows not yet released (the core's live population).
        self.live = 0
        #: Activated batches awaiting the next tick's flush.
        self.pending: List[Tuple[np.ndarray, np.ndarray, np.ndarray, float]] = []

        sim = net._sim
        for s, t in enumerate(slot_times):
            members = np.flatnonzero(slot == s)
            if members.size:
                sim.schedule_at(
                    float(t), partial(self._launch, members), name=f"scale-slot{s}"
                )

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def _launch(self, clients: np.ndarray) -> None:
        """A start slot: each client sends its direct, then its relay probe."""
        self.t0[clients] = self._net._sim.now
        routes = np.empty(2 * clients.size, dtype=np.int64)
        routes[0::2] = self._direct[clients]
        routes[1::2] = self._relay[clients]
        kinds = np.tile(np.array([DIRECT, RELAY], dtype=np.int8), clients.size)
        self._admit(np.repeat(clients, 2), kinds, routes)

    def _admit(self, clients: np.ndarray, kinds: np.ndarray, routes: np.ndarray) -> None:
        """Queue rows on their activation instants, in the given order.

        Instants are grouped in order of first appearance, and a group
        joins the instant's batch after its earlier rows or opens a new one
        with its own ``activate-batch`` event - what one ``start_flow`` per
        row, in this order, would do.
        """
        net = self._net
        sim = net._sim
        pending = net._pending_activations
        keys, route_group = np.unique(sim.now + self._delay, return_inverse=True)
        group = route_group[routes]
        sels = [np.flatnonzero(group == g) for g in range(keys.size)]
        for g in sorted((g for g, sel in enumerate(sels) if sel.size), key=lambda g: sels[g][0]):
            sel = sels[g]
            at = float(keys[g])
            batch = pending.get(at)
            if batch is None:
                pending[at] = batch = []
                sim.schedule_at(at, partial(self._activate, at), name="activate-batch")
            batch.append((clients[sel], kinds[sel], routes[sel]))

    def _activate(self, at: float) -> None:
        """An activation instant: every row not aborted meanwhile goes live."""
        chunks = self._net._pending_activations.pop(at)
        clients, kinds, routes = (
            np.concatenate([chunk[i] for chunk in chunks]) for i in range(3)
        )
        # A probe is aborted while pending exactly when its partner won.
        keep = (kinds == TRANSFER) | ~self._chosen[clients]
        if not keep.all():
            clients, kinds, routes = clients[keep], kinds[keep], routes[keep]
        if not clients.size:
            return
        self.pending.append((clients, kinds, routes, self._net._sim.now))
        self.live += int(clients.size)
        self._net._request_tick()

    # ------------------------------------------------------------------ #
    # rows (called by the core's tick)
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Materialise the activated batches as rows, in activation order.

        A batch's rows on one route share its links, ramp and activation
        instant, so each (batch, route) pair present is one cohort, and
        each (cohort, size class) pair present is one group.
        """
        core = self._core
        batches, self.pending = self.pending, []
        clients = np.concatenate([b[0] for b in batches])
        kinds = np.concatenate([b[1] for b in batches])
        routes = np.concatenate([b[2] for b in batches])
        n_routes = self._deg.size
        key = routes + np.repeat(
            np.arange(len(batches), dtype=np.int64) * n_routes, [b[0].size for b in batches]
        )
        cohort, keys = _labels(key, len(batches) * n_routes)  # (batch, route) order
        c_route = keys % n_routes
        c_act = np.array([b[3] for b in batches])[keys // n_routes]
        n_cls = self._class_bytes.size
        cls = np.where(kinds == TRANSFER, self._size_class[clients], n_cls - 1)
        group, g_keys = _labels(cohort * n_cls + cls, keys.size * n_cls)
        uses = np.bincount(routes, minlength=n_routes)
        np.add.at(core._link_refs, self._lids, np.repeat(uses, self._deg))
        row0 = core._append_rows(
            group, g_keys // n_cls, self._class_bytes[g_keys % n_cls], self._lids,
            self._deg, c_route, self._ramp[c_route], c_act,
        )
        core._client[row0 : core._n] = clients
        core._kind[row0 : core._n] = kinds
        probe = np.flatnonzero(kinds != TRANSFER)
        self._probe_row[clients[probe], kinds[probe]] = row0 + probe

    def complete(self, rows: np.ndarray, now: float) -> np.ndarray:
        """Settle the rows completing at ``now`` (ascending); return the
        rows to release: those and the probes their partners beat."""
        core = self._core
        clients = core._client[rows]
        kinds = core._kind[rows]
        self.live -= int(rows.size)

        fetched = kinds == TRANSFER
        if fetched.any():
            c = clients[fetched]
            elapsed = now - self.t0[c]
            self.latency[c] = elapsed
            self.throughput[c] = self._class_bytes[self._size_class[c]] / elapsed
            self.n_completed += int(c.size)

        probes = np.flatnonzero(~fetched)
        if not probes.size:
            return rows
        # The first probe of each client in row order wins, unless the
        # client already chose at an earlier tick.
        _, first = np.unique(clients[probes], return_index=True)
        first = probes[np.sort(first)]
        first = first[~self._chosen[clients[first]]]
        if not first.size:
            return rows
        winners = clients[first]
        won = kinds[first].astype(np.int64)
        self._chosen[winners] = True

        # Partners: still pending ones are skipped at activation (chosen);
        # live ones not completing now are aborted with this tick's rows.
        partner = self._probe_row[winners, 1 - won]
        partner = partner[partner >= 0]
        partner = partner[core._alive[partner]]
        group = core._group[partner]
        partner = partner[core._g_size[group] - core._g_deliv[group] > _COMPLETION_SLACK]
        self.live -= int(partner.size)

        overhead = np.empty(winners.size + 1)
        overhead[0] = self.probe_overhead_sum
        overhead[1:] = now - self.t0[winners]
        self.probe_overhead_sum = float(np.cumsum(overhead)[-1])
        self.indirect[winners] = won == RELAY
        self._admit(
            winners,
            np.full(winners.size, TRANSFER, dtype=np.int8),
            np.where(won == DIRECT, self._direct[winners], self._relay[winners]),
        )
        return np.concatenate((rows, partner)) if partner.size else rows
