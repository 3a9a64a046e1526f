"""Sparse progressive water-filling over a CSR flow->link incidence.

Both fluid ticks solve shared max-min problems here: the vector core over
a race's rows (or cohorts, below), the per-object tick over shared
problems past ``repro.tcp.fluid._SCALAR_MAX_FLOWS`` flows.  Each round
finds the lowest water level - a flow's cap, or the equal share of a
saturating link - and freezes the flows at it; every reduction runs over
the coordinate lists (``lids``/``frow``), so one round costs O(nnz)
independent of how many dead links the global link table carries.

Reductions use :func:`numpy.bincount`, which sums sequentially in input
order: a cap round subtracts from each link the caps it froze there, added
one at a time in flow order.  That is the one summation order of the
repo's max-min solvers - :func:`repro.tcp.maxmin.maxmin_scalar` follows it
in plain floats - so results are deterministic across runs and equal
across solvers bit for bit.

With ``mult``, each flow stands for a *cohort* of identical rows (same
links, same cap), and the solve returns the rows' rates bit for bit:

* link counts are integer-weighted sums, so they are exact;
* a link-saturation round subtracts ``count * level``, one product either
  way;
* a cap round subtracts, per link, the sequential sum of the hit rows'
  caps.  When every hit cohort on a link has the same cap ``c``, that sum
  is the sequential sum of ``K`` copies of ``c`` in any row order, which
  is what one ``cumsum`` computes (not ``K * c``: ten rows of cap 0.1 sum
  to 0.9999999999999999).  When a link's hit cohorts carry two cap
  values the sum depends on the row order, so the solve gives up and the
  caller re-solves the expanded rows.

:func:`certify_maxmin` checks any allocation over the same coordinate lists
in O(nnz), so a solver's output can be certified at any population size
without an oracle solve.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.qa.tolerances import CAPACITY_RTOL as _RTOL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.core import Observer

__all__ = ["certify_maxmin", "flow_coords", "waterfill_sparse"]

#: Relative slack when comparing rates/capacities (== repro.tcp.maxmin._EPS).
_EPS = 1e-9


def flow_coords(flow_links: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-flow link-index lists as coordinate lists ``(lids, frow)``:
    entry ``i`` says flow ``frow[i]`` crosses link ``lids[i]``, in flow
    order and each flow's links in list order."""
    lids = np.fromiter((i for idxs in flow_links for i in idxs), dtype=np.int64)
    frow = np.repeat(
        np.arange(len(flow_links), dtype=np.int64), [len(idxs) for idxs in flow_links]
    )
    return lids, frow


def waterfill_sparse(
    link_cap: np.ndarray,
    lids: np.ndarray,
    frow: np.ndarray,
    n_flows: int,
    caps: np.ndarray,
    *,
    mult: Optional[np.ndarray] = None,
    observer: Optional["Observer"] = None,
) -> Tuple[Optional[np.ndarray], int]:
    """Max-min fair rates for ``n_flows`` flows over a sparse incidence.

    Parameters
    ----------
    link_cap:
        Shape ``(M,)`` capacities for the *global* link table.  Links not
        referenced by ``lids`` never influence the result.
    lids, frow:
        Coordinate lists: entry ``i`` says flow ``frow[i]`` traverses link
        ``lids[i]``.  One entry per (flow, link) pair, no duplicates.
    n_flows:
        Number of flows (``frow`` values are in ``[0, n_flows)``).
    caps:
        Shape ``(n_flows,)`` per-flow rate ceilings (``inf`` = uncapped).
    mult:
        Optional shape ``(n_flows,)`` positive integer multiplicities: flow
        ``j`` is a cohort of ``mult[j]`` identical rows.

    Returns
    -------
    (rates, rounds):
        The allocation and the number of water-filling rounds executed.
        With ``mult``, ``rates`` is None when a cap round would freeze
        cohorts of different caps on one link (see the module docstring);
        such an attempt does not count ``vec.solver_rounds``.
    """
    rates = np.zeros(n_flows)
    if n_flows == 0:
        return rates, 0
    m = int(link_cap.shape[0])
    frozen = caps <= 0.0  # zero-cap flows freeze immediately at rate 0
    remaining = link_cap.copy()
    rounds = 0
    weight = None if mult is None else mult[frow].astype(np.float64)

    while not frozen.all():
        rounds += 1
        active = ~frozen
        amask = active[frow]
        counts = np.bincount(
            lids[amask], weights=None if weight is None else weight[amask], minlength=m
        ).astype(np.float64)
        used = counts > 0.0
        if not used.any():
            break
        # Equal-share water level each congested link could still grant.
        shares = np.full(m, np.inf)
        np.divide(remaining, counts, out=shares, where=used)
        link_level = float(shares[used].min())
        cap_level = float(caps[active].min())
        level = min(link_level, cap_level)

        if cap_level <= link_level * (1.0 + _EPS):
            # Some flows hit their private ceiling first: freeze them at cap.
            hit = active & (caps <= level * (1.0 + _EPS))
            rates[hit] = caps[hit]
            hm = hit[frow]
            if weight is None:
                remaining -= np.bincount(lids[hm], weights=caps[frow[hm]], minlength=m)
            else:
                freed = _equal_cap_sums(lids[hm], caps[frow[hm]], weight[hm], m)
                if freed is None:
                    return None, rounds
                remaining -= freed
            frozen |= hit
        else:
            # Some link saturates: freeze all unfrozen flows crossing it.
            saturated = used & (shares <= level * (1.0 + _EPS))
            sm = saturated[lids] & amask
            hit = np.zeros(n_flows, dtype=bool)
            hit[frow[sm]] = True
            hit &= active
            rates[hit] = level
            hm = hit[frow]
            remaining -= np.bincount(
                lids[hm], weights=None if weight is None else weight[hm], minlength=m
            ) * level
            frozen |= hit
        np.clip(remaining, 0.0, None, out=remaining)

    if observer is not None:
        observer.count("vec.solver_rounds", rounds)
    return rates, rounds


def _equal_cap_sums(
    lids: np.ndarray, caps: np.ndarray, weight: np.ndarray, m: int
) -> Optional[np.ndarray]:
    """Per link, the sequential sum of the caps of the rows behind the
    cohort entries ``(lids, caps, weight)``; None unless all entries on
    each link share one cap."""
    rows = np.bincount(lids, weights=weight, minlength=m).astype(np.int64)
    out = np.zeros(m)
    freed = np.zeros(m, dtype=bool)
    for cap in np.unique(caps).tolist():
        links = np.unique(lids[caps == cap])
        if freed[links].any():
            return None
        freed[links] = True
        k = rows[links]
        out[links] = np.cumsum(np.full(int(k.max()), cap))[k - 1]
    return out


def certify_maxmin(
    link_cap: np.ndarray,
    lids: np.ndarray,
    frow: np.ndarray,
    caps: np.ndarray,
    rates: np.ndarray,
) -> bool:
    """True when ``rates`` is a max-min fair allocation, checked in O(nnz).

    Every comparison allows :data:`repro.qa.tolerances.CAPACITY_RTOL` of
    relative slack.  Arguments are :func:`waterfill_sparse`'s inputs plus
    the ``(n_flows,)`` rates to certify.  Three properties are checked:

    * feasibility - each link's load is at most its capacity (+ slack);
    * cap respect - every rate lies in ``[0, cap]`` (+ slack);
    * the bottleneck property - every flow below its cap crosses a full
      link on which no flow has a higher rate (the per-link maximum comes
      from one ``np.maximum.at`` over the link ids).
    """
    rates = np.asarray(rates, dtype=np.float64)
    caps = np.asarray(caps, dtype=np.float64)
    if np.any(rates < -_RTOL) or np.any(rates > caps * (1.0 + _RTOL) + _RTOL):
        return False
    m = int(link_cap.shape[0])
    flow_rate = rates[frow]  # the rate of each (flow, link) entry
    load = np.bincount(lids, weights=flow_rate, minlength=m)
    scale = np.maximum(link_cap, 1.0)
    if np.any(load > link_cap + _RTOL * scale):
        return False
    full = load >= link_cap - _RTOL * scale
    # Only entries on full links can be a bottleneck, and only those
    # links' maxima are read, so the rest drop out before the per-entry
    # work (the sanitizer runs this on every tick of a population).
    on_full = np.flatnonzero(full[lids])
    lids, frow, flow_rate = lids[on_full], frow[on_full], flow_rate[on_full]
    top = np.full(m, -np.inf)
    np.maximum.at(top, lids, flow_rate)
    tops = flow_rate >= top[lids] - _RTOL * np.maximum(flow_rate, 1.0)
    bottlenecked = np.zeros(rates.shape[0], dtype=bool)
    bottlenecked[frow[tops]] = True
    at_cap = caps <= rates * (1.0 + _RTOL) + _RTOL
    return bool(np.all(at_cap | bottlenecked))
