"""Max-min fair bandwidth allocation with per-flow rate caps, in plain floats.

Given link capacities, per-flow link lists and per-flow rate ceilings (TCP
window / slow-start caps), :func:`maxmin_scalar` computes the classic
water-filling allocation:

* **feasible** - no link's capacity is exceeded;
* **cap-respecting** - no flow exceeds its ceiling;
* **max-min fair** - a flow's rate can only be increased by decreasing the
  rate of some flow with an already smaller-or-equal rate.

It runs the progressive-filling rounds of the sparse
:func:`repro.vec.solver.waterfill_sparse` over Python lists and returns
that solver's rates bit for bit.  For the few-flow shared problems of a
paper session it skips numpy's per-call overhead, which dominates the
vectorised solve at that size (the fluid engine's per-object tick picks it
below a measured flow bound; DESIGN.md §7).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.vec.solver import flow_coords, waterfill_sparse

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.obs.core import Observer

__all__ = ["maxmin_scalar"]

#: Relative slack used when comparing rates/capacities.
_EPS = 1e-9


def maxmin_scalar(
    capacities: Sequence[float],
    flow_links: Sequence[Sequence[int]],
    caps: Sequence[float],
    *,
    observer: Optional["Observer"] = None,
) -> List[float]:
    """Max-min fair rates: ``waterfill_sparse``'s, bit for bit.

    Parameters
    ----------
    capacities:
        ``L`` non-negative link capacities.
    flow_links:
        Per flow, the indices of the links it crosses, each at most once
        (a :class:`~repro.net.route.Route` never repeats a link).
    caps:
        ``F`` non-negative per-flow ceilings; ``inf`` means uncapped.
    observer:
        Counts ``maxmin.progressive`` and ``maxmin.progressive_rounds``.

    Returns
    -------
    list of float
        :func:`repro.vec.solver.waterfill_sparse`'s rates on the same
        problem, bit for bit.  Each round mirrors one of its rounds:
        integer link counts and count x level products are exact in both,
        a cap round subtracts from each link the sum of the caps it froze
        there, added one at a time in flow order from ``0.0`` (what
        ``np.bincount`` computes), and ``np.clip(remaining, 0.0, None)``
        maps ``-0.0`` to ``+0.0`` like the clip below.  One case has no
        pinned result: when the first round's lowest share is a zero that
        comes with both signs, numpy's ``min`` does not pin which one it
        returns, so the problem goes to ``waterfill_sparse`` unchanged.
    """
    n_flows = len(flow_links)
    remaining = list(capacities)
    counts = [0] * len(remaining)
    rates = [0.0] * n_flows
    # Zero-cap flows freeze at rate 0 before the first round.
    active = [j for j in range(n_flows) if not caps[j] <= 0.0]
    for j in active:
        for i in flow_links[j]:
            counts[i] += 1
    slack = 1.0 + _EPS
    rounds = 0
    while active:
        rounds += 1
        used = [i for i, n in enumerate(counts) if n]
        if not used:
            break
        # Equal-share water level each congested link could still grant.
        shares = [remaining[i] / counts[i] for i in used]
        link_level = min(shares)
        cap_level = min([caps[j] for j in active])
        level = min(link_level, cap_level)
        bar = level * slack
        capped = cap_level <= link_level * slack
        if capped:
            # Some flows hit their private ceiling first: freeze them at cap.
            hit = [j for j in active if caps[j] <= bar]
            for j in hit:
                rates[j] = caps[j]
        else:
            # Some link saturates: freeze all unfrozen flows crossing it.
            if level == 0.0 and rounds == 1:
                signs = {math.copysign(1.0, v) for v in shares if v == 0.0}
                if len(signs) > 1:
                    return _sparse(capacities, flow_links, caps, observer)
            saturated = {i for i, v in zip(used, shares) if v <= bar}
            hit = [j for j in active if not saturated.isdisjoint(flow_links[j])]
            for j in hit:
                rates[j] = level
        hit_set = set(hit)
        active = [j for j in active if j not in hit_set]
        if not active:
            break  # nothing left to share: the decrement cannot matter
        # Per link, the hit flows' caps (or count), summed in flow order.
        freed: Dict[int, float] = {}
        for j in hit:
            step = caps[j] if capped else 1.0
            for i in flow_links[j]:
                counts[i] -= 1
                freed[i] = freed.get(i, 0.0) + step
        for i, v in freed.items():
            remaining[i] -= v if capped else v * level
        for i in used:
            if remaining[i] <= 0.0:
                remaining[i] = 0.0

    if observer is not None:
        observer.count("maxmin.progressive")
        if rounds:
            observer.count("maxmin.progressive_rounds", rounds)
    return rates


def _sparse(
    capacities: Sequence[float],
    flow_links: Sequence[Sequence[int]],
    caps: Sequence[float],
    observer: Optional["Observer"],
) -> List[float]:
    """:func:`maxmin_scalar`'s inputs solved by ``waterfill_sparse``."""
    lids, frow = flow_coords(flow_links)
    rates, _ = waterfill_sparse(
        np.array(capacities, dtype=np.float64), lids, frow, len(flow_links),
        np.array(caps, dtype=np.float64), observer=observer,
    )
    return rates.tolist()
