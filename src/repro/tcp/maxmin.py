"""Max-min fair bandwidth allocation with per-flow rate caps.

Given link capacities, a boolean link-flow incidence matrix and per-flow rate
ceilings (TCP window / slow-start caps), :func:`maxmin_allocate` computes the
classic water-filling allocation:

* **feasible** - no link's capacity is exceeded;
* **cap-respecting** - no flow exceeds its ceiling;
* **max-min fair** - a flow's rate can only be increased by decreasing the
  rate of some flow with an already smaller-or-equal rate.

The implementation is the standard progressive-filling loop, vectorised with
numpy per the HPC guides: each iteration does O(L*F) array work and freezes
at least one flow, so the loop runs at most F times.  Two fast paths cover
the campaign-dominant shapes in O(L*F) total:

* a **single flow** simply receives its bottleneck (sequential probing,
  uncontended bulk transfers);
* **link-disjoint flows** (each link carries at most one flow — the usual
  case for a control transfer running against selector probes on disjoint
  relay paths) each receive ``min(bottleneck, cap)`` directly.

Both fast paths produce the same allocation as the progressive-filling loop;
the property-based suite cross-checks them against the loop and a dense
max-min oracle on random topologies.

:func:`maxmin_scalar` runs the same progressive-filling rounds in plain
Python floats over per-flow link lists.  It returns the reference loop's
rates bit for bit, and for the few-flow shared problems of a paper session
it skips numpy's per-call overhead, which dominates the vectorised loop at
that size (the fluid engine's per-object tick picks it below a measured
flow bound; DESIGN.md §7).  Where the loop's result rests on an
association order that BLAS does not pin, it hands the problem to
:func:`maxmin_allocate` instead.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.obs.core import Observer

__all__ = ["incidence_matrix", "maxmin_allocate", "maxmin_scalar"]

#: Relative slack used when comparing rates/capacities.
_EPS = 1e-9


def maxmin_allocate(
    capacities: np.ndarray,
    incidence: np.ndarray,
    caps: Optional[np.ndarray] = None,
    *,
    validate: bool = True,
    fast: bool = True,
    observer: Optional["Observer"] = None,
) -> np.ndarray:
    """Compute max-min fair rates.

    Parameters
    ----------
    capacities:
        Shape ``(L,)`` link capacities (bytes/second), non-negative.
    incidence:
        Shape ``(L, F)`` boolean; ``incidence[l, f]`` is True when flow ``f``
        traverses link ``l``.  Every flow must traverse at least one link.
    caps:
        Optional shape ``(F,)`` per-flow ceilings; ``inf`` means uncapped.
    validate:
        Skip the value-domain checks (negative capacities/caps, flows with
        no links) when False.  The transport engine builds its inputs
        structurally valid and calls with ``validate=False``; validation
        never changes the result for valid inputs, only whether invalid
        ones raise.  Shape mismatches always raise.
    fast:
        Enable the vectorised link-disjoint fast path.  ``fast=False``
        forces the progressive-filling reference loop: the test oracle the
        engine's fast paths are checked against, and the ``alloc_*``
        benches' baseline.  The single-flow path is always on.
    observer:
        Optional :class:`repro.obs.core.Observer`; when given, counts which
        solver path ran (``maxmin.single_flow`` / ``maxmin.disjoint_fast`` /
        ``maxmin.progressive`` plus ``maxmin.progressive_rounds``).
        Observation never affects the allocation.

    Returns
    -------
    numpy.ndarray
        Shape ``(F,)`` allocated rates.
    """
    c = np.asarray(capacities, dtype=np.float64)
    a = np.asarray(incidence, dtype=bool)
    if a.ndim != 2:
        raise ValueError(f"incidence must be 2-D, got shape {a.shape}")
    n_links, n_flows = a.shape
    if c.shape != (n_links,):
        raise ValueError(
            f"capacities shape {c.shape} does not match incidence rows {n_links}"
        )
    if validate and np.any(c < 0.0):
        raise ValueError("capacities must be non-negative")
    if n_flows == 0:
        return np.zeros(0)
    if validate and not np.all(a.any(axis=0)):
        raise ValueError("every flow must traverse at least one link")
    if n_flows == 1:
        # Fast path: a lone flow simply gets its bottleneck (profiling shows
        # this is the dominant allocator call during sequential probing and
        # uncontended bulk transfers).
        rate = float(np.min(c[a[:, 0]]))
        if caps is not None:
            cap0 = float(np.asarray(caps, dtype=np.float64).reshape(-1)[0])
            if validate and cap0 < 0.0:
                raise ValueError("caps must be non-negative")
            rate = min(rate, cap0)
        if observer is not None:
            observer.count("maxmin.single_flow")
        return np.array([rate])
    if caps is None:
        caps_arr = np.full(n_flows, np.inf)
    else:
        caps_arr = np.asarray(caps, dtype=np.float64)
        if caps_arr.shape != (n_flows,):
            raise ValueError(f"caps shape {caps_arr.shape} != ({n_flows},)")
        if validate and np.any(caps_arr < 0.0):
            raise ValueError("caps must be non-negative")

    af = None
    if fast and n_links > 0:
        # Disjoint fast path: when no link carries two flows there is no
        # sharing to arbitrate — every flow independently receives
        # min(bottleneck, cap), exactly the loop's fixed point.  This is the
        # dominant campaign shape (control + selector probes on disjoint
        # relay paths) and costs one O(L*F) pass instead of up to F.
        # Pigeonhole pre-reject: more nonzeros than links cannot be
        # disjoint, and the flat count is several times cheaper than the
        # per-link reduction, so shared problems pay almost nothing here.
        if np.count_nonzero(a) <= n_links and int(a.sum(axis=1).max()) <= 1:
            bottleneck = np.where(a, c[:, None], np.inf).min(axis=0)
            if observer is not None:
                observer.count("maxmin.disjoint_fast")
            return np.minimum(bottleneck, caps_arr)
        # Shared problem: the loop below runs several matvecs per round
        # over the incidence matrix, and each converts bool->float64 anew.
        # Converting once roughly halves them.  Every value involved is a
        # small integer, exact in float64 under any summation order, so
        # the allocation stays byte-identical to the fast=False reference.
        af = a.astype(np.float64)

    rates = np.zeros(n_flows)
    frozen = np.zeros(n_flows, dtype=bool)
    remaining = c.copy()

    # Freeze zero-cap flows immediately.
    zero_cap = caps_arr <= 0.0
    frozen[zero_cap] = True

    if observer is not None:
        observer.count("maxmin.progressive")

    shares = np.empty(n_links) if af is not None else None
    while not frozen.all():
        if observer is not None:
            observer.count("maxmin.progressive_rounds")
        active = ~frozen
        actf = active.astype(np.float64)
        counts = (a if af is None else af) @ actf  # unfrozen flows per link
        used = counts > 0.0
        if not used.any():
            break
        # Equal-share water level each congested link could still grant.
        if af is None:
            shares = np.full(n_links, np.inf)
        else:
            shares.fill(np.inf)
        np.divide(remaining, counts, out=shares, where=used)
        link_level = float(shares[used].min())
        cap_level = float(caps_arr[active].min())
        level = min(link_level, cap_level)

        if cap_level <= link_level * (1.0 + _EPS):
            # Some flows hit their private ceiling first: freeze them at
            # cap.  The decrement sums real-valued caps, where summation
            # order does matter — both modes keep the column-subset matvec.
            hit = active & (caps_arr <= level * (1.0 + _EPS))
            rates[hit] = caps_arr[hit]
            remaining -= a[:, hit] @ caps_arr[hit]
        else:
            # Some link saturates: freeze all unfrozen flows crossing it.
            saturated = used & (shares <= level * (1.0 + _EPS))
            if af is None:
                hit = active & (a[saturated, :].any(axis=0))
                rates[hit] = level
                remaining -= (a[:, hit].sum(axis=1)) * level
            else:
                # Integer-valued matvecs replace the boolean fancy
                # indexing (identical exact values, about half the cost).
                hit = active & ((saturated.astype(np.float64) @ af) > 0.0)
                rates[hit] = level
                remaining -= (af @ hit.astype(np.float64)) * level
        frozen[hit] = True
        np.clip(remaining, 0.0, None, out=remaining)

    return rates


def incidence_matrix(n_links: int, flow_links: Sequence[Sequence[int]]) -> np.ndarray:
    """The ``(n_links, F)`` boolean incidence of per-flow link-index lists."""
    incidence = np.zeros((n_links, len(flow_links)), dtype=bool)
    for j, idxs in enumerate(flow_links):
        incidence[idxs, j] = True
    return incidence


def _reference(
    capacities: Sequence[float],
    flow_links: Sequence[Sequence[int]],
    caps: Sequence[float],
    observer: Optional["Observer"],
) -> List[float]:
    """:func:`maxmin_scalar`'s inputs solved by the ``fast=False`` loop."""
    return maxmin_allocate(
        np.array(capacities, dtype=np.float64),
        incidence_matrix(len(capacities), flow_links),
        np.array(caps, dtype=np.float64),
        validate=False,
        fast=False,
        observer=observer,
    ).tolist()


def maxmin_scalar(
    capacities: Sequence[float],
    flow_links: Sequence[Sequence[int]],
    caps: Sequence[float],
    *,
    observer: Optional["Observer"] = None,
) -> List[float]:
    """``maxmin_allocate(validate=False, fast=False)`` in plain floats.

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
        Counts exactly what the reference loop counts on the same inputs
        (``maxmin.progressive`` and ``maxmin.progressive_rounds``).

    Returns
    -------
    list of float
        The reference loop's rates, bit for bit.  Each round mirrors one
        loop round: integer link counts and count x level products are
        exact in both, and ``np.clip(remaining, 0.0, None)`` maps ``-0.0``
        to ``+0.0`` like the clip below.  A cap round subtracts from each
        link the sum of the caps it froze there, which the loop forms
        through BLAS in an association order numpy does not pin.  One or
        two caps, and three or four equal caps ``c``, sum to the same bits
        in every order (``fl(2c + c)``, and ``4c`` exactly); other sums
        can differ in the last ulp (five equal caps already do).  So two
        cases have no pinned result, and the problem goes to
        :func:`maxmin_allocate` unchanged:

        * a cap round freezes, on one link, three or more flows whose caps
          differ, or five or more flows;
        * the first round's lowest share is a zero that comes with both
          signs (numpy's ``min`` does not pin which one it returns).

        Fewer than two flows also go to :func:`maxmin_allocate`, whose
        single-flow path this function does not repeat.
    """
    n_flows = len(flow_links)
    if n_flows < 2:
        return _reference(capacities, flow_links, caps, observer)
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
                    return _reference(capacities, flow_links, caps, observer)
            saturated = {i for i, v in zip(used, shares) if v <= bar}
            hit = [j for j in active if not saturated.isdisjoint(flow_links[j])]
            for j in hit:
                rates[j] = level
        hit_set = set(hit)
        active = [j for j in active if j not in hit_set]
        if not active:
            break  # nothing left to share: the decrement cannot matter
        # The hit flows on each link, in flow order.
        on_link: Dict[int, List[int]] = {}
        for j in hit:
            for i in flow_links[j]:
                counts[i] -= 1
                on_link.setdefault(i, []).append(j)
        for i, js in on_link.items():
            if not capped:
                remaining[i] -= len(js) * level
            elif len(js) == 1:
                remaining[i] -= caps[js[0]]
            elif len(js) == 2:
                remaining[i] -= caps[js[0]] + caps[js[1]]
            elif len(js) <= 4 and all(caps[j] == caps[js[0]] for j in js):
                remaining[i] -= len(js) * caps[js[0]]
            else:
                return _reference(capacities, flow_links, caps, observer)
        for i in used:
            if remaining[i] <= 0.0:
                remaining[i] = 0.0

    if observer is not None:
        observer.count("maxmin.progressive")
        if rounds:
            observer.count("maxmin.progressive_rounds", rounds)
    return rates

