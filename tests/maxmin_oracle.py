"""Reference max-min solvers and checks, dense and flow by flow.

:func:`maxmin_allocate` is the classic progressive-filling loop over a dense
``(L, F)`` incidence matrix.  The engine's solvers
(:func:`repro.tcp.maxmin.maxmin_scalar` and
:func:`repro.vec.solver.waterfill_sparse`) compute the same fixed point,
but sum each link's frozen caps sequentially in flow order, where this loop
sums them through a BLAS matvec in an order numpy does not pin; so they
agree with it to round-off, not bit for bit.

:func:`repro.vec.solver.certify_maxmin` certifies an allocation over
coordinate lists in O(nnz), and the sanitizer runs it on both fluid ticks.
:func:`verify_maxmin` is the O(F*L) dense check it replaced.  Both are kept
here - and only here - as independent oracles for the certificate and the
solvers.
"""

from typing import Optional, Sequence

import numpy as np

#: Relative slack when comparing rates/capacities (the solvers' ``_EPS``).
_EPS = 1e-9


def maxmin_allocate(
    capacities: np.ndarray,
    incidence: np.ndarray,
    caps: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Max-min fair rates of the flows in ``incidence``.

    ``capacities`` has shape ``(L,)`` (non-negative), ``incidence`` shape
    ``(L, F)`` (``incidence[l, f]`` is True when flow ``f`` crosses link
    ``l``; every flow crosses at least one), and ``caps`` shape ``(F,)``
    per-flow ceilings (``inf`` or None: uncapped).  Each round freezes the
    flows at the lowest water level - their caps, or the equal share of a
    saturating link - so the loop runs at most ``F`` rounds.
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
    if np.any(c < 0.0):
        raise ValueError("capacities must be non-negative")
    if n_flows == 0:
        return np.zeros(0)
    if not np.all(a.any(axis=0)):
        raise ValueError("every flow must traverse at least one link")
    if caps is None:
        caps_arr = np.full(n_flows, np.inf)
    else:
        caps_arr = np.asarray(caps, dtype=np.float64)
        if caps_arr.shape != (n_flows,):
            raise ValueError(f"caps shape {caps_arr.shape} != ({n_flows},)")
        if np.any(caps_arr < 0.0):
            raise ValueError("caps must be non-negative")

    rates = np.zeros(n_flows)
    frozen = np.zeros(n_flows, dtype=bool)
    frozen[caps_arr <= 0.0] = True  # zero-cap flows freeze immediately
    remaining = c.copy()
    while not frozen.all():
        active = ~frozen
        counts = a @ active.astype(np.float64)  # unfrozen flows per link
        used = counts > 0.0
        if not used.any():
            break
        # Equal-share water level each congested link could still grant.
        shares = np.full(n_links, np.inf)
        np.divide(remaining, counts, out=shares, where=used)
        link_level = float(shares[used].min())
        cap_level = float(caps_arr[active].min())
        level = min(link_level, cap_level)
        if cap_level <= link_level * (1.0 + _EPS):
            # Some flows hit their private ceiling first: freeze them at cap.
            hit = active & (caps_arr <= level * (1.0 + _EPS))
            rates[hit] = caps_arr[hit]
            remaining -= a[:, hit] @ caps_arr[hit]
        else:
            # Some link saturates: freeze all unfrozen flows crossing it.
            saturated = used & (shares <= level * (1.0 + _EPS))
            hit = active & (a[saturated, :].any(axis=0))
            rates[hit] = level
            remaining -= (a[:, hit].sum(axis=1)) * level
        frozen[hit] = True
        np.clip(remaining, 0.0, None, out=remaining)
    return rates


def incidence_matrix(n_links: int, flow_links: Sequence[Sequence[int]]) -> np.ndarray:
    """The ``(n_links, F)`` boolean incidence of per-flow link-index lists."""
    incidence = np.zeros((n_links, len(flow_links)), dtype=bool)
    for j, idxs in enumerate(flow_links):
        incidence[idxs, j] = True
    return incidence


def verify_maxmin(
    capacities: np.ndarray,
    incidence: np.ndarray,
    rates: np.ndarray,
    caps: Optional[np.ndarray] = None,
    *,
    rtol: float = 1e-6,
) -> bool:
    """Check feasibility, cap-respect and max-min optimality of ``rates``.

    A rate vector is max-min fair iff every flow is *saturated*: it either
    sits at its cap, or crosses at least one bottleneck link - a link that is
    full and on which this flow has the maximal rate.  Used by tests and the
    property-based suite.
    """
    c = np.asarray(capacities, dtype=np.float64)
    a = np.asarray(incidence, dtype=bool)
    r = np.asarray(rates, dtype=np.float64)
    n_links, n_flows = a.shape
    caps_arr = np.full(n_flows, np.inf) if caps is None else np.asarray(caps, dtype=np.float64)

    if np.any(r < -rtol):
        return False
    load = a @ r
    scale = np.maximum(c, 1.0)
    if np.any(load > c + rtol * scale):
        return False  # infeasible
    if np.any(r > caps_arr * (1.0 + rtol) + rtol):
        return False  # cap violated

    for f in range(n_flows):
        if caps_arr[f] <= r[f] * (1.0 + rtol) + rtol:
            continue  # saturated at its cap
        links_f = np.flatnonzero(a[:, f])
        bottlenecked = False
        for l in links_f:
            full = load[l] >= c[l] - rtol * scale[l]
            if not full:
                continue
            others = a[l, :]
            if r[f] >= np.max(r[others]) - rtol * max(r[f], 1.0):
                bottlenecked = True
                break
        if not bottlenecked:
            return False
    return True
