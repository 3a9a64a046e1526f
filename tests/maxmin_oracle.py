"""Reference max-min check: the dense, flow-by-flow bottleneck test.

:func:`repro.vec.solver.certify_maxmin` certifies an allocation over
coordinate lists in O(nnz), and the sanitizer runs it on both fluid ticks.
This is the O(F*L) dense check it replaced, kept here - and only here - as
an independent oracle for the certificate and the solvers.
"""

from typing import Optional

import numpy as np


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
