"""Random-set-size analysis: the paper's Fig. 6.

For each client and each random-set size k, the average improvement over
*all* transfers (direct selections contribute their ~0 improvement) is
plotted against k.  The paper's finding: the curves rise steeply and level
off around k ~ 10 of 35 relays - most of the attainable improvement comes
from a modest random subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.trace.store import TraceStore

__all__ = ["RandomSetCurve", "random_set_curves", "saturation_point"]


@dataclass(frozen=True)
class RandomSetCurve:
    """Mean improvement vs set size for one client."""

    client: str
    set_sizes: np.ndarray
    mean_improvement_percent: np.ndarray
    n_per_point: np.ndarray

    def value_at(self, k: int) -> float:
        """Mean improvement at set size ``k`` (KeyError if not measured)."""
        idx = np.flatnonzero(self.set_sizes == k)
        if idx.size == 0:
            raise KeyError(f"set size {k} was not measured for {self.client}")
        return float(self.mean_improvement_percent[idx[0]])


def random_set_curves(
    store: TraceStore,
    *,
    clients: Optional[List[str]] = None,
) -> Dict[str, RandomSetCurve]:
    """Fig. 6: per-client mean improvement as a function of set size."""
    groups = store.group_by("client")
    names = clients if clients is not None else sorted(groups)
    out: Dict[str, RandomSetCurve] = {}
    for name in names:
        sub = groups.get(name, TraceStore())
        ks = sorted({r.set_size for r in sub})
        means: List[float] = []
        counts: List[int] = []
        for k in ks:
            rows = sub.filter(set_size=k)
            imps = rows.column("improvement_percent")
            means.append(float(np.mean(imps)) if imps.size else float("nan"))
            counts.append(len(rows))
        out[name] = RandomSetCurve(
            client=name,
            set_sizes=np.asarray(ks, dtype=np.intp),
            mean_improvement_percent=np.asarray(means),
            n_per_point=np.asarray(counts, dtype=np.intp),
        )
    return out


def saturation_point(curve: RandomSetCurve, *, fraction: float = 0.9) -> int:
    """Smallest k achieving ``fraction`` of the curve's maximum improvement.

    The paper eyeballs "levels off at about 10 nodes"; this makes the
    criterion explicit.  Curves with non-positive maxima return the smallest
    measured k.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if curve.set_sizes.size == 0:
        raise ValueError(f"curve for {curve.client} is empty")
    peak = float(np.nanmax(curve.mean_improvement_percent))
    if peak <= 0.0:
        return int(curve.set_sizes[0])
    target = fraction * peak
    for k, v in zip(curve.set_sizes, curve.mean_improvement_percent):
        if v >= target:
            return int(k)
    return int(curve.set_sizes[-1])
