"""Core metric definitions over measurement stores.

All statistics the paper reports are derived from
:class:`~repro.trace.store.TraceStore` rows here; the figure/table modules
compose these primitives.

Conventions (paper §3.1):

* **improvement** = (selected - direct) / direct, where *selected* is the
  selecting client's bulk transfer throughput and *direct* the concurrent
  control client's throughput;
* Fig. 1-style distributions are conditioned on the **indirect path having
  been selected** (transfers where the probe chose the direct path have
  improvement ~0 by construction and are excluded);
* **penalty** = a negative improvement; its magnitude is reported relative
  to the selected path (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.trace.store import TraceStore

__all__ = [
    "improvements_when_indirect",
    "indirect_utilization",
    "positive_given_indirect",
    "HeadlineStats",
    "headline_stats",
    "mean_improvement_by_site",
]


def improvements_when_indirect(store: TraceStore) -> np.ndarray:
    """Improvement percentages of transfers that rode the indirect path."""
    sub = store.filter(used_indirect=True)
    return sub.column("improvement_percent")


def indirect_utilization(store: TraceStore) -> float:
    """Fraction of transfers in which the indirect path was selected.

    This is the paper's *total utilisation* notion when restricted to rows
    using one candidate relay (§3.4), and the overall selection rate
    otherwise.  NaN for empty stores.
    """
    if len(store) == 0:
        return float("nan")
    return float(np.mean(store.column("used_indirect")))


def positive_given_indirect(store: TraceStore) -> float:
    """P(improvement > 0 | indirect selected); NaN if never selected."""
    imps = improvements_when_indirect(store)
    if imps.size == 0:
        return float("nan")
    return float(np.mean(imps > 0.0))


@dataclass(frozen=True)
class HeadlineStats:
    """The paper's §6 headline numbers."""

    n_transfers: int
    utilization: float
    positive_given_indirect: float
    mean_improvement_when_indirect: float
    median_improvement_when_indirect: float

    @property
    def effective_benefit_rate(self) -> float:
        """P(indirect selected AND positive improvement).

        The paper estimates this as ~40% (88% positive x 45% utilisation).
        """
        return self.utilization * self.positive_given_indirect


def headline_stats(store: TraceStore) -> HeadlineStats:
    """Compute the §6 headline statistics for a measurement campaign."""
    imps = improvements_when_indirect(store)
    return HeadlineStats(
        n_transfers=len(store),
        utilization=indirect_utilization(store),
        positive_given_indirect=positive_given_indirect(store),
        mean_improvement_when_indirect=float(np.mean(imps)) if imps.size else float("nan"),
        median_improvement_when_indirect=(
            float(np.median(imps)) if imps.size else float("nan")
        ),
    )


def mean_improvement_by_site(store: TraceStore) -> Dict[str, float]:
    """Average improvement (conditioned on indirect) per destination site.

    The paper reports this band as 33-49% across eBay/Google/Microsoft/
    Yahoo (§2.2).
    """
    out: Dict[str, float] = {}
    for site, sub in store.group_by("site").items():
        imps = improvements_when_indirect(sub)
        out[site] = float(np.mean(imps)) if imps.size else float("nan")
    return out
