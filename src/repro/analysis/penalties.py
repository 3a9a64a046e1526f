"""Penalty statistics: the paper's Table I.

Starting from all indirect-selected transfers ("data points" in Fig. 1), the
paper filters the population twice and reports, for each population, the
fraction of points that were penalties and the penalty magnitude statistics:

1. **All** clients;
2. **Med/Low throughput**: drop clients measured as High-throughput;
3. **Low variability**: additionally drop Med/Low clients whose direct
   throughput is highly variable.

The monotone improvement across rows - fewer and smaller penalties after
each filter - is the shape this module reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.analysis.classify import DEFAULT_CV_THRESHOLD, classify_clients
from repro.trace.store import TraceStore

__all__ = ["PenaltyRow", "penalty_table"]


@dataclass(frozen=True)
class PenaltyRow:
    """One row of Table I."""

    label: str
    n_points: int
    penalty_fraction: float
    avg_penalty: float
    std_penalty: float
    max_penalty: float

    @property
    def penalty_points_percent(self) -> float:
        """Penalty points as a percentage of the population's data points."""
        return 100.0 * self.penalty_fraction


def _row(label: str, store: TraceStore) -> PenaltyRow:
    indirect = store.filter(used_indirect=True)
    n = len(indirect)
    penalties = np.asarray(
        [r.penalty_percent for r in indirect if r.is_penalty], dtype=np.float64
    )
    return PenaltyRow(
        label=label,
        n_points=n,
        penalty_fraction=(penalties.size / n) if n else float("nan"),
        avg_penalty=float(np.mean(penalties)) if penalties.size else 0.0,
        std_penalty=float(np.std(penalties)) if penalties.size else 0.0,
        max_penalty=float(np.max(penalties)) if penalties.size else 0.0,
    )


def penalty_table(
    store: TraceStore,
    *,
    cv_threshold: float = DEFAULT_CV_THRESHOLD,
) -> List[PenaltyRow]:
    """Compute the three Table I rows from a §2-style campaign."""
    profiles = classify_clients(store, cv_threshold=cv_threshold)

    med_low_clients = {c for c, p in profiles.items() if p.is_med_or_low}
    stable_clients = {
        c for c, p in profiles.items() if p.is_med_or_low and not p.high_variability
    }

    return [
        _row("All", store),
        _row("Med/Low Throughput", store.where(lambda r: r.client in med_low_clients)),
        _row("Low Variability", store.where(lambda r: r.client in stable_clients)),
    ]
