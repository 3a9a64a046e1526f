"""Trend detection for throughput time series (paper Fig. 4).

The paper observes that indirect-path throughput over time shows "no
discernable uptrend or downtrend".  We make that statement testable with the
non-parametric Mann-Kendall trend test plus Theil-Sen slope estimation, both
standard for noisy network measurement series (no distributional assumptions,
robust to outliers/jumps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["TrendResult", "mann_kendall", "theil_sen_slope"]


@dataclass(frozen=True)
class TrendResult:
    """Outcome of a Mann-Kendall trend test.

    Attributes
    ----------
    s_statistic:
        The raw Mann-Kendall S statistic (sum of pairwise sign comparisons).
    z_score:
        Normal-approximation test statistic with tie correction.
    p_value:
        Two-sided p-value.
    trend:
        ``"increasing"``, ``"decreasing"`` or ``"none"`` at the supplied
        significance level.
    slope:
        Theil-Sen median pairwise slope (units: value per unit of time).
    """

    s_statistic: int
    z_score: float
    p_value: float
    trend: str
    slope: float

    @property
    def has_trend(self) -> bool:
        """True when a statistically significant monotone trend was found."""
        return self.trend != "none"


def _mk_variance(values: np.ndarray) -> float:
    """Variance of S with the standard correction for tied groups."""
    n = values.size
    var = n * (n - 1) * (2 * n + 5)
    _, counts = np.unique(values, return_counts=True)
    ties = counts[counts > 1]
    if ties.size:
        var -= int(np.sum(ties * (ties - 1) * (2 * ties + 5)))
    return var / 18.0


def mann_kendall(
    values: Sequence[float],
    times: Sequence[float] | None = None,
    *,
    alpha: float = 0.05,
) -> TrendResult:
    """Run the Mann-Kendall test on ``values`` (optionally with ``times``).

    Parameters
    ----------
    values:
        The measurement series, in time order if ``times`` is omitted.
    times:
        Optional sample times; when given, samples are sorted by time first.
    alpha:
        Two-sided significance level for declaring a trend.
    """
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if times is not None:
        t = np.asarray(times, dtype=np.float64).reshape(-1)
        if t.size != arr.size:
            raise ValueError("times and values must have the same length")
        order = np.argsort(t, kind="stable")
        arr = arr[order]
        t = t[order]
    else:
        t = np.arange(arr.size, dtype=np.float64)
    if arr.size < 3:
        return TrendResult(0, 0.0, 1.0, "none", 0.0)

    # S = sum_{i<j} sign(x_j - x_i), computed vectorised over the pair matrix.
    diffs = np.sign(arr[None, :] - arr[:, None])
    s = int(np.sum(np.triu(diffs, k=1)))

    var_s = _mk_variance(arr)
    if var_s <= 0.0:  # constant series
        return TrendResult(s, 0.0, 1.0, "none", 0.0)
    if s > 0:
        z = (s - 1) / math.sqrt(var_s)
    elif s < 0:
        z = (s + 1) / math.sqrt(var_s)
    else:
        z = 0.0
    # Two-sided normal tail, 2 * (1 - Phi(|z|)), without cancellation.
    p = math.erfc(abs(z) / math.sqrt(2.0))

    slope = theil_sen_slope(arr, t)
    if p < alpha:
        trend = "increasing" if z > 0 else "decreasing"
    else:
        trend = "none"
    return TrendResult(s, float(z), float(p), trend, slope)


def theil_sen_slope(values: Sequence[float], times: Sequence[float] | None = None) -> float:
    """Median of pairwise slopes; 0.0 for series shorter than 2 points."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if times is None:
        t = np.arange(arr.size, dtype=np.float64)
    else:
        t = np.asarray(times, dtype=np.float64).reshape(-1)
        if t.size != arr.size:
            raise ValueError("times and values must have the same length")
    if arr.size < 2:
        return 0.0
    dv = arr[None, :] - arr[:, None]
    dt = t[None, :] - t[:, None]
    iu = np.triu_indices(arr.size, k=1)
    dt_pairs = dt[iu]
    dv_pairs = dv[iu]
    valid = dt_pairs != 0.0
    if not np.any(valid):
        return 0.0
    return float(np.median(dv_pairs[valid] / dt_pairs[valid]))
