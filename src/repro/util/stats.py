"""Descriptive statistics used by the analysis layer.

The paper reports means, medians, standard deviations, maxima, RMS values
(Fig. 5) and percentage histograms (Figs. 1-2).  These helpers are thin,
vectorised wrappers around numpy with the edge cases (empty inputs) handled
explicitly so analysis code never has to special-case them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "Summary",
    "summarize",
    "rms",
    "percent_histogram",
    "fraction_between",
    "fraction_below",
    "coefficient_of_variation",
    "finite_mean",
    "finite_quantile",
]


def _as_array(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample.

    ``std`` is the population standard deviation (``ddof=0``): the paper's
    per-node statistics describe the full measured population, not a sample
    estimate of a larger one.
    """

    count: int
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float


_EMPTY_SUMMARY = Summary(0, float("nan"), float("nan"), float("nan"), float("nan"), float("nan"))


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` of ``values``; NaN-filled when empty."""
    arr = _as_array(values)
    if arr.size == 0:
        return _EMPTY_SUMMARY
    return Summary(
        count=int(arr.size),
        mean=float(np.mean(arr)),
        median=float(np.median(arr)),
        std=float(np.std(arr)),
        minimum=float(np.min(arr)),
        maximum=float(np.max(arr)),
    )


def rms(values: Sequence[float]) -> float:
    """Root mean square of ``values`` (NaN when empty).

    Fig. 5 of the paper reports RMS alongside average and standard deviation
    as a robustness measure of relay utilisation.
    """
    arr = _as_array(values)
    if arr.size == 0:
        return float("nan")
    return float(np.sqrt(np.mean(np.square(arr))))


def percent_histogram(
    values: Sequence[float],
    bin_edges: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of ``values`` with counts expressed as percentages.

    Returns ``(percentages, edges)``.  Values outside the outermost edges are
    clipped into the first/last bin so that percentages always total 100 for
    non-empty input (the paper's histograms account for every data point,
    with extreme penalties folded into the tail bins).
    """
    arr = _as_array(values)
    edges = np.asarray(bin_edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("bin_edges must contain at least two edges")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("bin_edges must be strictly increasing")
    if arr.size == 0:
        return np.zeros(edges.size - 1), edges
    clipped = np.clip(arr, edges[0], np.nextafter(edges[-1], -np.inf))
    counts, _ = np.histogram(clipped, bins=edges)
    return counts * (100.0 / arr.size), edges


def fraction_between(values: Sequence[float], low: float, high: float) -> float:
    """Fraction of values with ``low <= v <= high`` (NaN when empty)."""
    arr = _as_array(values)
    if arr.size == 0:
        return float("nan")
    return float(np.mean((arr >= low) & (arr <= high)))


def fraction_below(values: Sequence[float], threshold: float) -> float:
    """Fraction of values strictly below ``threshold`` (NaN when empty)."""
    arr = _as_array(values)
    if arr.size == 0:
        return float("nan")
    return float(np.mean(arr < threshold))


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Std/|mean| of ``values``; NaN when empty or mean is zero.

    Used to classify clients as having "low" vs "high" direct-path
    throughput variability (Table I's filtering step).
    """
    arr = _as_array(values)
    if arr.size == 0:
        return float("nan")
    mean = float(np.mean(arr))
    if mean == 0.0:
        return float("nan")
    return float(np.std(arr) / abs(mean))


def finite_quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile of the finite entries of ``values`` (NaN if none)."""
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return math.nan
    return float(np.quantile(np.asarray(finite, dtype=np.float64), q))


def finite_mean(values: Sequence[float]) -> float:
    """The mean of the finite entries of ``values`` (NaN if none)."""
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return math.nan
    return float(np.mean(np.asarray(finite, dtype=np.float64)))
