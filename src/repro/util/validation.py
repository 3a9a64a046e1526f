"""Lightweight argument validation helpers.

The simulator's public entry points validate their inputs eagerly and raise
informative exceptions; internal hot paths assume validated data.  These
helpers keep the validation one-liners readable and the error messages
uniform.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_probability",
    "check_sorted",
    "check_same_length",
]


def check_positive(value: float, name: str) -> float:
    """Validate ``value > 0`` and return it as a float."""
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate ``value >= 0`` (NaN fails) and return it as a float."""
    value = float(value)
    if not value >= 0.0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Validate ``low <= value <= high`` (or strict if ``inclusive=False``)."""
    value = float(value)
    ok = (low <= value <= high) if inclusive else (low < value < high)
    if not ok:
        bounds = f"[{low}, {high}]" if inclusive else f"({low}, {high})"
        raise ValueError(f"{name} must lie in {bounds}, got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` is a probability in [0, 1]."""
    return check_in_range(value, name, 0.0, 1.0)


def check_sorted(values: Sequence[float], name: str) -> np.ndarray:
    """Validate that ``values`` is non-decreasing; return as float array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size > 1 and np.any(np.diff(arr) < 0.0):
        raise ValueError(f"{name} must be sorted in non-decreasing order")
    return arr


def check_same_length(a: Sequence[Any], b: Sequence[Any], name_a: str, name_b: str) -> None:
    """Validate that two sequences have equal length."""
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have the same length "
            f"({len(a)} != {len(b)})"
        )
