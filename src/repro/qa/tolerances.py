"""Numeric tolerances used by the runtime invariant sanitizer.

Each constant documents *why* an invariant is checked with slack instead of
exactly; loosening a check requires widening (and justifying) a constant
here, never an inline literal at the check site.
"""

from __future__ import annotations

__all__ = [
    "CAPACITY_RTOL",
    "BYTE_CONSERVATION_SLACK",
    "RATE_ATOL",
    "PROBE_OVERSHOOT_SLACK",
    "TIME_ORDER_ATOL",
]

#: Relative slack when comparing per-link load against capacity (QA-R003/4),
#: used by the max-min certificate (``repro.vec.solver.certify_maxmin``).
#: The allocator freezes flows with a 1e-9 relative epsilon and accumulates
#: float rounding across O(F) water-filling iterations; 1e-6 leaves three
#: orders of magnitude of headroom over that.
CAPACITY_RTOL: float = 1e-6

#: Absolute slack (bytes) on delivered-vs-requested accounting (QA-R002).
#: Mirrors the fluid engine's completion slack: a flow is finalised when
#: ``remaining <= 1e-3`` bytes, so ``delivered`` may legitimately sit within
#: a milli-byte of ``size`` before the completion tick snaps it exact.
BYTE_CONSERVATION_SLACK: float = 1e-3

#: Absolute slack on rate non-negativity (QA-R002).  Rates come straight from
#: the max-min solvers, whose water-filling rounds clip each link's remaining
#: capacity at zero, so no slack is actually needed;
#: the constant exists so a future allocator with signed rounding error has a
#: single place to declare it.
RATE_ATOL: float = 0.0

#: Extra bytes a single probe may deliver beyond the requested probe size
#: (QA-R005).  Range requests are rounded to whole bytes and the completion
#: slack above allows a sub-byte overshoot; one full byte bounds both.
PROBE_OVERSHOOT_SLACK: float = 1.0

#: Absolute slack on phase ordering comparisons (QA-R001/R005).  Event times
#: are propagated exactly (never recomputed), so ordering must hold exactly.
TIME_ORDER_ATOL: float = 0.0
