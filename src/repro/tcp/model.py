"""Analytic TCP throughput models.

The one classical result the library uses is the **slow-start ramp**: an
idealised TCP connection delivers ``cwnd0 * (2^k - 1)`` bytes in its first
``k`` round-trips, so measuring throughput over too small an initial range
is dominated by slow-start.  This is exactly why the paper probes with
``x = 100 KB``: the probe must outlast slow-start to predict steady-state
throughput.

All rates are bytes/second, times seconds, sizes bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.util.validation import check_positive

__all__ = [
    "MSS",
    "DEFAULT_INITIAL_WINDOW",
    "DEFAULT_MAX_WINDOW",
    "SlowStartRamp",
]

#: TCP maximum segment size in bytes (Ethernet-typical).
MSS: float = 1460.0

#: Initial congestion window in bytes (2 segments, RFC 3390-era).
DEFAULT_INITIAL_WINDOW: float = 2.0 * MSS

#: Default maximum window in bytes (64 KB classic receive window).
DEFAULT_MAX_WINDOW: float = 65_536.0


@dataclass(frozen=True)
class SlowStartRamp:
    """A per-flow rate-cap schedule implementing the doubling ramp.

    The cap during round ``k`` (rounds last one RTT, starting when the flow
    activates) is ``min(w0 * 2^k, W_max) / RTT``.  The fluid engine treats
    this as a private per-flow ceiling on top of max-min fair sharing.
    """

    rtt: float
    initial_window: float = DEFAULT_INITIAL_WINDOW
    max_window: float = DEFAULT_MAX_WINDOW
    _rounds_to_peak: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_positive(self.rtt, "rtt")
        check_positive(self.initial_window, "initial_window")
        check_positive(self.max_window, "max_window")
        if self.max_window < self.initial_window:
            raise ValueError("max_window must be >= initial_window")
        # Cached on the (frozen, immutable) ramp: cap_at/next_increase_after
        # run on the engine's per-tick hot path, and log2/ceil per query is
        # measurable there.
        object.__setattr__(
            self,
            "_rounds_to_peak",
            int(math.ceil(math.log2(self.max_window / self.initial_window))),
        )

    # Relative slack when mapping elapsed time to a doubling round: event
    # times accumulate float error, so an elapsed value one ulp short of a
    # round boundary must count as *in* that round, or the engine would
    # schedule a zero-length wait and stall the clock.
    _ROUND_EPS = 1e-9

    def _round_of(self, elapsed: float) -> int:
        return int(math.floor(elapsed / self.rtt + self._ROUND_EPS))

    def cap_at(self, elapsed: float) -> float:
        """Rate cap (bytes/second) a time ``elapsed`` after activation."""
        if elapsed < 0.0:
            return 0.0
        # Clamp the exponent: past rounds_to_peak the window is max_window
        # anyway, and 2.0**k overflows for very long-lived flows.
        k = min(self._round_of(elapsed), self.rounds_to_peak())
        window = self.initial_window * (2.0**k)
        return min(window, self.max_window) / self.rtt

    def next_increase_after(self, elapsed: float) -> float:
        """Elapsed time of the next cap increase, or ``inf`` when capped out."""
        if elapsed < 0.0:
            return 0.0
        k = self._round_of(elapsed) + 1
        if k > self.rounds_to_peak():
            return float("inf")
        return k * self.rtt

    def rounds_to_peak(self) -> int:
        """Number of doubling rounds until the window cap is reached."""
        return self._rounds_to_peak
