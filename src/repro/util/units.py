"""Unit conventions and conversions used throughout the library.

Internal conventions
--------------------
* **Time** is measured in seconds (float).
* **Data sizes** are measured in bytes (float; fractional bytes are fine in
  the fluid model).
* **Rates** are measured in bytes per second internally.  The paper reports
  throughput in megabits per second (Mbps), so converters are provided and
  all user-facing statistics use Mbps.

The module deliberately exposes plain floats and free functions rather than a
unit-wrapper class: the simulator's hot paths operate on numpy arrays of
rates and byte counts, and wrapper objects would defeat vectorisation.
"""

from __future__ import annotations

__all__ = [
    "KB",
    "MB",
    "GB",
    "BITS_PER_BYTE",
    "MS_PER_S",
    "US_PER_S",
    "mbps_to_bytes_per_s",
    "bytes_per_s_to_mbps",
    "s_to_ms",
    "s_to_us",
    "kb",
    "mb",
    "MINUTE",
    "HOUR",
]

#: Bytes in a kilobyte (decimal, as in the paper's "100KB").
KB: float = 1_000.0
#: Bytes in a megabyte (decimal, as in the paper's "2 MB" files).
MB: float = 1_000_000.0
#: Bytes in a gigabyte.
GB: float = 1_000_000_000.0

BITS_PER_BYTE: float = 8.0

#: Milliseconds in a second (display helper for latencies).
MS_PER_S: float = 1_000.0

#: Microseconds in a second (Chrome ``trace_event`` timestamps are in µs).
US_PER_S: float = 1_000_000.0

#: Seconds in a minute / hour, for readable workload definitions.
MINUTE: float = 60.0
HOUR: float = 3_600.0


def mbps_to_bytes_per_s(mbps: float) -> float:
    """Convert a rate in megabits/second to bytes/second.

    >>> mbps_to_bytes_per_s(8.0)
    1000000.0
    """
    return float(mbps) * 1e6 / BITS_PER_BYTE


def bytes_per_s_to_mbps(rate: float) -> float:
    """Convert a rate in bytes/second to megabits/second.

    Accepts numpy arrays as well as scalars (pure arithmetic).
    """
    return rate * (BITS_PER_BYTE / 1e6)


def s_to_ms(seconds: float) -> float:
    """Convert seconds to milliseconds (used for human-facing latency text).

    >>> s_to_ms(0.075)
    75.0
    """
    return float(seconds) * MS_PER_S


def s_to_us(seconds: float) -> float:
    """Convert seconds to microseconds (Chrome trace timestamp unit).

    >>> s_to_us(0.002)
    2000.0
    """
    return float(seconds) * US_PER_S


def kb(n: float) -> float:
    """``n`` kilobytes expressed in bytes."""
    return float(n) * KB


def mb(n: float) -> float:
    """``n`` megabytes expressed in bytes."""
    return float(n) * MB
