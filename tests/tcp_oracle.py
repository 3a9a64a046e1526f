"""Closed-form TCP reference: slow start, then capacity-limited delivery.

The fluid engine and the packet-level Reno model are checked against this
formula on a single uncontended link; nothing in ``repro`` calls it.
"""

from repro.tcp.model import DEFAULT_INITIAL_WINDOW
from repro.util.validation import check_non_negative, check_positive


def ideal_transfer_time(
    size: float,
    capacity: float,
    rtt: float,
    *,
    initial_window: float = DEFAULT_INITIAL_WINDOW,
    max_window: float = float("inf"),
) -> float:
    """Transfer time under slow start followed by capacity-limited delivery.

    A fluid idealisation: rate ramps as ``w0 * 2^k / rtt`` per round until it
    reaches ``min(capacity, max_window / rtt)``, then stays there.  This is
    the closed-form counterpart of the simulator's per-flow rate cap, the
    reference the engine is checked against on a single uncontended link.
    """
    check_non_negative(size, "size")
    check_positive(capacity, "capacity")
    check_positive(rtt, "rtt")
    if size == 0.0:
        return 0.0
    ceiling = min(capacity, max_window / rtt if max_window != float("inf") else float("inf"))
    if ceiling <= 0.0:
        raise ValueError("effective rate ceiling must be positive")
    t = 0.0
    delivered = 0.0
    rate = initial_window / rtt
    while rate < ceiling:
        step_bytes = rate * rtt
        if delivered + step_bytes >= size:
            return t + (size - delivered) / rate
        delivered += step_bytes
        t += rtt
        rate *= 2.0
    return t + (size - delivered) / ceiling
