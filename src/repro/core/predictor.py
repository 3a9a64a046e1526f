"""Path throughput predictors.

The paper's predictor is implicit: probe throughput over the first x bytes
predicts whole-transfer throughput.  This module holds the explicit
baseline it is compared against:

OraclePredictor
    Peeks at the capacity traces and predicts the time-average bottleneck
    capacity over a look-ahead horizon, capped by the TCP window rate.  An
    un-implementable upper bound used as a baseline.
"""

from __future__ import annotations

from repro.http.transfer import TcpParams
from repro.overlay.paths import OverlayPath
from repro.util.validation import check_positive

__all__ = ["OraclePredictor"]


class OraclePredictor:
    """Trace-peeking predictor: mean bottleneck capacity over a horizon.

    Parameters
    ----------
    horizon:
        Look-ahead window in seconds; roughly the expected transfer length.
    tcp:
        Connection parameters; predictions are capped at ``W_max / RTT``.
    """

    def __init__(self, horizon: float = 30.0, *, tcp: TcpParams = TcpParams()):
        self.horizon = check_positive(horizon, "horizon")
        self._tcp = tcp

    def predict(self, path: OverlayPath, now: float) -> float:
        """Predicted long-transfer throughput (bytes/second) for ``path`` at ``now``."""
        trace = path.route.bottleneck_trace()
        mean_cap = trace.mean_over(now, now + self.horizon)
        window_rate = self._tcp.max_window / max(path.route.rtt, 1e-4)
        return min(mean_cap, window_rate)
