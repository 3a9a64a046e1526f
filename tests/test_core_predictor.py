"""Path predictor tests: oracle trace-peeking."""

import pytest

from repro.core.predictor import OraclePredictor
from repro.http.transfer import TcpParams
from repro.net.trace import CapacityTrace
from repro.util.units import mbps_to_bytes_per_s


class TestOraclePredictor:
    def test_constant_path_prediction(self, mini_world):
        w = mini_world(direct_mbps=2.0)
        path = w.builder.direct("C", "S")
        pred = OraclePredictor(horizon=10.0, tcp=TcpParams(max_window=1e9))
        assert pred.predict(path, 0.0) == pytest.approx(
            mbps_to_bytes_per_s(2.0)
        )

    def test_window_cap_applies(self, mini_world):
        w = mini_world(direct_mbps=100.0, access_mbps=200.0)
        path = w.builder.direct("C", "S")
        pred = OraclePredictor(horizon=10.0, tcp=TcpParams(max_window=65536.0))
        assert pred.predict(path, 0.0) == pytest.approx(65536.0 / path.route.rtt)

    def test_sees_future_capacity_change(self, mini_world):
        trace = CapacityTrace(
            [0.0, 100.0], [mbps_to_bytes_per_s(1.0), mbps_to_bytes_per_s(3.0)]
        )
        w = mini_world(direct_trace=trace)
        path = w.builder.direct("C", "S")
        pred = OraclePredictor(horizon=50.0, tcp=TcpParams(max_window=1e9))
        before = pred.predict(path, 0.0)
        after = pred.predict(path, 100.0)
        assert after > before * 2.5

    def test_horizon_validated(self):
        with pytest.raises(ValueError):
            OraclePredictor(horizon=0.0)

