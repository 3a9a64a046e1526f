"""Unit conversion tests."""


import pytest

from repro.util import units


class TestConversions:
    def test_mbps_round_trip(self):
        for mbps in (0.1, 1.0, 2.5, 100.0):
            assert units.bytes_per_s_to_mbps(  # qa: ignore[QA-U102] - round trip
                units.mbps_to_bytes_per_s(mbps)
            ) == pytest.approx(mbps)

    def test_one_mbps_is_125000_bytes_per_s(self):
        assert units.mbps_to_bytes_per_s(1.0) == pytest.approx(125_000.0)

    def test_kb_and_mb_are_decimal(self):
        assert units.kb(100) == 100_000.0
        assert units.mb(2) == 2_000_000.0
        assert units.GB == 1000 * units.MB

    def test_minute_hour(self):
        assert units.HOUR == 60 * units.MINUTE
