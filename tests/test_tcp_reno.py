"""TCP Reno reference model tests."""

import pytest

from repro.tcp.reno import RenoConfig, simulate_reno_transfer
from tests.tcp_oracle import ideal_transfer_time


def config(**kw):
    defaults = dict(capacity=125_000.0, rtt=0.1, buffer_bytes=64_000.0)
    defaults.update(kw)
    return RenoConfig(**defaults)


class TestRenoBasics:
    def test_long_transfer_approaches_capacity(self):
        cfg = config()
        res = simulate_reno_transfer(50e6, cfg)
        assert res.throughput == pytest.approx(cfg.capacity, rel=0.15)

    def test_bytes_conserved(self):
        res = simulate_reno_transfer(1_000_000.0, config())
        assert res.bytes_sent == pytest.approx(1_000_000.0)

    def test_short_transfer_latency_dominated(self):
        cfg = config(capacity=1e9)
        res = simulate_reno_transfer(10_000.0, cfg)
        # A few slow-start rounds, nowhere near capacity.
        assert res.throughput < 0.01 * cfg.capacity
        assert res.rounds <= 6

    def test_losses_occur_when_window_exceeds_pipe(self):
        cfg = config(buffer_bytes=5_000.0)
        res = simulate_reno_transfer(20e6, cfg)
        assert res.losses > 0

    def test_no_losses_with_huge_buffer(self):
        cfg = config(buffer_bytes=1e9)
        res = simulate_reno_transfer(5e6, cfg)
        assert res.losses == 0

    def test_series_lengths_match(self):
        res = simulate_reno_transfer(1e6, config())
        assert len(res.cwnd_series) == len(res.time_series) == res.rounds

    def test_cwnd_doubles_in_slow_start(self):
        res = simulate_reno_transfer(5e6, config())
        cw = res.cwnd_series
        assert cw[1] == pytest.approx(2 * cw[0])
        assert cw[2] == pytest.approx(4 * cw[0])

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            simulate_reno_transfer(0.0, config())

    def test_bdp(self):
        assert config().bdp == pytest.approx(12_500.0)

    def test_max_rounds_guard(self):
        with pytest.raises(RuntimeError):
            simulate_reno_transfer(1e9, config(), max_rounds=10)


class TestRenoVsFluid:
    """The fluid idealisation should track Reno within a modest factor."""

    @pytest.mark.parametrize("size", [100_000.0, 1_000_000.0, 10_000_000.0])
    def test_transfer_times_within_factor(self, size):
        cfg = config(buffer_bytes=32_000.0)
        reno = simulate_reno_transfer(size, cfg)
        fluid = ideal_transfer_time(
            size,
            cfg.capacity,
            cfg.rtt,
            initial_window=cfg.initial_window,
            max_window=float("inf"),
        )
        ratio = reno.duration / fluid
        assert 0.5 <= ratio <= 2.0

    def test_both_models_rank_capacities_identically(self):
        size = 2_000_000.0
        fast, slow = config(capacity=500_000.0), config(capacity=50_000.0)
        reno_gain = (
            simulate_reno_transfer(size, slow).duration
            / simulate_reno_transfer(size, fast).duration
        )
        fluid_gain = ideal_transfer_time(size, 50_000.0, 0.1) / ideal_transfer_time(
            size, 500_000.0, 0.1
        )
        # Both should see roughly the 10x capacity difference.
        assert reno_gain == pytest.approx(fluid_gain, rel=0.35)
