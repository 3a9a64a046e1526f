"""Striped-session tests: completeness, determinism, degradation, abort.

Uses the MiniWorld test-bed so path capacities are exact: the direct path
and each relay overlay carry known constant rates, and failure cases are
built by zeroing a path's trace mid-transfer via ``apply_fault_windows``.
"""

import dataclasses

import pytest

from repro.core.resilience import SessionOutcome
from repro.net.failures import FaultWindow, apply_fault_windows
from repro.net.trace import CapacityTrace
from repro.obs.core import (
    OBS_ENV_VAR,
    global_observer,
    reset_global_observer,
)
from repro.stripe.blocks import StripeConfig
from repro.util.units import kb, mb, mbps_to_bytes_per_s


SMALL_BLOCKS = StripeConfig(block_bytes=kb(256))


def _download(world, relays, stripe=SMALL_BLOCKS):
    _sim, _net, session = world.universe()
    return session.download_striped("C", "S", "/f", relays, stripe=stripe)


def _dead_after(rate_mbps: float, t: float) -> CapacityTrace:
    """A constant-rate trace that drops to zero capacity at ``t`` for good."""
    return apply_fault_windows(
        CapacityTrace.constant(mbps_to_bytes_per_s(rate_mbps)),
        [FaultWindow(t, 100_000.0)],
    )


class TestStripedDownload:
    def test_completes_and_verifies(self, mini_world):
        world = mini_world(direct_mbps=1.0, relay_mbps={"R1": 2.0, "R2": 4.0})
        res = _download(world, ["R1", "R2"])
        assert res.outcome is SessionOutcome.COMPLETED
        assert res.k == 3
        assert res.paths == ("direct", "R1", "R2")
        assert res.delivered == res.size == mb(4)
        assert res.digest, "completed sessions carry a verified digest"
        assert res.failed_paths == ()
        # Committed payload partitions the object across the lanes.
        assert sum(got for _label, got in res.bytes_by_path) == res.size
        assert res.n_blocks == 16  # 4 MB / 256 kB

    def test_work_stealing_favours_fast_paths(self, mini_world):
        world = mini_world(direct_mbps=0.4, relay_mbps={"R1": 8.0})
        res = _download(world, ["R1"])
        shares = dict(res.bytes_by_path)
        assert shares["R1"] > shares["direct"], (
            "the 20x faster relay lane must carry more payload"
        )

    def test_faster_than_single_path(self, mini_world):
        world = mini_world(direct_mbps=1.0, relay_mbps={"R1": 2.0, "R2": 2.0})
        striped = _download(world, ["R1", "R2"])
        _sim, _net, session = world.universe()
        direct = session.download_direct("C", "S", "/f")
        assert striped.duration < direct.duration

    def test_deterministic_across_runs(self, mini_world):
        world = mini_world(direct_mbps=1.0, relay_mbps={"R1": 2.0, "R2": 4.0})
        a = _download(world, ["R1", "R2"])
        b = _download(world, ["R1", "R2"])
        assert a == b, "same world, same config => field-identical result"

    def test_single_path_stripe_direct_only(self, mini_world):
        world = mini_world(direct_mbps=2.0, relay_mbps={})
        res = _download(world, [])
        assert res.outcome is SessionOutcome.COMPLETED
        assert res.paths == ("direct",)
        assert res.wasted_bytes == 0.0

    def test_stripe_config_type_checked(self, mini_world):
        world = mini_world()
        _sim, _net, session = world.universe()
        with pytest.raises(TypeError):
            session.download_striped("C", "S", "/f", ["R1"], stripe={"window": 2})

    def test_builder_rejects_duplicate_and_unknown_relays(self, mini_world):
        world = mini_world(relay_mbps={"R1": 2.0})
        with pytest.raises(ValueError):
            world.builder.striped("C", ["R1", "R1"], "S")
        with pytest.raises(KeyError):
            world.builder.striped("C", ["R9"], "S")


class TestDegradation:
    def test_dead_relay_degrades_without_gap(self, mini_world):
        world = mini_world(
            direct_mbps=1.0,
            relay_mbps={"R1": 2.0},
            relay_traces={"R1": _dead_after(2.0, 3.0)},
        )
        res = _download(world, ["R1"])
        assert res.outcome is SessionOutcome.DEGRADED
        assert res.failed_paths == ("R1",)
        assert res.delivered == res.size
        assert res.digest, "degraded sessions still verify byte identity"
        kinds = [e.kind for e in res.recovery_events]
        assert "path_dead" in kinds
        # The whole transfer still finished on the surviving direct lane.
        assert dict(res.bytes_by_path)["direct"] > 0.0

    def test_dead_path_blocks_are_refetched_not_lost(self, mini_world):
        world = mini_world(
            direct_mbps=4.0,
            relay_mbps={"R1": 2.0},
            relay_traces={"R1": _dead_after(2.0, 2.0)},
        )
        res = _download(world, ["R1"])
        assert res.outcome is SessionOutcome.DEGRADED
        assert res.delivered == res.size
        dead_events = [e for e in res.recovery_events if e.kind == "path_dead"]
        assert len(dead_events) == 1

    def test_all_paths_dead_aborts(self, mini_world):
        world = mini_world(
            direct_mbps=1.0,
            relay_mbps={"R1": 2.0},
            direct_trace=_dead_after(1.0, 2.0),
            relay_traces={"R1": _dead_after(2.0, 2.0)},
        )
        res = _download(world, ["R1"])
        assert res.outcome is SessionOutcome.ABORTED
        assert res.delivered < res.size
        assert res.digest == ""
        assert set(res.failed_paths) == {"direct", "R1"}
        kinds = [e.kind for e in res.recovery_events]
        assert kinds.count("path_dead") == 2 and "abort" in kinds

    def test_transfer_deadline_aborts(self, mini_world):
        world = mini_world(direct_mbps=0.05, relay_mbps={"R1": 0.05})
        cfg = dataclasses.replace(SMALL_BLOCKS, transfer_deadline=10.0)
        res = _download(world, ["R1"], stripe=cfg)
        assert res.outcome is SessionOutcome.ABORTED
        assert res.duration <= 10.0 + 1e-9


class TestStripeObservability:
    def test_spans_and_counters_emitted(self, mini_world, monkeypatch):
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        reset_global_observer()
        obs = global_observer(create=True)
        try:
            world = mini_world(direct_mbps=1.0, relay_mbps={"R1": 2.0})
            res = _download(world, ["R1"])
            assert res.outcome is SessionOutcome.COMPLETED
            spans = [
                r
                for r in obs.records
                if r.kind == "span" and r.category == "stripe"
            ]
            assert len(spans) == res.n_blocks, "one span per committed block"
            assert obs.counter("stripe.blocks.committed") == res.n_blocks
            assert obs.counter("stripe.sessions") == 1.0
        finally:
            reset_global_observer()

    def test_result_identical_with_and_without_obs(self, mini_world, monkeypatch):
        world = mini_world(direct_mbps=1.0, relay_mbps={"R1": 2.0, "R2": 4.0})
        monkeypatch.delenv(OBS_ENV_VAR, raising=False)
        reset_global_observer()
        plain = _download(world, ["R1", "R2"])
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        global_observer(create=True)
        try:
            observed = _download(world, ["R1", "R2"])
        finally:
            reset_global_observer()
        assert plain == observed
