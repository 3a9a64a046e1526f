"""Property tests for the stripe block scheduler and reassembly buffer.

The striping subsystem's correctness contract (no gaps, no overlapping
committed ranges, byte identity with a single-path fetch, deterministic
block->path assignment) is checked here structurally, against seeded random
operation sequences - independently of the fluid engine.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stripe import blocks
from repro.stripe.blocks import (
    DEFAULT_BLOCK_BYTES,
    BlockScheduler,
    ReassemblyBuffer,
    StripeConfig,
    StripeIntegrityError,
    content_digest,
    synthetic_bytes,
)


class TestStripeConfig:
    def test_defaults(self):
        cfg = StripeConfig()
        assert cfg.block_bytes == DEFAULT_BLOCK_BYTES
        assert cfg.window == 2
        assert cfg.straggler_reissue
        assert cfg.transfer_deadline is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_bytes": 0.0},
            {"window": 0},
            {"max_copies": 0},
            {"check_interval": 0.0},
            {"grace_period": -1.0},
            {"transfer_deadline": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StripeConfig(**kwargs)


class TestBlockGeometry:
    @pytest.mark.parametrize(
        "size,block",
        [(8_000_000, 512_000), (8_000_000, 3_000_000), (100, 512_000), (7, 3)],
    )
    def test_ranges_tile_the_object(self, size, block):
        sched = BlockScheduler(size, block)
        assert sched.n_blocks == max(1, math.ceil(size / block))
        cursor = 0
        for b in range(sched.n_blocks):
            r = sched.block_range(b)
            assert r.first == cursor, "blocks must be contiguous"
            assert r.last >= r.first
            cursor = r.last + 1
        assert cursor == size, "blocks must cover the object exactly"

    def test_block_range_bounds(self):
        sched = BlockScheduler(100, 30)
        with pytest.raises(ValueError):
            sched.block_range(-1)
        with pytest.raises(ValueError):
            sched.block_range(sched.n_blocks)


class TestSchedulerLifecycle:
    def test_claim_is_lowest_first(self):
        sched = BlockScheduler(100, 10)
        assert sched.claim("a") == 0
        assert sched.claim("b") == 1
        assert sched.claim("a") == 2
        assert sched.carriers_of(0) == ("a",)
        assert sched.outstanding == [0, 1, 2]

    def test_commit_marks_done_and_returns_losers(self):
        sched = BlockScheduler(100, 60)  # 2 blocks
        assert sched.claim("a") == 0
        assert sched.reissue("b", max_copies=2) == 0
        assert sched.commit(0, "b") == ("a",)
        assert not sched.complete
        assert sched.claim("a") == 1
        assert sched.commit(1, "a") == ()
        assert sched.complete

    def test_commit_requires_carrier(self):
        sched = BlockScheduler(100, 60)
        sched.claim("a")
        with pytest.raises(ValueError):
            sched.commit(0, "b")
        with pytest.raises(ValueError):
            sched.commit(1, "a")

    def test_reissue_respects_copy_bound_and_self(self):
        sched = BlockScheduler(100, 200)  # single block
        assert sched.claim("a") == 0
        assert sched.reissue("a", max_copies=2) is None, "no self-duplicate"
        assert sched.reissue("b", max_copies=2) == 0
        assert sched.reissue("c", max_copies=2) is None, "copy bound"
        assert sched.reissue("c", max_copies=3) == 0

    def test_release_returns_block_to_pool(self):
        sched = BlockScheduler(100, 60)
        assert sched.claim("a") == 0
        assert sched.release(0, "a") is True
        assert sched.outstanding == []
        # The released block is claimable again, ahead of block 1.
        assert sched.claim("b") == 0

    def test_release_with_surviving_carrier(self):
        sched = BlockScheduler(100, 200)
        sched.claim("a")
        sched.reissue("b", max_copies=2)
        assert sched.release(0, "a") is False, "b still carries it"
        assert sched.carriers_of(0) == ("b",)
        assert sched.commit(0, "b") == ()

    def test_mark_duplicate_requires_committed(self):
        sched = BlockScheduler(100, 60)
        sched.claim("a")
        with pytest.raises(ValueError):
            sched.mark_duplicate(0, "a")
        sched.reissue("b", max_copies=2)
        sched.commit(0, "a")
        sched.mark_duplicate(0, "b")  # no raise

    def test_random_walk_commits_tile_without_overlap(self):
        """Any claim/reissue/release/commit walk yields a clean tiling."""
        rng = np.random.default_rng(7)
        size, block = 10_000, 768
        sched = BlockScheduler(size, block)
        buf = ReassemblyBuffer("/f", size)
        lanes = ["a", "b", "c"]
        inflight = {lane: set() for lane in lanes}
        while not sched.complete:
            lane = lanes[int(rng.integers(len(lanes)))]
            action = rng.integers(4)
            if action == 0:
                got = sched.claim(lane)
                if got is None:
                    got = sched.reissue(lane, max_copies=2)
                if got is not None:
                    inflight[lane].add(got)
            elif action == 1 and inflight[lane]:
                blk = min(inflight[lane])
                inflight[lane].discard(blk)
                for loser in sched.commit(blk, lane):
                    inflight[loser].discard(blk)
                r = sched.block_range(blk)
                buf.commit(r.first, r.last)
            elif action == 2 and inflight[lane]:
                blk = max(inflight[lane])
                inflight[lane].discard(blk)
                sched.release(blk, lane)
        assert buf.complete and not buf.gaps()
        assert buf.verify() == content_digest("/f", size)

    def test_assignment_is_deterministic(self):
        """The same call sequence produces the same block->path assignment."""

        def walk():
            rng = np.random.default_rng(13)
            sched = BlockScheduler(50_000, 768)
            lanes = ["a", "b"]
            trace = []
            inflight = {lane: [] for lane in lanes}
            while not sched.complete:
                lane = lanes[int(rng.integers(2))]
                if rng.integers(2) == 0:
                    got = sched.claim(lane)
                    if got is None:
                        got = sched.reissue(lane, max_copies=2)
                    if got is not None:
                        inflight[lane].append(got)
                        trace.append(("issue", lane, got))
                elif inflight[lane]:
                    blk = inflight[lane].pop(0)
                    losers = sched.commit(blk, lane)
                    for loser in losers:
                        inflight[loser].remove(blk)
                    trace.append(("commit", lane, blk, losers))
            return trace

        assert walk() == walk()


class TestSyntheticContent:
    def test_bytes_depend_only_on_absolute_offsets(self):
        whole = synthetic_bytes("/f", 0, 9_999)
        # Any partition concatenates to the same bytes.
        rng = np.random.default_rng(3)
        cuts = sorted(set(rng.integers(1, 9_999, size=8).tolist()))
        edges = [0] + cuts + [10_000]
        parts = b"".join(
            synthetic_bytes("/f", a, b - 1) for a, b in zip(edges, edges[1:])
        )
        assert parts == whole
        assert len(whole) == 10_000

    def test_distinct_resources_differ(self):
        assert synthetic_bytes("/f", 0, 99) != synthetic_bytes("/g", 0, 99)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            synthetic_bytes("/f", -1, 10)
        with pytest.raises(ValueError):
            synthetic_bytes("/f", 10, 9)


class TestReassemblyBuffer:
    def test_rejects_overlap_and_out_of_bounds(self):
        buf = ReassemblyBuffer("/f", 100)
        buf.commit(0, 49)
        with pytest.raises(StripeIntegrityError):
            buf.commit(40, 60)
        with pytest.raises(StripeIntegrityError):
            buf.commit(49, 49)
        with pytest.raises(StripeIntegrityError):
            buf.commit(50, 100)  # last byte out of bounds
        with pytest.raises(StripeIntegrityError):
            buf.commit(60, 59)
        buf.commit(50, 99)  # adjacent is fine
        assert buf.complete

    def test_gaps_and_digest_guard(self):
        buf = ReassemblyBuffer("/f", 100)
        buf.commit(10, 19)
        buf.commit(40, 99)
        assert buf.gaps() == [(0, 9), (20, 39)]
        assert not buf.complete
        with pytest.raises(StripeIntegrityError):
            buf.digest()

    def test_any_partition_matches_single_path_digest(self):
        """Out-of-order arbitrary tilings reassemble byte-identically."""
        size = 30_000
        want = content_digest("/f", size)
        rng = np.random.default_rng(11)
        for _ in range(5):
            cuts = sorted(set(rng.integers(1, size, size=12).tolist()))
            edges = [0] + cuts + [size]
            ranges = [(a, b - 1) for a, b in zip(edges, edges[1:])]
            order = rng.permutation(len(ranges))
            buf = ReassemblyBuffer("/f", size)
            for i in order:
                buf.commit(*ranges[i])
            assert buf.committed_bytes == size
            assert buf.verify() == want

    def test_wrong_resource_digest_differs(self):
        buf = ReassemblyBuffer("/g", 1_000)
        buf.commit(0, 999)
        assert buf.digest() != content_digest("/f", 1_000)


# --------------------------------------------------------------------------- #
# memoised digests
# --------------------------------------------------------------------------- #
def uncached_content_digest(resource, size):
    """The single-path digest recomputed from scratch, bypassing the memo."""
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(synthetic_bytes(resource, 0, size - 1))
    return hasher.hexdigest()


def reassemble(resource, size, edges, order=None):
    """A buffer holding the tiling of ``[0, size)`` cut at ``edges``."""
    ranges = [(a, b - 1) for a, b in zip(edges, edges[1:])]
    buf = ReassemblyBuffer(resource, size)
    for i in order if order is not None else range(len(ranges)):
        buf.commit(*ranges[i])
    return buf


@st.composite
def partitions(draw):
    """(size, edges, commit order) for a random tiling of ``[0, size)``."""
    size = draw(st.integers(min_value=1, max_value=40_000))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=max(1, size - 1)), max_size=12))
    edges = [0] + sorted(c for c in cuts if c < size) + [size]
    order = draw(st.permutations(range(len(edges) - 1)))
    return size, edges, order


@pytest.fixture
def cold_digest_cache():
    """Start and leave each test with an empty digest memo."""
    blocks._digest_ranges.cache_clear()
    yield
    blocks._digest_ranges.cache_clear()


@pytest.mark.usefixtures("cold_digest_cache")
class TestMemoisedDigests:
    @settings(max_examples=60, deadline=None)
    @given(partitions())
    def test_cold_and_warm_verify_match_uncached_digest(self, part):
        size, edges, order = part
        want = uncached_content_digest("/memo", size)
        blocks._digest_ranges.cache_clear()
        assert reassemble("/memo", size, edges, order).verify() == want  # cold
        hits = blocks._digest_ranges.cache_info().hits
        assert reassemble("/memo", size, edges, order).verify() == want  # warm
        assert blocks._digest_ranges.cache_info().hits == hits + 2
        assert content_digest("/memo", size) == want

    def test_warm_cache_keeps_resource_and_size_apart(self):
        size = 20_000
        edges = [0, 4_096, 9_000, 15_000, size]
        warm = reassemble("/f", size, edges).verify()
        assert reassemble("/f", size, edges).verify() == warm
        other_resource = reassemble("/g", size, edges).verify()
        shorter = reassemble("/f", size - 1, edges[:-1] + [size - 1]).verify()
        assert other_resource == uncached_content_digest("/g", size)
        assert shorter == uncached_content_digest("/f", size - 1)
        assert len({warm, other_resource, shorter}) == 3

    def test_miss_hashes_real_bytes(self, monkeypatch):
        """A corrupted sub-range fails verify() once the memo is cleared."""
        size = 20_000
        edges = [0, 5_000, 12_000, size]
        reassemble("/f", size, edges).verify()  # warm with correct content
        real = blocks.synthetic_bytes

        def corrupted(resource, first, last):
            data = real(resource, first, last)
            if (first, last) == (5_000, 11_999):
                data = bytes([data[0] ^ 0xFF]) + data[1:]
            return data

        monkeypatch.setattr(blocks, "synthetic_bytes", corrupted)
        blocks._digest_ranges.cache_clear()
        with pytest.raises(StripeIntegrityError, match="single-path digest"):
            reassemble("/f", size, edges).verify()
