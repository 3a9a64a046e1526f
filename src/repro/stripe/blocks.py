"""Block scheduling and reassembly for striped (mHTTP-style) transfers.

A striped download splits an ``n``-byte object into fixed-size byte-range
*blocks* (the HTTP range layer's natural unit) and fetches them over several
paths at once.  Two pure data structures make that deterministic and
verifiable:

:class:`BlockScheduler`
    Tracks every block's lifecycle (unclaimed -> in flight -> committed).
    Assignment is *work stealing*: the next unclaimed block goes to the
    first path that asks with window headroom, so fast paths naturally
    carry more blocks.  Once the unclaimed pool drains, the tail can be
    *re-issued*: an outstanding straggler block is handed to a second path,
    and whichever copy lands first wins (the loser's bytes are counted as
    duplicate waste).  A dead path *releases* its outstanding blocks back
    to the unclaimed pool - the striped analogue of failover.
:class:`ReassemblyBuffer`
    Collects committed byte ranges in offset order, rejecting gaps and
    overlaps, and produces a content digest over deterministic synthetic
    bytes (:func:`synthetic_bytes`).  A striped fetch is *correct* exactly
    when its digest equals :func:`content_digest` of a single-path fetch of
    the same resource - the byte-identity check the tests rely on.

Both structures are plain sequential code driven by the simulation's event
order, so a striped session is as deterministic as the engine underneath:
same scenario, same seed, same block->path assignment, byte for byte.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.http.messages import ByteRange
from repro.util.units import kb
from repro.util.validation import check_positive

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "BlockScheduler",
    "ReassemblyBuffer",
    "StripeConfig",
    "StripeIntegrityError",
    "content_digest",
    "synthetic_bytes",
]

#: Default stripe block size.  512 KB over the paper's 8 MB object gives 16
#: blocks - enough parallel grain for 2-4 paths without drowning the fluid
#: engine in per-block flow churn.
DEFAULT_BLOCK_BYTES: float = kb(512)

#: Page granularity of the synthetic content model (see :func:`synthetic_bytes`).
_PAGE_BYTES: int = int(kb(4))


class StripeIntegrityError(RuntimeError):
    """The reassembled object is not byte-identical to a single-path fetch."""


@dataclass(frozen=True)
class StripeConfig:
    """Client-side knobs of the striped transfer mechanism.

    Attributes
    ----------
    block_bytes:
        Fixed block size; the last block of an object may be shorter.
    window:
        Blocks a single path may have in flight at once.
    straggler_reissue:
        Once the unclaimed pool drains, allow idle paths to fetch a second
        copy of outstanding tail blocks (first copy to land wins; the
        loser's bytes count as duplicate waste).
    max_copies:
        Bound on concurrent copies of one block (re-issue included).
    check_interval / grace_period:
        Path-health sampling: after a ``grace_period`` warm-up the session
        samples every path's delivered bytes every ``check_interval``
        seconds; a path whose in-flight blocks made zero progress over a
        full window is declared dead and releases its blocks.
    transfer_deadline:
        Bound on the whole session (seconds from request); ``None`` leaves
        it unbounded.
    """

    block_bytes: float = DEFAULT_BLOCK_BYTES
    window: int = 2
    straggler_reissue: bool = True
    max_copies: int = 2
    check_interval: float = 4.0
    grace_period: float = 3.0
    transfer_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        check_positive(self.block_bytes, "block_bytes")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.max_copies < 1:
            raise ValueError(f"max_copies must be >= 1, got {self.max_copies}")
        check_positive(self.check_interval, "check_interval")
        check_positive(self.grace_period, "grace_period")
        if self.transfer_deadline is not None:
            check_positive(self.transfer_deadline, "transfer_deadline")


# --------------------------------------------------------------------------- #
# scheduler
# --------------------------------------------------------------------------- #
class BlockScheduler:
    """Deterministic block lifecycle tracker for one striped download.

    The scheduler never looks at the clock or draws randomness: every
    decision is a pure function of the call sequence, which the session
    derives from simulation event order.  Blocks are always handed out
    lowest-index first, so the tail of the object is also the tail of the
    schedule.
    """

    def __init__(self, size: float, block_bytes: float):
        check_positive(size, "size")
        check_positive(block_bytes, "block_bytes")
        self._size = int(size)
        self._block_bytes = int(block_bytes)
        self.n_blocks = max(1, math.ceil(self._size / self._block_bytes))
        #: Min-heap of unclaimed block ids (released blocks return here).
        self._unclaimed: List[int] = list(range(self.n_blocks))
        heapq.heapify(self._unclaimed)
        #: block id -> labels of paths currently carrying a copy.
        self._carriers: Dict[int, List[str]] = {}
        self._done: set = set()

    # ------------------------------------------------------------------ #
    def block_range(self, block: int) -> ByteRange:
        """The inclusive byte range block ``block`` covers."""
        if not 0 <= block < self.n_blocks:
            raise ValueError(f"block {block} out of range [0, {self.n_blocks})")
        first = block * self._block_bytes
        last = min(first + self._block_bytes, self._size) - 1
        return ByteRange(first, last)

    @property
    def complete(self) -> bool:
        """True once every block has been committed."""
        return len(self._done) == self.n_blocks

    @property
    def outstanding(self) -> List[int]:
        """In-flight, not-yet-committed block ids (ascending)."""
        return sorted(self._carriers)

    def carriers_of(self, block: int) -> Tuple[str, ...]:
        """Labels of the paths currently carrying ``block``."""
        return tuple(self._carriers.get(block, ()))

    # ------------------------------------------------------------------ #
    def claim(self, lane: str) -> Optional[int]:
        """Work-stealing assignment: the lowest unclaimed block, or ``None``.

        The first path that asks gets the block - which path that *is* for
        a given call position is decided by the session's deterministic
        lane iteration, not by wall-clock races.
        """
        while self._unclaimed:
            block = heapq.heappop(self._unclaimed)
            if block in self._done or block in self._carriers:
                continue  # released twice or re-claimed meanwhile; skip
            self._carriers[block] = [lane]
            return block
        return None

    def reissue(self, lane: str, *, max_copies: int) -> Optional[int]:
        """Straggler re-issue: a second copy of the lowest outstanding block.

        Returns the block id now also carried by ``lane``, or ``None`` when
        no outstanding block qualifies (all carried by ``lane`` already, or
        at their copy bound).
        """
        for block in sorted(self._carriers):
            labels = self._carriers[block]
            if lane in labels or len(labels) >= max_copies:
                continue
            labels.append(lane)
            return block
        return None

    def commit(self, block: int, lane: str) -> Tuple[str, ...]:
        """Mark ``block`` delivered by ``lane``; returns the losing carriers.

        The losers' in-flight copies are now useless - the session aborts
        them and books their delivered bytes as duplicate waste.
        """
        labels = self._carriers.pop(block, None)
        if labels is None or lane not in labels:
            raise ValueError(f"block {block} is not in flight on {lane!r}")
        if block in self._done:  # pragma: no cover - commit() pops carriers
            raise ValueError(f"block {block} was already committed")
        self._done.add(block)
        return tuple(label for label in labels if label != lane)

    def mark_duplicate(self, block: int, lane: str) -> None:
        """Drop ``lane``'s copy of an already-committed ``block``.

        Used when two copies of one block complete inside the same event
        batch: the first :meth:`commit` wins, the second completion lands
        here.
        """
        if block not in self._done:
            raise ValueError(f"block {block} is not committed")

    def release(self, block: int, lane: str) -> bool:
        """A dead path returns its copy of ``block`` to the scheduler.

        Returns True when the block went back to the unclaimed pool (no
        surviving carrier), False when another path still carries it.
        """
        labels = self._carriers.get(block)
        if labels is None or lane not in labels:
            raise ValueError(f"block {block} is not in flight on {lane!r}")
        labels.remove(lane)
        if labels:
            return False
        del self._carriers[block]
        heapq.heappush(self._unclaimed, block)
        return True


# --------------------------------------------------------------------------- #
# reassembly + byte identity
# --------------------------------------------------------------------------- #
def synthetic_bytes(resource: str, first: int, last: int) -> bytes:
    """Deterministic content of ``resource`` over inclusive ``[first, last]``.

    The simulator moves fluid, not payloads, so byte identity is checked
    against a synthetic content model: byte ``i`` of a resource is a pure
    function of ``(resource, i)``, materialised page-wise (each 4 KB page
    is a BLAKE2b keystream of its page index).  Because content depends
    only on absolute offsets, any partition of ``[0, n)`` into ranges
    concatenates to the same bytes - which is exactly what makes the
    reassembly digest comparable to a single-path fetch.
    """
    if first < 0 or last < first:
        raise ValueError(f"invalid byte range [{first}, {last}]")
    out = bytearray()
    page = first // _PAGE_BYTES
    while page * _PAGE_BYTES <= last:
        seed = f"{resource}:{page}".encode("utf-8")
        pattern = hashlib.blake2b(seed, digest_size=32).digest()
        reps = _PAGE_BYTES // len(pattern)
        page_bytes = pattern * reps
        page_start = page * _PAGE_BYTES
        lo = max(first, page_start) - page_start
        hi = min(last, page_start + _PAGE_BYTES - 1) - page_start
        out += page_bytes[lo : hi + 1]
        page += 1
    return bytes(out)


def content_digest(resource: str, size: int) -> str:
    """Digest of a single-path fetch of the whole ``size``-byte resource."""
    check_positive(size, "size")
    return _digest_ranges(resource, ((0, size - 1),))


@functools.lru_cache(maxsize=1024)
def _digest_ranges(resource: str, ranges: Tuple[Tuple[int, int], ...]) -> str:
    """BLAKE2b-128 over the synthetic bytes of ``ranges``, concatenated.

    A pure function of its arguments, so it is memoised per process on the
    exact ``(resource, ranges)`` key: the first time a process sees a
    resource under a given partition it hashes the real bytes, and every
    later striped session with the same partition reuses that digest.
    """
    hasher = hashlib.blake2b(digest_size=16)
    for first, last in ranges:
        hasher.update(synthetic_bytes(resource, first, last))
    return hasher.hexdigest()


class ReassemblyBuffer:
    """In-order reassembly of committed byte ranges for one resource.

    ``commit`` rejects out-of-bounds and overlapping ranges immediately;
    :meth:`digest` additionally proves the committed ranges tile ``[0, n)``
    exactly and returns the content digest of the reassembled bytes, which
    must equal :func:`content_digest` for the fetch to count as correct.
    """

    def __init__(self, resource: str, size: int):
        check_positive(size, "size")
        self._resource = resource
        self._size = int(size)
        #: Committed (first, last) ranges, kept sorted by first offset.
        self._ranges: List[Tuple[int, int]] = []
        self._committed = 0

    @property
    def size(self) -> int:
        return self._size

    @property
    def committed_bytes(self) -> int:
        """Total payload bytes committed so far."""
        return self._committed

    @property
    def complete(self) -> bool:
        """True once committed bytes cover the whole object.

        ``commit`` forbids overlaps and out-of-bounds ranges, so reaching
        ``size`` committed bytes implies a gap-free tiling.
        """
        return self._committed >= self._size

    def commit(self, first: int, last: int) -> None:
        """Accept the inclusive range ``[first, last]`` as delivered."""
        if first < 0 or last < first or last >= self._size:
            raise StripeIntegrityError(
                f"range [{first}, {last}] outside object [0, {self._size})"
            )
        idx = bisect.bisect_left(self._ranges, (first, last))
        if idx > 0 and self._ranges[idx - 1][1] >= first:
            raise StripeIntegrityError(
                f"range [{first}, {last}] overlaps committed "
                f"{self._ranges[idx - 1]}"
            )
        if idx < len(self._ranges) and self._ranges[idx][0] <= last:
            raise StripeIntegrityError(
                f"range [{first}, {last}] overlaps committed {self._ranges[idx]}"
            )
        self._ranges.insert(idx, (first, last))
        self._committed += last - first + 1

    def gaps(self) -> List[Tuple[int, int]]:
        """Uncovered (first, last) ranges, ascending (empty when complete)."""
        out: List[Tuple[int, int]] = []
        cursor = 0
        for first, last in self._ranges:
            if first > cursor:
                out.append((cursor, first - 1))
            cursor = last + 1
        if cursor < self._size:
            out.append((cursor, self._size - 1))
        return out

    def digest(self) -> str:
        """Content digest of the reassembled object.

        Raises :class:`StripeIntegrityError` unless the committed ranges
        tile ``[0, size)`` exactly (no gaps - overlaps were rejected at
        commit time).
        """
        holes = self.gaps()
        if holes:
            raise StripeIntegrityError(
                f"object has {len(holes)} uncovered range(s), first {holes[0]}"
            )
        return _digest_ranges(self._resource, tuple(self._ranges))

    def verify(self) -> str:
        """Prove byte identity with a single-path fetch; returns the digest."""
        got = self.digest()
        want = content_digest(self._resource, self._size)
        if got != want:
            raise StripeIntegrityError(
                f"reassembled digest {got} != single-path digest {want}"
            )
        return got
