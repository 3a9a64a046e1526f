"""Incremental shard checkpoints with a fingerprinted, atomically-written manifest.

Layout of a checkpoint directory::

    <dir>/
        manifest.json          # campaign fingerprint + plan shape (atomic)
        summary.json           # machine-readable run summary (atomic, on finish)
        shards/shard-0000.jsonl
        shards/shard-0001.jsonl
        ...

Each shard line is one completed work unit::

    {"unit": <plan index>, "id": "<unit id>", "record": {...TransferRecord...}}

Shard assignment is a pure function of the plan (contiguous index blocks),
so it is identical for every worker count; workers never write shards -
the parent process appends results as they arrive, which keeps writes
single-writer and makes a half-written final line (from a kill) the only
corruption *this code* can produce.  :meth:`CheckpointStore.completed_units`
tolerates exactly that: a torn *final* line per shard is dropped and the
unit re-executes.  Corruption anywhere else (disk fault, truncation, an
editor mangling a shard) cannot come from a crash, so the damaged shard is
*quarantined* rather than trusted or fatal: the file is renamed aside, a
structured :class:`ShardQuarantine` records what happened, and every unit
the shard held re-executes into a fresh shard file - resume survives, and
nothing half-readable leaks into the merge.

Resume protocol: the manifest records :meth:`CampaignPlan.fingerprint`.
Opening an existing checkpoint requires ``resume=True`` (refusing to
silently clobber prior work) *and* a fingerprint match (refusing to mix
measurements from drifted campaigns).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Tuple, Union

from repro.runner.plan import CampaignPlan
from repro.trace.records import TransferRecord
from repro.trace.store import TraceStore

__all__ = [
    "CheckpointError",
    "CheckpointExistsError",
    "CheckpointMismatchError",
    "CheckpointStore",
    "DEFAULT_NUM_SHARDS",
    "MANIFEST_NAME",
    "SUMMARY_NAME",
    "ShardQuarantine",
]

MANIFEST_NAME = "manifest.json"
SUMMARY_NAME = "summary.json"
SHARD_DIR = "shards"
MANIFEST_FORMAT = 1

#: Default shard count.  Fixed by the plan (not the worker count) so the
#: on-disk layout is identical however a campaign is executed.
DEFAULT_NUM_SHARDS = 8

PathLike = Union[str, Path]


class CheckpointError(RuntimeError):
    """A checkpoint directory is unusable (corrupt, wrong format, ...)."""


@dataclass(frozen=True)
class ShardQuarantine:
    """Structured record of one corrupted shard set aside during resume.

    Attributes
    ----------
    shard:
        Original path of the damaged shard file.
    line:
        1-based number of the first unreadable line.
    reason:
        The decode error that made the line unreadable.
    quarantined_to:
        Where the damaged file was moved (same directory, ``.quarantined``
        suffix) for post-mortem inspection.
    """

    shard: str
    line: int
    reason: str
    quarantined_to: str

    def __str__(self) -> str:
        return (
            f"checkpoint shard {self.shard} is corrupt at line {self.line} "
            f"({self.reason}); moved to {self.quarantined_to} and its units "
            "will re-execute"
        )


class CheckpointExistsError(CheckpointError):
    """The directory already holds a campaign and ``resume`` was not given."""


class CheckpointMismatchError(CheckpointError):
    """The on-disk campaign fingerprint does not match the plan's."""


def _atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    """Write JSON via a temp file + rename so readers never see a torn file."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class CheckpointStore:
    """Single-writer shard store for one campaign's completed units.

    Use :meth:`open_or_create`; the constructor trusts its arguments.
    """

    def __init__(
        self,
        directory: Path,
        *,
        fingerprint: str,
        total_units: int,
        num_shards: int,
    ):
        self.directory = directory
        self.fingerprint = fingerprint
        self.total_units = total_units
        self.num_shards = num_shards
        self._handles: Dict[int, IO[str]] = {}
        self._dirty: Dict[int, bool] = {}
        #: Corrupted shards set aside by the last :meth:`completed_units`.
        self.quarantines: List[ShardQuarantine] = []

    # ------------------------------------------------------------------ #
    # opening
    # ------------------------------------------------------------------ #
    @classmethod
    def open_or_create(
        cls,
        directory: PathLike,
        plan: CampaignPlan,
        *,
        resume: bool = False,
        num_shards: int = DEFAULT_NUM_SHARDS,
    ) -> "CheckpointStore":
        """Open ``directory`` for the given plan, creating it when fresh.

        A fresh (or manifest-less) directory is initialised regardless of
        ``resume``.  An existing campaign requires ``resume=True`` or raises
        :class:`CheckpointExistsError`; a fingerprint mismatch always raises
        :class:`CheckpointMismatchError`.
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        root = Path(directory)
        manifest_path = root / MANIFEST_NAME
        fingerprint = plan.fingerprint()
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise CheckpointError(
                    f"unreadable checkpoint manifest {manifest_path}: {exc}"
                ) from exc
            if manifest.get("format") != MANIFEST_FORMAT:
                raise CheckpointError(
                    f"unsupported checkpoint format {manifest.get('format')!r} "
                    f"in {manifest_path} (expected {MANIFEST_FORMAT})"
                )
            if not resume:
                raise CheckpointExistsError(
                    f"{root} already holds a campaign checkpoint "
                    f"({manifest.get('completed', 'unknown')} units recorded); "
                    "pass resume=True (--resume) to continue it, or remove the "
                    "directory to start over"
                )
            if manifest.get("fingerprint") != fingerprint:
                raise CheckpointMismatchError(
                    f"checkpoint at {root} was written for campaign fingerprint "
                    f"{manifest.get('fingerprint')!r} but the current plan has "
                    f"{fingerprint!r}; the scenario, seed, config or unit "
                    "stream changed - refusing to mix measurements"
                )
            return cls(
                root,
                fingerprint=fingerprint,
                total_units=int(manifest["total_units"]),
                num_shards=int(manifest["num_shards"]),
            )

        (root / SHARD_DIR).mkdir(parents=True, exist_ok=True)
        store = cls(
            root,
            fingerprint=fingerprint,
            total_units=len(plan),
            num_shards=min(num_shards, max(len(plan), 1)),
        )
        _atomic_write_json(
            manifest_path,
            {
                "format": MANIFEST_FORMAT,
                "fingerprint": fingerprint,
                "study": plan.study,
                "seed": plan.seed,
                "total_units": store.total_units,
                "num_shards": store.num_shards,
            },
        )
        return store

    # ------------------------------------------------------------------ #
    # shard mapping
    # ------------------------------------------------------------------ #
    def shard_of(self, index: int) -> int:
        """Deterministic contiguous-block shard assignment for a plan index."""
        if not 0 <= index < self.total_units:
            raise IndexError(f"unit index {index} outside plan of {self.total_units}")
        return index * self.num_shards // self.total_units

    def shard_path(self, shard: int) -> Path:
        return self.directory / SHARD_DIR / f"shard-{shard:04d}.jsonl"

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def append(self, index: int, unit_id: str, record: TransferRecord) -> None:
        """Append one completed unit to its shard (buffered; see :meth:`flush`)."""
        shard = self.shard_of(index)
        handle = self._handles.get(shard)
        if handle is None:
            handle = self.shard_path(shard).open("a", encoding="utf-8")
            self._handles[shard] = handle
        handle.write(
            json.dumps(
                {"unit": index, "id": unit_id, "record": record.to_dict()},
                sort_keys=True,
            )
        )
        handle.write("\n")
        self._dirty[shard] = True

    def flush(self) -> None:
        """Flush and fsync every dirty shard handle."""
        for shard, dirty in list(self._dirty.items()):
            if dirty:
                handle = self._handles[shard]
                handle.flush()
                os.fsync(handle.fileno())
                self._dirty[shard] = False

    def close(self) -> None:
        self.flush()
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        self._dirty.clear()

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def completed_units(self) -> Dict[int, Tuple[str, TransferRecord]]:
        """Read back every durably recorded unit: index -> (unit id, record).

        A torn final line (the signature of a mid-write kill) is dropped
        per shard.  Malformed content anywhere *else* cannot come from a
        crash of this single-writer store, so the whole shard is
        quarantined: moved aside, recorded in :attr:`quarantines`, and
        every entry it held discarded - the renamed file no longer backs
        those rows, so trusting the readable prefix would hand the merge
        records with no durable home.  The dropped units simply
        re-execute.  Duplicate indices keep the first occurrence, matching
        the executor's skip-completed semantics.
        """
        done: Dict[int, Tuple[str, TransferRecord]] = {}
        self.quarantines = []
        shard_dir = self.directory / SHARD_DIR
        if not shard_dir.is_dir():
            return done
        for path in sorted(shard_dir.glob("shard-*.jsonl")):
            entries: List[Tuple[int, str, TransferRecord]] = []
            damage: Optional[Tuple[int, str]] = None
            lines = path.read_text(encoding="utf-8").split("\n")
            for lineno, line in enumerate(lines):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    index = int(entry["unit"])
                    unit_id = str(entry["id"])
                    record = TransferRecord.from_dict(entry["record"])
                except (KeyError, TypeError, ValueError) as exc:
                    if lineno == len(lines) - 1 or (
                        lineno == len(lines) - 2 and not lines[-1].strip()
                    ):
                        # Torn trailing write from a killed run; the unit
                        # will simply be re-executed.
                        break
                    damage = (lineno + 1, str(exc))
                    break
                entries.append((index, unit_id, record))
            if damage is not None:
                target = self._quarantine_shard(path)
                self.quarantines.append(
                    ShardQuarantine(
                        shard=str(path),
                        line=damage[0],
                        reason=damage[1],
                        quarantined_to=str(target),
                    )
                )
                continue
            for index, unit_id, record in entries:
                done.setdefault(index, (unit_id, record))
        return done

    def _quarantine_shard(self, path: Path) -> Path:
        """Move a damaged shard aside (never clobbering a prior quarantine)."""
        target = path.with_name(path.name + ".quarantined")
        n = 1
        while target.exists():
            target = path.with_name(f"{path.name}.quarantined.{n}")
            n += 1
        os.replace(path, target)
        return target

    # ------------------------------------------------------------------ #
    # summary
    # ------------------------------------------------------------------ #
    def write_summary(self, summary: Dict[str, Any]) -> None:
        """Persist the machine-readable run summary atomically."""
        _atomic_write_json(self.directory / SUMMARY_NAME, summary)


def merge_completed(
    plan: CampaignPlan,
    done: Dict[int, Tuple[str, TransferRecord]],
) -> TraceStore:
    """Assemble the final store from completed units, in plan order.

    This is the runner's deterministic merge: output depends only on the
    plan, never on completion order, worker count or shard layout.
    """
    store = TraceStore()
    missing = []
    for unit in plan.units:
        entry = done.get(unit.index)
        if entry is None:
            missing.append(unit.index)
            continue
        unit_id, record = entry
        if unit_id != unit.unit_id:
            raise CheckpointError(
                f"unit {unit.index} was recorded with id {unit_id!r} but the "
                f"plan expects {unit.unit_id!r}; the checkpoint belongs to a "
                "different campaign"
            )
        store.append(record)
    if missing:
        head = ", ".join(str(i) for i in missing[:8])
        raise CheckpointError(
            f"cannot merge: {len(missing)} of {len(plan)} units missing "
            f"(first: {head})"
        )
    return store
