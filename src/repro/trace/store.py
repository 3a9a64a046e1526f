"""Append-only store of transfer records with columnar export.

The analysis layer consumes measurements as numpy arrays;
:class:`TraceStore` provides filtered views and column extraction so every
figure/table computation is a vectorised pass over the selected rows.
Persistence uses JSON Lines (self-describing, diff-friendly) and CSV.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.trace.records import TransferRecord

__all__ = ["TraceStore"]

PathLike = Union[str, Path]


class TraceStore:
    """An in-memory collection of :class:`TransferRecord` rows."""

    def __init__(self, records: Optional[Iterable[TransferRecord]] = None):
        self._records: List[TransferRecord] = list(records or [])

    # ------------------------------------------------------------------ #
    # collection basics
    # ------------------------------------------------------------------ #
    def append(self, record: TransferRecord) -> None:
        """Add one record."""
        if not isinstance(record, TransferRecord):
            raise TypeError(f"expected TransferRecord, got {type(record)!r}")
        self._records.append(record)

    def extend(self, records: Iterable[TransferRecord]) -> None:
        """Add many records."""
        for r in records:
            self.append(r)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TransferRecord]:
        return iter(self._records)

    def __getitem__(self, idx: int) -> TransferRecord:
        return self._records[idx]

    @property
    def records(self) -> List[TransferRecord]:
        """A shallow copy of the rows."""
        return list(self._records)

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #
    def where(self, predicate: Callable[[TransferRecord], bool]) -> "TraceStore":
        """Rows matching an arbitrary predicate, as a new store."""
        return TraceStore(r for r in self._records if predicate(r))

    def filter(self, **equals) -> "TraceStore":
        """Rows whose attributes equal the given values.

        >>> store.filter(client="Italy", used_indirect=True)  # doctest: +SKIP
        """
        def match(r: TransferRecord) -> bool:
            for key, value in equals.items():
                if getattr(r, key) != value:
                    return False
            return True

        return self.where(match)

    def column(self, name: str) -> np.ndarray:
        """Extract one attribute/property across all rows as an array."""
        values = [getattr(r, name) for r in self._records]
        return np.asarray(values)

    def unique(self, name: str) -> List:
        """Sorted unique values of an attribute (None sorts last)."""
        values = {getattr(r, name) for r in self._records}
        return sorted(values, key=lambda v: (v is None, v))

    def group_by(self, name: str) -> dict:
        """Partition rows by an attribute value -> sub-stores."""
        groups: dict = {}
        for r in self._records:
            groups.setdefault(getattr(r, name), TraceStore()).append(r)
        return groups

    # ------------------------------------------------------------------ #
    # merging
    # ------------------------------------------------------------------ #
    @classmethod
    def merge(cls, stores: Iterable["TraceStore"]) -> "TraceStore":
        """Combine stores into one, ordered by the records' stable sort key.

        Because :attr:`TransferRecord.sort_key` is a total order over a
        campaign's coordinates, merging the same records partitioned any
        way (per-shard outputs, per-client stores, resumed fragments)
        yields an identical sequence - the property the campaign runner's
        shard merge relies on.  Duplicate records are kept; deduplicate
        upstream if shards may overlap.
        """
        records = [r for store in stores for r in store]
        records.sort(key=lambda r: r.sort_key)
        return cls(records)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save_jsonl(self, path: PathLike, *, append: bool = False) -> None:
        """Write one JSON object per line.

        ``append=True`` adds to an existing file instead of truncating -
        the idiom for accumulating shard outputs into one store file
        (pair with :meth:`merge` / a stable sort for determinism).
        """
        p = Path(path)
        with p.open("a" if append else "w", encoding="utf-8") as fh:
            for r in self._records:
                fh.write(json.dumps(r.to_dict(), sort_keys=True))
                fh.write("\n")

    @classmethod
    def load_jsonl(cls, path: PathLike) -> "TraceStore":
        """Read a store written by :meth:`save_jsonl`."""
        p = Path(path)
        store = cls()
        with p.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    store.append(TransferRecord.from_dict(json.loads(line)))
        return store

    _CSV_FIELDS = (
        "study",
        "client",
        "site",
        "repetition",
        "start_time",
        "set_size",
        "offered",
        "selected_via",
        "direct_throughput",
        "selected_throughput",
        "end_to_end_throughput",
        "probe_overhead",
        "file_bytes",
        "direct_class",
        "direct_variability",
    )

    def save_csv(self, path: PathLike) -> None:
        """Write a flat CSV (offered set is pipe-joined)."""
        p = Path(path)
        with p.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=self._CSV_FIELDS)
            writer.writeheader()
            for r in self._records:
                d = r.to_dict()
                d["offered"] = "|".join(d["offered"])
                d["selected_via"] = d["selected_via"] or ""
                writer.writerow({k: d[k] for k in self._CSV_FIELDS})

    @classmethod
    def load_csv(cls, path: PathLike) -> "TraceStore":
        """Read a store written by :meth:`save_csv`."""
        p = Path(path)
        store = cls()
        with p.open("r", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                store.append(
                    TransferRecord(
                        study=row["study"],
                        client=row["client"],
                        site=row["site"],
                        repetition=int(row["repetition"]),
                        start_time=float(row["start_time"]),
                        set_size=int(row["set_size"]),
                        offered=tuple(x for x in row["offered"].split("|") if x),
                        selected_via=row["selected_via"] or None,
                        direct_throughput=float(row["direct_throughput"]),
                        selected_throughput=float(row["selected_throughput"]),
                        end_to_end_throughput=float(row["end_to_end_throughput"]),
                        probe_overhead=float(row["probe_overhead"]),
                        file_bytes=float(row["file_bytes"]),
                        direct_class=row["direct_class"],
                        direct_variability=row["direct_variability"],
                    )
                )
        return store
