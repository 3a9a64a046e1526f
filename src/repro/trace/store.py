"""Append-only store of transfer records with columnar export.

The analysis layer consumes measurements as numpy arrays;
:class:`TraceStore` provides filtered views and column extraction so every
figure/table computation is a vectorised pass over the selected rows.
Persistence uses JSON Lines (self-describing, diff-friendly).
"""

from __future__ import annotations

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
    # persistence
    # ------------------------------------------------------------------ #
    def save_jsonl(self, path: PathLike, *, append: bool = False) -> None:
        """Write one JSON object per line.

        ``append=True`` adds to an existing file instead of truncating -
        the idiom for accumulating shard outputs into one store file
        (pair with a sort on :attr:`TransferRecord.sort_key` for
        determinism).
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
