"""Deterministic random-number stream management.

Every experiment in this reproduction is driven by a single *root seed*.
Sub-streams are derived with :class:`numpy.random.SeedSequence` spawning keyed
by stable string labels, so that:

* adding a new consumer of randomness never perturbs existing streams;
* any (client, relay, repetition) sub-experiment can be re-run in isolation
  and produce byte-identical results;
* parallel execution order cannot change results (streams are independent).

This is the standard reproducibility idiom for scientific numpy code: never
share one ``Generator`` across logically distinct processes.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

__all__ = ["SeedBank", "derive_seed"]

Label = Union[str, int]


def derive_seed(root: int, *labels: Label) -> int:
    """Derive a 64-bit child seed from ``root`` and a label path.

    The derivation hashes the label path with SHA-256, so it is stable across
    Python versions and platforms (unlike ``hash()``), and collisions between
    distinct label paths are negligible.
    """
    h = hashlib.sha256()
    h.update(str(int(root)).encode("ascii"))
    for label in labels:
        h.update(b"\x1f")  # unit separator: ("a","b") != ("ab",)
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


class SeedBank:
    """A factory for independent, label-addressed random generators.

    Parameters
    ----------
    root_seed:
        The experiment's root seed.  Two ``SeedBank`` instances with the same
        root seed produce identical streams for identical label paths.

    Examples
    --------
    >>> bank = SeedBank(42)
    >>> g1 = bank.generator("client", "Italy", 3)
    >>> g2 = bank.generator("client", "Italy", 3)
    >>> float(g1.random()) == float(g2.random())
    True
    """

    __slots__ = ("_root",)

    def __init__(self, root_seed: int):
        self._root = int(root_seed)

    @property
    def root_seed(self) -> int:
        """The root seed this bank derives all streams from."""
        return self._root

    def seed(self, *labels: Label) -> int:
        """Return the derived integer seed for a label path."""
        return derive_seed(self._root, *labels)

    def sequence(self, *labels: Label) -> np.random.SeedSequence:
        """Return a :class:`~numpy.random.SeedSequence` for a label path."""
        return np.random.SeedSequence(self.seed(*labels))

    def generator(self, *labels: Label) -> np.random.Generator:
        """Return a fresh PCG64 :class:`~numpy.random.Generator` for a path."""
        return np.random.Generator(np.random.PCG64(self.sequence(*labels)))

    def child(self, *labels: Label) -> "SeedBank":
        """Return a sub-bank rooted at the derived seed of ``labels``.

        Useful for handing a subsystem its own namespace:
        ``bank.child("workload")`` cannot collide with ``bank.child("net")``.
        """
        return SeedBank(self.seed(*labels))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedBank(root_seed={self._root})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SeedBank) and other._root == self._root

    def __hash__(self) -> int:
        return hash(("SeedBank", self._root))
