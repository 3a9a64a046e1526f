"""Selection policies: which relays a client considers for a transfer.

A policy answers one question per transfer: *from the full set of deployed
relays, which subset should the client probe?*  The probe race then picks
between the direct path and the offered indirect paths.

The policies that studies run:

* §4 experiments: :class:`~repro.core.random_set.UniformRandomSetPolicy` -
  a uniformly random k-subset per transfer (the "random set").
* §6 future work: :class:`~repro.core.weighted.UtilizationWeightedPolicy` -
  utilisation-weighted sampling (implemented in this reproduction).
* Baseline: the oracle in :mod:`repro.core.oracle`.

The §2-3 campaign needs no policy: its one candidate relay per transfer
comes from a seeded per-client rotation
(:func:`~repro.runner.plan.section2_relay_rotation`).

Policies see feedback through :meth:`SelectionPolicy.observe`, which reports
the offered set and the chosen path after every transfer.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["SelectionPolicy"]


class SelectionPolicy(abc.ABC):
    """Chooses the candidate relay subset for each transfer."""

    @abc.abstractmethod
    def candidates(
        self,
        client: str,
        server: str,
        full_set: Sequence[str],
        rng: np.random.Generator,
        *,
        now: float = 0.0,
    ) -> List[str]:
        """Relay names to probe for this transfer (may be empty)."""

    def observe(
        self,
        client: str,
        server: str,
        offered: Sequence[str],
        chosen: Optional[str],
        throughput: Optional[float] = None,
    ) -> None:
        """Feedback hook after each transfer.

        ``chosen`` is the winning relay or ``None`` (direct path);
        ``throughput`` is the bulk-phase throughput the selected path
        delivered (bytes/second), when the caller knows it.
        """

    @property
    def name(self) -> str:
        """Short display name used in reports."""
        return type(self).__name__

