"""Oracle relay selection: an un-implementable upper-bound baseline.

The oracle peeks at the (simulated) future: it offers the single relay whose
indirect path has the highest predicted throughput over the upcoming
transfer window, using :class:`~repro.core.predictor.OraclePredictor`.
The probe race then compares that relay against the direct path, so the
oracle bounds what *any* candidate-set policy could achieve with k = 1.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.policy import SelectionPolicy
from repro.core.predictor import OraclePredictor
from repro.overlay.paths import OverlayPathBuilder

__all__ = ["OracleBestRelayPolicy"]


class OracleBestRelayPolicy(SelectionPolicy):
    """Offer the relay with the highest trace-peeking predicted throughput.

    Parameters
    ----------
    builder:
        Path builder used to materialise candidate indirect paths.
    server:
        Destination server name the oracle optimises for.
    predictor:
        The trace-peeking predictor (horizon ~ expected transfer time).
    """

    def __init__(
        self,
        builder: OverlayPathBuilder,
        server: str,
        *,
        predictor: OraclePredictor | None = None,
    ):
        self._builder = builder
        self._server = server
        self._predictor = predictor or OraclePredictor()

    @property
    def name(self) -> str:
        return "OracleBestRelay"

    def candidates(
        self,
        client: str,
        server: str,
        full_set: Sequence[str],
        rng: np.random.Generator,
        *,
        now: float = 0.0,
    ) -> List[str]:
        if not full_set:
            return []
        best_relay = None
        best_rate = -1.0
        for relay in full_set:
            path = self._builder.indirect(client, relay, self._server)
            rate = self._predictor.predict(path, now)
            if rate > best_rate:
                best_rate = rate
                best_relay = relay
        assert best_relay is not None
        return [best_relay]
