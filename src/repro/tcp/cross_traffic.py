"""Background (cross) traffic generation.

The scenario capacity traces already embed aggregate background load as
Markov-modulated *available* capacity.  For experiments that want explicit
competing flows - e.g. testing that concurrent probes contend correctly, or
stressing the max-min allocator - this module injects discrete background
flows with Poisson arrivals and heavy-tailed (lognormal) sizes, the standard
empirical model for web-transfer workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.net.route import Route
from repro.tcp.flow import FluidFlow
from repro.tcp.fluid import FluidNetwork
from repro.util.validation import check_non_negative, check_positive

__all__ = ["CrossTrafficConfig", "CrossTrafficSource"]


@dataclass(frozen=True)
class CrossTrafficConfig:
    """Statistical shape of a background-traffic source.

    Attributes
    ----------
    arrival_rate:
        Mean flow arrivals per second (Poisson process).
    mean_size:
        Mean flow size in bytes (lognormal).
    sigma:
        Lognormal shape parameter; ~1.0-2.0 gives realistic heavy tails.
    """

    arrival_rate: float
    mean_size: float = 500_000.0
    sigma: float = 1.2

    def __post_init__(self) -> None:
        check_positive(self.arrival_rate, "arrival_rate")
        check_positive(self.mean_size, "mean_size")
        check_non_negative(self.sigma, "sigma")

    def sample_size(self, rng: np.random.Generator) -> float:
        """Draw one flow size (bytes, >= 1)."""
        # mu chosen so the lognormal mean equals mean_size.
        mu = np.log(self.mean_size) - 0.5 * self.sigma**2
        return float(max(1.0, rng.lognormal(mu, self.sigma)))

    def sample_gap(self, rng: np.random.Generator) -> float:
        """Draw one inter-arrival gap (seconds)."""
        return float(rng.exponential(1.0 / self.arrival_rate))


class CrossTrafficSource:
    """Schedules an endless stream of background flows on fixed routes.

    Each arrival picks one of ``routes`` uniformly at random and starts a
    flow of lognormal size.  The source stops scheduling after ``horizon``
    (flows in flight run to completion) so simulations terminate.
    """

    def __init__(
        self,
        network: FluidNetwork,
        routes: Sequence[Route],
        config: CrossTrafficConfig,
        rng: np.random.Generator,
        *,
        horizon: float = float("inf"),
    ):
        if not routes:
            raise ValueError("need at least one route for cross traffic")
        self._network = network
        self._routes = list(routes)
        self._config = config
        self._rng = rng
        self._horizon = float(horizon)
        self.flows_started = 0
        self._spawned: List[FluidFlow] = []

    @property
    def flows(self) -> List[FluidFlow]:
        """All flows this source has started (completed or not)."""
        return list(self._spawned)

    def start(self) -> None:
        """Begin generating arrivals from the current simulation time."""
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = self._config.sample_gap(self._rng)
        t = self._network.sim.now + gap
        if t > self._horizon:
            return
        self._network.sim.schedule_after(gap, self._arrive, name="xtraffic-arrival")

    def _arrive(self) -> None:
        route = self._routes[int(self._rng.integers(len(self._routes)))]
        size = self._config.sample_size(self._rng)
        flow = self._network.start_flow(
            route, size, name=f"xtraffic{self.flows_started}"
        )
        self._spawned.append(flow)
        self.flows_started += 1
        self._schedule_next()
