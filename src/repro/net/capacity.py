"""Stochastic models of time-varying available link capacity.

The paper's phenomenology rests on *throughput diversity*: direct Internet
paths exhibit time-varying available bandwidth (load and statistical
multiplexing change during a transfer, cf. He et al. [11]), while overlay
links to well-connected relays are comparatively stable (paper Fig. 4).

Each process model here compiles, for a given duration and RNG, to a
:class:`~repro.net.trace.CapacityTrace`.  All rates are bytes/second.

Models
------
ConstantCapacity
    Fixed available capacity; the stable baseline.
MarkovModulatedCapacity
    A continuous-time Markov chain over discrete congestion states, each a
    multiplier on a base capacity, with exponential holding times.  This is
    the classic model for background-load regimes and produces the abrupt
    "jumps" the paper observes on direct paths.
LognormalAR1Capacity
    Log-space AR(1) sampled on a regular grid; smooth medium-frequency
    wander around a base capacity.
"""

from __future__ import annotations

import abc
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.net.trace import CapacityTrace
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
    check_same_length,
)

__all__ = [
    "CapacityProcess",
    "ConstantCapacity",
    "MarkovModulatedCapacity",
    "LognormalAR1Capacity",
]


class CapacityProcess(abc.ABC):
    """A generative model of available capacity over time."""

    @abc.abstractmethod
    def sample(self, duration: float, rng: np.random.Generator) -> CapacityTrace:
        """Draw one realisation covering at least ``[0, duration]``."""


@dataclass(frozen=True)
class ConstantCapacity(CapacityProcess):
    """Deterministic constant capacity."""

    capacity: float

    def __post_init__(self) -> None:
        check_non_negative(self.capacity, "capacity")

    def sample(self, duration: float, rng: np.random.Generator) -> CapacityTrace:
        check_non_negative(duration, "duration")
        return CapacityTrace.constant(self.capacity)


@dataclass(frozen=True)
class MarkovModulatedCapacity(CapacityProcess):
    """CTMC over congestion states; capacity = base * multiplier(state).

    Parameters
    ----------
    base:
        Base capacity in bytes/second.
    multipliers:
        Capacity multiplier per state (e.g. ``(1.0, 0.4, 1.5)``).
    stationary:
        Stationary probability of each state (sums to 1).  Transitions are
        sampled by drawing the next state from the stationary distribution
        excluding the current state (a "jump-to-stationary" chain), which has
        exactly ``stationary`` as its long-run state occupancy when holding
        times are proportional to ``stationary``.
    mean_holding:
        Mean sojourn time of each state in seconds.
    """

    base: float
    multipliers: Tuple[float, ...] = (1.0, 0.45, 1.4)
    stationary: Tuple[float, ...] = (0.70, 0.15, 0.15)
    mean_holding: Tuple[float, ...] = (300.0, 120.0, 180.0)

    def __post_init__(self) -> None:
        check_positive(self.base, "base")
        check_same_length(self.multipliers, self.stationary, "multipliers", "stationary")
        check_same_length(self.multipliers, self.mean_holding, "multipliers", "mean_holding")
        if len(self.multipliers) < 2:
            raise ValueError("need at least two states")
        for m in self.multipliers:
            check_non_negative(m, "multiplier")
        for h in self.mean_holding:
            check_positive(h, "mean_holding")
        total = float(sum(self.stationary))
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(f"stationary probabilities must sum to 1, got {total}")
        for p in self.stationary:
            check_probability(p, "stationary probability")

    def sample(self, duration: float, rng: np.random.Generator) -> CapacityTrace:
        check_non_negative(duration, "duration")
        # rng.choice(n, p=w) normalises w.cumsum() by its last entry, draws
        # one rng.random() and bisects to its right.  Each state's CDF is
        # built here once, by those ops, and every draw bisects it directly:
        # the same stream and the same states, without choice's per-call
        # validation of p.
        pi = np.asarray(self.stationary, dtype=np.float64)
        start = pi.cumsum()
        start /= start[-1]
        jump_cdfs: List[List[float]] = []
        for state in range(pi.size):
            # Jump in proportion to stationary mass, excluding the current state.
            weights = pi.copy()
            weights[state] = 0.0
            total = weights.sum()
            if not total > 0.0:
                # Only a state of stationary mass 1 has no other state; the
                # chain starts there and must leave it.
                raise ValueError(f"state {state} has no other state to jump to")
            weights /= total
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            jump_cdfs.append(cdf.tolist())
        holds = self.mean_holding
        draw = rng.random
        hold = rng.exponential

        state = bisect_right(start.tolist(), draw())
        times: List[float] = [0.0]
        states: List[int] = [state]
        t = 0.0
        while t <= duration:
            t += hold(holds[state])
            times.append(t)
            state = bisect_right(jump_cdfs[state], draw())
            states.append(state)
        mults = np.asarray(self.multipliers, dtype=np.float64)
        values = self.base * mults[np.asarray(states, dtype=np.intp)]
        # Full validation: a zero exponential draw repeats a breakpoint.
        return CapacityTrace(np.asarray(times), values)


@dataclass(frozen=True)
class LognormalAR1Capacity(CapacityProcess):
    """Log-space AR(1) wander around a base capacity, sampled on a grid.

    ``log(c_t / base)`` follows an AR(1) with autocorrelation ``phi`` per
    step and stationary standard deviation ``sigma`` (in log space).  The
    grid step controls how often capacity changes.
    """

    base: float
    sigma: float = 0.25
    phi: float = 0.9
    step: float = 60.0

    def __post_init__(self) -> None:
        check_positive(self.base, "base")
        check_non_negative(self.sigma, "sigma")
        check_probability(abs(self.phi), "abs(phi)")
        check_positive(self.step, "step")

    def sample(self, duration: float, rng: np.random.Generator) -> CapacityTrace:
        check_non_negative(duration, "duration")
        n = int(math.floor(duration / self.step)) + 2
        # Innovation std chosen so the stationary std is exactly sigma.
        innov = self.sigma * math.sqrt(max(1.0 - self.phi * self.phi, 0.0))
        eps = rng.normal(0.0, 1.0, size=n)
        y = rng.normal(0.0, self.sigma) if self.sigma > 0 else 0.0
        # The recurrence runs in Python floats: IEEE binary64, the same
        # bits as float64 scalar ops, at a fraction of their cost.
        phi = self.phi
        log_dev = [y]
        for e in (innov * eps[1:]).tolist():
            y = phi * y + e
            log_dev.append(y)
        times = np.arange(n, dtype=np.float64) * self.step
        # Divide by the lognormal mean so the stationary mean is ``base``.
        correction = math.exp(0.5 * self.sigma * self.sigma)
        values = self.base * np.exp(np.asarray(log_dev)) / correction
        # The grid rises strictly from 0.0 and exp() is non-negative.
        return CapacityTrace._trusted(times, values)
