"""Reference capacity samplers: one RNG call and one numpy scalar per step.

:class:`repro.net.capacity.MarkovModulatedCapacity` and
:class:`repro.net.capacity.LognormalAR1Capacity` draw the same RNG stream
and return the same trace bits as these loops, without their per-step
``rng.choice`` validation and numpy-scalar arithmetic.  The loops are kept
here - and only here - as the oracle the samplers are checked against,
next to the processes' analytic stationary means that calibration tests
compare against.
"""

import math
from typing import List

import numpy as np

from repro.net.capacity import (
    ConstantCapacity,
    LognormalAR1Capacity,
    MarkovModulatedCapacity,
)
from repro.net.trace import CapacityTrace


def markov_sample(proc, duration: float, rng: np.random.Generator) -> CapacityTrace:
    """A Markov-modulated trace, drawn step by step.

    Raises ``ValueError`` (from ``rng.choice``) when the chain enters a
    state whose other states all have zero stationary mass.
    """
    pi = np.asarray(proc.stationary, dtype=np.float64)
    holds = np.asarray(proc.mean_holding, dtype=np.float64)
    mults = np.asarray(proc.multipliers, dtype=np.float64)
    n = pi.size

    times: List[float] = [0.0]
    states: List[int] = [int(rng.choice(n, p=pi))]
    t = 0.0
    while t <= duration:
        state = states[-1]
        t += float(rng.exponential(holds[state]))
        times.append(t)
        weights = pi.copy()
        weights[state] = 0.0
        with np.errstate(invalid="ignore"):
            weights /= weights.sum()
        states.append(int(rng.choice(n, p=weights)))
    values = proc.base * mults[np.asarray(states, dtype=np.intp)]
    return CapacityTrace(np.asarray(times), values)


def ar1_sample(proc, duration: float, rng: np.random.Generator) -> CapacityTrace:
    """A lognormal AR(1) trace, one numpy scalar per step."""
    n = int(math.floor(duration / proc.step)) + 2
    innov = proc.sigma * math.sqrt(max(1.0 - proc.phi * proc.phi, 0.0))
    eps = rng.normal(0.0, 1.0, size=n)
    log_dev = np.empty(n)
    log_dev[0] = rng.normal(0.0, proc.sigma) if proc.sigma > 0 else 0.0
    for i in range(1, n):
        log_dev[i] = proc.phi * log_dev[i - 1] + innov * eps[i]
    times = np.arange(n, dtype=np.float64) * proc.step
    correction = math.exp(0.5 * proc.sigma * proc.sigma)
    values = proc.base * np.exp(log_dev) / correction
    return CapacityTrace(times, values)


def mean_capacity(proc) -> float:
    """The stationary mean capacity (bytes/second) of a capacity process."""
    if isinstance(proc, ConstantCapacity):
        return proc.capacity
    if isinstance(proc, LognormalAR1Capacity):
        return proc.base
    pi = np.asarray(proc.stationary)
    mults = np.asarray(proc.multipliers)
    return float(proc.base * np.dot(pi, mults))


def dynamic_range(proc: MarkovModulatedCapacity) -> float:
    """max/min positive multiplier ratio; a crude variability index."""
    lo = min(m for m in proc.multipliers if m > 0.0)
    return max(proc.multipliers) / lo
