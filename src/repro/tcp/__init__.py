"""Transport substrate: TCP models, max-min fairness, fluid flow engine."""

from repro.tcp.cross_traffic import CrossTrafficConfig, CrossTrafficSource
from repro.tcp.flow import FlowState, FluidFlow
from repro.tcp.fluid import FluidNetwork
from repro.tcp.maxmin import maxmin_allocate
from repro.tcp.model import (
    DEFAULT_INITIAL_WINDOW,
    DEFAULT_MAX_WINDOW,
    MSS,
    SlowStartRamp,
    ideal_transfer_time,
)
from repro.tcp.reno import RenoConfig, RenoResult, simulate_reno_transfer

__all__ = [
    "MSS",
    "DEFAULT_INITIAL_WINDOW",
    "DEFAULT_MAX_WINDOW",
    "SlowStartRamp",
    "ideal_transfer_time",
    "FlowState",
    "FluidFlow",
    "FluidNetwork",
    "maxmin_allocate",
    "RenoConfig",
    "RenoResult",
    "simulate_reno_transfer",
    "CrossTrafficConfig",
    "CrossTrafficSource",
]
