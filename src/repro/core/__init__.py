"""The paper's contribution: probe-based indirect path selection."""

from repro.core.oracle import OracleBestRelayPolicy
from repro.core.policy import SelectionPolicy
from repro.core.predictor import OraclePredictor
from repro.core.probe import (
    DEFAULT_PROBE_BYTES,
    PathProbe,
    ProbeEngine,
    ProbeMode,
    ProbeOutcome,
    ProbeTimeout,
)
from repro.core.random_set import UniformRandomSetPolicy
from repro.core.resilience import (
    RecoveryEvent,
    ResilienceConfig,
    SessionOutcome,
    StallWatchdog,
    WatchVerdict,
    recovery_time_of,
)
from repro.core.session import SessionConfig, SessionResult, TransferSession
from repro.core.weighted import UtilizationWeightedPolicy

__all__ = [
    "DEFAULT_PROBE_BYTES",
    "ProbeMode",
    "ProbeEngine",
    "ProbeOutcome",
    "PathProbe",
    "SelectionPolicy",
    "UniformRandomSetPolicy",
    "UtilizationWeightedPolicy",
    "OracleBestRelayPolicy",
    "OraclePredictor",
    "ProbeTimeout",
    "ResilienceConfig",
    "SessionOutcome",
    "RecoveryEvent",
    "StallWatchdog",
    "WatchVerdict",
    "recovery_time_of",
    "SessionConfig",
    "SessionResult",
    "TransferSession",
]
