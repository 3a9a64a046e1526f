"""One fault-study unit: a direct control and one mechanism arm.

Every unit of the three fault studies (``failures``, ``mhttp``, ``chaos``)
draws a fault plan, applies it with ``Scenario.with_faults``, runs the
direct-only control and one mechanism arm on the faulted scenario, and
emits one :class:`~repro.trace.records.FaultedRecord` subclass.  This module
holds the shared middle: the resilient protocol config, the stripe-arm
geometry and :func:`run_arm`.  A new fault study needs a planner, a record
subclass with its own columns, and a unit runner that calls :func:`run_arm`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.resilience import ResilienceConfig
from repro.core.session import SessionConfig
from repro.stripe.blocks import DEFAULT_BLOCK_BYTES, StripeConfig
from repro.workloads.scenario import Scenario
from repro.workloads.studies import STUDY_SESSION_CONFIG

__all__ = ["RESILIENT_SESSION_CONFIG", "StripeArmParams", "run_arm"]

#: The resilient protocol the fault studies run with: probes give up after
#: 30 s, stalled bulk phases fail over, and a whole session is bounded at 30
#: simulated minutes.
RESILIENT_SESSION_CONFIG = dataclasses.replace(
    STUDY_SESSION_CONFIG,
    resilience=ResilienceConfig(
        probe_deadline=30.0,
        failover=True,
        transfer_deadline=1800.0,
    ),
)


@dataclass(frozen=True)
class StripeArmParams:
    """Stripe geometry shared by the study parameters that run a stripe arm.

    A study's parameters (``CampaignPlan.extra``) subclass this; the plan
    fingerprint hashes them with sorted keys, so where a field is declared
    does not change it.
    """

    block_bytes: float = DEFAULT_BLOCK_BYTES
    window: int = 2
    max_copies: int = 2
    transfer_deadline: float = 1800.0

    def __post_init__(self) -> None:
        # Validate the stripe geometry at plan time, not inside every unit.
        self.stripe_config()

    def stripe_config(self) -> StripeConfig:
        """The striped-session configuration every stripe arm runs with."""
        return StripeConfig(
            block_bytes=self.block_bytes,
            window=self.window,
            max_copies=self.max_copies,
            transfer_deadline=self.transfer_deadline,
        )


def run_arm(
    faulted: Scenario,
    config: SessionConfig,
    unit: Any,
    stripe: Optional[StripeConfig] = None,
) -> Tuple[Any, Any, Dict[str, Any]]:
    """Run the direct control, then the unit's arm, on ``faulted``.

    The control opens its universe first and fetches the whole object over
    the direct path; it reads only the config's TCP parameters and transfer
    deadline.  With ``stripe`` unset the arm is the probe race over
    ``unit.offered`` with ``config``'s resilience, on a universe seeded with
    the unit's noise labels; with a :class:`StripeConfig` it is a striped
    session over the direct path plus ``unit.offered``.

    Returns ``(control, arm, columns)``: the two session results and the
    keyword arguments of every :class:`~repro.trace.records.FaultedRecord`
    column the three studies fill alike.  A stripe has no probe/bulk split,
    so its one whole-session goodput fills both throughput columns.
    """
    control = faulted.universe(unit.start_time, config=config).session.download_direct(
        unit.client, unit.site, faulted.resource
    )
    relays = list(unit.offered)
    if stripe is None:
        noise = (unit.study, unit.client, unit.site, unit.repetition)
        session = faulted.universe(unit.start_time, config=config, noise_labels=noise).session
        arm = session.download(unit.client, unit.site, faulted.resource, relays)
        selected: Dict[str, Any] = dict(
            selected_via=arm.selected_via,
            selected_throughput=arm.transfer_throughput,
            probe_overhead=arm.probe_overhead_seconds,
        )
    else:
        session = faulted.universe(unit.start_time, config=config).session
        arm = session.download_striped(
            unit.client, unit.site, faulted.resource, relays, stripe=stripe
        )
        selected = dict(
            selected_via=None, selected_throughput=arm.end_to_end_throughput, probe_overhead=0.0
        )
    columns = dict(
        study=unit.study,
        client=unit.client,
        site=unit.site,
        repetition=unit.repetition,
        start_time=unit.start_time,
        set_size=len(unit.offered),
        offered=unit.offered,
        direct_throughput=control.end_to_end_throughput,
        end_to_end_throughput=arm.end_to_end_throughput,
        file_bytes=control.size,
        outcome=arm.outcome.value,
        direct_outcome=control.outcome.value,
        bytes_received=arm.delivered,
        direct_duration=control.duration,
        selected_duration=arm.duration,
        recovery_events=arm.recovery_events,
        **selected,
    )
    return control, arm, columns
