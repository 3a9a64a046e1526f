"""Counterfactual measurements: what would the road not taken have carried?

The paper can only observe the path its client selected; penalties are
diagnosed after the fact.  The simulator can do better: because capacity
traces are immutable and universes are cheap, we can run *three* worlds for
one transfer at the same start time:

1. the control client (direct path, full file);
2. the forced-indirect client (given relay, full file, no probe);
3. the selecting client (probe + remainder, the paper's mechanism).

This yields ground truth for the probe's decision quality: whether the
selected path was actually the faster one for the bulk transfer, and the
regret (throughput forgone) when it was not.  The prediction-quality
analysis (:mod:`repro.analysis.prediction`) and ablation bench A5 are built
on these records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.session import SessionConfig
from repro.workloads.studies import STUDY_SESSION_CONFIG
from repro.workloads.scenario import Scenario

__all__ = ["CounterfactualRecord", "run_counterfactual_transfer"]


@dataclass(frozen=True)
class CounterfactualRecord:
    """One transfer with its untaken alternative measured.

    All throughputs are bulk-phase bytes/second.  ``relay`` is the single
    candidate relay that was offered (this runner studies the paper's §2
    two-path decision, where ground truth is well-defined).
    """

    client: str
    site: str
    relay: str
    repetition: int
    start_time: float
    direct_throughput: float
    indirect_throughput: float
    selected_via: Optional[str]
    selected_throughput: float
    probe_overhead: float

    @property
    def best_via(self) -> Optional[str]:
        """The truly faster path for the full transfer (None = direct)."""
        return self.relay if self.indirect_throughput > self.direct_throughput else None

    @property
    def best_throughput(self) -> float:
        """Throughput of the truly faster path."""
        return max(self.direct_throughput, self.indirect_throughput)

    @property
    def decision_correct(self) -> bool:
        """Did the probe select the path that was actually faster?"""
        return self.selected_via == self.best_via

    @property
    def regret(self) -> float:
        """Fraction of the best path's throughput forgone by the decision.

        0 for correct decisions (up to simulation noise); positive when the
        probe picked the slower path.
        """
        if self.best_throughput <= 0.0:
            return 0.0
        return max(
            0.0, (self.best_throughput - self.selected_throughput) / self.best_throughput
        )

    @property
    def achievable_improvement(self) -> float:
        """Improvement an oracle would have realised: (best - direct)/direct."""
        return (self.best_throughput - self.direct_throughput) / self.direct_throughput


def run_counterfactual_transfer(
    scenario: Scenario,
    *,
    client: str,
    site: str,
    relay: str,
    repetition: int = 0,
    start_time: float = 0.0,
    config: SessionConfig = STUDY_SESSION_CONFIG,
) -> CounterfactualRecord:
    """Run the three-world measurement for one (client, relay) transfer."""
    resource = scenario.resource

    control = scenario.universe(start_time, config=config)
    direct_result = control.session.download_direct(client, site, resource)

    forced = scenario.universe(start_time, config=config)
    # A full download via the relay, probe-free: issue through the builder.
    path = scenario.builder.indirect(client, relay, site)
    forced_result = forced.session._full_download(path, client, site, resource)

    selector = scenario.universe(
        start_time,
        config=config,
        noise_labels=("counterfactual", client, site, repetition),
    )
    selected = selector.session.download(client, site, resource, [relay])

    return CounterfactualRecord(
        client=client,
        site=site,
        relay=relay,
        repetition=repetition,
        start_time=start_time,
        direct_throughput=direct_result.transfer_throughput,
        indirect_throughput=forced_result.transfer_throughput,
        selected_via=selected.selected_via,
        selected_throughput=selected.transfer_throughput,
        probe_overhead=selected.probe_overhead_seconds,
    )


def run_counterfactual_study(
    scenario: Scenario,
    *,
    clients: Optional[Sequence[str]] = None,
    site: str = "eBay",
    repetitions: int = 20,
    interval: float = 360.0,
    config: SessionConfig = STUDY_SESSION_CONFIG,
) -> list:
    """Counterfactual records for a §2-style schedule (rotating relays)."""
    clients = list(clients) if clients is not None else scenario.client_names
    records = []
    for client in clients:
        rotation = list(scenario.relay_names)
        rng = scenario.bank.generator("cf-rotation", client)
        rng.shuffle(rotation)
        for j in range(repetitions):
            records.append(
                run_counterfactual_transfer(
                    scenario,
                    client=client,
                    site=site,
                    relay=rotation[j % len(rotation)],
                    repetition=j,
                    start_time=j * interval,
                    config=config,
                )
            )
    return records


__all__.append("run_counterfactual_study")
