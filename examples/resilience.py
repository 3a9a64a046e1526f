"""Resilience demo: failure masking and mid-transfer failover.

Two scenarios beyond the paper's throughput study, both inherited from its
mechanism:

1. **Failure masking** (the RON/MONET lineage): outages strike the direct
   WAN path; the probe race routes around them while the direct-only
   control waits out each outage.
2. **Mid-transfer collapse**: the selected path dies *after* the probe; the
   resilient session's stall watchdog notices, fails over to the probe
   runner-up from the current byte offset, and finishes there.

Run:
    python examples/resilience.py [seed]
"""

import sys

from repro.analysis.availability import masking_stats
from repro.net.failures import FaultWindow
from repro.net.topology import wan_link_name
from repro.workloads.studies import STUDY_SESSION_CONFIG
from repro.workloads.failures import (
    FailureStudyParams,
    plan_failures,
    run_failure_unit,
)
from repro.workloads.faulted import RESILIENT_SESSION_CONFIG
from repro.workloads.scenario import Scenario, ScenarioSpec


def failure_masking(scenario) -> None:
    print("== failure masking (outages on the direct path) ==")
    plan = plan_failures(
        scenario,
        repetitions=10,
        interval=360.0,
        config=STUDY_SESSION_CONFIG,
        params=FailureStudyParams(link_mtbf=600.0, link_mean_duration=150.0),
        clients=["Italy", "Sweden", "Korea"],
        modes=("link",),
    )
    records = [run_failure_unit(scenario, plan.config, u, plan.extra) for u in plan.units]
    stats = masking_stats(records)
    print(f"transfers: {stats.n_transfers}, outage-affected: {stats.n_affected}")
    print(f"masked (<=70% of control time): {stats.n_masked} "
          f"(rate {stats.masking_rate:.0%})")
    print(f"mean speedup on affected transfers: {stats.mean_affected_speedup:.1f}x")
    print("(MONET, the paper's ref [12], reports avoiding 60-94% of failures)\n")


def mid_transfer_failover(scenario) -> None:
    print("== mid-transfer collapse and failover ==")
    client, site = "Italy", "eBay"
    # A good relay wins the probe race; then its overlay hop dies six
    # seconds into the transfer, for five minutes.  The stall watchdog
    # should fail over to the (slower but alive) direct path.
    relay = scenario.good_static_relay(client)
    degraded = scenario.with_faults(
        {wan_link_name(relay, client): [FaultWindow(6.0, 300.0)]}
    )

    plain = degraded.universe(0.0, config=STUDY_SESSION_CONFIG).session.download(
        client, site, degraded.resource, [relay]
    )
    resilient = degraded.universe(0.0, config=RESILIENT_SESSION_CONFIG).session.download(
        client, site, degraded.resource, [relay]
    )
    switches = [
        e.path for e in resilient.recovery_events if e.kind in ("failover", "reprobe")
    ]
    sequence = [resilient.selected_via or "direct", *switches]

    print(f"plain session:    selected {plain.selected_via or 'direct'}, "
          f"finished in {plain.duration:.0f}s")
    print(f"failover session: path sequence {' -> '.join(sequence)}, "
          f"{len(switches)} switch(es), {resilient.outcome.value} "
          f"in {resilient.duration:.0f}s")
    if resilient.duration < plain.duration:
        print(f"failover finished {plain.duration / resilient.duration:.1f}x faster")


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2007
    scenario = Scenario.build(ScenarioSpec.section2(sites=("eBay",)), seed=seed)
    failure_masking(scenario)
    mid_transfer_failover(scenario)


if __name__ == "__main__":
    main()
