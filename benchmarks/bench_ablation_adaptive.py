"""A10: mid-transfer adaptive switching vs the paper's fire-and-forget probe.

The paper's 12%-penalty tail exists because a decision made at t=0 binds
for the whole transfer.  The resilient protocol's stall watchdog revisits
that decision when the chosen path underperforms its own probe estimate:
it fails over to the probe runner-up, then backs off and re-probes from the
current offset.  Expected shape: the penalty tail shrinks (fewer and milder
negative improvements) while healthy transfers pay essentially nothing.
"""

import numpy as np

from repro.net.failures import FaultWindow
from repro.net.topology import wan_link_name
from repro.util.tables import render_table
from repro.workloads.faulted import RESILIENT_SESSION_CONFIG
from repro.workloads.profiles import Variability
from repro.workloads.studies import STUDY_SESSION_CONFIG

REPS = 10
INTERVAL = 360.0
#: Every other repetition the client's direct path collapses to
#: COLLAPSE_FACTOR of its capacity, COLLAPSE_AT seconds into the session
#: (the probe has usually decided by then) for COLLAPSE_FOR seconds.  The
#: scenario's own regime swings rarely trip the watchdog (the probe
#: estimate is taken in slow start, so a bulk phase seldom falls under
#: half of it), and how often they do depends on the seed.
COLLAPSE_AT = 4.0
COLLAPSE_FOR = 60.0
COLLAPSE_FACTOR = 0.2


def _clients(scenario):
    """The high-variability clients: the population whose direct path
    swings, drawn per seed by the scenario."""
    clients = [
        c for c in scenario.client_names
        if scenario.profiles[c].variability is Variability.HIGH
    ]
    assert clients, "the scenario drew no high-variability client"
    return clients


def _run(scenario):
    plain_rows = []
    adaptive_rows = []
    switch_count = 0
    for client in _clients(scenario):
        rotation = list(scenario.relay_names)
        rng = scenario.bank.generator("a10-rotation", client)
        rng.shuffle(rotation)
        collapses = [
            FaultWindow(j * INTERVAL + COLLAPSE_AT, COLLAPSE_FOR, COLLAPSE_FACTOR)
            for j in range(1, REPS, 2)
        ]
        world = scenario.with_faults({wan_link_name("eBay", client): collapses})
        for j in range(REPS):
            start = j * INTERVAL
            relay = rotation[j % len(rotation)]

            control = world.universe(start, config=STUDY_SESSION_CONFIG)
            ctrl = control.session.download_direct(client, "eBay", scenario.resource)
            direct = ctrl.transfer_throughput

            plain_u = world.universe(start, config=STUDY_SESSION_CONFIG)
            plain = plain_u.session.download(
                client, "eBay", scenario.resource, [relay]
            )
            # End-to-end throughput for BOTH mechanisms (a recovering
            # session has no single probe-free bulk phase to isolate, so
            # the fair comparison includes every phase on both sides).
            plain_rows.append(
                100.0 * (plain.end_to_end_throughput - direct) / direct
            )

            adaptive_u = world.universe(start, config=RESILIENT_SESSION_CONFIG)
            result = adaptive_u.session.download(
                client, "eBay", scenario.resource, [relay]
            )
            adaptive_rows.append(
                100.0 * (result.end_to_end_throughput - direct) / direct
            )
            switch_count += sum(
                e.kind in ("failover", "reprobe") for e in result.recovery_events
            )
    return np.array(plain_rows), np.array(adaptive_rows), switch_count


def test_ablation_adaptive_switching(benchmark, s2_scenario, save_artifact):
    plain, adaptive, switches = benchmark.pedantic(
        _run, args=(s2_scenario,), rounds=1, iterations=1
    )

    def penalty_stats(imps):
        neg = imps[imps < -5.0]  # material penalties
        return (
            100.0 * neg.size / imps.size,
            float(-neg.mean()) if neg.size else 0.0,
            float(-imps.min()) if imps.min() < 0 else 0.0,
        )

    p_rate, p_avg, p_worst = penalty_stats(plain)
    a_rate, a_avg, a_worst = penalty_stats(adaptive)

    # The stall watchdog must not wreck the average case...
    assert float(np.mean(adaptive)) >= float(np.mean(plain)) - 10.0
    # ...and it trims the worst of the penalty tail.
    assert a_worst <= p_worst + 5.0
    assert a_rate <= p_rate + 5.0
    # The collapses actually trip it.
    assert switches >= 1

    rows = [
        ("plain probe (paper)", float(np.mean(plain)), float(np.median(plain)),
         p_rate, p_avg, p_worst),
        ("adaptive switching", float(np.mean(adaptive)), float(np.median(adaptive)),
         a_rate, a_avg, a_worst),
    ]
    text = render_table(
        ["mechanism", "mean imp %", "median %", "penalty rate %",
         "avg penalty %", "worst penalty %"],
        rows,
        title=f"A10 - adaptive mid-transfer switching ({switches} recoveries fired)",
    )
    save_artifact("ablation_adaptive", text)
