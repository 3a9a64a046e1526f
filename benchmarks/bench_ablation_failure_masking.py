"""A8: failure masking - the availability property inherited from RON/MONET.

The paper measures throughput only, but its mechanism masks path failures
as a side effect: a dead direct path cannot finish (or win) the probe race,
so the transfer proceeds via the relay while the direct-only control waits
out the outage.  MONET (paper ref [12]) reports avoiding 60-94% of observed
failures; this bench measures the comparable masking rate here.
"""

from repro.analysis.availability import masking_stats
from repro.util.tables import render_kv
from repro.workloads.studies import STUDY_SESSION_CONFIG
from repro.workloads.failures import FailureStudyParams, plan_failures, run_failure_unit

CLIENTS = ("Italy", "Sweden", "Korea", "Brazil", "Greece")
REPS = 12


def _run(scenario):
    plan = plan_failures(
        scenario,
        repetitions=REPS,
        interval=360.0,
        config=STUDY_SESSION_CONFIG,
        params=FailureStudyParams(link_mtbf=600.0, link_mean_duration=150.0),
        clients=CLIENTS,
        modes=("link",),
    )
    return [run_failure_unit(scenario, plan.config, u, plan.extra) for u in plan.units]


def test_ablation_failure_masking(benchmark, s2_scenario, save_artifact):
    records = benchmark.pedantic(
        _run, args=(s2_scenario,), rounds=1, iterations=1
    )
    stats = masking_stats(records)

    assert stats.n_transfers == len(CLIENTS) * REPS
    assert stats.n_affected >= 5, "outage regime too light to measure masking"
    # The mechanism masks the majority of outage-affected transfers -
    # the same band MONET reports for overlay-assisted recovery.
    assert 0.5 <= stats.masking_rate <= 1.0
    # Affected transfers complete dramatically faster with selection.
    assert stats.mean_affected_speedup >= 1.5

    text = render_kv(
        [
            ("transfers", stats.n_transfers),
            ("outage-affected", stats.n_affected),
            ("masked (finished in <=70% of control time)", stats.n_masked),
            ("masking rate", stats.masking_rate),
            ("mean speedup on affected transfers", stats.mean_affected_speedup),
        ],
        title="A8 - failure masking under direct-path outages "
        "(MONET reports 60-94% avoidance)",
    )
    save_artifact("ablation_failure_masking", text)
