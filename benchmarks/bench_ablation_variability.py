"""A6: throughput-variability reduction (paper §6 closing claim).

"Indirect routing can also be used to decrease throughput variability
experienced by clients."  With a stable per-client relay option, selection
escapes direct-path dips, clipping the lower tail of the throughput
distribution: lower CV, higher floor.
"""

import numpy as np

from repro.analysis.variability import variability_reduction
from repro.trace.store import TraceStore
from repro.util.tables import render_table
from repro.workloads.experiment import run_paired_transfer

CLIENTS = ("Italy", "Sweden", "Korea", "Brazil", "Denmark", "France", "Greece", "Norway")
REPS = 16


def _run_static_campaign(scenario):
    store = TraceStore()
    for client in CLIENTS:
        relay = scenario.good_static_relay(client)
        for j in range(REPS):
            store.append(
                run_paired_transfer(
                    scenario,
                    study="static-variability",
                    client=client,
                    site="eBay",
                    repetition=j,
                    start_time=j * 360.0,
                    offered=[relay],
                )
            )
    return store


def test_ablation_variability_reduction(benchmark, s2_scenario, save_artifact):
    store = benchmark.pedantic(
        _run_static_campaign, args=(s2_scenario,), rounds=1, iterations=1
    )
    comps = variability_reduction(store)

    assert len(comps) == len(CLIENTS)
    reduced = [c for c in comps.values() if c.cv_reduced]
    # Majority of clients see lower variability with selection available.
    assert len(reduced) >= 0.5 * len(comps)
    # The mean CV across clients drops.
    mean_direct_cv = float(np.mean([c.direct_cv for c in comps.values()]))
    mean_selected_cv = float(np.mean([c.selected_cv for c in comps.values()]))
    assert mean_selected_cv <= mean_direct_cv + 0.02

    rows = [
        (
            c.client,
            c.n_transfers,
            c.direct_cv,
            c.selected_cv,
            c.cv_reduction_percent,
            "yes" if c.floor_raised else "no",
        )
        for c in sorted(comps.values(), key=lambda x: x.client)
    ]
    text = render_table(
        ["client", "n", "direct CV", "selected CV", "CV reduction %", "floor raised"],
        rows,
        title="A6 - throughput variability with vs without indirect routing",
        float_fmt=".2f",
    )
    text += (
        f"\n\nmean CV: direct {mean_direct_cv:.2f} -> selected {mean_selected_cv:.2f}"
        "\n(paper section 6: indirect routing decreases throughput variability)"
    )
    save_artifact("ablation_variability", text)
