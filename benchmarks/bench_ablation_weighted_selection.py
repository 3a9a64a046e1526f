"""A2: utilisation-weighted vs uniform random sets (paper §6 future work).

Paper: "if a client uses the utilization data to weight the likelihood of a
node appearing in the random set, the better nodes will be chosen more
often" - i.e. weighted sampling should match or beat the uniform random set
at equal candidate budget, and concentrate on good relays.
"""

import numpy as np

from repro.core.random_set import UniformRandomSetPolicy
from repro.core.weighted import UtilizationWeightedPolicy
from repro.util.tables import render_table

K = 4
CLIENT = "Duke"


def _run(study):
    uniform = study.run_policy(UniformRandomSetPolicy(K), clients=[CLIENT])
    weighted_policy = UtilizationWeightedPolicy(K)
    weighted = study.run_policy(weighted_policy, clients=[CLIENT], study="weighted")
    return uniform, weighted, weighted_policy


def test_ablation_weighted_selection(benchmark, s4_study, s4_scenario, save_artifact):
    uniform, weighted, policy = benchmark.pedantic(
        _run, args=(s4_study,), rounds=1, iterations=1
    )

    mu = float(np.mean(uniform.column("improvement_percent")))
    mw = float(np.mean(weighted.column("improvement_percent")))
    # Weighted sampling does not lose to uniform (allowing simulation noise).
    assert mw >= mu - 12.0

    # The learned weights concentrate: top relay clearly above the median.
    weights = sorted(
        (policy.weight(CLIENT, r) for r in s4_scenario.relay_names), reverse=True
    )
    assert weights[0] >= 1.5 * float(np.median(weights))

    rows = [
        ("uniform random set", mu, float(np.median(uniform.column("improvement_percent")))),
        ("utilization weighted", mw, float(np.median(weighted.column("improvement_percent")))),
    ]
    text = render_table(
        ["policy", "mean improvement %", "median improvement %"],
        rows,
        title=f"A2 - weighted vs uniform candidate sampling ({CLIENT}, k={K})",
    )
    save_artifact("ablation_weighted_selection", text)
