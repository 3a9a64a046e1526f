"""The paper's §6 future work, implemented: utilisation-weighted selection.

"If a client uses the utilization data to weight the likelihood of a node
appearing in the random set, the better nodes will be chosen more often."

This example runs the §4 test-bed with three policies of equal candidate
budget k and compares their mean improvement and per-relay focus:

* uniform random k-subset (the paper's Fig. 6 policy),
* utilisation-weighted sampling (the §6 suggestion, a smoothed win-rate
  bandit),
* the trace-peeking oracle (upper bound, always offers the best relay).

Run:
    python examples/adaptive_weighted.py [repetitions] [k] [seed]
"""

import sys

import numpy as np

from repro.core.oracle import OracleBestRelayPolicy
from repro.core.random_set import UniformRandomSetPolicy
from repro.core.weighted import UtilizationWeightedPolicy
from repro.util.tables import render_table
from repro.workloads.experiment import Section4Study
from repro.workloads.scenario import Scenario, ScenarioSpec


def main() -> None:
    repetitions = int(sys.argv[1]) if len(sys.argv) > 1 else 80
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 2007

    scenario = Scenario.build(ScenarioSpec.section4(), seed=seed)
    study = Section4Study(scenario, repetitions=repetitions)
    client = "Duke"

    policies = {
        "uniform random set": UniformRandomSetPolicy(k),
        "utilization weighted": UtilizationWeightedPolicy(k),
        "oracle best relay": OracleBestRelayPolicy(scenario.builder, "eBay"),
    }

    rows = []
    for name, policy in policies.items():
        store = study.run_policy(policy, clients=[client], study=name)
        imps = store.column("improvement_percent")
        util = float(np.mean(store.column("used_indirect")))
        rows.append((name, float(np.mean(imps)), float(np.median(imps)), 100 * util))
        print(f"ran {name:24s} ({len(store)} transfers)")

    print()
    print(
        render_table(
            ["policy", "mean improvement %", "median %", "indirect used %"],
            rows,
            title=f"{client}, k={k}, {repetitions} transfers per policy",
        )
    )

    weighted = policies["utilization weighted"]
    weights = sorted(
        ((weighted.weight(client, r), r) for r in scenario.relay_names),
        reverse=True,
    )
    print("\nlearned top relays (weighted policy):")
    for w, relay in weights[:5]:
        print(f"  {relay:14s} weight={w:.2f}")


if __name__ == "__main__":
    main()
