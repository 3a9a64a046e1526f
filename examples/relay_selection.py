"""The paper's §4 relay-selection study: random sets of k of 35 relays.

Duke, Italy and Sweden each run transfer sessions against eBay where the
candidate relay set is a uniformly random k-subset of 35 intermediate
nodes, probed sequentially (n preliminary download tests).  Regenerates
Figure 6 (average improvement vs set size) and Table III (utilisation vs
improvement for Duke).

Run:
    python examples/relay_selection.py [repetitions] [seed]

The paper used 720 repetitions per configuration (6 hours at one transfer
every 30 s); the default here is 40 for a ~1 minute run.
"""

import sys

from repro.analysis.random_set import random_set_curves, saturation_point
from repro.analysis.report import render_fig6, render_table3
from repro.analysis.utilization import (
    utilization_improvement_correlation,
    utilization_vs_improvement,
)
from repro.workloads.experiment import Section4Study
from repro.workloads.scenario import Scenario, ScenarioSpec

SET_SIZES = (1, 2, 4, 6, 10, 16, 24, 35)


def main() -> None:
    repetitions = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 2007

    scenario = Scenario.build(ScenarioSpec.section4(), seed=seed)
    print(f"clients: {scenario.client_names}  relays: {len(scenario.relay_names)}")
    print(f"running the k-sweep {SET_SIZES} with {repetitions} transfers each ...")

    study = Section4Study(scenario, repetitions=repetitions)
    store = study.run_random_set_sweep(SET_SIZES)
    print(f"collected {len(store)} paired measurements\n")

    curves = random_set_curves(store)
    print(render_fig6(curves))
    print()
    for client, curve in sorted(curves.items()):
        k = saturation_point(curve)
        print(f"{client}: ~90% of the attainable improvement at k = {k}")
    print()

    rows = utilization_vs_improvement(store, "Duke")
    print(render_table3(rows, client="Duke"))
    corr = utilization_improvement_correlation(rows)
    print(f"\nutilization/improvement correlation (Duke): {corr:+.2f} "
          "(positive but imperfect, as in the paper)")


if __name__ == "__main__":
    main()
