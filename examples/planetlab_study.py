"""The paper's §2-3 measurement campaign, end to end.

Runs the Section 2 study (each of the 22 international clients downloads the
file repeatedly, with a rotating candidate relay) and regenerates the
paper's aggregate artefacts: Figure 1, Table I, Table II, Figure 4, Figure 5
and the §6 headline rates.

Run:
    python examples/planetlab_study.py [repetitions] [seed]

The paper used 100 repetitions per client (10 hours at one transfer every
6 minutes); the default here is 30 to keep the example snappy (~10 s).
"""

import sys

from repro.analysis.improvement import improvement_histogram
from repro.analysis.metrics import headline_stats
from repro.analysis.penalties import penalty_table
from repro.analysis.report import (
    render_fig1,
    render_fig4,
    render_fig5,
    render_headline,
    render_table1,
    render_table2,
)
from repro.analysis.timeseries import indirect_throughput_series
from repro.analysis.utilization import top_relays_per_client, total_utilization_stats
from repro.workloads.experiment import Section2Study
from repro.workloads.planetlab import CLIENT_CATALOG, RELAY_CATALOG
from repro.workloads.scenario import Scenario, ScenarioSpec


def main() -> None:
    repetitions = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 2007

    print("deployment (paper Tables IV & V):")
    print(f"  {len(CLIENT_CATALOG)} international clients, "
          f"{len(RELAY_CATALOG)} US intermediate nodes, destination eBay")
    scenario = Scenario.build(ScenarioSpec.section2(sites=("eBay",)), seed=seed)

    print(f"running {repetitions} paired transfers per client ...")
    study = Section2Study(scenario, repetitions=repetitions)
    store = study.run(sites=["eBay"])
    print(f"collected {len(store)} paired measurements\n")

    print(render_headline(headline_stats(store)))
    print()
    print(render_fig1(improvement_histogram(store)))
    print()
    print(render_table1(penalty_table(store)))
    print()
    print(render_table2(top_relays_per_client(store)))
    print()
    some_clients = ["Italy", "Sweden", "France", "Korea"]
    print(render_fig4(indirect_throughput_series(store, clients=some_clients)))
    print()
    stats = total_utilization_stats(store)
    fig5_relays = [r for r in ("Berkeley", "UCSD", "UIUC", "Duke", "Stanford",
                               "Texas", "Georgia Tech", "Princeton", "UCLA")
                   if r in stats]  # short runs may not rotate every relay in
    print(render_fig5(stats, relays=fig5_relays))


if __name__ == "__main__":
    main()
