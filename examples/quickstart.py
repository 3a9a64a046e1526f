"""Quickstart: one probe-based indirect-routing transfer.

Builds the paper's §2 test-bed (22 PlanetLab clients, 21 US relays, eBay as
the destination), then runs a single *paired measurement*: a control client
downloads an 8 MB file over the direct path while the selecting client
probes the direct path and one relay with 100 KB range requests and fetches
the remainder over the winner.

Run:
    python examples/quickstart.py [seed]
"""

import sys

from repro.util.units import bytes_per_s_to_mbps
from repro.workloads.experiment import run_paired_transfer
from repro.workloads.scenario import Scenario, ScenarioSpec


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2007
    print("building the PlanetLab-like scenario ...")
    scenario = Scenario.build(ScenarioSpec.section2(sites=("eBay",)), seed=seed)

    client = "Italy"
    relay = scenario.good_static_relay(client)  # "a good one, a priori"
    print(f"client={client}  candidate relay={relay}  server=eBay")

    record = run_paired_transfer(
        scenario,
        study="quickstart",
        client=client,
        site="eBay",
        repetition=0,
        start_time=0.0,
        offered=[relay],
    )

    direct = bytes_per_s_to_mbps(record.direct_throughput)
    selected = bytes_per_s_to_mbps(record.selected_throughput)
    choice = record.selected_via or "the direct path"
    print()
    print(f"probe decision ........ {choice}")
    print(f"probe overhead ........ {record.probe_overhead:.2f} s")
    print(f"direct control ........ {direct:.2f} Mbps")
    print(f"selected path ......... {selected:.2f} Mbps")
    print(f"improvement ........... {record.improvement_percent:+.1f}%")
    if record.is_penalty:
        print(f"(a penalty: the prediction was wrong by {record.penalty_percent:.0f}%)")


if __name__ == "__main__":
    main()
