"""A1: probe-size ablation.

Paper §2.1: x must be "large enough to allow the connection to last beyond
and marginalize the initial effects of TCP slow-start ... We experimentally
determined that x = 100KB produces good estimates."

This bench sweeps x and measures (a) the mean improvement actually realised
and (b) the penalty rate, showing that tiny probes (slow-start-dominated)
select worse paths while larger probes only add overhead.
"""

import numpy as np

from repro.core.probe import ProbeMode
from repro.core.session import SessionConfig
from repro.http.transfer import TcpParams
from repro.util.tables import render_table
from repro.util.units import kb
from repro.workloads.experiment import run_paired_transfer

PROBE_SIZES_KB = (5, 20, 100, 400)
CLIENTS = ("Italy", "Sweden", "Korea", "Brazil", "Greece", "Norway")
REPS = 8


def _sweep(scenario):
    rows = []
    for x_kb in PROBE_SIZES_KB:
        config = SessionConfig(
            probe_bytes=kb(x_kb),
            probe_mode=ProbeMode.CONCURRENT,
            tcp=TcpParams(max_window=131_072.0),
        )
        records = []
        for client in CLIENTS:
            rotation = scenario.relay_names
            for j in range(REPS):
                records.append(
                    run_paired_transfer(
                        scenario,
                        study=f"probe{x_kb}",
                        client=client,
                        site="eBay",
                        repetition=j,
                        start_time=j * 360.0,
                        offered=[rotation[j % len(rotation)]],
                        config=config,
                    )
                )
        imps = np.array([r.improvement_percent for r in records])
        indirect = np.array([r.used_indirect for r in records])
        overhead = float(np.mean([r.probe_overhead for r in records]))
        rows.append(
            (
                x_kb,
                float(np.mean(imps)),  # realised gain over ALL transfers
                100.0 * float(np.mean(indirect)),
                overhead,
            )
        )
    return rows


def test_ablation_probe_size(benchmark, s2_scenario, save_artifact):
    rows = benchmark.pedantic(_sweep, args=(s2_scenario,), rounds=1, iterations=1)

    by_x = {r[0]: r for r in rows}
    # Probe overhead grows with x.
    overheads = [r[3] for r in rows]
    assert overheads == sorted(overheads)
    # Tiny probes are slow-start/latency dominated: the lower-RTT direct
    # path wins races it should lose, so the indirect path is under-selected
    # and realised improvement is left on the table.
    assert by_x[5][2] < by_x[100][2], "5 KB probe should under-select indirect"
    assert by_x[100][1] >= by_x[5][1] - 3.0
    # Going far beyond 100 KB buys little additional improvement - the
    # paper's "x = 100 KB produces good estimates".
    assert by_x[400][1] <= by_x[100][1] + 25.0

    text = render_table(
        [
            "probe x (KB)",
            "mean improvement % (all transfers)",
            "indirect selected %",
            "probe overhead s",
        ],
        rows,
        title="A1 - probe size ablation (paper picked x = 100 KB)",
    )
    save_artifact("ablation_probe_size", text)
