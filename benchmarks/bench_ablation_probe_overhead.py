"""A3: probe overhead accounting and the concurrent-probing failure mode.

Two related questions the paper leaves implicit:

1. How much does the probe phase cost end-to-end?  We compare improvement
   computed from bulk-phase throughput (the paper's metric) against
   improvement computed end-to-end (probe included), as the set size grows.
2. What happens if the candidates are probed *concurrently* instead of
   sequentially?  The probes then contend on the client's own access link
   and the lowest-latency path (direct) wins spuriously - selection quality
   collapses at large k.  This justifies the sequential-probing reading of
   the paper's §4 ("perform n preliminary download tests").
"""

import numpy as np

from repro.core.probe import ProbeMode
from repro.core.random_set import UniformRandomSetPolicy
from repro.core.session import SessionConfig
from repro.http.transfer import TcpParams
from repro.util.tables import render_table
from repro.workloads.experiment import Section4Study

CLIENT = "Italy"
SET_SIZES = (1, 6, 16)
REPS = 12


def _improvements(store, attr):
    sel = store.column(attr)
    direct = store.column("direct_throughput")
    return float(np.mean((sel - direct) / direct * 100.0))


def _run(scenario):
    rows = []
    for k in SET_SIZES:
        per_mode = {}
        for mode in (ProbeMode.SEQUENTIAL, ProbeMode.CONCURRENT):
            config = SessionConfig(
                probe_mode=mode,
                tcp=TcpParams(max_window=131_072.0),
                probe_noise_sigma=0.10 if mode is ProbeMode.SEQUENTIAL else 0.0,
            )
            study = Section4Study(scenario, repetitions=REPS, config=config)
            store = study.run_policy(
                UniformRandomSetPolicy(k),
                clients=[CLIENT],
                study=f"overhead-{mode.value}-{k}",
            )
            per_mode[mode] = store
        seq = per_mode[ProbeMode.SEQUENTIAL]
        rows.append(
            (
                k,
                _improvements(seq, "selected_throughput"),
                _improvements(seq, "end_to_end_throughput"),
                float(np.mean(seq.column("probe_overhead"))),
                _improvements(per_mode[ProbeMode.CONCURRENT], "selected_throughput"),
            )
        )
    return rows


def test_ablation_probe_overhead(benchmark, s4_scenario, save_artifact):
    rows = benchmark.pedantic(_run, args=(s4_scenario,), rounds=1, iterations=1)

    by_k = {r[0]: r for r in rows}
    # Sequential probe overhead grows with the candidate count.
    overheads = [r[3] for r in rows]
    assert overheads == sorted(overheads)
    # End-to-end improvement is dragged down by probe overhead at large k.
    k_big = SET_SIZES[-1]
    assert by_k[k_big][2] <= by_k[k_big][1] + 1e-9
    # Concurrent probing at large k underperforms sequential probing's
    # bulk-phase improvement (the access-link contention failure mode).
    assert by_k[k_big][4] <= by_k[k_big][1] + 5.0

    text = render_table(
        [
            "set size k",
            "seq: bulk improvement %",
            "seq: end-to-end improvement %",
            "seq: probe overhead s",
            "concurrent: bulk improvement %",
        ],
        rows,
        title=f"A3 - probe overhead and probing mode ({CLIENT})",
    )
    save_artifact("ablation_probe_overhead", text)
