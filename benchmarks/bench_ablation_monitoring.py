"""A9: per-transfer probing (the paper) vs background monitoring (RON).

Two ways to know which path is fast *right now*:

* the paper's design measures at transfer time (fresh but costs one probe
  phase per transfer);
* RON's design probes continuously in the background and routes from the
  table (no per-transfer cost, but estimates are up to one period stale
  and the small background probes rank paths less precisely).

This bench runs both on the same scenario and schedule.  Expected shape:
per-transfer probing realises more improvement (freshness wins in a
Markov-modulated world); monitoring still clearly beats never routing
indirectly.
"""

import numpy as np

from repro.core.probe import ProbeMode
from repro.core.session import SessionConfig
from repro.http.transfer import TcpParams
from repro.trace.store import TraceStore
from repro.util.tables import render_table
from repro.util.units import kb
from repro.workloads.experiment import run_paired_transfer

#: Noise-free sequential probing: the monitor measures without jitter in
#: this model, so the probing arms must too for a clean freshness-vs-breadth
#: comparison (measurement noise is studied separately in A1/Table III).
SEQ_NOISELESS = SessionConfig(
    probe_mode=ProbeMode.SEQUENTIAL, tcp=TcpParams(max_window=131_072.0)
)
from repro.workloads.monitored import MonitoredStudy

CLIENTS = ("Italy", "Sweden", "Korea", "Brazil")
REPS = 10
INTERVAL = 360.0


def _probe_based(scenario, n_candidates, study):
    store = TraceStore()
    for client in CLIENTS:
        rotation = list(scenario.relay_names)
        rng = scenario.bank.generator("a9-rotation", client)
        rng.shuffle(rotation)
        for j in range(REPS):
            store.append(
                run_paired_transfer(
                    scenario,
                    study=study,
                    client=client,
                    site="eBay",
                    repetition=j,
                    start_time=j * INTERVAL,
                    offered=rotation[:n_candidates],
                    # Sequential probing: racing many concurrent probes
                    # would hit the access-link contention failure mode (A3).
                    config=SEQ_NOISELESS,
                )
            )
    return store


def _run_all(scenario):
    budget4 = _probe_based(scenario, 4, "a9-probe4")
    full = _probe_based(scenario, len(scenario.relay_names), "a9-probe-all")
    monitored = MonitoredStudy(
        scenario,
        repetitions=REPS,
        interval=INTERVAL,
        monitor_period=180.0,
        # Monitoring probes must outlast slow start too, or the table is
        # biased toward the low-latency direct path (the A1 lesson).
        monitor_probe_bytes=kb(100),
    ).run(clients=list(CLIENTS))
    return budget4, full, monitored


def test_ablation_monitoring(benchmark, s2_scenario, save_artifact):
    budget4, full, monitored = benchmark.pedantic(
        _run_all, args=(s2_scenario,), rounds=1, iterations=1
    )

    def stats(store):
        imps = store.column("improvement_percent")
        indirect = store.column("used_indirect")
        return (
            float(np.mean(imps)),
            float(np.median(imps)),
            100.0 * float(np.mean(indirect)),
            float(np.mean(store.column("probe_overhead"))),
        )

    b_mean, b_med, b_util, b_ovh = stats(budget4)
    f_mean, f_med, f_util, f_ovh = stats(full)
    m_mean, m_med, m_util, m_ovh = stats(monitored)

    # Every design beats never-indirect on average.
    assert b_mean > 0.0 and f_mean > 0.0 and m_mean > 0.0
    # Breadth wins: surveying the full set (fresh or stale) beats a random
    # 4-candidate budget.
    assert f_mean >= b_mean - 5.0
    assert m_mean >= b_mean - 5.0
    # Freshness wins at equal breadth: probing all relays at transfer time
    # realises at least as much improvement as the stale monitor table.
    assert f_mean >= m_mean - 8.0
    # Overheads order as expected: probing everything per transfer costs
    # far more wall time than a 4-candidate probe.
    assert f_ovh >= 3.0 * b_ovh

    rows = [
        ("probe 4 random (paper Fig.6 budget)", b_mean, b_med, b_util, b_ovh),
        ("probe all 21 per transfer", f_mean, f_med, f_util, f_ovh),
        ("background monitor, all 21 (RON)", m_mean, m_med, m_util, m_ovh),
    ]
    text = render_table(
        ["design", "mean imp %", "median imp %", "indirect %", "overhead s/transfer"],
        rows,
        title="A9 - freshness vs breadth vs overhead in path selection",
    )
    save_artifact("ablation_monitoring", text)
