"""A11: measurement methodology - isolated universes vs on-node interference.

The paper's control and selecting processes ran concurrently on the same
PlanetLab node, sharing its access link; the measurements therefore carry
self-interference the authors could not remove.  Our simulator can run the
pair in isolated universes (identical conditions, zero interference) or in
one shared universe (the deployed methodology).  This bench quantifies the
difference - the paper's qualitative conclusions should survive either way,
with the interfering mode depressing both sides' absolute throughput.
"""

import numpy as np

from repro.util.tables import render_table
from repro.workloads.experiment import run_interfering_pair, run_paired_transfer

CLIENTS = ("Italy", "Sweden", "Korea", "Brazil", "Greece")
REPS = 10
INTERVAL = 360.0


def _run(scenario):
    isolated, interfering = [], []
    for client in CLIENTS:
        rotation = list(scenario.relay_names)
        rng = scenario.bank.generator("a11-rotation", client)
        rng.shuffle(rotation)
        for j in range(REPS):
            kw = dict(
                client=client,
                site="eBay",
                repetition=j,
                start_time=j * INTERVAL,
                offered=[rotation[j % len(rotation)]],
            )
            isolated.append(run_paired_transfer(scenario, study="a11-iso", **kw))
            interfering.append(
                run_interfering_pair(scenario, study="a11-int", **kw)
            )
    return isolated, interfering


def test_ablation_interference(benchmark, s2_scenario, save_artifact):
    isolated, interfering = benchmark.pedantic(
        _run, args=(s2_scenario,), rounds=1, iterations=1
    )

    def stats(records):
        imps = np.array([r.improvement_percent for r in records])
        indirect = np.array([r.used_indirect for r in records])
        chosen = imps[indirect] if indirect.any() else np.array([0.0])
        direct = np.array([r.direct_throughput for r in records])
        return (
            100.0 * float(np.mean(indirect)),
            float(np.mean(chosen)),
            float(np.median(chosen)),
            float(np.mean(direct)) * 8 / 1e6,
        )

    iso_util, iso_mean, iso_med, iso_direct = stats(isolated)
    int_util, int_mean, int_med, int_direct = stats(interfering)

    # Interference depresses the control's measured direct throughput (it
    # shares the access link with the selector's activity).
    assert int_direct <= iso_direct * 1.02
    # The qualitative conclusions survive the methodology change: the
    # indirect path is still selected a substantial fraction of the time
    # with solidly positive conditional improvement.
    assert int_util >= 20.0
    assert int_mean >= 10.0
    # And both modes agree within a reasonable band.
    assert abs(int_util - iso_util) <= 25.0

    rows = [
        ("isolated universes (ours)", iso_util, iso_mean, iso_med, iso_direct),
        ("shared node (paper's deployment)", int_util, int_mean, int_med, int_direct),
    ]
    text = render_table(
        ["methodology", "indirect %", "mean imp %", "median imp %",
         "mean direct Mbps"],
        rows,
        title="A11 - isolated vs interfering paired measurement",
    )
    save_artifact("ablation_interference", text)
