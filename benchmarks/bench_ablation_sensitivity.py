"""A12: calibration sensitivity - do the conclusions depend on the knobs?

Perturbs the calibrated generative model along its main axes (overlay-hop
quality, relay heterogeneity, dynamics speed) and re-runs a §2 campaign
slice at each point.  The paper's qualitative story - substantial indirect
utilisation, mostly-positive selections, positive mean improvement - must
hold everywhere; only the magnitudes may move.
"""

from repro.util.tables import render_table
from repro.workloads.sweeps import calibration_sensitivity, default_variants

CLIENTS = ("Italy", "Sweden", "Korea", "Brazil", "Greece", "Norway",
           "Denmark", "Russia")


def test_ablation_calibration_sensitivity(benchmark, bench_seed, save_artifact):
    points = benchmark.pedantic(
        calibration_sensitivity,
        args=(default_variants(),),
        kwargs=dict(seed=bench_seed, clients=list(CLIENTS), repetitions=10),
        rounds=1,
        iterations=1,
    )

    assert len(points) == 7
    for p in points:
        assert p.conclusion_holds, (
            f"qualitative conclusion broke at calibration point {p.label!r}: "
            f"util={p.utilization:.2f} pos={p.positive_given_indirect:.2f} "
            f"mean={p.mean_improvement:.1f}"
        )

    # Directional sanity: better overlay hops -> more utilisation.
    by_label = {p.label: p for p in points}
    assert (
        by_label["overlay +15%"].utilization
        >= by_label["overlay -15%"].utilization - 0.05
    )

    rows = [
        (
            p.label,
            100.0 * p.utilization,
            100.0 * p.positive_given_indirect,
            p.mean_improvement,
            p.median_improvement,
            100.0 * p.penalty_fraction,
        )
        for p in points
    ]
    text = render_table(
        ["calibration point", "indirect %", "positive %", "mean imp %",
         "median imp %", "penalty %"],
        rows,
        title="A12 - calibration sensitivity (conclusions hold at every point)",
    )
    save_artifact("ablation_sensitivity", text)
