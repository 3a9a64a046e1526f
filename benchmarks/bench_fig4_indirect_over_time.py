"""E6 / Figure 4: indirect-path throughput vs time.

Paper: "Indirect path throughputs do not show any discernable uptrend or
downtrend over time.  However, there are a few small jumps that do occur."
We quantify "no discernible trend" with the Mann-Kendall test.
"""

from repro.analysis.report import render_fig4
from repro.analysis.timeseries import indirect_throughput_series
from repro.util.svg import svg_line_chart


def test_fig4_indirect_throughput_over_time(benchmark, s2_store, save_artifact, save_svg):
    series = benchmark(indirect_throughput_series, s2_store)

    populated = {n: s for n, s in series.items() if s.n_points >= 8}
    assert len(populated) >= 8, "too few clients with indirect selections"

    # Most clients show no significant monotone trend (alpha = 0.05 admits
    # ~5% false positives by construction).
    trendless = sum(1 for s in populated.values() if not s.has_trend)
    assert trendless >= 0.7 * len(populated)

    # Indirect throughput is comparatively stable: relative std below ~50%
    # for the typical client (jumps allowed, drifts not).
    import numpy as np

    rel_stds = [
        float(np.std(s.throughput_mbps) / np.mean(s.throughput_mbps))
        for s in populated.values()
    ]
    assert float(np.median(rel_stds)) <= 0.5

    save_artifact("fig4_indirect_over_time", render_fig4(series))
    shown = sorted(populated, key=lambda n: -populated[n].n_points)[:4]
    save_svg(
        "fig4_indirect_over_time",
        svg_line_chart(
            {
                name: (
                    (populated[name].times / 3600.0).tolist(),
                    populated[name].throughput_mbps.tolist(),
                )
                for name in shown
            },
            title="Figure 4: indirect-path throughput vs time",
            xlabel="time (hours)",
            ylabel="throughput (Mbps)",
        ),
    )
