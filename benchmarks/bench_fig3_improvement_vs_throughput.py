"""E5 / Figure 3: improvement vs direct-path throughput.

Paper: "the trend is that throughput performance improvement decreases as
client throughput on the direct path increases" - a downward slope, both in
aggregate and for most per-client panels.
"""

from repro.analysis.improvement import improvement_vs_throughput
from repro.analysis.report import render_fig3
from repro.util.svg import svg_line_chart


def _panels(store):
    panels = [improvement_vs_throughput(store, label="all clients")]
    for client in ("Italy", "Sweden", "Korea", "Brazil"):
        panels.append(
            improvement_vs_throughput(store, label=client, client=client)
        )
    return panels


def test_fig3_improvement_vs_throughput(benchmark, s2_store, save_artifact, save_svg):
    panels = benchmark(_panels, s2_store)

    aggregate = panels[0]
    assert aggregate.direct_mbps.size > 50
    assert aggregate.is_downward, (
        f"aggregate slope {aggregate.slope:.1f} %/Mbps is not downward"
    )

    # Binned means should fall from the low-throughput to the
    # high-throughput end (paper's visual trend).
    centres, means = aggregate.binned_means(5)
    assert means[0] > means[-1]

    save_artifact("fig3_improvement_vs_throughput", render_fig3(panels))
    series = {}
    for panel in panels:
        xs, ys = panel.binned_means(5)
        if xs.size:
            series[panel.label] = (xs.tolist(), ys.tolist())
    save_svg(
        "fig3_improvement_vs_throughput",
        svg_line_chart(
            series,
            title="Figure 3: improvement vs direct-path throughput",
            xlabel="direct throughput (Mbps)",
            ylabel="mean improvement (%)",
        ),
    )
