"""E7 / Figure 5: utilisation statistics per intermediate node.

Paper: average utilisation across all intermediate nodes is ~45%, and the
indirect path is "still significantly utilized regardless of which
intermediate node lies on the indirect path".
"""


from repro.analysis.report import render_fig5
from repro.analysis.utilization import overall_average_utilization, total_utilization_stats
from repro.util.svg import svg_grouped_bars

#: The relays the paper's Fig. 5 displays.
FIG5_RELAYS = (
    "Berkeley",
    "UCSD",
    "UIUC",
    "Duke",
    "Stanford",
    "Texas",
    "Georgia Tech",
    "Princeton",
    "UCLA",
)


def test_fig5_relay_utilization(benchmark, s2_store, save_artifact, save_svg):
    stats = benchmark(total_utilization_stats, s2_store)

    assert len(stats) == 21  # every Table V relay was rotated in
    avg = overall_average_utilization(s2_store)
    # Paper: ~45% average utilisation across relays.
    assert 0.25 <= avg <= 0.60, f"overall average utilisation {avg:.2f}"

    # Every relay sees some use across the client population - the paper's
    # "still significantly utilized regardless of which intermediate node".
    used = sum(1 for s in stats.values() if s.average > 0.05)
    assert used >= 0.8 * len(stats)

    # Moment sanity: RMS >= average for every relay.
    for s in stats.values():
        assert s.rms >= s.average - 1e-9

    text = render_fig5(stats, relays=[r for r in FIG5_RELAYS if r in stats])
    text += f"\n\noverall average utilisation: {100 * avg:.1f}% (paper: ~45%)"
    save_artifact("fig5_relay_utilization", text)
    shown = [r for r in FIG5_RELAYS if r in stats]
    save_svg(
        "fig5_relay_utilization",
        svg_grouped_bars(
            shown,
            {
                "average": [100 * stats[r].average for r in shown],
                "stdev": [100 * stats[r].stdev for r in shown],
                "RMS": [100 * stats[r].rms for r in shown],
            },
            title="Figure 5: intermediate node utilization",
            ylabel="percent",
        ),
    )
