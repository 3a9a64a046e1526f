"""E9 / Table III: relay utilisation vs throughput improvement (Duke).

Paper: "For the most part, the nodes that provide the highest throughput
are the nodes that are selected the most ... this correlation is not
perfect" (prediction error from sampling the first 100 KB).
"""

from repro.analysis.report import render_table3
from repro.analysis.utilization import (
    utilization_improvement_correlation,
    utilization_vs_improvement,
)


def test_table3_utilization_vs_improvement(benchmark, s4_store, save_artifact):
    rows = benchmark(utilization_vs_improvement, s4_store, "Duke")

    # A meaningful subset of the 35 relays has non-zero utilisation (the
    # paper shows 22 of 35).
    assert 8 <= len(rows) <= 35
    # Sorted descending by utilisation.
    utils = [r.utilization_percent for r in rows]
    assert utils == sorted(utils, reverse=True)
    # Spread: the favourite relay is clearly ahead of the long tail.
    assert utils[0] >= 3.0 * utils[-1]

    corr = utilization_improvement_correlation(rows)
    # Positive but imperfect (paper: Texas at the top, Michigan anomalous).
    assert 0.05 <= corr <= 0.98, f"correlation {corr:.2f}"

    text = render_table3(rows, client="Duke")
    text += f"\n\nutilization/improvement correlation: {corr:+.2f}"
    text += "\n(paper: positive, but 'this correlation is not perfect')"
    save_artifact("table3_utilization_vs_improvement", text)
