"""E1 / Figure 1: histogram of throughput improvements over all clients.

Paper: mean ~49%, median ~37%, 84% of mass in [0, 100]%, ~12% negative,
conditioned on the indirect path being selected.
"""

from repro.analysis.improvement import improvement_histogram
from repro.analysis.report import render_fig1
from repro.util.svg import svg_histogram


def test_fig1_improvement_histogram(benchmark, s2_store, save_artifact, save_svg):
    hist = benchmark(improvement_histogram, s2_store)

    assert hist.n_points > 50, "campaign produced too few indirect selections"
    # Paper bands (generous: our substrate is a simulator, shape must hold).
    assert 25.0 <= hist.mean <= 70.0, f"mean {hist.mean} outside paper band"
    assert 20.0 <= hist.median <= 55.0, f"median {hist.median} outside paper band"
    assert 0.04 <= hist.fraction_negative <= 0.22
    assert hist.fraction_0_to_100 >= 0.60
    # The bulk of the distribution peaks between 0 and 100% (paper Fig. 2
    # says "peaks somewhere near 50%").
    lo, hi = hist.peak_bin()
    assert 0.0 <= lo and hi <= 100.0

    save_artifact("fig1_improvement_histogram", render_fig1(hist))
    save_svg(
        "fig1_improvement_histogram",
        svg_histogram(
            hist.percentages,
            hist.edges,
            title="Figure 1: throughput improvements, all clients",
        ),
    )
