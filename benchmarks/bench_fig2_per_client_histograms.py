"""E2 / Figure 2: per-client improvement histograms.

Paper: most clients' distributions roughly resemble the aggregate (mass in
[0, 100]%, peak near ~50%), with occasional outliers (France).
"""

import numpy as np

from repro.analysis.improvement import per_client_histograms
from repro.analysis.report import render_fig2


def test_fig2_per_client_histograms(benchmark, s2_store, save_artifact):
    hists = benchmark(per_client_histograms, s2_store)

    assert len(hists) == 22  # every Table IV client present
    populated = [h for h in hists.values() if h.n_points >= 5]
    assert len(populated) >= 10, "too few clients selected the indirect path"

    # Most populated clients resemble the aggregate: majority of mass in
    # [0, 100] percent.
    resembling = sum(1 for h in populated if h.fraction_0_to_100 >= 0.5)
    assert resembling >= 0.7 * len(populated)

    # Median of per-client medians sits in the paper's improvement band.
    medians = [h.median for h in populated]
    assert 10.0 <= float(np.median(medians)) <= 70.0

    save_artifact("fig2_per_client_histograms", render_fig2(hists))
