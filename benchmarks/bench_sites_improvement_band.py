"""E10 / §2.2 text: average improvement per destination web site.

Paper: "Indirect routing produces a throughput improvement ... ranging from
33% to 49% on average, depending on the Web site."
"""

import numpy as np

from repro.analysis.metrics import mean_improvement_by_site
from repro.util.tables import render_table


def test_sites_improvement_band(benchmark, multisite_store, save_artifact):
    by_site = benchmark(mean_improvement_by_site, multisite_store)

    assert set(by_site) == {"eBay", "Google", "Microsoft", "Yahoo"}
    values = np.array(list(by_site.values()))
    # Every site shows a solidly positive average improvement, in a band
    # comparable to the paper's 33-49%.
    assert np.all(values > 10.0)
    assert np.all(values < 100.0)
    # The sites differ, but not wildly (same mechanism, same clients).
    assert values.max() - values.min() <= 60.0

    rows = [(site, imp) for site, imp in sorted(by_site.items())]
    text = render_table(
        ["site", "mean improvement % (indirect selected)"],
        rows,
        title="Per-site average improvement (paper: 33-49% band)",
    )
    save_artifact("sites_improvement_band", text)
