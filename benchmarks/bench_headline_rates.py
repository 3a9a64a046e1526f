"""E11 / §6 headline rates.

Paper: the indirect path is selected ~45% of the time; when selected,
improvement is positive 88% of the time; so throughput diversity is
exploited ~40% of the time overall.
"""

from repro.analysis.metrics import headline_stats
from repro.analysis.report import render_headline


def test_headline_rates(benchmark, s2_store, save_artifact):
    stats = benchmark(headline_stats, s2_store)

    assert stats.n_transfers == len(s2_store)
    # Paper: 45% utilisation.
    assert 0.30 <= stats.utilization <= 0.60
    # Paper: 88% positive given indirect.
    assert 0.75 <= stats.positive_given_indirect <= 0.98
    # Paper: ~40% effective benefit rate.
    assert 0.25 <= stats.effective_benefit_rate <= 0.55
    # Paper: average improvement 33-49% (eBay at the top of the band).
    assert 25.0 <= stats.mean_improvement_when_indirect <= 70.0

    save_artifact("headline_rates", render_headline(stats))
