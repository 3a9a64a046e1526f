"""Every analysis + renderer path must tolerate empty measurement stores.

The CLI refuses empty stores up front, but library users can feed any
subset of a campaign (e.g. a filter that matched nothing) into any
artefact; none of these calls may crash.
"""

import math

import pytest

from repro.analysis.classify import classify_clients
from repro.analysis.improvement import (
    improvement_histogram,
    improvement_vs_throughput,
    per_client_histograms,
)
from repro.analysis.metrics import headline_stats, mean_improvement_by_site
from repro.analysis.penalties import penalty_table
from repro.analysis.random_set import random_set_curves
from repro.analysis.report import (
    render_fig1,
    render_fig2,
    render_fig3,
    render_fig4,
    render_fig5,
    render_fig6,
    render_headline,
    render_table1,
    render_table2,
    render_table3,
)
from repro.analysis.timeseries import indirect_throughput_series
from repro.analysis.utilization import (
    top_relays_per_client,
    total_utilization_stats,
    utilization_vs_improvement,
)
from repro.analysis.variability import variability_reduction
from repro.trace.store import TraceStore


@pytest.fixture()
def empty():
    return TraceStore()


class TestEmptyAnalyses:
    def test_headline(self, empty):
        h = headline_stats(empty)
        assert h.n_transfers == 0
        assert math.isnan(h.utilization)
        render_headline(h)

    def test_histograms(self, empty):
        hist = improvement_histogram(empty)
        assert hist.n_points == 0
        render_fig1(hist)
        render_fig2(per_client_histograms(empty))

    def test_penalties(self, empty):
        rows = penalty_table(empty)
        assert len(rows) == 3
        assert all(math.isnan(r.penalty_fraction) for r in rows)
        render_table1(rows)

    def test_utilization(self, empty):
        assert top_relays_per_client(empty) == {}
        assert total_utilization_stats(empty) == {}
        assert utilization_vs_improvement(empty, "Duke") == []
        render_table2({})
        render_fig5({})
        render_table3([], client="Duke")

    def test_series(self, empty):
        assert indirect_throughput_series(empty) == {}
        render_fig4({})
        panel = improvement_vs_throughput(empty)
        assert panel.direct_mbps.size == 0
        render_fig3([panel])

    def test_random_set(self, empty):
        assert random_set_curves(empty) == {}
        render_fig6({})

    def test_grouping_helpers(self, empty):
        assert classify_clients(empty) == {}
        assert mean_improvement_by_site(empty) == {}
        assert variability_reduction(empty) == {}
