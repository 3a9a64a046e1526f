"""Report renderer tests: every artefact renders and carries its numbers."""


from repro.analysis.improvement import (
    improvement_histogram,
    improvement_vs_throughput,
    per_client_histograms,
)
from repro.analysis.metrics import headline_stats
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


class TestRenderers:
    def test_fig1(self, section2_store):
        out = render_fig1(improvement_histogram(section2_store))
        assert "Figure 1" in out
        assert "mean improvement" in out
        assert "|" in out  # histogram bars

    def test_fig2(self, section2_store):
        out = render_fig2(per_client_histograms(section2_store))
        assert "Figure 2" in out
        assert "Italy" in out and "Sweden" in out

    def test_table1(self, section2_store):
        out = render_table1(penalty_table(section2_store))
        assert "Table I" in out
        assert "Med/Low Throughput" in out
        assert "Low Variability" in out

    def test_table2(self, section2_store):
        out = render_table2(top_relays_per_client(section2_store))
        assert "Table II" in out
        assert "%" in out

    def test_table2_pads_missing(self):
        out = render_table2({"X": [("R1", 0.5)]})
        assert out.count("-") >= 2  # second/third padded

    def test_fig3(self, section2_store):
        panels = [improvement_vs_throughput(section2_store, label="all")]
        out = render_fig3(panels)
        assert "Figure 3" in out
        assert "slope" in out

    def test_fig4(self, section2_store):
        out = render_fig4(indirect_throughput_series(section2_store))
        assert "Figure 4" in out
        assert "Mann-Kendall" in out

    def test_fig5(self, section2_store):
        stats = total_utilization_stats(section2_store)
        out = render_fig5(stats)
        assert "Figure 5" in out
        assert "RMS" in out

    def test_fig5_subset(self, section2_store):
        stats = total_utilization_stats(section2_store)
        some = list(stats)[:3]
        out = render_fig5(stats, relays=some)
        for name in some:
            assert name in out

    def test_fig6(self, section4_store):
        out = render_fig6(random_set_curves(section4_store))
        assert "Figure 6" in out
        assert "set size k" in out
        assert "Duke" in out

    def test_table3(self, section4_store):
        rows = utilization_vs_improvement(section4_store, "Duke")
        out = render_table3(rows, client="Duke")
        assert "Table III" in out
        assert "utilization %" in out

    def test_headline(self, section2_store):
        out = render_headline(headline_stats(section2_store))
        assert "Headline rates" in out
        assert "indirect utilization" in out
