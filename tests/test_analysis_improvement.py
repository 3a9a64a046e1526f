"""Fig. 1/2/3 analysis tests."""

import pytest

from repro.analysis.improvement import (
    improvement_histogram,
    improvement_vs_throughput,
    per_client_histograms,
)
from repro.trace.records import TransferRecord
from repro.trace.store import TraceStore
from repro.util.units import mbps_to_bytes_per_s


def rec(client="A", direct_mbps=1.0, selected_mbps=1.5, via="R"):
    return TransferRecord(
        study="t",
        client=client,
        site="eBay",
        repetition=0,
        start_time=0.0,
        set_size=1 if via else 0,
        offered=(via,) if via else (),
        selected_via=via,
        direct_throughput=mbps_to_bytes_per_s(direct_mbps),
        selected_throughput=mbps_to_bytes_per_s(selected_mbps),
        end_to_end_throughput=mbps_to_bytes_per_s(selected_mbps),
        probe_overhead=0.0,
        file_bytes=1e6,
    )


class TestHistogram:
    def test_summary_statistics(self):
        s = TraceStore(
            [rec(selected_mbps=1.5), rec(selected_mbps=2.0), rec(selected_mbps=0.8)]
        )
        h = improvement_histogram(s)
        assert h.n_points == 3
        assert h.mean == pytest.approx((50 + 100 - 20) / 3)
        assert h.median == pytest.approx(50.0)
        assert h.fraction_negative == pytest.approx(1 / 3)
        assert h.fraction_0_to_100 == pytest.approx(2 / 3)

    def test_direct_rows_excluded(self):
        s = TraceStore([rec(via=None), rec(selected_mbps=2.0)])
        assert improvement_histogram(s).n_points == 1

    def test_mass_sums_to_100(self):
        s = TraceStore([rec() for _ in range(10)])
        h = improvement_histogram(s)
        assert h.percentages.sum() == pytest.approx(100.0)

    def test_peak_bin(self):
        s = TraceStore([rec(selected_mbps=1.5) for _ in range(5)])
        lo, hi = improvement_histogram(s).peak_bin()
        assert lo <= 50.0 < hi

    def test_peak_bin_empty_raises(self):
        with pytest.raises(ValueError):
            improvement_histogram(TraceStore()).peak_bin()

    def test_campaign_shape(self, section2_store):
        """The simulated Fig. 1 lands in the paper's reported bands."""
        h = improvement_histogram(section2_store)
        assert 25.0 <= h.mean <= 65.0          # paper: 49%
        assert 20.0 <= h.median <= 50.0        # paper: 37%
        assert 0.01 <= h.fraction_negative <= 0.22   # paper: ~12%
        assert h.fraction_0_to_100 >= 0.65     # paper: 84%


class TestPerClient:
    def test_all_clients_present(self):
        s = TraceStore([rec(client="A"), rec(client="B")])
        hists = per_client_histograms(s)
        assert set(hists) == {"A", "B"}

    def test_explicit_client_list(self):
        s = TraceStore([rec(client="A")])
        hists = per_client_histograms(s, clients=["A", "Ghost"])
        assert hists["Ghost"].n_points == 0

    def test_labels(self):
        s = TraceStore([rec(client="A")])
        assert per_client_histograms(s)["A"].label == "A"


class TestImprovementVsThroughput:
    def build(self):
        rows = []
        # Inverse relation: improvement falls as direct throughput rises.
        for d, i in [(0.5, 200.0), (1.0, 100.0), (2.0, 40.0), (4.0, 5.0)]:
            sel = d * (1 + i / 100.0)
            rows.extend(rec(direct_mbps=d, selected_mbps=sel) for _ in range(3))
        return TraceStore(rows)

    def test_downward_slope(self):
        panel = improvement_vs_throughput(self.build())
        assert panel.is_downward
        assert panel.slope < -20.0

    def test_binned_means_monotone(self):
        centres, means = improvement_vs_throughput(self.build()).binned_means(4)
        assert list(means) == sorted(means, reverse=True)

    def test_filter_by_client_and_relay(self):
        s = TraceStore(
            [rec(client="A", via="R1"), rec(client="B", via="R2")]
        )
        panel = improvement_vs_throughput(s, client="A")
        assert panel.direct_mbps.size == 1
        panel2 = improvement_vs_throughput(s, relay="R2")
        assert panel2.direct_mbps.size == 1

    def test_empty_panel(self):
        panel = improvement_vs_throughput(TraceStore())
        assert panel.slope == 0.0
        c, m = panel.binned_means()
        assert c.size == 0 and m.size == 0

    def test_degenerate_single_x(self):
        s = TraceStore([rec(), rec()])
        panel = improvement_vs_throughput(s)
        assert panel.slope == 0.0

    def test_campaign_trend_is_downward(self, section2_store):
        """Paper Fig. 3: improvement inversely related to client throughput."""
        panel = improvement_vs_throughput(section2_store)
        assert panel.is_downward
