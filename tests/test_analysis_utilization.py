"""Table II / Fig. 5 / Table III utilisation analysis tests."""

import math

import pytest

from repro.analysis.utilization import (
    client_relay_utilization,
    overall_average_utilization,
    top_relays_per_client,
    total_utilization_stats,
    utilization_improvement_correlation,
    utilization_vs_improvement,
)
from repro.trace.records import TransferRecord
from repro.trace.store import TraceStore


def rec(client, offered, chosen, rep=0, direct=100.0, selected=150.0):
    return TransferRecord(
        study="t",
        client=client,
        site="eBay",
        repetition=rep,
        start_time=float(rep),
        set_size=len(offered),
        offered=tuple(offered),
        selected_via=chosen,
        direct_throughput=direct,
        selected_throughput=selected,
        end_to_end_throughput=selected,
        probe_overhead=0.0,
        file_bytes=1e6,
    )


class TestClientRelayUtilization:
    def test_win_rates(self):
        s = TraceStore(
            [
                rec("A", ["R1"], "R1"),
                rec("A", ["R1"], None, rep=1),
                rec("A", ["R2"], "R2", rep=2),
            ]
        )
        util = client_relay_utilization(s)
        assert util[("A", "R1")] == pytest.approx(0.5)
        assert util[("A", "R2")] == pytest.approx(1.0)

    def test_multi_relay_offers_counted(self):
        s = TraceStore([rec("A", ["R1", "R2"], "R1")])
        util = client_relay_utilization(s)
        assert util[("A", "R1")] == 1.0
        assert util[("A", "R2")] == 0.0


class TestTopRelays:
    def test_sorted_descending(self):
        s = TraceStore(
            [rec("A", ["R1"], "R1", rep=i) for i in range(4)]
            + [rec("A", ["R2"], "R2" if i < 2 else None, rep=10 + i) for i in range(4)]
            + [rec("A", ["R3"], None, rep=20 + i) for i in range(4)]
        )
        top = top_relays_per_client(s, top=3)["A"]
        assert [r for r, _ in top] == ["R1", "R2", "R3"]
        assert top[0][1] == pytest.approx(1.0)
        assert top[1][1] == pytest.approx(0.5)

    def test_top_k_truncation(self):
        s = TraceStore([rec("A", [f"R{i}"], f"R{i}", rep=i) for i in range(5)])
        assert len(top_relays_per_client(s, top=3)["A"]) == 3

    def test_min_offers_filter(self):
        s = TraceStore(
            [rec("A", ["R1"], "R1")]
            + [rec("A", ["R2"], "R2", rep=1 + i) for i in range(3)]
        )
        top = top_relays_per_client(s, min_offers=2)["A"]
        assert [r for r, _ in top] == ["R2"]

    def test_campaign_overlap_of_top_relays(self, section2_store):
        """Paper Table II: top relays overlap heavily across clients."""
        top = top_relays_per_client(section2_store, top=3)
        all_top = [r for relays in top.values() for r, _ in relays]
        distinct = len(set(all_top))
        # 22 clients x 3 slots = 66 entries drawn from 21 relays; heavy
        # overlap means far fewer distinct relays than entries.
        assert distinct < len(all_top) / 2


class TestTotalUtilization:
    def test_fig5_moments(self):
        s = TraceStore(
            [
                rec("A", ["R1"], "R1"),
                rec("B", ["R1"], None),
            ]
        )
        stats = total_utilization_stats(s)["R1"]
        assert stats.n_clients == 2
        assert stats.average == pytest.approx(0.5)
        assert stats.stdev == pytest.approx(0.5)
        assert stats.rms == pytest.approx(math.sqrt(0.5))

    def test_overall_average(self):
        s = TraceStore(
            [rec("A", ["R1"], "R1"), rec("A", ["R2"], None)]
        )
        assert overall_average_utilization(s) == pytest.approx(0.5)

    def test_overall_average_empty(self):
        assert math.isnan(overall_average_utilization(TraceStore()))

    def test_campaign_average_near_paper(self, section2_store):
        """Paper §3.4: average utilisation across relays ~45%."""
        avg = overall_average_utilization(section2_store)
        assert 0.30 <= avg <= 0.60


class TestTableIII:
    def build(self):
        rows = []
        # R1 offered 4x, chosen 3x with good improvements.
        for i in range(4):
            chosen = "R1" if i < 3 else None
            rows.append(rec("Duke", ["R1", "R2"], chosen, rep=i, selected=180.0))
        # R2 offered 4x (above), chosen once with meh improvement.
        rows.append(rec("Duke", ["R2"], "R2", rep=10, selected=105.0))
        return TraceStore(rows)

    def test_rows_sorted_by_utilization(self):
        rows = utilization_vs_improvement(self.build(), "Duke")
        assert rows[0].relay == "R1"
        assert rows[0].utilization_percent == pytest.approx(75.0)
        assert rows[1].relay == "R2"
        assert rows[1].utilization_percent == pytest.approx(20.0)

    def test_improvement_only_when_chosen(self):
        rows = utilization_vs_improvement(self.build(), "Duke")
        r2 = rows[1]
        assert r2.mean_improvement_percent == pytest.approx(5.0)

    def test_zero_utilization_dropped_by_default(self):
        s = TraceStore([rec("Duke", ["R1", "R9"], "R1")])
        rows = utilization_vs_improvement(s, "Duke")
        assert [r.relay for r in rows] == ["R1"]

    def test_zero_utilization_included_on_request(self):
        s = TraceStore([rec("Duke", ["R1", "R9"], "R1")])
        rows = utilization_vs_improvement(s, "Duke", include_zero_utilization=True)
        assert {r.relay for r in rows} == {"R1", "R9"}
        r9 = next(r for r in rows if r.relay == "R9")
        assert math.isnan(r9.mean_improvement_percent)

    def test_correlation(self):
        rows = utilization_vs_improvement(self.build(), "Duke")
        corr = utilization_improvement_correlation(rows)
        assert corr > 0.99  # two points, increasing

    def test_correlation_degenerate(self):
        assert math.isnan(utilization_improvement_correlation([]))

    def test_campaign_correlation_positive(self, section4_store):
        """Paper Table III: utilisation correlates with improvement."""
        rows = utilization_vs_improvement(section4_store, "Duke")
        corr = utilization_improvement_correlation(rows)
        assert corr > 0.0
