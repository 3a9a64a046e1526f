"""Classification and Table I penalty-statistics tests."""

import pytest

from repro.analysis.classify import classify_clients
from repro.analysis.penalties import penalty_table
from repro.trace.records import TransferRecord
from repro.trace.store import TraceStore
from repro.util.units import mbps_to_bytes_per_s
from repro.workloads.profiles import ThroughputClass


def rec(client, direct_mbps, selected_mbps, via="R", rep=0):
    direct = mbps_to_bytes_per_s(direct_mbps)
    selected = mbps_to_bytes_per_s(selected_mbps)
    return TransferRecord(
        study="t",
        client=client,
        site="eBay",
        repetition=rep,
        start_time=float(rep),
        set_size=1 if via else 0,
        offered=(via,) if via else (),
        selected_via=via,
        direct_throughput=direct,
        selected_throughput=selected,
        end_to_end_throughput=selected,
        probe_overhead=0.0,
        file_bytes=1e6,
    )


class TestClassify:
    def test_classes_from_mean_direct(self):
        s = TraceStore(
            [
                rec("slow", 0.5, 1.0),
                rec("mid", 2.0, 2.0),
                rec("fast", 9.0, 5.0),
            ]
        )
        profiles = classify_clients(s)
        assert profiles["slow"].throughput_class is ThroughputClass.LOW
        assert profiles["mid"].throughput_class is ThroughputClass.MEDIUM
        assert profiles["fast"].throughput_class is ThroughputClass.HIGH

    def test_boundaries(self):
        assert ThroughputClass.classify(mbps_to_bytes_per_s(1.49)) is ThroughputClass.LOW
        assert ThroughputClass.classify(mbps_to_bytes_per_s(1.5)) is ThroughputClass.MEDIUM
        assert ThroughputClass.classify(mbps_to_bytes_per_s(3.0)) is ThroughputClass.HIGH

    def test_variability_flag(self):
        stable = [rec("st", 1.0, 1.0, rep=i) for i in range(10)]
        wobble = [rec("wb", 1.0 if i % 2 else 4.0, 1.0, rep=i) for i in range(10)]
        profiles = classify_clients(TraceStore(stable + wobble))
        assert not profiles["st"].high_variability
        assert profiles["wb"].high_variability

    def test_cv_threshold_validated(self):
        with pytest.raises(ValueError):
            classify_clients(TraceStore(), cv_threshold=0.0)

    def test_is_med_or_low(self):
        s = TraceStore([rec("fast", 9.0, 5.0), rec("slow", 1.0, 1.0)])
        profiles = classify_clients(s)
        assert not profiles["fast"].is_med_or_low
        assert profiles["slow"].is_med_or_low


class TestPenaltyTable:
    def build_store(self):
        rows = []
        # Stable low client: wins only.
        for i in range(10):
            rows.append(rec("low-stable", 1.0, 1.5, rep=i))
        # High-throughput client with big penalties.
        for i in range(10):
            sel = 1.0 if i < 4 else 6.0
            rows.append(rec("high-var", 5.0 if i % 2 else 9.0, sel, rep=i))
        # Medium client with mild variability and one mild penalty.
        for i in range(10):
            direct = 2.0 if i % 2 else 3.5
            sel = 2.2 if i != 0 else 1.8
            rows.append(rec("med-wobble", direct, sel, rep=i))
        return TraceStore(rows)

    def test_three_rows(self):
        rows = penalty_table(self.build_store())
        assert [r.label for r in rows] == ["All", "Med/Low Throughput", "Low Variability"]

    def test_filters_monotone(self):
        rows = penalty_table(self.build_store())
        assert rows[0].penalty_fraction >= rows[1].penalty_fraction >= rows[2].penalty_fraction
        assert rows[0].avg_penalty >= rows[1].avg_penalty >= rows[2].avg_penalty

    def test_all_row_counts_indirect_points(self):
        rows = penalty_table(self.build_store())
        assert rows[0].n_points == 30  # all transfers used the indirect path

    def test_penalty_magnitude_definition(self):
        # direct 9, selected 1 -> penalty (9-1)/1 = 800%.
        s = TraceStore([rec("c", 9.0, 1.0)])
        row = penalty_table(s)[0]
        assert row.max_penalty == pytest.approx(800.0)

    def test_no_penalties(self):
        s = TraceStore([rec("c", 1.0, 2.0, rep=i) for i in range(5)])
        row = penalty_table(s)[0]
        assert row.penalty_fraction == 0.0
        assert row.avg_penalty == 0.0

    def test_percent_property(self):
        rows = penalty_table(self.build_store())
        assert rows[0].penalty_points_percent == pytest.approx(
            100.0 * rows[0].penalty_fraction
        )


class TestPenaltyTableOnCampaign:
    """Shape checks against the simulated §2 campaign."""

    def test_filtering_reduces_penalties(self, section2_store):
        rows = penalty_table(section2_store)
        # The paper's monotone story: each filter strictly helps (or ties).
        assert rows[1].penalty_fraction <= rows[0].penalty_fraction + 1e-9
        assert rows[2].penalty_fraction <= rows[1].penalty_fraction + 1e-9

    def test_population_shrinks(self, section2_store):
        rows = penalty_table(section2_store)
        assert rows[0].n_points >= rows[1].n_points >= rows[2].n_points
