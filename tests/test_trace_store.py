"""TransferRecord and TraceStore tests, including persistence round-trips."""

import numpy as np
import pytest

from repro.trace.records import TransferRecord
from repro.trace.store import TraceStore


def record(**kw):
    defaults = dict(
        study="s",
        client="Italy",
        site="eBay",
        repetition=0,
        start_time=0.0,
        set_size=1,
        offered=("Texas",),
        selected_via="Texas",
        direct_throughput=100_000.0,
        selected_throughput=150_000.0,
        end_to_end_throughput=140_000.0,
        probe_overhead=1.0,
        file_bytes=4e6,
        direct_class="low",
        direct_variability="low",
    )
    defaults.update(kw)
    return TransferRecord(**defaults)


class TestRecordMetrics:
    def test_improvement(self):
        assert record().improvement == pytest.approx(0.5)
        assert record().improvement_percent == pytest.approx(50.0)

    def test_direct_selection_improvement(self):
        r = record(selected_via=None, selected_throughput=100_000.0)
        assert r.improvement == pytest.approx(0.0)
        assert not r.used_indirect

    def test_penalty_detection(self):
        r = record(selected_throughput=50_000.0)
        assert r.is_penalty
        assert r.penalty_percent == pytest.approx(100.0)

    def test_no_penalty_when_direct_selected(self):
        r = record(selected_via=None, selected_throughput=50_000.0)
        assert not r.is_penalty
        assert r.penalty_percent == 0.0

    def test_penalty_zero_when_improved(self):
        assert record().penalty_percent == 0.0

    def test_selected_must_be_offered(self):
        with pytest.raises(ValueError, match="not in offered"):
            record(selected_via="Nope")

    def test_throughputs_validated(self):
        with pytest.raises(ValueError):
            record(direct_throughput=0.0)
        with pytest.raises(ValueError):
            record(selected_throughput=-5.0)

    def test_dict_round_trip(self):
        r = record()
        assert TransferRecord.from_dict(r.to_dict()) == r


class TestStoreBasics:
    def test_append_and_len(self):
        s = TraceStore()
        s.append(record())
        assert len(s) == 1
        assert s[0].client == "Italy"

    def test_type_checked(self):
        with pytest.raises(TypeError):
            TraceStore().append("not a record")  # type: ignore[arg-type]

    def test_extend_and_iter(self):
        s = TraceStore([record(repetition=i) for i in range(3)])
        assert [r.repetition for r in s] == [0, 1, 2]

    def test_records_copy(self):
        s = TraceStore([record()])
        s.records.clear()
        assert len(s) == 1


class TestQuerying:
    def make(self):
        return TraceStore(
            [
                record(client="Italy", selected_via="Texas"),
                record(client="Italy", selected_via=None),
                record(client="Sweden", selected_via="Texas", selected_throughput=90_000.0),
            ]
        )

    def test_filter_by_attribute(self):
        assert len(self.make().filter(client="Italy")) == 2

    def test_filter_by_property(self):
        assert len(self.make().filter(used_indirect=True)) == 2

    def test_where_predicate(self):
        assert len(self.make().where(lambda r: r.is_penalty)) == 1

    def test_column(self):
        col = self.make().column("direct_throughput")
        assert isinstance(col, np.ndarray)
        assert col.shape == (3,)

    def test_unique_handles_none(self):
        got = self.make().unique("selected_via")
        assert got == ["Texas", None]

    def test_group_by(self):
        groups = self.make().group_by("client")
        assert set(groups) == {"Italy", "Sweden"}
        assert len(groups["Italy"]) == 2


class TestSortKeyAndMerge:
    def campaign(self):
        """Records covering every sort-key coordinate, in canonical order."""
        rows = []
        for client in ("Italy", "Sweden"):
            for size in (1, 2):
                for rep in (0, 1):
                    rows.append(
                        record(
                            client=client,
                            set_size=size,
                            repetition=rep,
                            start_time=rep * 360.0,
                            offered=("Texas", "Utah")[:size],
                            selected_via="Texas",
                        )
                    )
        return rows

    def test_sort_key_orders_campaign_coordinates(self):
        rows = self.campaign()
        assert sorted(rows, key=lambda r: r.sort_key) == rows



class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        s = TraceStore([record(repetition=i) for i in range(5)])
        path = tmp_path / "t.jsonl"
        s.save_jsonl(path)
        loaded = TraceStore.load_jsonl(path)
        assert loaded.records == s.records

    def test_empty_round_trips(self, tmp_path):
        s = TraceStore()
        s.save_jsonl(tmp_path / "e.jsonl")
        assert len(TraceStore.load_jsonl(tmp_path / "e.jsonl")) == 0

    def test_jsonl_is_line_oriented(self, tmp_path):
        s = TraceStore([record(), record()])
        path = tmp_path / "t.jsonl"
        s.save_jsonl(path)
        assert len(path.read_text().strip().splitlines()) == 2

    def test_jsonl_append_accumulates_shards(self, tmp_path):
        """append=True + a final sort equals saving the whole store at once."""
        rows = [record(repetition=i) for i in range(6)]
        path = tmp_path / "acc.jsonl"
        TraceStore(rows[4:]).save_jsonl(path)
        TraceStore(rows[:2]).save_jsonl(path, append=True)
        TraceStore(rows[2:4]).save_jsonl(path, append=True)
        merged = sorted(TraceStore.load_jsonl(path), key=lambda r: r.sort_key)
        assert merged == rows

    def test_jsonl_default_truncates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        TraceStore([record(repetition=0)]).save_jsonl(path)
        TraceStore([record(repetition=1)]).save_jsonl(path)
        loaded = TraceStore.load_jsonl(path)
        assert [r.repetition for r in loaded] == [1]
