"""repro.obs.export tests: JSONL round-trip, merge, Chrome trace, Prometheus."""

import json

import pytest

from repro.obs.core import Histogram, Observer
from repro.obs.export import ObsTrace, validate_chrome_trace


def make_observer(track="main", offset=0.0):
    obs = Observer(track=track)
    obs.count("engine.ticks", 3.0)
    obs.gauge("sim.queue_depth", 4.0)
    obs.observe_value("runner.queue_wait_seconds", 0.25)
    obs.span("tick", "fluid-epoch", offset + 0.0, offset + 1.0, flows=2)
    obs.span("probe", "probe:direct", offset + 0.5, offset + 1.5)
    obs.event("probe", "selection", offset + 1.5, winner="direct")
    return obs


class TestJsonlRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        trace = ObsTrace.from_observer(make_observer())
        path = tmp_path / "t.obs.jsonl"
        trace.save_jsonl(str(path))
        loaded = ObsTrace.load_jsonl(str(path))
        assert loaded.counters == trace.counters
        assert loaded.gauges == trace.gauges
        assert [r.to_dict() for r in loaded.records] == [
            r.to_dict() for r in trace.records
        ]
        assert (
            loaded.histograms["runner.queue_wait_seconds"].to_dict()
            == trace.histograms["runner.queue_wait_seconds"].to_dict()
        )

    def test_save_is_byte_stable(self, tmp_path):
        trace = ObsTrace.from_observer(make_observer())
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        trace.save_jsonl(str(a))
        trace.save_jsonl(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "t.obs.jsonl"
        ObsTrace.from_observer(make_observer()).save_jsonl(str(path))
        text = path.read_text()
        path.write_text(text + '{"type": "span", "cat": "ti')  # killed worker
        loaded = ObsTrace.load_jsonl(str(path))
        assert len(loaded.records) == 3

    def test_corrupt_mid_file_raises(self, tmp_path):
        path = tmp_path / "t.obs.jsonl"
        ObsTrace.from_observer(make_observer()).save_jsonl(str(path))
        lines = path.read_text().splitlines()
        lines[1] = "{garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            ObsTrace.load_jsonl(str(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ObsTrace.load_jsonl(str(tmp_path / "absent.jsonl"))


class TestMerge:
    def test_merge_shards(self):
        a = ObsTrace.from_observer(make_observer(track="worker-0"))
        b = ObsTrace.from_observer(make_observer(track="worker-1", offset=10.0))
        merged = ObsTrace.merge([a, b])
        assert merged.counters["engine.ticks"] == 6.0
        assert merged.histograms["runner.queue_wait_seconds"].total == 2
        assert len(merged.records) == 6
        # Records come out globally ordered by (start, track, seq).
        starts = [r.start for r in merged.records]
        assert starts == sorted(starts)

    def test_merge_gauges_keep_max(self):
        a = Observer()
        b = Observer()
        a.gauge("sim.queue_high_water", 7.0)
        b.gauge("sim.queue_high_water", 3.0)
        merged = ObsTrace.merge(
            [ObsTrace.from_observer(a), ObsTrace.from_observer(b)]
        )
        assert merged.gauges["sim.queue_high_water"] == 7.0


class TestChromeTrace:
    def test_valid_and_loads_as_json(self):
        merged = ObsTrace.merge(
            [
                ObsTrace.from_observer(make_observer(track="worker-0")),
                ObsTrace.from_observer(make_observer(track="worker-1", offset=5.0)),
            ]
        )
        data = merged.to_chrome()
        assert validate_chrome_trace(data) == []
        again = json.loads(json.dumps(data))
        events = again["traceEvents"]
        # One metadata record per track, stable tid assignment.
        meta = [e for e in events if e["ph"] == "M"]
        assert [m["args"]["name"] for m in meta] == ["worker-0", "worker-1"]
        assert [m["tid"] for m in meta] == [1, 2]
        spans = [e for e in events if e["ph"] == "X"]
        assert all("ts" in s and "dur" in s for s in spans)
        # Sim-seconds become microseconds.
        first = min(spans, key=lambda s: s["ts"])
        assert first["ts"] == 0.0 and first["dur"] == 1_000_000.0
        instants = [e for e in events if e["ph"] == "i"]
        assert all(e["s"] == "t" for e in instants)

    def test_validator_rejects_malformed(self):
        assert validate_chrome_trace({"no": "traceEvents"})
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "Z", "pid": 1, "tid": 1, "name": "x"}]}
        )
        # A complete span without ts/dur is semantically invalid.
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "name": "x"}]}
        )


class TestPrometheus:
    def test_text_format(self):
        text = ObsTrace.from_observer(make_observer()).to_prometheus()
        assert "# TYPE repro_engine_ticks counter" in text
        assert "repro_engine_ticks 3" in text
        assert "# TYPE repro_sim_queue_depth gauge" in text
        assert "# TYPE repro_runner_queue_wait_seconds histogram" in text
        assert 'repro_runner_queue_wait_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_runner_queue_wait_seconds_count 1" in text

    def test_histogram_buckets_are_cumulative(self):
        obs = Observer()
        for v in (0.5, 5.0, 5.0, 50.0):
            obs.observe_value("session.duration", v)
        assert ObsTrace.from_observer(obs).to_prometheus() == (
            "# TYPE repro_session_duration histogram\n"
            'repro_session_duration_bucket{le="1e-06"} 0\n'
            'repro_session_duration_bucket{le="1e-05"} 0\n'
            'repro_session_duration_bucket{le="0.0001"} 0\n'
            'repro_session_duration_bucket{le="0.001"} 0\n'
            'repro_session_duration_bucket{le="0.01"} 0\n'
            'repro_session_duration_bucket{le="0.1"} 0\n'
            'repro_session_duration_bucket{le="1"} 1\n'
            'repro_session_duration_bucket{le="10"} 3\n'
            'repro_session_duration_bucket{le="100"} 4\n'
            'repro_session_duration_bucket{le="1000"} 4\n'
            'repro_session_duration_bucket{le="+Inf"} 4\n'
            "repro_session_duration_sum 60.5\n"
            "repro_session_duration_count 4\n"
        )


class TestSummarize:
    def test_mentions_spans_counters_histograms(self):
        text = ObsTrace.from_observer(make_observer()).summarize()
        assert "3 records" in text
        assert "tick" in text and "probe" in text
        assert "engine.ticks" in text
        assert "runner.queue_wait_seconds" in text

    def test_empty_trace(self):
        text = ObsTrace.from_observer(Observer()).summarize()
        assert "0 records" in text


class TestMergeTieBreak:
    def test_equal_sort_keys_keep_shard_order(self):
        # Two shards on the *same* track emit records with identical
        # (start, track, seq): the stable sort must preserve the order the
        # shards were merged in.
        a, b = Observer(), Observer()
        a.span("tick", "from-shard-a", 1.0, 2.0)
        b.span("tick", "from-shard-b", 1.0, 2.0)
        ta, tb = ObsTrace.from_observer(a), ObsTrace.from_observer(b)
        assert ta.records[0].sort_key == tb.records[0].sort_key
        merged = ObsTrace.merge([ta, tb])
        assert [r.name for r in merged.records] == ["from-shard-a", "from-shard-b"]
        flipped = ObsTrace.merge([tb, ta])
        assert [r.name for r in flipped.records] == ["from-shard-b", "from-shard-a"]

    def test_distinct_tracks_order_by_track_on_time_tie(self):
        a = Observer(track="worker-1")
        b = Observer(track="worker-0")
        a.span("tick", "x", 1.0, 2.0)
        b.span("tick", "x", 1.0, 2.0)
        merged = ObsTrace.merge(
            [ObsTrace.from_observer(a), ObsTrace.from_observer(b)]
        )
        assert [r.track for r in merged.records] == ["worker-0", "worker-1"]


class TestHistogramQuantileEdges:
    def _hist(self, *samples):
        h = Histogram([1.0, 10.0, 100.0])
        for s in samples:
            h.observe(s)
        return h

    def test_empty_histogram_quantile_is_zero(self):
        h = self._hist()
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == 0.0

    def test_q0_and_q1_edges(self):
        h = self._hist(0.5, 5.0, 50.0)
        # q=0 is the first bucket's upper edge, clamped up to the min...
        assert h.quantile(0.0) == 1.0
        # ...and q=1 is the last occupied edge, clamped down to the max.
        assert h.quantile(1.0) == 50.0

    def test_q0_clamps_up_to_observed_min(self):
        h = self._hist(5.0, 50.0)  # first bucket (<= 1.0) is empty
        assert h.quantile(0.0) == 5.0

    def test_single_sample_all_quantiles_collapse(self):
        h = self._hist(7.0)
        assert h.quantile(0.0) == h.quantile(0.5) == h.quantile(1.0) == 7.0

    def test_quantile_clamped_to_observed_range(self):
        # Bucket-edge estimates can exceed the true extremes; the clamp to
        # [min, max] keeps them honest.
        h = self._hist(2.0, 3.0)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert 2.0 <= h.quantile(q) <= 3.0

    def test_out_of_range_q_rejected(self):
        h = self._hist(1.0)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)
