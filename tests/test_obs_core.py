"""repro.obs.core tests: registry arithmetic, spans, determinism, env gating."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.core import (
    DEFAULT_TRACK,
    Histogram,
    Observer,
    ObsRecord,
    global_observer,
    observe_enabled_from_env,
    reset_global_observer,
    shard_directory_from_env,
)


#: Bucket edges, and values that sit on them, straddle them or break them.
_EDGES = (-1.0, 0.0, 1e-3, 1.0, 10.0)
_VALUES = st.one_of(
    st.sampled_from(
        [-1.0, 0.0, -0.0, 1e-3, 1.0, 10.0, float("inf"), float("-inf"), float("nan")]
    ),
    st.floats(-20.0, 20.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
_FIELDS = ("counts", "total", "sum", "min", "max")


class TestEnvGating:
    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "TRUE", "On"])
    def test_truthy_values(self, value):
        assert observe_enabled_from_env({"REPRO_OBS": value})

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no", "2"])
    def test_falsy_values(self, value):
        assert not observe_enabled_from_env({"REPRO_OBS": value})

    def test_unset(self):
        assert not observe_enabled_from_env({})

    def test_shard_directory(self):
        assert shard_directory_from_env({}) is None
        assert shard_directory_from_env({"REPRO_OBS_DIR": "/tmp/x"}) == "/tmp/x"
        assert shard_directory_from_env({"REPRO_OBS_DIR": ""}) is None


class TestCounters:
    def test_count_accumulates(self):
        obs = Observer()
        obs.count("a")
        obs.count("a", 2.0)
        assert obs.counter("a") == 3.0
        assert obs.counter("missing") == 0.0

    def test_gauge_last_wins_gauge_max_keeps_peak(self):
        obs = Observer()
        obs.gauge("depth", 5.0)
        obs.gauge("depth", 2.0)
        obs.gauge_max("peak", 5.0)
        obs.gauge_max("peak", 2.0)
        assert obs.gauges["depth"] == 2.0
        assert obs.gauges["peak"] == 5.0


class TestHistogram:
    def test_observe_and_mean(self):
        h = Histogram(bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.total == 3
        assert h.mean == pytest.approx(55.5 / 3)
        assert h.min == 0.5 and h.max == 50.0

    def test_quantile_clamped_to_observed_range(self):
        h = Histogram(bounds=(1.0, 10.0, 100.0))
        for v in (2.0, 3.0, 4.0):
            h.observe(v)
        assert h.quantile(0.0) >= h.min
        assert h.quantile(1.0) <= h.max

    def test_empty_quantile_and_mean(self):
        h = Histogram()
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(5.0, 1.0))

    def test_merge_requires_matching_bounds(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge_in(b)

    def test_merge_sums_buckets_and_extremes(self):
        a = Histogram(bounds=(1.0, 10.0))
        b = Histogram(bounds=(1.0, 10.0))
        a.observe(0.5)
        b.observe(20.0)
        a.merge_in(b)
        assert a.total == 2
        assert a.min == 0.5 and a.max == 20.0

    def test_dict_roundtrip(self):
        h = Histogram(bounds=(1.0, 10.0))
        h.observe(3.0)
        again = Histogram.from_dict(h.to_dict())
        assert again.to_dict() == h.to_dict()

    def test_observer_observe_value(self):
        obs = Observer()
        obs.observe_value("wait", 0.5)
        obs.observe_value("wait", 1.5)
        assert obs.histograms["wait"].total == 2

    @settings(max_examples=300, deadline=None)
    @given(
        before=st.lists(_VALUES, max_size=3),
        values=st.lists(_VALUES, max_size=40),
    )
    def test_observe_many_equals_a_loop_of_observe(self, before, values):
        looped = Histogram(bounds=_EDGES)
        columnar = Histogram(bounds=_EDGES)
        for v in before:
            looped.observe(v)
            columnar.observe(v)
        for v in values:
            looped.observe(v)
        columnar.observe_many(values)
        # repr tells -0.0 from 0.0 and compares NaN as text.
        assert [repr(getattr(columnar, f)) for f in _FIELDS] == [
            repr(getattr(looped, f)) for f in _FIELDS
        ]

    def test_observer_observe_values(self):
        columnar = Observer()
        columnar.observe_values("wait", [0.5, 1.5])
        columnar.observe_values("wait", [3.0])
        looped = Observer()
        for v in (0.5, 1.5, 3.0):
            looped.observe_value("wait", v)
        hist = columnar.histograms["wait"]
        assert hist.bounds == looped.histograms["wait"].bounds
        assert [getattr(hist, f) for f in _FIELDS] == [
            getattr(looped.histograms["wait"], f) for f in _FIELDS
        ]


class TestSpans:
    def test_span_records_are_ordered_and_sequenced(self):
        obs = Observer()
        obs.span("tick", "epoch", 1.0, 2.0)
        obs.event("probe", "selection", 1.5, winner="direct")
        records = obs.records
        assert [r.kind for r in records] == ["span", "event"]
        assert records[0].seq == 0 and records[1].seq == 1
        assert records[0].track == DEFAULT_TRACK
        assert records[1].args == {"winner": "direct"}
        assert sorted(records, key=lambda r: r.sort_key)[0].name == "epoch"

    def test_identical_runs_identical_records(self):
        def run():
            obs = Observer()
            obs.span("tick", "epoch", 0.0, 1.0, flows=2)
            obs.event("probe", "selection", 0.5, winner="w")
            return [r.to_dict() for r in obs.records]

        assert run() == run()

    def test_record_cap_drops_and_counts(self):
        obs = Observer(max_records=2)
        for i in range(5):
            obs.span("tick", "epoch", float(i), float(i) + 1.0)
        assert len(obs.records) == 2
        assert obs.dropped == 3

    def test_record_dict_roundtrip(self):
        rec = ObsRecord(
            kind="span",
            category="tick",
            name="epoch",
            start=1.0,
            end=2.0,
            seq=7,
            track="worker-1",
            args={"flows": 3},
        )
        again = ObsRecord.from_dict(rec.to_dict())
        assert again.to_dict() == rec.to_dict()
        assert again.duration == 1.0

    def test_span_summary_shape(self):
        obs = Observer()
        obs.span("tick", "epoch", 0.0, 2.0)
        obs.span("tick", "epoch", 2.0, 3.0)
        obs.event("probe", "selection", 1.0)
        summary = obs.span_summary()
        assert summary["spans"]["tick"] == {"count": 2, "total_time": 3.0}
        assert summary["events"] == 1
        assert summary["dropped"] == 0

    def test_has_data(self):
        obs = Observer()
        assert not obs.has_data
        obs.count("x")
        assert obs.has_data


class TestGlobalObserver:
    @pytest.fixture(autouse=True)
    def _clean(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        reset_global_observer()
        yield
        reset_global_observer()

    def test_disabled_by_default(self):
        assert global_observer() is None

    def test_env_enables_creation(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        obs = global_observer()
        assert obs is not None
        assert global_observer() is obs  # memoised

    def test_create_true_forces(self):
        obs = global_observer(create=True)
        assert obs is not None
        assert global_observer(create=False) is obs

    def test_create_false_never_creates(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        assert global_observer(create=False) is None

    def test_install_and_reset(self):
        mine = global_observer(create=True)
        assert global_observer(create=False) is mine
        reset_global_observer()
        assert global_observer(create=False) is None
