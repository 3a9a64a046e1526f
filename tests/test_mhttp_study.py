"""mHTTP study tests: records, planner, runner dispatch, and analysis."""

import math

import pytest

from repro.analysis.availability import (
    stripe_degradation_by_k,
    stripe_degradation_stats,
)
from repro.analysis.mhttp import (
    mhttp_cells,
    render_mhttp,
    stripe_p99_advantage,
)
from repro.core.resilience import RecoveryEvent
from repro.runner.plan import WorkUnit
from repro.runner.pool import run_unit
from repro.trace.records import StripeRecord, TransferRecord
from repro.trace.store import TraceStore
from repro.workloads.mhttp import (
    MhttpStudyParams,
    mhttp_outage_plan,
    parse_mhttp_variant,
    plan_mhttp,
)


def _record(**overrides):
    base = dict(
        study="mhttp",
        client="Italy",
        site="eBay",
        repetition=0,
        start_time=0.0,
        set_size=1,
        offered=("R1",),
        selected_via=None,
        direct_throughput=100_000.0,
        selected_throughput=200_000.0,
        end_to_end_throughput=200_000.0,
        probe_overhead=0.0,
        file_bytes=8_000_000.0,
        mechanism="stripe",
        stripe_k=2,
        failure_mode="none",
        outcome="completed",
        bytes_received=8_000_000.0,
        direct_duration=80.0,
        selected_duration=40.0,
    )
    base.update(overrides)
    return StripeRecord(**base)


class TestStripeRecord:
    def test_round_trip_via_registry(self):
        rec = _record(
            wasted_bytes=500_000.0,
            n_reissues=2,
            bytes_by_path=(("direct", 3_000_000.0), ("R1", 5_000_000.0)),
            recovery_events=(
                RecoveryEvent(
                    time=11.0, kind="path_dead", path="R1", bytes_received=2e6
                ),
                RecoveryEvent(
                    time=20.0, kind="reissue", path="direct",
                    bytes_received=5e6, detail=14.0,
                ),
            ),
        )
        d = rec.to_dict()
        assert d["record_type"] == "stripe"
        assert d["bytes_by_path"] == [["direct", 3_000_000.0], ["R1", 5_000_000.0]]
        back = TransferRecord.from_dict(d)
        assert isinstance(back, StripeRecord)
        assert back == rec

    def test_validation(self):
        with pytest.raises(ValueError):
            _record(mechanism="race")
        with pytest.raises(ValueError):
            _record(wasted_bytes=-1.0)
        with pytest.raises(ValueError):
            _record(mechanism="select", selected_via="R9")
        # Zero throughputs are legal (aborted rows).
        aborted = _record(
            outcome="aborted", selected_throughput=0.0, bytes_received=0.0
        )
        assert aborted.aborted and not aborted.degraded

    def test_derived_properties(self):
        rec = _record(wasted_bytes=800_000.0, bytes_received=4_000_000.0)
        assert rec.wasted_fraction == pytest.approx(0.1)
        assert rec.speedup == pytest.approx(2.0)
        assert math.isnan(_record(selected_duration=0.0).speedup)

    def test_sort_key_separates_mechanisms(self):
        select = _record(mechanism="select", selected_via="R1")
        stripe = _record(mechanism="stripe")
        assert select.sort_key != stripe.sort_key
        assert select.sort_key[: len(TransferRecord.sort_key.fget(select))] == (
            TransferRecord.sort_key.fget(stripe)
        )


class TestVariantCodec:
    @pytest.mark.parametrize(
        "variant,expected",
        [
            ("select2+none", ("select", 2, "none")),
            ("stripe4+node", ("stripe", 4, "node")),
            ("stripe10+none", ("stripe", 10, "none")),
        ],
    )
    def test_parse(self, variant, expected):
        assert parse_mhttp_variant(variant) == expected

    @pytest.mark.parametrize(
        "variant",
        ["stripe+node", "stripe1+node", "race3+node", "stripe3+link", "stripe3"],
    )
    def test_rejects_malformed(self, variant):
        with pytest.raises(ValueError):
            parse_mhttp_variant(variant)


class TestPlanner:
    def test_grid_shape_and_dispatch_fields(self, section2_scenario):
        plan = plan_mhttp(
            section2_scenario,
            repetitions=2,
            interval=360.0,
            ks=(2, 3),
            clients=["Italy"],
        )
        # 2 slots x 2 ks x 2 mechanisms.
        assert len(plan) == 8
        assert [u.variant for u in plan.units] == [
            "select2+none",
            "stripe2+none",
            "select3+none",
            "stripe3+none",
            "select2+node",
            "stripe2+node",
            "select3+node",
            "stripe3+node",
        ]
        assert all(u.runner == "mhttp" for u in plan.units)
        # The k=2 primary relay prefixes every larger set in the same slot.
        assert plan.units[2].offered[0] == plan.units[0].offered[0]

    def test_fingerprint_stable_and_param_sensitive(self, section2_scenario):
        a = plan_mhttp(section2_scenario, repetitions=2, interval=360.0, ks=(2,))
        b = plan_mhttp(section2_scenario, repetitions=2, interval=360.0, ks=(2,))
        assert a.fingerprint() == b.fingerprint()
        c = plan_mhttp(
            section2_scenario,
            repetitions=2,
            interval=360.0,
            ks=(2,),
            params=MhttpStudyParams(window=3),
        )
        assert c.fingerprint() != a.fingerprint()

    def test_rejects_bad_widths(self, section2_scenario):
        with pytest.raises(ValueError):
            plan_mhttp(section2_scenario, repetitions=1, interval=360.0, ks=(1,))
        with pytest.raises(ValueError):
            plan_mhttp(section2_scenario, repetitions=1, interval=360.0, ks=(99,))

    def test_runner_field_hashed_only_when_present(self):
        plain = WorkUnit(
            index=0, study="s", client="c", site="x", repetition=0,
            start_time=0.0, offered=("R1",),
        )
        routed = WorkUnit(
            index=0, study="s", client="c", site="x", repetition=0,
            start_time=0.0, offered=("R1",), runner="mhttp",
        )
        assert plain.runner is None
        assert plain.unit_id != routed.unit_id

    def test_unknown_runner_rejected(self, section2_scenario):
        unit = WorkUnit(
            index=0, study="s", client="Italy", site="eBay", repetition=0,
            start_time=0.0, offered=("MIT",), runner="teleport",
        )
        with pytest.raises(ValueError):
            run_unit(section2_scenario, None, unit)


class TestOutagePlan:
    def test_none_mode_is_empty(self, section2_scenario):
        assert (
            mhttp_outage_plan(
                section2_scenario,
                MhttpStudyParams(),
                client="Italy",
                site="eBay",
                relay="MIT",
                mode="none",
                start_time=0.0,
            )
            == {}
        )

    def test_node_mode_hits_transfer_window_deterministically(
        self, section2_scenario
    ):
        params = MhttpStudyParams()
        kwargs = dict(
            client="Italy", site="eBay", relay="MIT", mode="node",
            start_time=720.0,
        )
        a = mhttp_outage_plan(section2_scenario, params, **kwargs)
        b = mhttp_outage_plan(section2_scenario, params, **kwargs)
        assert a and {k: [(o.start, o.duration) for o in v] for k, v in a.items()} == {
            k: [(o.start, o.duration) for o in v] for k, v in b.items()
        }
        for outages in a.values():
            (outage,) = outages
            assert 720.0 + params.crash_delay_min <= outage.start
            assert outage.start <= 720.0 + params.crash_delay_max
            assert outage.duration == params.crash_duration

    def test_unknown_mode_rejected(self, section2_scenario):
        with pytest.raises(ValueError):
            mhttp_outage_plan(
                section2_scenario,
                MhttpStudyParams(),
                client="Italy",
                site="eBay",
                relay="MIT",
                mode="link",
                start_time=0.0,
            )


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def tiny_campaign(self, section2_scenario):
        from repro.runner.pool import execute_plan

        plan = plan_mhttp(
            section2_scenario,
            repetitions=2,
            interval=360.0,
            ks=(2,),
            clients=["Italy"],
        )
        serial = execute_plan(plan, scenario=section2_scenario, jobs=1)
        return plan, serial.store

    def test_emits_one_stripe_record_per_unit(self, tiny_campaign):
        plan, store = tiny_campaign
        assert len(store) == len(plan)
        assert all(isinstance(r, StripeRecord) for r in store.records)
        mechanisms = {r.mechanism for r in store.records}
        assert mechanisms == {"select", "stripe"}

    def test_stripe_rows_carry_geometry(self, tiny_campaign):
        _plan, store = tiny_campaign
        for r in store.records:
            if r.mechanism == "stripe":
                assert r.stripe_k == 2 and r.n_blocks > 0
                assert sum(got for _l, got in r.bytes_by_path) == pytest.approx(
                    r.bytes_received
                )
            else:
                assert r.n_blocks == 0 and r.bytes_by_path == ()

    def test_parallel_execution_is_byte_identical(
        self, section2_scenario, tiny_campaign
    ):
        from repro.runner.pool import execute_plan

        plan, serial_store = tiny_campaign
        parallel = execute_plan(plan, scenario=section2_scenario, jobs=2)
        assert [r.to_dict() for r in parallel.store.records] == [
            r.to_dict() for r in serial_store.records
        ]

    def test_rows_round_trip_through_store(self, tiny_campaign, tmp_path):
        _plan, store = tiny_campaign
        path = tmp_path / "mhttp.jsonl"
        store.save_jsonl(str(path))
        loaded = TraceStore.load_jsonl(str(path))
        assert [r.to_dict() for r in loaded.records] == [
            r.to_dict() for r in store.records
        ]


class TestAnalysis:
    def _rows(self):
        rows = []
        for i, dur in enumerate([30.0, 35.0, 40.0, 90.0]):
            rows.append(
                _record(
                    repetition=i,
                    mechanism="select",
                    selected_via="R1",
                    failure_mode="node",
                    selected_duration=dur,
                )
            )
        for i, dur in enumerate([20.0, 22.0, 25.0, 30.0]):
            rows.append(
                _record(
                    repetition=i,
                    failure_mode="node",
                    selected_duration=dur,
                    wasted_bytes=400_000.0,
                    outcome="degraded" if i == 3 else "completed",
                    n_path_failures=1 if i == 3 else 0,
                )
            )
        return rows

    def test_cells_and_p99_advantage(self):
        cells = mhttp_cells(self._rows())
        assert set(cells) == {("node", 2, "select"), ("node", 2, "stripe")}
        select = cells[("node", 2, "select")]
        stripe = cells[("node", 2, "stripe")]
        assert select.n == stripe.n == 4
        assert stripe.p99_duration < select.p99_duration
        assert stripe.mean_wasted_bytes == pytest.approx(400_000.0)
        assert select.mean_wasted_bytes == 0.0
        advantage = stripe_p99_advantage(self._rows())
        assert advantage[("node", 2)] > 0.0

    def test_aborted_rows_excluded_from_tail(self):
        rows = [
            _record(selected_duration=10.0),
            _record(
                repetition=1,
                outcome="aborted",
                selected_throughput=0.0,
                bytes_received=0.0,
                selected_duration=0.0,
            ),
        ]
        (cell,) = mhttp_cells(rows).values()
        assert cell.n == 2 and cell.n_delivered == 1 and cell.n_aborted == 1
        assert cell.p99_duration == pytest.approx(10.0)

    def test_render_contains_grid_and_advantage(self):
        text = render_mhttp(self._rows())
        assert "select" in text and "stripe" in text
        assert "p99 advantage" in text
        assert "Striped-session degradation" in text

    def test_render_empty_is_defined(self):
        assert "rows: 0" in render_mhttp([])


class TestStripeDegradationStats:
    def test_goodput_retained(self):
        rows = [
            # Clean stripes: 8 MB / 20 s = 400 kB/s.
            _record(selected_duration=20.0),
            _record(repetition=1, selected_duration=20.0),
            # Degraded stripe: 8 MB / 80 s = 100 kB/s.
            _record(
                repetition=2,
                outcome="degraded",
                n_path_failures=1,
                selected_duration=80.0,
            ),
            # Aborted stripe delivers a partial object.
            _record(
                repetition=3,
                outcome="aborted",
                selected_throughput=0.0,
                bytes_received=2_000_000.0,
                selected_duration=30.0,
            ),
            # Select rows must be ignored.
            _record(repetition=4, mechanism="select", selected_via="R1"),
        ]
        stats = stripe_degradation_stats(rows)
        assert stats.n_sessions == 4
        assert stats.n_clean == 2 and stats.n_degraded == 1 and stats.n_aborted == 1
        assert stats.availability == pytest.approx(0.75)
        assert stats.mean_goodput_clean == pytest.approx(400_000.0)
        assert stats.mean_goodput_degraded == pytest.approx(100_000.0)
        assert stats.goodput_retained == pytest.approx(0.25)
        # 26 MB delivered of 32 MB requested.
        assert stats.byte_unavailability == pytest.approx(6.0 / 32.0)

    def test_by_k_grouping(self):
        rows = [
            _record(stripe_k=2),
            _record(repetition=1, stripe_k=3),
            _record(repetition=2, stripe_k=3),
        ]
        by_k = stripe_degradation_by_k(rows)
        assert list(by_k) == [2, 3]
        assert by_k[2].n_sessions == 1 and by_k[3].n_sessions == 2

    def test_empty_input_is_nan_not_error(self):
        stats = stripe_degradation_stats([])
        assert stats.n_sessions == 0
        assert math.isnan(stats.availability)
        assert math.isnan(stats.goodput_retained)
        assert math.isnan(stats.byte_unavailability)
