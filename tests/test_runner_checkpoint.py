"""Checkpoint store tests: layout, resume protocol, corruption tolerance."""

import json

import pytest

from repro.runner.checkpoint import (
    DEFAULT_NUM_SHARDS,
    MANIFEST_NAME,
    CheckpointError,
    CheckpointExistsError,
    CheckpointMismatchError,
    CheckpointStore,
    merge_completed,
)
from repro.runner.plan import plan_section2
from repro.trace.records import TransferRecord
from repro.workloads.studies import STUDY_SESSION_CONFIG

CLIENTS = ["Italy", "Sweden", "Taiwan"]


@pytest.fixture(scope="module")
def plan(section2_scenario):
    return plan_section2(
        section2_scenario,
        repetitions=4,
        interval=360.0,
        config=STUDY_SESSION_CONFIG,
        sites=["eBay"],
        clients=CLIENTS,
    )


def fake_record(unit) -> TransferRecord:
    """A synthetic record for a unit (checkpoint tests never simulate)."""
    return TransferRecord(
        study=unit.study,
        client=unit.client,
        site=unit.site,
        repetition=unit.repetition,
        start_time=unit.start_time,
        set_size=len(unit.offered),
        offered=unit.offered,
        selected_via=unit.offered[0],
        direct_throughput=1.0e5,
        selected_throughput=2.0e5,
        end_to_end_throughput=1.5e5,
        probe_overhead=1.0,
        file_bytes=4.0e6,
    )


def write_units(store, plan, indices) -> None:
    for i in indices:
        unit = plan.units[i]
        store.append(unit.index, unit.unit_id, fake_record(unit))


class TestCreateAndReadBack:
    def test_round_trip(self, tmp_path, plan):
        with CheckpointStore.open_or_create(tmp_path / "ck", plan) as store:
            write_units(store, plan, range(5))
            store.flush()
        reopened = CheckpointStore.open_or_create(tmp_path / "ck", plan, resume=True)
        done = reopened.completed_units()
        assert sorted(done) == list(range(5))
        for i in range(5):
            unit_id, record = done[i]
            assert unit_id == plan.units[i].unit_id
            assert record == fake_record(plan.units[i])

    def test_manifest_contents(self, tmp_path, plan):
        CheckpointStore.open_or_create(tmp_path / "ck", plan).close()
        manifest = json.loads((tmp_path / "ck" / MANIFEST_NAME).read_text(encoding="utf-8"))
        assert manifest["fingerprint"] == plan.fingerprint()
        assert manifest["total_units"] == len(plan)
        assert manifest["study"] == plan.study

    def test_shard_assignment_contiguous_and_total(self, tmp_path, plan):
        store = CheckpointStore.open_or_create(tmp_path / "ck", plan)
        shards = [store.shard_of(i) for i in range(len(plan))]
        assert shards == sorted(shards)  # contiguous blocks
        assert set(shards) == set(range(store.num_shards))
        with pytest.raises(IndexError):
            store.shard_of(len(plan))
        store.close()

    def test_shard_count_capped_by_plan(self, tmp_path, plan):
        store = CheckpointStore.open_or_create(
            tmp_path / "ck", plan, num_shards=10 * len(plan)
        )
        assert store.num_shards == len(plan)
        assert DEFAULT_NUM_SHARDS <= len(plan)
        store.close()

    def test_duplicate_appends_keep_first(self, tmp_path, plan):
        with CheckpointStore.open_or_create(tmp_path / "ck", plan) as store:
            unit = plan.units[0]
            store.append(unit.index, unit.unit_id, fake_record(unit))
            other = fake_record(plan.units[1])
            store.append(unit.index, unit.unit_id, other)
        done = CheckpointStore.open_or_create(
            tmp_path / "ck", plan, resume=True
        ).completed_units()
        assert done[0][1] == fake_record(plan.units[0])


class TestResumeProtocol:
    def test_existing_without_resume_refused(self, tmp_path, plan):
        CheckpointStore.open_or_create(tmp_path / "ck", plan).close()
        with pytest.raises(CheckpointExistsError, match="already holds"):
            CheckpointStore.open_or_create(tmp_path / "ck", plan)

    def test_fingerprint_mismatch_refused(self, tmp_path, plan, section2_scenario):
        CheckpointStore.open_or_create(tmp_path / "ck", plan).close()
        drifted = plan_section2(
            section2_scenario,
            repetitions=5,  # different unit stream -> different fingerprint
            interval=360.0,
            config=STUDY_SESSION_CONFIG,
            sites=["eBay"],
            clients=CLIENTS,
        )
        with pytest.raises(CheckpointMismatchError, match="refusing to mix"):
            CheckpointStore.open_or_create(tmp_path / "ck", drifted, resume=True)

    def test_unreadable_manifest(self, tmp_path, plan):
        root = tmp_path / "ck"
        root.mkdir()
        (root / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError, match="unreadable"):
            CheckpointStore.open_or_create(root, plan, resume=True)

    def test_unsupported_format(self, tmp_path, plan):
        root = tmp_path / "ck"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(json.dumps({"format": 99}), encoding="utf-8")
        with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
            CheckpointStore.open_or_create(root, plan, resume=True)


class TestCorruptionTolerance:
    def _store_with_units(self, tmp_path, plan, n):
        with CheckpointStore.open_or_create(tmp_path / "ck", plan) as store:
            write_units(store, plan, range(n))
        return CheckpointStore.open_or_create(tmp_path / "ck", plan, resume=True)

    def test_torn_final_line_dropped(self, tmp_path, plan):
        store = self._store_with_units(tmp_path, plan, 3)
        # Units 0-2 land in shard 0; tear its last line mid-JSON.
        path = store.shard_path(store.shard_of(2))
        text = path.read_text(encoding="utf-8")
        lines = text.strip("\n").split("\n")
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2],
                        encoding="utf-8")
        done = store.completed_units()
        assert sorted(done) == [0, 1]

    def test_corrupt_middle_line_quarantines_shard(self, tmp_path, plan):
        store = self._store_with_units(tmp_path, plan, 3)
        path = store.shard_path(store.shard_of(0))
        lines = path.read_text(encoding="utf-8").strip("\n").split("\n")
        lines[0] = '{"garbage": true}'
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        done = store.completed_units()
        # The whole damaged shard is dropped (its units re-execute);
        # units in other shards are untouched ...
        assert all(store.shard_of(i) != store.shard_of(0) for i in done)
        assert 0 not in done and 1 not in done
        # ... the file is moved aside for post-mortem inspection ...
        assert not path.exists()
        q = store.quarantines
        assert len(q) == 1
        assert q[0].shard == str(path)
        assert q[0].line == 1
        assert path.with_name(path.name + ".quarantined").exists()
        assert q[0].quarantined_to == str(path.with_name(path.name + ".quarantined"))
        assert "re-execute" in str(q[0])
        # ... and a fresh read of the directory is clean.
        assert store.completed_units() == done
        assert store.quarantines == []

    def test_second_quarantine_never_clobbers_first(self, tmp_path, plan):
        store = self._store_with_units(tmp_path, plan, 3)
        path = store.shard_path(store.shard_of(0))
        original = path.read_text(encoding="utf-8")

        def corrupt():
            lines = original.strip("\n").split("\n")
            lines[0] = "not json at all"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        corrupt()
        store.completed_units()
        corrupt()
        store.completed_units()
        assert path.with_name(path.name + ".quarantined").exists()
        assert path.with_name(path.name + ".quarantined.1").exists()


class TestMerge:
    def test_merge_in_plan_order(self, tmp_path, plan):
        with CheckpointStore.open_or_create(tmp_path / "ck", plan) as store:
            # Complete everything in scrambled order; merge must not care.
            write_units(store, plan, reversed(range(len(plan))))
        store = CheckpointStore.open_or_create(tmp_path / "ck", plan, resume=True)
        merged = merge_completed(plan, store.completed_units())
        assert [(r.client, r.repetition) for r in merged] == [
            (u.client, u.repetition) for u in plan.units
        ]

    def test_merge_missing_units_raises(self, plan):
        done = {
            u.index: (u.unit_id, fake_record(u)) for u in plan.units[: len(plan) - 2]
        }
        with pytest.raises(CheckpointError, match="2 of 12 units missing"):
            merge_completed(plan, done)

    def test_merge_foreign_unit_id_raises(self, plan):
        done = {u.index: (u.unit_id, fake_record(u)) for u in plan.units}
        done[3] = ("0123456789abcdef", done[3][1])
        with pytest.raises(CheckpointError, match="different campaign"):
            merge_completed(plan, done)
