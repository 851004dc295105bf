"""Tests for the persistent per-trial result store."""

import json

import pytest

from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import STORE_SCHEMA_VERSION, ResultStore
from repro.sim.runner import TrialOutcome


def _spec(**overrides):
    base = dict(
        family="cycle",
        family_params={"n": 16},
        walk="srw",
        trials=3,
        root_seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _outcome(trial, steps=100, extras=None, wall=0.5):
    return TrialOutcome(trial=trial, steps=steps, extras=extras or {}, wall_time=wall)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestRecordAndRead:
    def test_fresh_store_is_empty(self, store):
        assert store.trials_for(_spec()) == {}
        assert store.missing_trials(_spec()) == [0, 1, 2]

    def test_round_trip(self, store):
        spec = _spec()
        store.record(spec, [_outcome(0, steps=42, extras={"red": 3.0})])
        store.record(spec, [_outcome(2, steps=57)])
        records = store.trials_for(spec)
        assert sorted(records) == [0, 2]
        assert records[0].cover_time == 42
        assert records[0].extras == {"red": 3.0}
        assert records[2].cover_time == 57
        assert store.missing_trials(spec) == [1]

    def test_float_extras_roundtrip_exactly(self, store):
        spec = _spec()
        value = 0.1 + 0.2  # not representable; repr round-trips exactly
        store.record(spec, [_outcome(0, extras={"x": value})])
        assert store.trials_for(spec)[0].extras["x"] == value

    def test_specs_keyed_by_identity_not_execution_knobs(self, store):
        spec = _spec()
        store.record(spec, [_outcome(0)])
        assert 0 in store.trials_for(spec.with_trials(50))
        assert store.trials_for(_spec(root_seed=8)) == {}

    def test_engines_share_one_bucket_and_stamp_records(self, store):
        # The engine is execution policy, not identity: trials computed
        # under different engines top up one bucket, each record stamped
        # with the engine that produced it.
        from repro.experiments.scheduler import run_point
        from repro.sim.policy import ExecutionPolicy

        run_point(_spec(trials=2), store=store, policy=ExecutionPolicy(engine="array"))
        fleet = run_point(
            _spec(trials=4), store=store, policy=ExecutionPolicy(engine="fleet", fleet_size=2)
        )
        assert (fleet.cached, fleet.scheduled) == (2, 2)
        assert [entry.spec_hash for entry in store.entries()] == [_spec().spec_hash]
        records = store.trials_for(_spec())
        assert {t: r.engine for t, r in records.items()} == {
            0: "array", 1: "array", 2: "fleet", 3: "fleet"
        }

    def test_first_record_wins_on_duplicates(self, store):
        spec = _spec()
        store.record(spec, [_outcome(0, steps=10)])
        store.record(spec, [_outcome(0, steps=99)])
        assert store.trials_for(spec)[0].cover_time == 10

    def test_clear_trials_supersedes_cells(self, store):
        spec = _spec()
        store.record(spec, [_outcome(0, steps=10)])
        store.record(spec, [_outcome(1, steps=20)])
        assert store.clear_trials(spec, [0]) == 1
        store.record(spec, [_outcome(0, steps=77)])
        records = store.trials_for(spec)
        assert records[0].cover_time == 77
        assert records[1].cover_time == 20
        shard = store._shard_path(spec.spec_hash)
        assert len([l for l in shard.read_text().splitlines() if l.strip()]) == 2

    def test_clear_trials_defaults_to_spec_range(self, store):
        spec = _spec()  # trials=3
        for t in range(4):
            store.record(spec, [_outcome(t)])
        assert store.clear_trials(spec) == 3  # cells 0..2; trial 3 kept
        assert sorted(store.trials_for(spec)) == [3]
        assert store.clear_trials(_spec(root_seed=99)) == 0  # no shard

    def test_trials_survive_store_reopen(self, store):
        spec = _spec()
        store.record(spec, [_outcome(1, steps=23)])
        reopened = ResultStore(store.root)
        assert reopened.trials_for(spec)[1].cover_time == 23


class TestQuarantine:
    def _shard(self, store, spec):
        store.record(spec, [_outcome(0)])
        return store._shard_path(spec.spec_hash)

    def test_corrupted_line_quarantined_not_crashed(self, store):
        spec = _spec()
        shard = self._shard(store, spec)
        with shard.open("a") as fh:
            fh.write("{not json at all\n")
        records = store.trials_for(spec)  # must not raise
        assert sorted(records) == [0]
        assert store.quarantined_count(spec) == 1
        # reads never touch the shard (concurrent-writer safety): the bad
        # line is still there, but re-reads dedupe against the quarantine
        assert "{not json at all" in shard.read_text()
        store.trials_for(spec)
        assert store.quarantined_count(spec) == 1
        # gc is what compacts the shard
        store.gc()
        assert "{not json at all" not in shard.read_text()

    def test_schema_version_mismatch_quarantined(self, store):
        spec = _spec()
        shard = self._shard(store, spec)
        line = json.loads(shard.read_text().splitlines()[0])
        line["trial"] = 1
        line["schema"] = STORE_SCHEMA_VERSION + 1
        with shard.open("a") as fh:
            fh.write(json.dumps(line) + "\n")
        records = store.trials_for(spec)
        assert sorted(records) == [0]
        assert store.quarantined_count(spec) == 1

    def test_wrong_hash_and_bad_fields_quarantined(self, store):
        spec = _spec()
        shard = self._shard(store, spec)
        good = json.loads(shard.read_text().splitlines()[0])
        bad_hash = dict(good, trial=1, spec_hash="0" * 16)
        bad_trial = dict(good, trial=-4)
        missing_field = {k: v for k, v in good.items() if k != "cover_time"}
        with shard.open("a") as fh:
            for obj in (bad_hash, bad_trial, missing_field):
                fh.write(json.dumps(obj) + "\n")
        assert sorted(store.trials_for(spec)) == [0]
        assert store.quarantined_count(spec) == 3

    def test_non_numeric_extras_quarantined(self, store):
        spec = _spec()
        shard = self._shard(store, spec)
        good = json.loads(shard.read_text().splitlines()[0])
        bad_extras = dict(good, trial=1, extras={"x": "not-a-number"})
        bad_wall = dict(good, trial=2, wall_time="slow")
        with shard.open("a") as fh:
            fh.write(json.dumps(bad_extras) + "\n")
            fh.write(json.dumps(bad_wall) + "\n")
        assert sorted(store.trials_for(spec)) == [0]  # must not raise
        assert store.quarantined_count(spec) == 2

    def test_quarantine_records_reasons(self, store):
        spec = _spec()
        shard = self._shard(store, spec)
        with shard.open("a") as fh:
            fh.write("garbage\n")
        store.trials_for(spec)
        entry = json.loads(
            store._quarantine_path(spec.spec_hash).read_text().splitlines()[0]
        )
        assert "reason" in entry and "line" in entry
        assert entry["line"] == "garbage"


class TestInventoryAndGc:
    def test_entries_describe_contents(self, store):
        spec = _spec()
        store.record(spec, [_outcome(0, wall=1.5)])
        store.record(spec, [_outcome(1, wall=0.5)])
        (entry,) = list(store.entries())
        assert entry.spec_hash == spec.spec_hash
        assert entry.trials_cached == 2
        assert entry.total_wall_time == 2.0
        assert "cycle(n=16)" in entry.describe()

    def test_gc_dedupes_and_purges(self, store):
        spec = _spec()
        store.record(spec, [_outcome(0, steps=10)])
        store.record(spec, [_outcome(0, steps=99)])  # duplicate cell
        shard = store._shard_path(spec.spec_hash)
        with shard.open("a") as fh:
            fh.write("corrupt\n")
        stats = store.gc()
        assert stats.specs_kept == 1
        assert stats.records_kept == 1
        assert stats.duplicates_dropped == 1
        assert stats.quarantined_purged == 1  # the corrupt line, found and purged
        assert store.quarantined_count() == 0
        assert store.trials_for(spec)[0].cover_time == 10

    def test_gc_removes_orphan_shards(self, store):
        spec = _spec()
        store.record(spec, [_outcome(0)])
        shard = store._shard_path(spec.spec_hash)
        shard.write_text("junk only\n")
        stats = store.gc()
        assert stats.specs_kept == 0
        assert stats.orphan_shards_removed == 1
        assert not shard.exists()
        assert list(store.entries()) == []

    def test_gc_on_empty_store(self, store):
        stats = store.gc()
        assert stats.specs_kept == 0
        assert stats.records_kept == 0
