"""Tests for the resumable sweep orchestrator."""

import os

import pytest

from repro.errors import ReproError
from repro.experiments.scheduler import run_point, run_sweep
from repro.experiments.spec import ExperimentSpec, SweepSpec
from repro.experiments.store import ResultStore
from repro.sim.policy import ExecutionPolicy
from repro.sim.runner import cover_time_trials
from repro.telemetry import Telemetry, session


def _spec(**overrides):
    base = dict(
        family="cycle",
        family_params={"n": 20},
        walk="srw",
        trials=4,
        root_seed=9,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _sweep(**overrides):
    return SweepSpec(
        name="t",
        specs=(
            _spec(),
            _spec(family_params={"n": 30}),
            _spec(family="regular", family_params={"n": 24, "degree": 4}, walk="eprocess"),
        ),
    )


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestRunPoint:
    def test_cold_run_schedules_everything(self, store):
        result = run_point(_spec(), store=store)
        assert result.scheduled == 4 and result.cached == 0
        assert len(result.run.cover_times) == 4

    def test_warm_run_schedules_nothing(self, store):
        cold = run_point(_spec(), store=store)
        warm = run_point(_spec(), store=store)
        assert warm.scheduled == 0 and warm.cached == 4
        assert warm.run == cold.run  # bit-identical aggregates

    def test_matches_cover_time_trials_seed_tree(self, store):
        # The orchestrator must reuse the runner's seed tree: a direct
        # cover_time_trials call with the spec's label replays it exactly.
        spec = _spec()
        result = run_point(spec, store=store)
        direct = cover_time_trials(
            spec.workload(),
            "srw",
            trials=spec.trials,
            root_seed=spec.root_seed,
            label=spec.seed_label,
        )
        assert result.run.cover_times == direct.cover_times

    def test_partial_store_runs_only_missing(self, store, monkeypatch):
        spec = _spec()
        full = run_point(spec, store=store)

        # Fresh store with only trials 0 and 2 cached (simulates a run that
        # was interrupted after two cells).
        partial = ResultStore(store.root.parent / "partial")
        records = store.trials_for(spec)
        partial.record(spec, [records[0].to_outcome()])
        partial.record(spec, [records[2].to_outcome()])

        executed = []
        import repro.sim.runner as runner_mod

        real_run_trials = runner_mod.run_trials

        def spying_run_trials(*args, **kwargs):
            executed.extend(kwargs["trial_indices"])
            return real_run_trials(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "run_trials", spying_run_trials)
        resumed = run_point(spec, store=partial)
        assert executed == [1, 3]  # exactly the gaps
        assert resumed.scheduled == 2 and resumed.cached == 2
        assert resumed.run == full.run  # resume == uninterrupted cold run

    def test_topup_extends_cached_trials(self, store):
        run_point(_spec(trials=3), store=store)
        topped = run_point(_spec(trials=6), store=store)
        assert topped.cached == 3 and topped.scheduled == 3
        assert len(topped.run.cover_times) == 6
        # the first 3 cells are the cached ones, bit for bit
        fresh = run_point(_spec(trials=3), store=ResultStore(store.root.parent / "x"))
        assert topped.run.cover_times[:3] == fresh.run.cover_times

    def test_engine_switch_reuses_cache(self, store):
        ref = run_point(_spec(walk="eprocess"), store=store)
        arr = run_point(
            _spec(walk="eprocess"), store=store, policy=ExecutionPolicy(engine="array")
        )
        assert arr.scheduled == 0
        assert arr.run == ref.run

    def test_no_store_still_runs(self):
        result = run_point(_spec(), store=None)
        assert result.scheduled == 4 and result.cached == 0

    def test_force_recompute_replaces_records_without_duplicates(self, store):
        import json

        spec = _spec()
        run_point(spec, store=store)
        # Corrupt a stored value in place (simulates a stale/bad store).
        shard = store._shard_path(spec.spec_hash)
        lines = [json.loads(l) for l in shard.read_text().splitlines() if l.strip()]
        lines[0]["cover_time"] = 1
        shard.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        assert store.trials_for(spec)[0].cover_time == 1

        forced = run_point(spec, store=store, use_cache=False)
        assert forced.scheduled == 4 and forced.cached == 0
        # The recompute superseded the stale cell and left no duplicates.
        assert store.trials_for(spec)[0].cover_time == forced.run.cover_times[0]
        assert forced.run.cover_times[0] != 1
        raw = [l for l in shard.read_text().splitlines() if l.strip()]
        assert len(raw) == 4

    def test_excess_cached_trials_ignored(self, store):
        run_point(_spec(trials=6), store=store)
        small = run_point(_spec(trials=2), store=store)
        assert small.cached == 2 and small.scheduled == 0
        assert len(small.run.cover_times) == 2

    def test_workers_do_not_change_results(self, store):
        spec = _spec(family="regular", family_params={"n": 24, "degree": 4}, walk="eprocess")
        serial = run_point(spec, store=None)
        pooled = run_point(spec, store=store, policy=ExecutionPolicy(workers=2))
        assert pooled.run.cover_times == serial.run.cover_times


class TestBatchCheckpoint:
    """A fleet batch is one store append; per-trial engines append per trial."""

    def test_fleet_point_records_once_per_batch(self, store, monkeypatch):
        batches = []
        real_record = ResultStore.record

        def counting(self, spec, outcomes, engine="reference"):
            batches.append([outcome.trial for outcome in outcomes])
            return real_record(self, spec, outcomes, engine)

        monkeypatch.setattr(ResultStore, "record", counting)
        spec = _spec(trials=6)
        tel = Telemetry()
        with session(tel):
            result = run_point(
                spec, store=store, policy=ExecutionPolicy(engine="fleet", fleet_size=2)
            )
        assert batches == [[0, 1], [2, 3], [4, 5]]
        assert tel.counters["store.checkpoints"] == 6  # still counts trials
        assert result.run == run_point(spec, store=None).run
        assert sorted(store.trials_for(spec)) == list(range(6))

    @pytest.mark.parametrize("engine, appends", [("fleet", 3), ("array", 6)])
    def test_durable_store_fsyncs_once_per_checkpoint(self, tmp_path, monkeypatch, engine, appends):
        store = ResultStore(tmp_path / "store", durability="fsync")
        synced = []
        real_fsync = os.fsync

        def counting(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        spec = _spec(trials=6)
        run_point(spec, store=store, policy=ExecutionPolicy(engine=engine, fleet_size=2))
        shard = store._shard_path(spec.spec_hash)
        # Only the shard's own fsyncs: the spec stub's durable create
        # fsyncs a different file and its directory.
        assert synced.count(shard.stat().st_ino) == appends
        assert len(shard.read_text().splitlines()) == 6


class TestRunSweep:
    def test_cold_then_warm(self, store):
        sweep = _sweep()
        cold = run_sweep(sweep, store=store)
        assert cold.scheduled == sweep.total_trials and cold.cached == 0
        warm = run_sweep(sweep, store=store)
        assert warm.scheduled == 0 and warm.cached == sweep.total_trials
        for a, b in zip(cold.points, warm.points):
            assert a.run == b.run

    def test_progress_streams_per_point(self, store):
        sweep = _sweep()
        lines = []
        run_sweep(sweep, store=store, progress=lines.append)
        assert len(lines) == len(sweep.specs) + 1  # one per point + summary
        assert lines[0].startswith("[1/3]")
        assert "scheduled" in lines[-1]

    def test_summary_counts(self, store):
        sweep = _sweep()
        result = run_sweep(sweep, store=store)
        assert f"{sweep.total_trials} trials" in result.summary()
        assert f"{sweep.total_trials} scheduled, 0 cached" in result.summary()

    def test_run_for_lookup(self, store):
        sweep = _sweep()
        result = run_sweep(sweep, store=store)
        spec = sweep.specs[1]
        assert result.run_for(spec) is result.points[1].run
        with pytest.raises(ReproError, match="no point"):
            result.run_for(_spec(root_seed=999))
