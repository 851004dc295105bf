"""Fault-injection tests: the store, runner and scheduler under planned failures.

Everything here drives the ``REPRO_FAULTS`` plan from
:mod:`repro.testing.faults` — deterministic worker kills, stalls and
write errors — and asserts the robustness contract of ISSUE 8: runs
complete, results stay bit-identical to undisturbed execution, and the
telemetry counters account for every absorbed fault.
"""

import errno
import json
import os
import subprocess
import sys

import pytest

from repro.errors import ReproError, TrialTimeout
from repro.experiments.scheduler import run_point, run_sweep
from repro.graphs.generators import cycle_graph
from repro.experiments.spec import ExperimentSpec, SweepSpec
from repro.experiments.store import ResultStore
from repro.sim.policy import ExecutionPolicy
from repro.sim.runner import cover_time_trials, run_trials
from repro.telemetry import Telemetry, session
from repro.testing.faults import (
    FAULTS_ENV_VAR,
    KILL_EXIT_CODE,
    FaultRule,
    active_plan,
    fault_plan,
    maybe_ioerror,
    maybe_stall,
    parse_plan,
    should_fire,
)


def _spec(**overrides):
    base = dict(
        family="cycle",
        family_params={"n": 16},
        walk="srw",
        trials=4,
        root_seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestPlanParsing:
    def test_empty_plan_is_none(self):
        assert parse_plan("") is None
        assert parse_plan("  ;  ; ") is None

    def test_single_rule_defaults(self):
        plan = parse_plan("worker_kill")
        (rule,) = plan.rules
        assert rule.site == "worker_kill"
        assert rule.trial is None and rule.count == 1 and rule.token is None

    def test_full_rule_and_multiple_rules(self):
        plan = parse_plan(
            "worker_kill:trial=2,count=3,token=/tmp/t.tok;"
            "trial_stall:seconds=0.25"
        )
        kill, stall = plan.rules
        assert (kill.trial, kill.count, kill.token) == (2, 3, "/tmp/t.tok")
        assert stall.site == "trial_stall" and stall.seconds == 0.25

    def test_unknown_site_rejected(self):
        with pytest.raises(ReproError, match="unknown fault site"):
            parse_plan("worker_kil")

    def test_unknown_key_rejected(self):
        with pytest.raises(ReproError, match="unknown key"):
            parse_plan("worker_kill:tril=2")

    def test_bad_value_rejected(self):
        with pytest.raises(ReproError, match="invalid value"):
            parse_plan("worker_kill:trial=two")

    def test_malformed_pair_rejected(self):
        with pytest.raises(ReproError, match="malformed"):
            parse_plan("worker_kill:trial")

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ReproError, match="count must be"):
            parse_plan("worker_kill:count=0")


class TestRuleSemantics:
    def test_trial_filter(self):
        rule = FaultRule(site="store_write", trial=3)
        assert not rule.matches("store_write", 2)
        assert not rule.matches("worker_kill", 3)
        assert rule.matches("store_write", 3)

    def test_count_budget_per_process(self):
        with fault_plan("store_write:count=2"):
            assert should_fire("store_write") is not None
            assert should_fire("store_write") is not None
            assert should_fire("store_write") is None

    def test_token_latch_fires_once_across_rule_instances(self, tmp_path):
        token = tmp_path / "latch.tok"
        first = FaultRule(site="worker_kill", token=str(token))
        assert first.claim()
        assert token.exists()
        # A fresh rule object (as a forked worker would parse) finds the
        # token and refuses — and never retries within its process.
        second = FaultRule(site="worker_kill", token=str(token))
        assert not second.claim()
        assert not second.matches("worker_kill", None)

    def test_plan_cache_tracks_env_changes(self):
        with fault_plan("store_write"):
            assert active_plan() is not None
        assert active_plan() is None

    def test_no_plan_fleet_sweep_reads_the_variable_at_most_once(self, tmp_path):
        # The plan is read at the first injection point and reused: a
        # sweep without one pays no environment lookup per trial.
        from repro.testing import faults

        class CountingEnviron:
            reads = 0

            def get(self, key, default=None):
                if key == FAULTS_ENV_VAR:
                    CountingEnviron.reads += 1
                return os.environ.get(key, default)

        class CountingOs:
            environ = CountingEnviron()

            def __getattr__(self, name):
                return getattr(os, name)

        spec = ExperimentSpec(
            family="implicit_hypercube", family_params={"r": 4}, walk="srw",
            trials=64, root_seed=7,
        )
        tel = Telemetry()
        with fault_plan(None):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(faults, "os", CountingOs())
                with session(tel):
                    result = run_sweep(
                        SweepSpec("no-plan", (spec,)),
                        store=ResultStore(tmp_path / "s"),
                        policy=ExecutionPolicy(engine="fleet", fleet_size=16),
                    )
        assert result.scheduled == 64
        assert tel.counters["fleet.fleets"] == 4
        assert CountingEnviron.reads <= 1

    def test_injection_helpers(self):
        with fault_plan("store_write:count=1"):
            with pytest.raises(OSError) as err:
                maybe_ioerror("store_write")
            assert err.value.errno == errno.ENOSPC
            maybe_ioerror("store_write")  # budget spent: no-op
        maybe_ioerror("store_write")  # no plan: no-op
        maybe_stall("trial_stall")  # no matching rule: returns immediately


class TestRunnerSupervision:
    def _workload(self):
        return cycle_graph(24)

    def _serial(self, trials=4, seed=11):
        return cover_time_trials(
            self._workload(), "srw", trials=trials, root_seed=seed
        )

    def test_worker_kill_retried_bit_identical(self, tmp_path):
        token = tmp_path / "kill.tok"
        baseline = self._serial()
        tel = Telemetry()
        with fault_plan(f"worker_kill:trial=2,token={token}"):
            with session(tel):
                run = cover_time_trials(
                    self._workload(), "srw", trials=4, root_seed=11,
                    policy=ExecutionPolicy(workers=2, retries=2),
                )
        assert run.cover_times == baseline.cover_times
        assert tel.counters.get("runner.worker_crashes", 0) >= 1
        assert token.exists()

    def test_worker_crash_mode_fail_raises(self, tmp_path):
        token = tmp_path / "kill.tok"
        with fault_plan(f"worker_kill:trial=1,token={token}"):
            with pytest.raises(ReproError, match="worker"):
                cover_time_trials(
                    self._workload(), "srw", trials=4, root_seed=11,
                    policy=ExecutionPolicy(workers=2, retries=2, on_worker_crash="fail"),
                )

    def test_worker_crash_mode_inline_degrades_immediately(self):
        baseline = self._serial()
        tel = Telemetry()
        # Standing kill rule, no token: every fresh pool worker would die,
        # but inline mode never enters a child process, so the run finishes.
        with fault_plan("worker_kill:count=100"):
            with session(tel):
                run = cover_time_trials(
                    self._workload(), "srw", trials=4, root_seed=11,
                    policy=ExecutionPolicy(workers=2, retries=2, on_worker_crash="inline"),
                )
        assert run.cover_times == baseline.cover_times
        assert tel.counters.get("runner.inline_fallbacks", 0) == 1

    def test_persistent_crashes_degrade_to_inline(self):
        baseline = self._serial()
        tel = Telemetry()
        with fault_plan("worker_kill:count=100"):
            with session(tel):
                run = cover_time_trials(
                    self._workload(), "srw", trials=4, root_seed=11,
                    policy=ExecutionPolicy(workers=2, retries=1, on_worker_crash="retry"),
                )
        assert run.cover_times == baseline.cover_times
        assert tel.counters.get("runner.worker_crashes", 0) >= 2
        assert tel.counters.get("runner.inline_fallbacks", 0) == 1

    def test_trial_timeout_retried_inline(self):
        baseline = self._serial()
        tel = Telemetry()
        with fault_plan("trial_stall:trial=1,count=1,seconds=1.5"):
            with session(tel):
                run = cover_time_trials(
                    self._workload(), "srw", trials=4, root_seed=11,
                    policy=ExecutionPolicy(workers=1, retries=2, trial_timeout=0.3),
                )
        assert run.cover_times == baseline.cover_times
        assert tel.counters.get("runner.timeouts", 0) == 1
        assert tel.counters.get("runner.retries", 0) == 1

    def test_trial_timeout_exhaustion_raises(self):
        with fault_plan("trial_stall:trial=1,count=100,seconds=1.5"):
            with pytest.raises(ReproError, match="failed after"):
                cover_time_trials(
                    self._workload(), "srw", trials=2, root_seed=11,
                    policy=ExecutionPolicy(workers=1, retries=1, trial_timeout=0.2),
                )

    def test_exhaustion_error_names_the_wall_clock_cause(self):
        with fault_plan("trial_stall:trial=0,count=100,seconds=1.5"):
            with pytest.raises(ReproError, match="wall-clock timeout") as err:
                run_trials(
                    self._workload(), "srw", trial_indices=[0],
                    root_seed=11,
                    policy=ExecutionPolicy(workers=1, retries=0, trial_timeout=0.2),
                )
        assert isinstance(err.value.__cause__, TrialTimeout)


class TestCheckpointRetry:
    def test_run_point_absorbs_transient_write_error(self, tmp_path):
        spec = _spec()
        store = ResultStore(tmp_path / "store")
        tel = Telemetry()
        with fault_plan("store_write:count=1"):
            with session(tel):
                result = run_point(spec, store=store)
        assert result.scheduled == spec.trials
        assert sorted(store.trials_for(spec)) == list(range(spec.trials))
        assert tel.counters["store.checkpoint_retries"] == 1

    def test_checkpoint_exhaustion_names_trial_and_spec(self, tmp_path):
        spec = _spec()
        store = ResultStore(tmp_path / "store")
        with fault_plan("store_write:count=100"):
            with pytest.raises(ReproError, match="could not checkpoint trial 0"):
                run_point(spec, store=store, policy=ExecutionPolicy(retries=1))

    def test_torn_write_repaired_and_union_correct(self, tmp_path):
        spec = _spec()
        store = ResultStore(tmp_path / "store")
        tel = Telemetry()
        with fault_plan("store_write_torn:count=1"):
            with session(tel):
                result = run_point(spec, store=store)
        # The injected torn append was retried: full union, no quarantine,
        # and the reread matches an undisturbed store bit for bit.
        assert result.scheduled == spec.trials
        assert sorted(store.trials_for(spec)) == list(range(spec.trials))
        assert store.quarantined_count() == 0
        clean = ResultStore(tmp_path / "clean")
        run_point(spec, store=clean)
        assert {t: r.cover_time for t, r in store.trials_for(spec).items()} == {
            t: r.cover_time for t, r in clean.trials_for(spec).items()
        }

    def test_torn_write_mid_batch_retried_whole(self, tmp_path):
        # The torn append hits the third trial of a four-lane batch: two
        # whole lines and half a line land, then the batch is retried.
        spec = _spec()
        store = ResultStore(tmp_path / "store")
        tel = Telemetry()
        policy = ExecutionPolicy(engine="fleet", fleet_size=4)
        with fault_plan("store_write_torn:trial=2,count=1"):
            with session(tel):
                result = run_point(spec, store=store, policy=policy)
        assert result.scheduled == spec.trials
        assert tel.counters["store.checkpoint_retries"] == 1
        assert tel.counters["store.truncated_tails"] == 1
        assert sorted(store.trials_for(spec)) == list(range(spec.trials))
        assert store.quarantined_count() == 0
        # The retry rewrote the whole batch after the two whole lines;
        # first-record-wins reads each trial once.
        lines = store._shard_path(spec.spec_hash).read_text().splitlines()
        assert [json.loads(line)["trial"] for line in lines] == [0, 1, 0, 1, 2, 3]
        clean = ResultStore(tmp_path / "clean")
        run_point(spec, store=clean)
        assert {t: r.cover_time for t, r in store.trials_for(spec).items()} == {
            t: r.cover_time for t, r in clean.trials_for(spec).items()
        }


class TestTornTailStoreLevel:
    def test_torn_tail_tolerated_on_read_and_repaired_on_write(self, tmp_path):
        from repro.sim.runner import TrialOutcome

        spec = _spec()
        store = ResultStore(tmp_path / "store")
        store.record(spec, [TrialOutcome(trial=0, steps=10, extras={}, wall_time=0.1)])
        with fault_plan("store_write_torn:trial=1"):
            with pytest.raises(OSError):
                store.record(
                    spec, [TrialOutcome(trial=1, steps=20, extras={}, wall_time=0.1)]
                )
        shard = store._shard_path(spec.spec_hash)
        assert not shard.read_bytes().endswith(b"\n")
        # Cold read: the torn tail is skipped and counted, never quarantined.
        tel = Telemetry()
        cold = ResultStore(tmp_path / "store")
        with session(tel):
            assert sorted(cold.trials_for(spec)) == [0]
        assert tel.counters["store.truncated_tails"] == 1
        assert cold.quarantined_count() == 0
        # The next locked append repairs the tail before writing.
        store.record(spec, [TrialOutcome(trial=2, steps=30, extras={}, wall_time=0.1)])
        assert sorted(store.trials_for(spec)) == [0, 2]
        for line in shard.read_text().splitlines():
            json.loads(line)


def _subprocess_env():
    """A clean environment whose PYTHONPATH can import the src layout."""
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH", "")]))
    env.pop(FAULTS_ENV_VAR, None)
    return env


class TestConcurrentWriters:
    _WRITER = """
import sys
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore
from repro.sim.runner import TrialOutcome

root, lo, hi = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
spec = ExperimentSpec(family="cycle", family_params={"n": 16}, walk="srw",
                      trials=64, root_seed=7)
store = ResultStore(root)
for trial in range(lo, hi):
    store.record(spec, [TrialOutcome(trial=trial, steps=trial * 10,
                                     extras={"x": float(trial)}, wall_time=0.01)])
"""

    def test_two_processes_interleave_without_torn_lines(self, tmp_path):
        root = tmp_path / "store"
        env = _subprocess_env()
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", self._WRITER, str(root), str(lo), str(hi)],
                env=env,
            )
            for lo, hi in [(0, 32), (32, 64)]
        ]
        assert [p.wait() for p in procs] == [0, 0]
        spec = ExperimentSpec(
            family="cycle", family_params={"n": 16}, walk="srw",
            trials=64, root_seed=7,
        )
        store = ResultStore(root)
        records = store.trials_for(spec)
        assert sorted(records) == list(range(64))
        assert all(records[t].cover_time == t * 10 for t in range(64))
        assert store.quarantined_count() == 0
        shard = store._shard_path(spec.spec_hash)
        lines = shard.read_text().splitlines()
        assert len(lines) == 64  # no duplicates, no torn fragments
        for line in lines:
            json.loads(line)

    _BATCH_WRITER = """
import sys
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore
from repro.sim.runner import TrialOutcome

root, lo, hi = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
spec = ExperimentSpec(family="cycle", family_params={"n": 16}, walk="srw",
                      trials=256, root_seed=7)
store = ResultStore(root)
for first in range(lo, hi, 8):
    store.record(spec, [TrialOutcome(trial=trial, steps=trial * 10,
                                     extras={"x": float(trial)}, wall_time=0.01)
                        for trial in range(first, first + 8)])
"""

    def test_two_processes_append_batches_without_torn_lines(self, tmp_path):
        root = tmp_path / "store"
        env = _subprocess_env()
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", self._BATCH_WRITER, str(root), str(lo), str(hi)],
                env=env,
            )
            for lo, hi in [(0, 128), (128, 256)]
        ]
        assert [p.wait() for p in procs] == [0, 0]
        spec = ExperimentSpec(
            family="cycle", family_params={"n": 16}, walk="srw",
            trials=256, root_seed=7,
        )
        store = ResultStore(root)
        records = store.trials_for(spec)
        assert sorted(records) == list(range(256))
        assert all(records[t].cover_time == t * 10 for t in range(256))
        assert store.quarantined_count() == 0
        lines = store._shard_path(spec.spec_hash).read_bytes().split(b"\n")
        assert lines.pop() == b""  # the shard ends on a whole line
        assert len(lines) == 256
        trials = [json.loads(line)["trial"] for line in lines]
        # Each batch landed as one contiguous run of eight lines.
        for i in range(0, 256, 8):
            assert trials[i : i + 8] == list(range(trials[i], trials[i] + 8))


class TestKillResume:
    def _sweep_args(self, store):
        return [
            sys.executable, "-m", "repro", "sweep",
            "--family", "cycle", "--sizes", "40", "--walk", "srw",
            "--trials", "3", "--seed", "11", "--store", str(store),
        ]

    def test_kill9_between_checkpoint_and_ack_resumes_bit_identical(self, tmp_path):
        env = _subprocess_env()
        faulty = tmp_path / "faulty-store"
        env_kill = dict(env)
        env_kill[FAULTS_ENV_VAR] = "post_checkpoint_kill:trial=1"
        first = subprocess.run(
            self._sweep_args(faulty), env=env_kill, capture_output=True, text=True
        )
        assert first.returncode == KILL_EXIT_CODE, first.stderr
        resumed = subprocess.run(
            self._sweep_args(faulty), env=env, capture_output=True, text=True
        )
        assert resumed.returncode == 0, resumed.stderr
        # The killed run left completed cells behind; the resume must not
        # recompute them...
        assert "0 scheduled" not in first.stdout
        assert "3 scheduled" not in resumed.stdout
        # ...and the final table must equal a never-interrupted run's.
        clean_store = tmp_path / "clean-store"
        clean = subprocess.run(
            self._sweep_args(clean_store), env=env, capture_output=True, text=True
        )
        assert clean.returncode == 0, clean.stderr
        table = lambda out: out[out.index("\n") :]  # drop the N-scheduled line
        assert table(resumed.stdout) == table(clean.stdout)

    def test_fleet_kill_after_batch_checkpoint_resumes_unrecorded_batches(self, tmp_path):
        # Fleet batches of two: [0, 1], [2, 3], [4, 5].  The kill fires
        # right after the batch holding trial 3 is written, so the resume
        # schedules only the last batch.
        args = lambda store: [
            sys.executable, "-m", "repro", "sweep",
            "--family", "cycle", "--sizes", "40", "--walk", "srw",
            "--trials", "6", "--seed", "11", "--store", str(store),
            "--engine", "fleet", "--fleet-size", "2",
        ]
        env = _subprocess_env()
        faulty = tmp_path / "faulty-store"
        env_kill = dict(env)
        env_kill[FAULTS_ENV_VAR] = "post_checkpoint_kill:trial=3"
        first = subprocess.run(args(faulty), env=env_kill, capture_output=True, text=True)
        assert first.returncode == KILL_EXIT_CODE, first.stderr
        assert sorted(ResultStore(faulty).trials_for(
            ExperimentSpec(family="cycle", family_params={"n": 40}, walk="srw",
                           trials=6, root_seed=11)
        )) == [0, 1, 2, 3]
        resumed = subprocess.run(args(faulty), env=env, capture_output=True, text=True)
        assert resumed.returncode == 0, resumed.stderr
        assert "2 scheduled, 4 cached" in resumed.stdout
        clean = subprocess.run(
            args(tmp_path / "clean-store"), env=env, capture_output=True, text=True
        )
        assert clean.returncode == 0, clean.stderr
        table = lambda out: out[out.index("\n") :]  # drop the N-scheduled line
        assert table(resumed.stdout) == table(clean.stdout)


class TestSweepUnderFaults:
    def test_sweep_completes_under_kill_and_enospc(self, tmp_path):
        """The ISSUE acceptance scenario, in-process: workers=2, retries=2."""
        sweep_spec = SweepSpec.deduped("chaos", [_spec(trials=6, root_seed=11)])
        token = tmp_path / "kill.tok"
        store = ResultStore(tmp_path / "store")
        plan = f"worker_kill:trial=2,token={token};store_write:count=1"
        tel = Telemetry()
        with fault_plan(plan):
            with session(tel):
                result = run_sweep(
                    sweep_spec, store=store, policy=ExecutionPolicy(workers=2, retries=2)
                )
        assert result.scheduled == 6 and result.cached == 0
        assert tel.counters.get("runner.worker_crashes", 0) >= 1
        assert tel.counters.get("store.checkpoint_retries", 0) == 1
        # Warm re-run: everything cached, bit-identical aggregate.
        warm = run_sweep(sweep_spec, store=store)
        assert warm.scheduled == 0 and warm.cached == 6
        clean = run_sweep(sweep_spec, store=None)
        point, warm_point, clean_point = (
            result.points[0], warm.points[0], clean.points[0],
        )
        assert point.run.cover_times == clean_point.run.cover_times
        assert warm_point.run.cover_times == clean_point.run.cover_times
