"""Tests for the experiment runner."""

import dataclasses
import random

import pytest

from repro.core.eprocess import EdgeProcess
from repro.engine import DEFAULT_FLEET_SIZE
from repro.errors import ReproError
from repro.graphs.generators import cycle_graph
from repro.graphs.random_regular import random_connected_regular_graph
from repro.sim.policy import ExecutionPolicy
from repro.sim.runner import cover_time_trials, sweep
from repro.walks.srw import SimpleRandomWalk


def _srw_factory(graph, start, rng):
    return SimpleRandomWalk(graph, start, rng=rng)


def _eprocess_factory(graph, start, rng):
    return EdgeProcess(graph, start, rng=rng, record_phases=False)


class TestCoverTimeTrials:
    def test_fixed_graph_reproducible(self):
        g = cycle_graph(12)
        a = cover_time_trials(g, _srw_factory, trials=4, root_seed=5)
        b = cover_time_trials(g, _srw_factory, trials=4, root_seed=5)
        assert a.cover_times == b.cover_times

    def test_seed_changes_results(self):
        g = cycle_graph(12)
        a = cover_time_trials(g, _srw_factory, trials=4, root_seed=5)
        b = cover_time_trials(g, _srw_factory, trials=4, root_seed=6)
        assert a.cover_times != b.cover_times

    def test_label_isolates_measurements(self):
        g = cycle_graph(12)
        a = cover_time_trials(g, _srw_factory, trials=4, root_seed=5, label="x")
        b = cover_time_trials(g, _srw_factory, trials=4, root_seed=5, label="y")
        assert a.cover_times != b.cover_times

    def test_graph_factory_fresh_per_trial(self):
        built = []

        def factory(rng):
            g = random_connected_regular_graph(16, 4, rng)
            built.append(g)
            return g

        run = cover_time_trials(factory, _eprocess_factory, trials=3, root_seed=9)
        assert len(built) == 3
        assert len({g for g in built}) > 1  # fresh samples, not one graph
        assert len(run.cover_times) == 3

    def test_fixed_start(self):
        g = cycle_graph(10)
        run = cover_time_trials(g, _srw_factory, trials=2, root_seed=1, start=3)
        assert run.stats.count == 2

    def test_edge_target(self):
        g = cycle_graph(10)
        run = cover_time_trials(g, _eprocess_factory, trials=2, root_seed=1, target="edges")
        assert all(t >= g.m for t in run.cover_times)

    def test_extra_metrics_aggregated(self):
        g = cycle_graph(10)
        run = cover_time_trials(
            g,
            _eprocess_factory,
            trials=3,
            root_seed=2,
            extra_metrics=lambda walk: {"red": walk.red_steps, "blue": walk.blue_steps},
        )
        assert set(run.extras) == {"red", "blue"}
        assert run.extras["blue"].count == 3

    def test_validation(self):
        g = cycle_graph(5)
        with pytest.raises(ReproError):
            cover_time_trials(g, _srw_factory, trials=0, root_seed=1)
        with pytest.raises(ReproError):
            cover_time_trials(g, _srw_factory, trials=1, root_seed=1, target="faces")


class TestTrialInputs:
    """A trial spawns a generator only where it draws from one."""

    def _inputs(self, monkeypatch, **fields):
        from repro.sim import runner

        spawned = []
        real = runner.spawn

        def spy(root_seed, *labels):
            spawned.append(labels[1])
            return real(root_seed, *labels)

        monkeypatch.setattr(runner, "spawn", spy)
        spec = runner._TrialSpec(
            workload=cycle_graph(12),
            walk_factory=_srw_factory,
            trial=3,
            root_seed=5,
            label="cover",
            target="vertices",
            start=None,
            max_steps=None,
            extra_metrics=None,
        )
        return runner._trial_inputs(spec._replace(**fields)), spawned

    def test_fixed_graph_and_start_spawn_nothing(self, monkeypatch):
        from repro.sim.rng import child_seed

        (graph, start, seed), spawned = self._inputs(monkeypatch, start=4)
        assert spawned == []
        assert (graph.n, start) == (12, 4)
        assert seed == child_seed(5, "cover", "walk", 3)

    def test_random_start_spawns_its_generator(self, monkeypatch):
        from repro.sim.rng import spawn

        (_, start, _), spawned = self._inputs(monkeypatch)
        assert spawned == ["start"]
        assert start == spawn(5, "cover", "start", 3).randrange(12)

    def test_graph_factory_spawns_its_generator(self, monkeypatch):
        (graph, _, _), spawned = self._inputs(
            monkeypatch, workload=_regular_workload, start=0
        )
        assert spawned == ["graph"]
        assert graph.n == 24


class TestSweep:
    def test_runs_in_order(self):
        g = cycle_graph(8)
        runs = sweep([1, 2, 3], lambda k: cover_time_trials(g, _srw_factory, trials=int(k), root_seed=4))
        assert [r.stats.count for r in runs] == [1, 2, 3]


def _regular_workload(rng):
    """Module-level (picklable) workload for the worker-pool tests."""
    return random_connected_regular_graph(24, 4, rng)


class TestStartValidation:
    def test_non_numeric_string_raises_repro_error(self):
        g = cycle_graph(6)
        with pytest.raises(ReproError, match="start must be"):
            cover_time_trials(g, _srw_factory, trials=1, root_seed=1, start="nope")

    def test_numeric_string_accepted(self):
        g = cycle_graph(6)
        run = cover_time_trials(g, _srw_factory, trials=2, root_seed=1, start="3")
        assert run.stats.count == 2

    def test_out_of_range_start_names_trial(self):
        g = cycle_graph(5)
        with pytest.raises(ReproError, match="trial 0.*out of range"):
            cover_time_trials(g, _srw_factory, trials=2, root_seed=1, start=99)

    def test_negative_start_rejected(self):
        g = cycle_graph(5)
        with pytest.raises(ReproError, match="out of range"):
            cover_time_trials(g, _srw_factory, trials=1, root_seed=1, start=-2)

    def test_non_convertible_start_rejected(self):
        g = cycle_graph(5)
        with pytest.raises(ReproError, match="start must be"):
            cover_time_trials(g, _srw_factory, trials=1, root_seed=1, start=object())


class TestExecutionPolicy:
    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"engine": "bogus"}, "engine must be one of"),
            ({"workers": 0}, "workers must be >= 1"),
            ({"fleet_size": 0}, "fleet_size must be >= 1"),
            ({"retries": -1}, "retries must be >= 0"),
            ({"trial_timeout": 0.0}, "trial_timeout must be > 0"),
            ({"on_worker_crash": "panic"}, "on_worker_crash must be one of"),
        ],
    )
    def test_invalid_setting_rejected_at_construction(self, setting, message):
        # Each execution setting is validated once, where it is declared —
        # before any runner, graph or store sees it.
        with pytest.raises(ReproError, match=message):
            ExecutionPolicy(**setting)

    def test_defaults_and_frozen(self):
        policy = ExecutionPolicy()
        assert (policy.engine, policy.workers, policy.fleet_size) == (
            "reference", 1, DEFAULT_FLEET_SIZE
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.workers = 2


class TestEngineAndWorkers:
    def test_callable_factory_needs_reference_engine(self):
        g = cycle_graph(8)
        with pytest.raises(ReproError, match="named walk"):
            cover_time_trials(
                g, _srw_factory, trials=1, root_seed=1,
                policy=ExecutionPolicy(engine="array"),
            )

    def test_array_engine_matches_reference_exactly(self):
        g = random_connected_regular_graph(40, 4, random.Random(2))
        for walk in ("srw", "eprocess"):
            ref = cover_time_trials(g, walk, trials=6, root_seed=13)
            arr = cover_time_trials(
                g, walk, trials=6, root_seed=13, policy=ExecutionPolicy(engine="array")
            )
            assert arr.cover_times == ref.cover_times

    def test_array_engine_edge_target(self):
        g = cycle_graph(14)
        ref = cover_time_trials(g, "eprocess", trials=3, root_seed=5, target="edges")
        arr = cover_time_trials(
            g, "eprocess", trials=3, root_seed=5, target="edges",
            policy=ExecutionPolicy(engine="array"),
        )
        assert arr.cover_times == ref.cover_times

    def test_workers_do_not_change_results(self):
        serial = cover_time_trials(_regular_workload, "srw", trials=6, root_seed=21)
        pooled = cover_time_trials(
            _regular_workload, "srw", trials=6, root_seed=21,
            policy=ExecutionPolicy(workers=3),
        )
        assert pooled.cover_times == serial.cover_times

    def test_array_workers_reproduce_reference_serial(self):
        # The issue's headline determinism claim: engine="array", workers=4
        # replays engine="reference", workers=1 cover times exactly.
        serial = cover_time_trials(
            _regular_workload, "eprocess", trials=8, root_seed=3,
            policy=ExecutionPolicy(engine="reference", workers=1),
        )
        pooled = cover_time_trials(
            _regular_workload, "eprocess", trials=8, root_seed=3,
            policy=ExecutionPolicy(engine="array", workers=4),
        )
        assert pooled.cover_times == serial.cover_times

    def test_worker_pool_propagates_validation_errors(self):
        g = cycle_graph(5)
        with pytest.raises(ReproError, match="out of range"):
            cover_time_trials(
                g, "srw", trials=4, root_seed=1, start=77,
                policy=ExecutionPolicy(workers=2),
            )
