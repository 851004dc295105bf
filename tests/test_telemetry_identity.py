"""Telemetry never changes a trajectory: on == off, bit for bit.

The instrumentation contract says telemetry reads counts and clocks only
— it draws no randomness and reorders no draws.  These tests pin that by
running the same seeded workload twice, once under the null context and
once under an active :class:`Telemetry`, and asserting cover times,
first-visit tables, and the generators' end-states are identical across
every execution tier: reference walks, array twins, lockstep fleets
(numpy path), and the implicit-graph oracle engines.
"""

import random

import pytest

from repro.engine import (
    FLEET_ENGINES,
    NAMED_WALK_FACTORIES,
    FleetEdgeProcess,
    FleetSRW,
    FleetVProcess,
    native,
)
from repro.graphs import ImplicitHypercube
from repro.graphs.generators import hypercube_graph, lollipop_graph
from repro.sim.policy import ExecutionPolicy
from repro.telemetry import Telemetry, session

FLEET_WALKS = sorted(FLEET_ENGINES)  # srw, eprocess, vprocess
#: The lockstep class behind each runner fleet, built here with
#: ``native=False`` so the numpy path is the one instrumented.
FLEET_CLASSES = {"srw": FleetSRW, "eprocess": FleetEdgeProcess, "vprocess": FleetVProcess}


def _run_walk(factory, graph, seed):
    walk = factory(graph, 0, random.Random(seed))
    cover = walk.run_until_vertex_cover()
    return cover, list(walk.first_visit_time), walk.rng.getstate()


def _run_fleet(walk_name, graph, K, seed):
    rngs = [random.Random(seed + k) for k in range(K)]
    starts = [random.Random(500 + k).randrange(graph.n) for k in range(K)]
    fleet = FLEET_CLASSES[walk_name]([graph] * K, starts, rngs, native=False)
    cover = fleet.run_until_cover("vertices")
    return list(cover), [r.getstate() for r in rngs]


@pytest.fixture(scope="module")
def regular_graph():
    # 6-regular: E-/V-process fleets take the packed 2^d tables.
    return hypercube_graph(6)


@pytest.fixture(scope="module")
def irregular_graph():
    # Mixed degrees: fleets take the stepwise word-bank kernel.
    return lollipop_graph(8, 12)


class TestSingleWalkEngines:
    @pytest.mark.parametrize("walk_name", FLEET_WALKS)
    @pytest.mark.parametrize("engine", ["reference", "array"])
    def test_on_equals_off(self, walk_name, engine, regular_graph):
        variants = NAMED_WALK_FACTORIES[walk_name]
        if engine not in variants:
            pytest.skip(f"{walk_name} has no {engine} engine")
        factory = variants[engine]
        baseline = _run_walk(factory, regular_graph, 42)
        with session(Telemetry()):
            instrumented = _run_walk(factory, regular_graph, 42)
        assert instrumented == baseline


class TestFleetEngines:
    @pytest.mark.parametrize("walk_name", FLEET_WALKS)
    @pytest.mark.parametrize("shape", ["regular", "irregular"])
    def test_on_equals_off(self, walk_name, shape, regular_graph, irregular_graph):
        graph = regular_graph if shape == "regular" else irregular_graph
        # K=10 > the tail hand-off threshold, so blocks, lane retirement,
        # compaction AND the scalar tail all run instrumented.
        baseline = _run_fleet(walk_name, graph, 10, 1000)
        tel = Telemetry()
        with session(tel):
            instrumented = _run_fleet(walk_name, graph, 10, 1000)
        assert instrumented == baseline
        assert tel.counters["fleet.lanes"] == 10

    def test_counters_actually_accumulate(self, irregular_graph):
        tel = Telemetry()
        with session(tel):
            _run_fleet("eprocess", irregular_graph, 10, 77)
        assert tel.counters["fleet.fleets"] == 1
        assert tel.counters["fleet.numpy_fleets"] == 1
        assert tel.counters["wordbank.draws"] > 0
        assert tel.counters["wordbank.panel_words"] > 0
        assert tel.counters["fleet.words_consumed"] > 0
        # Per-degree draw counts partition the total draw count.
        per_degree = sum(
            v for k, v in tel.counters.items()
            if k.startswith("wordbank.degree[") and k.endswith("].draws")
        )
        assert per_degree == tel.counters["wordbank.draws"]
        # Lane-steps reconcile with the covers: every lane's cover time is
        # accounted as block lane-steps plus tail/retirement hand-offs, so
        # the block total can never exceed the summed covers.
        covers, _ = _run_fleet("eprocess", irregular_graph, 10, 77)
        assert tel.counters["fleet.lane_steps"] <= sum(covers)

    @pytest.mark.skipif(not native.available(), reason="native fused kernel not built")
    @pytest.mark.parametrize("walk_name", FLEET_WALKS)
    @pytest.mark.parametrize("shape", ["regular", "irregular"])
    def test_native_counts_the_same_words(self, walk_name, shape, regular_graph, irregular_graph):
        # The kernel counts each lane's words as it draws them; the numpy
        # path counts what its word bank hands out.  Both must report the
        # words the reference walks consume.
        graph = regular_graph if shape == "regular" else irregular_graph
        K = 10
        consumed = {}
        for native_pref in (True, False):
            rngs = [random.Random(300 + k) for k in range(K)]
            tel = Telemetry()
            with session(tel):
                fleet = FLEET_CLASSES[walk_name]([graph] * K, [0] * K, rngs, native=native_pref)
                fleet.run_until_cover("edges")
            kernel = "fleet.native_fleets" if native_pref else "fleet.numpy_fleets"
            assert tel.counters[kernel] == 1
            consumed[native_pref] = tel.counters["fleet.words_consumed"]
        assert consumed[True] == consumed[False] > 0


class TestOracleEngines:
    @pytest.mark.parametrize("walk_name", FLEET_WALKS)
    @pytest.mark.parametrize("engine", ["reference", "array"])
    def test_on_equals_off(self, walk_name, engine):
        graph = ImplicitHypercube(7)
        variants = NAMED_WALK_FACTORIES[walk_name]
        if engine not in variants:
            pytest.skip(f"{walk_name} has no {engine} engine")
        factory = variants[engine]
        baseline = _run_walk(factory, graph, 9)
        tel = Telemetry()
        with session(tel):
            instrumented = _run_walk(factory, graph, 9)
        assert instrumented == baseline

    def test_oracle_counters_reconcile_with_cover(self):
        graph = ImplicitHypercube(7)
        factory = NAMED_WALK_FACTORIES["srw"]["array"]
        tel = Telemetry()
        with session(tel):
            cover, _, _ = _run_walk(factory, graph, 9)
        assert tel.counters["oracle.steps"] == cover
        assert tel.counters["oracle.chunks"] >= 1

    def test_oracle_fleet_on_equals_off(self):
        graph = ImplicitHypercube(6)
        baseline = _run_fleet("srw", graph, 10, 5)
        tel = Telemetry()
        with session(tel):
            instrumented = _run_fleet("srw", graph, 10, 5)
        assert instrumented == baseline
        assert tel.counters["fleet.fleets"] == 1
        kernels = [tel.counters.get(c, 0) for c in ("fleet.native_fleets", "fleet.numpy_fleets")]
        assert sorted(kernels) == [0, 1]


class TestRunnerIdentity:
    @pytest.mark.parametrize("engine", ["reference", "array", "fleet"])
    def test_cover_time_trials_on_equals_off(self, engine, regular_graph):
        from repro.sim.runner import cover_time_trials

        kwargs = dict(
            workload=regular_graph,
            walk_factory="srw",
            trials=6,
            root_seed=11,
            label="tel-identity",
        )
        baseline = cover_time_trials(**kwargs, policy=ExecutionPolicy(engine=engine))
        tel = Telemetry()
        with session(tel):
            instrumented = cover_time_trials(**kwargs, policy=ExecutionPolicy(engine=engine))
        assert instrumented.cover_times == baseline.cover_times
        assert tel.counters["runner.trials"] == 6
        assert tel.counters["runner.steps"] == sum(baseline.cover_times)
