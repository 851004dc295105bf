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

from repro.errors import CoverTimeout
from repro.engine import FLEET_ENGINES, NAMED_WALK_FACTORIES, FleetSRW, native
from repro.graphs import ImplicitHypercube
from repro.graphs.generators import hypercube_graph, lollipop_graph
from repro.sim.policy import ExecutionPolicy
from repro.telemetry import Telemetry, session
from tests.kernels import run_on

FLEET_WALKS = sorted(FLEET_ENGINES)  # srw, eprocess, vprocess


def _run_walk(factory, graph, seed):
    walk = factory(graph, 0, random.Random(seed))
    cover = walk.run_until_vertex_cover()
    return cover, list(walk.first_visit_time), walk.rng.getstate()


def _run_fleet(walk_name, graph, K, seed):
    rngs = [random.Random(seed + k) for k in range(K)]
    starts = [random.Random(500 + k).randrange(graph.n) for k in range(K)]
    fleet = FLEET_ENGINES[walk_name]([graph] * K, starts, rngs)
    # The numpy path is the one instrumented.
    cover = run_on(False, fleet, "vertices")
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
        # K=10 lanes, so blocks, lane retirement and compaction all run
        # instrumented, down to the last lane's cover.
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
        # Lane-steps reconcile with the covers: every lane steps in the
        # fleet until its cover instant, so the block total is exactly
        # the summed covers.
        covers, _ = _run_fleet("eprocess", irregular_graph, 10, 77)
        assert tel.counters["fleet.lane_steps"] == sum(covers)

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
        for use_native in (True, False):
            rngs = [random.Random(300 + k) for k in range(K)]
            tel = Telemetry()
            with session(tel):
                fleet = FLEET_ENGINES[walk_name]([graph] * K, [0] * K, rngs)
                run_on(use_native, fleet, "edges")
            kernel = "fleet.native_fleets" if use_native else "fleet.numpy_fleets"
            assert tel.counters[kernel] == 1
            consumed[use_native] = tel.counters["fleet.words_consumed"]
        assert consumed[True] == consumed[False] > 0

    @pytest.mark.parametrize(
        "use_native",
        [
            False,
            pytest.param(
                True,
                marks=pytest.mark.skipif(
                    not native.available(), reason="native fused kernel not built"
                ),
            ),
        ],
    )
    def test_timeout_counts_live_lanes_words(self, use_native):
        # A budget timeout ends the fleet with every lane still live; the
        # words those lanes drew count as they are synced, so the total
        # matches what the reference twins drew in the same 30 steps.
        graph = lollipop_graph(6, 9)
        K = 8
        tel = Telemetry()
        with session(tel):
            rngs = [random.Random(40 + k) for k in range(K)]
            fleet = FleetSRW([graph] * K, [0] * K, rngs)
            with pytest.raises(CoverTimeout):
                run_on(use_native, fleet, "edges", max_steps=30)
        drawn = 0
        for k in range(K):
            twin = random.Random(40 + k)
            walk = NAMED_WALK_FACTORIES["srw"]["reference"](graph, 0, twin)
            with pytest.raises(CoverTimeout):
                walk.run_until_edge_cover(30)
            drawn += _words_between(random.Random(40 + k), twin)
        assert tel.counters["fleet.lane_steps"] == K * 30
        assert tel.counters["fleet.words_consumed"] == drawn > 0


def _words_between(start, end):
    """Raw MT words ``end`` has drawn past ``start``'s state."""
    target = end.getstate()
    for words in range(100_000):
        if start.getstate() == target:
            return words
        start.getrandbits(32)  # exactly one 32-bit word
    raise AssertionError("end state is not reachable from start")


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
