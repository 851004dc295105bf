"""Lockstep E-/V-process fleets vs. their per-trial reference walks.

The contract under test is bit-identical replay of the paper's own
process (and its vertex analogue): for every fleet size, both cover
targets, and regular *and* irregular graphs, each lane of
:class:`~repro.engine.fleet_unvisited.FleetEdgeProcess` /
:class:`~repro.engine.fleet_unvisited.FleetVProcess` must reproduce a
sequential reference run of the same seed — cover time, vertex and edge
first-visit tables, red/blue step split, final position, and the
generator's end-state.  The E-process fleet records no colours of its
own: every blue step visits exactly one new edge, so its edge
first-visit table must name exactly the blue steps of the reference
walk's phase marks.
"""

import random

import pytest

from repro.core.eprocess import BLUE, RED, EdgeProcess
from repro.engine import FleetEdgeProcess, FleetVProcess
from repro.errors import CoverTimeout, ReproError
from repro.graphs.generators import cycle_graph, lollipop_graph
from repro.graphs.graph import Graph
from repro.graphs.random_regular import random_connected_regular_graph
from repro.sim.policy import ExecutionPolicy
from repro.sim.runner import cover_time_trials
from repro.walks.choice import UnvisitedVertexWalk

FLEET_SIZES = [1, 2, 7, 32]


def _regular(n=60, d=4, seed=7):
    return random_connected_regular_graph(n, d, random.Random(seed))


def _irregular():
    # Clique + pendant path: degrees range from 1 to the clique degree,
    # exercising the general (non-packed) per-degree prefilter path.
    return lollipop_graph(6, 9)


def _colours_from_marks(marks, steps):
    """Colour of each step 1..steps, read off a walk's phase marks."""
    colours = []
    for mark, nxt in zip(marks, list(marks[1:]) + [None]):
        end = nxt.step if nxt is not None else steps + 1
        colours += [mark.color] * (end - mark.step)
    return colours


def _colours_from_edges(first_edge_visits, steps):
    """Colour of each step 1..steps, read off an edge first-visit table."""
    blue = {t for t in first_edge_visits if t > 0}
    return [BLUE if t in blue else RED for t in range(1, steps + 1)]


def _lanes(graph, K, base_seed):
    starts = [random.Random(100 + k).randrange(graph.n) for k in range(K)]
    rngs = [random.Random(base_seed + k) for k in range(K)]
    twins = [random.Random(base_seed + k) for k in range(K)]
    return starts, rngs, twins


class TestFleetEdgeProcessParity:
    @pytest.mark.parametrize("K", FLEET_SIZES)
    @pytest.mark.parametrize("target", ["vertices", "edges"])
    @pytest.mark.parametrize("shape", ["regular", "irregular"])
    def test_lanes_match_sequential_eprocess(self, K, target, shape):
        graph = _regular() if shape == "regular" else _irregular()
        starts, rngs, twins = _lanes(graph, K, 1000)
        fleet = FleetEdgeProcess([graph] * K, starts, rngs)
        cover = fleet.run_until_cover(target=target)
        for k in range(K):
            walk = EdgeProcess(graph, starts[k], rng=twins[k], record_phases=True)
            expected = (
                walk.run_until_vertex_cover()
                if target == "vertices"
                else walk.run_until_edge_cover()
            )
            assert cover[k] == expected
            assert rngs[k].getstate() == twins[k].getstate()
            assert fleet.positions[k] == walk.current
            assert fleet.first_visit_time(k) == list(walk.first_visit_time)
            assert fleet.first_edge_visit_time(k) == list(walk.first_edge_visit_time)
            assert fleet.blue_steps[k] == walk.blue_steps
            assert fleet.red_steps[k] == walk.red_steps
            assert _colours_from_edges(fleet.first_edge_visit_time(k), cover[k]) == (
                _colours_from_marks(walk.phase_marks, cover[k])
            )

    def test_distinct_same_shape_graphs_per_lane(self):
        K = 7
        graphs = [_regular(n=40, seed=50 + k) for k in range(K)]
        starts = [k % 40 for k in range(K)]
        rngs = [random.Random(2000 + k) for k in range(K)]
        twins = [random.Random(2000 + k) for k in range(K)]
        fleet = FleetEdgeProcess(graphs, starts, rngs)
        cover = fleet.run_until_cover("vertices")
        for k in range(K):
            walk = EdgeProcess(graphs[k], starts[k], rng=twins[k], record_phases=True)
            assert cover[k] == walk.run_until_vertex_cover()
            assert rngs[k].getstate() == twins[k].getstate()
            assert _colours_from_edges(fleet.first_edge_visit_time(k), cover[k]) == (
                _colours_from_marks(walk.phase_marks, cover[k])
            )

    def test_self_loop_graph_rejected(self):
        looped = Graph(3, [(0, 0), (0, 1), (1, 2), (2, 0)])
        with pytest.raises(ReproError, match="self-loops"):
            FleetEdgeProcess([looped], [0], [random.Random(0)])

    def test_budget_timeout_syncs_rng(self):
        graph = _regular(n=80)
        starts, rngs, twins = _lanes(graph, 8, 4000)
        fleet = FleetEdgeProcess([graph] * 8, starts, rngs)
        with pytest.raises(CoverTimeout):
            fleet.run_until_cover("edges", max_steps=7)
        for k in range(8):
            walk = EdgeProcess(graph, starts[k], rng=twins[k])
            for _ in range(7):
                walk.step()
            assert rngs[k].getstate() == twins[k].getstate()


class TestFleetVProcessParity:
    @pytest.mark.parametrize("K", FLEET_SIZES)
    @pytest.mark.parametrize("target", ["vertices", "edges"])
    @pytest.mark.parametrize("shape", ["regular", "irregular"])
    def test_lanes_match_sequential_vprocess(self, K, target, shape):
        graph = _regular() if shape == "regular" else _irregular()
        starts, rngs, twins = _lanes(graph, K, 5000)
        fleet = FleetVProcess([graph] * K, starts, rngs)
        cover = fleet.run_until_cover(target=target)
        for k in range(K):
            walk = UnvisitedVertexWalk(
                graph, starts[k], rng=twins[k], track_edges=True
            )
            expected = (
                walk.run_until_vertex_cover()
                if target == "vertices"
                else walk.run_until_edge_cover()
            )
            assert cover[k] == expected
            assert rngs[k].getstate() == twins[k].getstate()
            assert fleet.positions[k] == walk.current
            assert fleet.first_visit_time(k) == list(walk.first_visit_time)
            assert fleet.first_edge_visit_time(k) == list(walk.first_edge_visit_time)

    def test_multigraph_rejected(self):
        multi = Graph(3, [(0, 1), (0, 1), (1, 2)])
        with pytest.raises(ReproError, match="simple"):
            FleetVProcess([multi], [0], [random.Random(0)])

    def test_trivial_graph_covers_at_zero_without_rng(self):
        rng = random.Random(5)
        before = rng.getstate()
        fleet = FleetVProcess([Graph(1, [])], [0], [rng])
        assert fleet.run_until_cover("vertices") == [0]
        assert rng.getstate() == before


class TestUnvisitedFleetRunnerSurface:
    @pytest.mark.parametrize("walk", ["eprocess", "vprocess"])
    @pytest.mark.parametrize("fleet_size", FLEET_SIZES)
    def test_bit_identical_to_reference(self, walk, fleet_size):
        from repro.experiments.spec import family_workload

        workload = family_workload("regular", {"n": 40, "degree": 4})
        reference = cover_time_trials(
            workload, walk, trials=9, root_seed=42
        )
        fleet = cover_time_trials(
            workload,
            walk,
            trials=9,
            root_seed=42,
            policy=ExecutionPolicy(engine="fleet", fleet_size=fleet_size),
        )
        assert fleet.cover_times == reference.cover_times

    @pytest.mark.parametrize("walk", ["eprocess", "vprocess"])
    def test_irregular_fixed_graph_edges_target(self, walk):
        graph = _irregular()
        reference = cover_time_trials(
            graph, walk, trials=6, root_seed=7, target="edges"
        )
        fleet = cover_time_trials(
            graph, walk, trials=6, root_seed=7, target="edges",
            policy=ExecutionPolicy(engine="fleet", fleet_size=4),
        )
        assert fleet.cover_times == reference.cover_times

    @pytest.mark.parametrize("walk", ["eprocess", "vprocess"])
    def test_workers_compose_with_fleets(self, walk):
        graph = _regular(n=40)
        reference = cover_time_trials(
            graph, walk, trials=8, root_seed=11
        )
        fleet = cover_time_trials(
            graph, walk, trials=8, root_seed=11,
            policy=ExecutionPolicy(engine="fleet", workers=2, fleet_size=3),
        )
        assert fleet.cover_times == reference.cover_times

    def test_eprocess_loop_graph_raises_through_runner(self):
        looped = Graph(3, [(0, 0), (0, 1), (1, 2), (2, 0)])
        with pytest.raises(ReproError, match="self-loops"):
            cover_time_trials(
                looped, "eprocess", trials=2, root_seed=1,
                policy=ExecutionPolicy(engine="fleet"),
            )

    def test_engine_switch_shares_store_bucket(self, tmp_path):
        from repro.experiments import ResultStore, SweepSpec, run_sweep

        store = ResultStore(tmp_path / "store")
        cold = run_sweep(
            SweepSpec.regular_grid(
                "efleet", sizes=[40], degrees=[4], walk="eprocess",
                trials=4, root_seed=9,
            ),
            store=store,
        )
        assert (cold.scheduled, cold.cached) == (4, 0)
        warm = run_sweep(
            SweepSpec.regular_grid(
                "efleet", sizes=[40], degrees=[4], walk="eprocess",
                trials=4, root_seed=9,
            ),
            store=store,
            policy=ExecutionPolicy(engine="fleet"),
        )
        assert (warm.scheduled, warm.cached) == (0, 4)
        assert warm.points[0].run.cover_times == cold.points[0].run.cover_times
