"""Bit-identity suites for the rotor-router and RWC(d) array engines.

Same contract as ``tests/test_engine.py``: for an identical seed, an
array engine must reproduce its reference twin bit for bit — trajectory,
rotor/visit-count state, first-visit times, cover times, and the
Mersenne-Twister state left behind — regardless of chunking.
"""

import random

import pytest

from repro.engine import ArrayRotorRouter, ArrayRWC
from repro.errors import GraphError, ReproError
from repro.graphs.generators import cycle_graph, path_graph, petersen_graph
from repro.graphs.graph import Graph, GraphBuilder
from repro.graphs.random_regular import random_connected_regular_graph
from repro.walks.choice import RandomWalkWithChoice
from repro.walks.rotor import RotorRouterWalk

SEEDS = [0, 1, 12345]


def _regular(n=120, d=4, seed=7):
    return random_connected_regular_graph(n, d, random.Random(seed))


def _loopy_multigraph():
    b = GraphBuilder(4)
    b.add_edge(0, 0)  # loop
    b.add_edge(0, 1)
    b.add_edge(0, 1)  # parallel
    b.add_edge(1, 2)
    b.add_edge(2, 3)
    b.add_edge(3, 1)
    b.add_edge(2, 3)  # parallel
    b.add_edge(3, 2)  # parallel, reversed orientation
    return b.build("loopy")


GRAPHS = {
    "regular": _regular(),
    "regular3": _regular(n=90, d=3, seed=2),  # odd degree: non-pow2 modulus
    "cycle": cycle_graph(15),
    "path": path_graph(9),
    "petersen": petersen_graph(),
    "loopy": _loopy_multigraph(),
}


def _walk_state(walk):
    return (
        walk.current,
        walk.steps,
        walk.num_visited_vertices,
        list(walk.first_visit_time),
        walk.num_visited_edges,
        list(walk.first_edge_visit_time),
        walk.rng.getstate(),
    )


class TestArrayRotorRouterParity:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_chunked_matches_stepwise_reference(self, graph_name, seed):
        graph = GRAPHS[graph_name]
        reference = RotorRouterWalk(
            graph, 0, rng=random.Random(seed), track_edges=True, randomize_rotors=True
        )
        array = ArrayRotorRouter(
            graph,
            0,
            rng=random.Random(seed),
            track_edges=True,
            randomize_rotors=True,
            chunk_size=64,
        )
        reference.run(3000)
        for size in (1, 7, 500, 2492):
            array.run(size)
        assert _walk_state(array) == _walk_state(reference)
        assert array.rotor_positions() == reference.rotor_positions()

    def test_trajectory_matches_per_step(self):
        graph = GRAPHS["regular"]
        reference = RotorRouterWalk(graph, 3, rng=random.Random(1))
        array = ArrayRotorRouter(graph, 3, rng=random.Random(1))
        ref_traj = [reference.step() for _ in range(300)]
        arr_traj = [array.run(1) for _ in range(300)]
        assert arr_traj == ref_traj

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_cover_times_match(self, graph_name):
        graph = GRAPHS[graph_name]
        reference = RotorRouterWalk(graph, 0, rng=random.Random(11), track_edges=True)
        array = ArrayRotorRouter(graph, 0, rng=random.Random(11), track_edges=True)
        assert array.run_until_vertex_cover() == reference.run_until_vertex_cover()
        assert array.run_until_edge_cover() == reference.run_until_edge_cover()
        assert array.rotor_positions() == reference.rotor_positions()

    def test_saturated_long_run_stays_identical(self):
        # A long run past vertex and edge cover, across a run() split
        # boundary, with rotor state and visit bookkeeping exact.
        graph = _regular(n=64, seed=1)
        reference = RotorRouterWalk(graph, 0, rng=random.Random(2), track_edges=True)
        array = ArrayRotorRouter(graph, 0, rng=random.Random(2), track_edges=True)
        reference.run(100_003)  # odd remainder exercises the unroll tail
        array.run(100_003)
        assert _walk_state(array) == _walk_state(reference)
        assert array.rotor_positions() == reference.rotor_positions()

    def test_step_and_chunk_interleave(self):
        graph = GRAPHS["petersen"]
        reference = RotorRouterWalk(graph, 0, rng=random.Random(9), randomize_rotors=True)
        array = ArrayRotorRouter(graph, 0, rng=random.Random(9), randomize_rotors=True)
        reference.run(600)
        array.run(200)
        for _ in range(100):
            array.step()
        array.run(300)
        assert _walk_state(array) == _walk_state(reference)
        assert array.rotor_positions() == reference.rotor_positions()

    def test_randomized_rotor_init_consumes_same_rng(self):
        rng_a, rng_b = random.Random(5), random.Random(5)
        RotorRouterWalk(GRAPHS["cycle"], 0, rng=rng_a, randomize_rotors=True)
        ArrayRotorRouter(GRAPHS["cycle"], 0, rng=rng_b, randomize_rotors=True)
        assert rng_a.getstate() == rng_b.getstate()

    def test_isolated_vertex_stepping_raises_not_crashes(self):
        walk = ArrayRotorRouter(Graph(1, []), 0, rng=random.Random(0))
        with pytest.raises(GraphError):
            walk.run(5)


class TestArrayRWCParity:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_chunked_matches_stepwise_reference(self, graph_name, seed, d):
        graph = GRAPHS[graph_name]
        reference = RandomWalkWithChoice(
            graph, 0, d=d, rng=random.Random(seed), track_edges=True
        )
        array = ArrayRWC(
            graph, 0, d=d, rng=random.Random(seed), track_edges=True, chunk_size=64
        )
        reference.run(5000)
        for size in (1, 1500, 7, 3492):
            array.run(size)
        assert _walk_state(array) == _walk_state(reference)
        assert array.visit_counts == reference.visit_counts

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_cover_times_and_final_rng_match(self, graph_name):
        graph = GRAPHS[graph_name]
        reference = RandomWalkWithChoice(
            graph, 0, d=2, rng=random.Random(17), track_edges=True
        )
        array = ArrayRWC(graph, 0, d=2, rng=random.Random(17), track_edges=True)
        assert array.run_until_vertex_cover() == reference.run_until_vertex_cover()
        assert array.run_until_edge_cover() == reference.run_until_edge_cover()
        assert array.rng.getstate() == reference.rng.getstate()

    @pytest.mark.parametrize(
        "graph, d",
        [
            (_regular(n=100, seed=4), 2),  # RWC(2) kernel: precomputed word roles
            (GRAPHS["path"], 2),  # irregular: the per-draw tier
            (GRAPHS["loopy"], 2),  # loops and parallel edges, per-draw tier
            (GRAPHS["regular"], 3),  # d != 2 on a regular graph, per-draw tier
        ],
        ids=["regular-d2", "path-d2", "loopy-d2", "regular-d3"],
    )
    def test_tier0_long_post_cover_run_stays_identical(self, graph, d):
        # Each chunk tier past cover and across run() split boundaries
        # (RUN_SPLIT_STEPS = 65 536), odd lengths included.
        reference = RandomWalkWithChoice(graph, 0, d=d, rng=random.Random(8))
        array = ArrayRWC(graph, 0, d=d, rng=random.Random(8))
        reference.run(150_001)
        array.run(150_001)
        assert array.current == reference.current
        assert array.visit_counts == reference.visit_counts
        assert array.rng.getstate() == reference.rng.getstate()

    def test_step_and_chunk_interleave(self):
        graph = GRAPHS["regular"]
        reference = RandomWalkWithChoice(graph, 0, d=2, rng=random.Random(9))
        array = ArrayRWC(graph, 0, d=2, rng=random.Random(9))
        reference.run(9000)
        array.run(4000)
        for _ in range(100):
            array.step()
        array.run(4900)
        assert _walk_state(array) == _walk_state(reference)
        assert array.visit_counts == reference.visit_counts

    def test_exotic_rng_falls_back_to_reference_stepping(self):
        class NoisyRandom(random.Random):
            def random(self):
                return super().random()

        graph = GRAPHS["regular"]
        reference = RandomWalkWithChoice(graph, 0, d=2, rng=NoisyRandom(21))
        array = ArrayRWC(graph, 0, d=2, rng=NoisyRandom(21))
        reference.run(2000)
        array.run(2000)
        assert array.current == reference.current
        assert array.rng.getstate() == reference.rng.getstate()

    def test_d_validation_matches_reference(self):
        with pytest.raises(GraphError):
            ArrayRWC(GRAPHS["cycle"], 0, d=0, rng=random.Random(0))

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ReproError):
            ArrayRWC(GRAPHS["cycle"], 0, rng=random.Random(0), chunk_size=0)

    def test_isolated_vertex_stepping_raises_not_hangs(self):
        walk = ArrayRWC(Graph(1, []), 0, rng=random.Random(0))
        with pytest.raises(GraphError):
            walk.run(5)
