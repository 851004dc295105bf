"""Tests for the array-backed engines: parity with the reference walks.

The contract under test is strong: for an identical seed, an array engine
must reproduce its reference twin *bit for bit* — trajectory, first-visit
times, phase statistics, cover times, and even the Mersenne-Twister state
left behind — regardless of how its stepping is chunked.
"""

import random

import pytest

from repro.core.eprocess import EdgeProcess
from repro.engine import (
    ArrayEdgeProcess,
    ArraySRW,
    NAMED_WALK_FACTORIES,
    resolve_walk_factory,
)
from repro.engine.base import MTWordStream
from repro.errors import CoverTimeout, GraphError, ReproError
from repro.graphs.generators import cycle_graph, path_graph, petersen_graph
from repro.graphs.graph import Graph, GraphBuilder
from repro.graphs.random_regular import random_connected_regular_graph
from repro.walks.srw import SimpleRandomWalk

SEEDS = [0, 1, 12345]


def _regular(n=120, d=4, seed=7):
    return random_connected_regular_graph(n, d, random.Random(seed))


def _loopy_multigraph():
    """Even-degree multigraph with loops and parallel edges."""
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
    "cycle": cycle_graph(15),
    "path": path_graph(9),
    "petersen": petersen_graph(),
    "loopy": _loopy_multigraph(),
}


def _srw_state(walk):
    return (
        walk.current,
        walk.steps,
        walk.num_visited_vertices,
        list(walk.first_visit_time),
        walk.num_visited_edges,
        list(walk.first_edge_visit_time),
        walk.rng.getstate(),
    )


def _ep_state(walk):
    return _srw_state(walk) + (
        walk.red_steps,
        walk.blue_steps,
        list(walk.phase_marks),
        walk.last_color,
        list(walk.blue_degree),
    )


class TestArraySRWParity:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_chunked_matches_stepwise_reference(self, graph_name, seed):
        graph = GRAPHS[graph_name]
        reference = SimpleRandomWalk(graph, 0, rng=random.Random(seed), track_edges=True)
        array = ArraySRW(graph, 0, rng=random.Random(seed), track_edges=True, chunk_size=64)
        reference.run(2000)
        # Uneven chunk sizes exercise every kernel boundary.
        for size in (1, 7, 500, 1492):
            array.run(size)
        assert _srw_state(array) == _srw_state(reference)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trajectory_matches_per_step(self, seed):
        graph = GRAPHS["regular"]
        reference = SimpleRandomWalk(graph, 3, rng=random.Random(seed))
        array = ArraySRW(graph, 3, rng=random.Random(seed))
        ref_traj = [reference.step() for _ in range(300)]
        arr_traj = [array.run(1) for _ in range(300)]
        assert arr_traj == ref_traj

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_vertex_cover_time_matches(self, graph_name):
        graph = GRAPHS[graph_name]
        reference = SimpleRandomWalk(graph, 0, rng=random.Random(11))
        array = ArraySRW(graph, 0, rng=random.Random(11))
        assert array.run_until_vertex_cover() == reference.run_until_vertex_cover()
        assert array.rng.getstate() == reference.rng.getstate()

    def test_edge_cover_time_matches(self):
        graph = GRAPHS["loopy"]
        reference = SimpleRandomWalk(graph, 0, rng=random.Random(5), track_edges=True)
        array = ArraySRW(graph, 0, rng=random.Random(5), track_edges=True)
        assert array.run_until_edge_cover() == reference.run_until_edge_cover()

    def test_steady_state_batches_stay_identical(self):
        # A long run crosses cover and several run() split boundaries;
        # the batched kernel keeps stepping bit-exact past cover.
        graph = _regular(n=80)
        reference = SimpleRandomWalk(graph, 0, rng=random.Random(2))
        array = ArraySRW(graph, 0, rng=random.Random(2))
        reference.run(300_000)
        array.run(300_000)
        assert array.current == reference.current
        assert array.rng.getstate() == reference.rng.getstate()

    def test_step_and_chunk_interleave(self):
        graph = GRAPHS["regular"]
        reference = SimpleRandomWalk(graph, 0, rng=random.Random(9))
        array = ArraySRW(graph, 0, rng=random.Random(9))
        reference.run(600)
        array.run(200)
        for _ in range(100):
            array.step()
        array.run(300)
        assert _srw_state(array) == _srw_state(reference)


class TestArrayEdgeProcessParity:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_edge_cover_full_state(self, graph_name, seed):
        graph = GRAPHS[graph_name]
        reference = EdgeProcess(graph, 0, rng=random.Random(seed))
        array = ArrayEdgeProcess(graph, 0, rng=random.Random(seed), chunk_size=97)
        ref_cover = reference.run_until_edge_cover()
        arr_cover = array.run_until_edge_cover()
        assert arr_cover == ref_cover
        assert _ep_state(array) == _ep_state(reference)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_vertex_cover_matches(self, seed):
        graph = _regular(n=200, seed=3)
        reference = EdgeProcess(graph, 5, rng=random.Random(seed))
        array = ArrayEdgeProcess(graph, 5, rng=random.Random(seed))
        assert array.run_until_vertex_cover() == reference.run_until_vertex_cover()

    @pytest.mark.parametrize("record_phases", [True, False])
    def test_post_cover_srw_phase_stays_identical(self, record_phases):
        # Past edge cover the E-process degenerates to an SRW whose every
        # step is red; the array engine must stay bit-exact there, both
        # with phase marks and without them (the runner's configuration).
        graph = _regular(n=64, seed=1)
        reference = EdgeProcess(
            graph, 0, rng=random.Random(4), record_phases=record_phases
        )
        array = ArrayEdgeProcess(
            graph, 0, rng=random.Random(4), record_phases=record_phases
        )
        reference.run(200_000)
        array.run(200_000)
        assert _ep_state(array) == _ep_state(reference)

    def test_red_trajectory_recording_matches(self):
        graph = GRAPHS["petersen"]
        reference = EdgeProcess(graph, 0, rng=random.Random(8), record_red_trajectory=True)
        array = ArrayEdgeProcess(graph, 0, rng=random.Random(8), record_red_trajectory=True)
        reference.run(5000)
        array.run(5000)
        assert array.red_trajectory == reference.red_trajectory

    def test_surface_properties_present(self):
        array = ArrayEdgeProcess(GRAPHS["cycle"], 0, rng=random.Random(1))
        array.run(4)
        assert array.next_color in ("blue", "red")
        assert array.num_blue_edges == array.graph.m - array.num_visited_edges
        assert isinstance(array.blue_edge_ids(), list)


class TestChunkSemantics:
    def test_run_exact_steps_and_return(self):
        array = ArraySRW(GRAPHS["regular"], 0, rng=random.Random(0))
        out = array.run(137)
        assert array.steps == 137
        assert out == array.current
        assert array.run(0) == array.current
        assert array.steps == 137

    def test_run_negative_rejected(self):
        array = ArraySRW(GRAPHS["cycle"], 0, rng=random.Random(0))
        with pytest.raises(ReproError):
            array.run(-1)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ReproError):
            ArraySRW(GRAPHS["cycle"], 0, rng=random.Random(0), chunk_size=0)

    def test_cover_timeout_matches_reference(self):
        graph = cycle_graph(40)
        reference = SimpleRandomWalk(graph, 0, rng=random.Random(3))
        array = ArraySRW(graph, 0, rng=random.Random(3))
        with pytest.raises(CoverTimeout) as ref_info:
            reference.run_until_vertex_cover(max_steps=25)
        with pytest.raises(CoverTimeout) as arr_info:
            array.run_until_vertex_cover(max_steps=25)
        assert arr_info.value.steps == ref_info.value.steps == 25
        assert arr_info.value.remaining == ref_info.value.remaining

    def test_edge_cover_requires_tracking(self):
        array = ArraySRW(GRAPHS["cycle"], 0, rng=random.Random(0))
        with pytest.raises(GraphError):
            array.run_until_edge_cover()

    def test_single_vertex_graph_covers_trivially(self):
        array = ArraySRW(Graph(1, [(0, 0)]), 0, rng=random.Random(0))
        assert array.run_until_vertex_cover() == 0

    def test_isolated_vertex_stepping_raises_not_hangs(self):
        # Regression: the edgeless single-vertex graph used to spin
        # forever in the E-process chunk kernel (getrandbits(0) == 0
        # never exits the rejection loop); both engines must raise like
        # the reference's randrange(0) does.
        for cls in (ArraySRW, ArrayEdgeProcess):
            walk = cls(Graph(1, []), 0, rng=random.Random(0))
            with pytest.raises(GraphError):
                walk.run(5)

    def test_exotic_rng_falls_back_to_reference_stepping(self):
        class NoisyRandom(random.Random):
            """Overrides random() only: CPython swaps its _randbelow."""

            def random(self):
                return super().random()

        graph = GRAPHS["regular"]
        reference = SimpleRandomWalk(graph, 0, rng=NoisyRandom(21))
        array = ArraySRW(graph, 0, rng=NoisyRandom(21))
        reference.run(2000)
        array.run(2000)
        assert array.current == reference.current
        assert array.rng.getstate() == reference.rng.getstate()


class TestMTWordStream:
    def test_supports_plain_random(self):
        assert MTWordStream.supports(random.Random(1))

    def test_rejects_randbelow_overrides(self):
        class Custom(random.Random):
            def random(self):
                return 0.5

        assert not MTWordStream.supports(Custom(1))

    def test_words_and_sync_match_getrandbits(self):
        rng = random.Random(99)
        twin = random.Random(99)
        stream = MTWordStream(rng)
        stream.begin()
        words = stream.take(40).tolist()
        stream.end(unused=15)  # consumed 25 words
        expected = [twin.getrandbits(32) for _ in range(25)]
        assert words[:25] == expected
        assert rng.getstate() == twin.getstate()


class TestRegistry:
    def test_named_walks_resolve_for_their_engines(self):
        for name, variants in NAMED_WALK_FACTORIES.items():
            assert "reference" in variants  # every walk has a reference form
            for engine in variants:
                factory = resolve_walk_factory(name, engine)
                walk = factory(GRAPHS["cycle"], 0, random.Random(1))
                assert walk.tracks_edges or name == "eprocess"

    def test_missing_engine_is_explicit_not_silent(self):
        # A walk without the requested engine must raise an error naming
        # the walk and its available engines — not run the reference path.
        with pytest.raises(ReproError) as info:
            resolve_walk_factory("vprocess", "array")
        assert "vprocess" in str(info.value)
        assert "reference" in str(info.value)
        with pytest.raises(ReproError) as info:
            resolve_walk_factory("rotor", "fleet")
        assert "rotor" in str(info.value)

    @pytest.mark.parametrize(
        "walk, engine, ok",
        [
            ("srw", "array", True),
            ("srw", "fleet", True),
            ("eprocess", "fleet", True),
            ("vprocess", "fleet", True),
            ("rotor", "array", True),
            ("rwc2", "array", True),
            ("vprocess", "array", False),  # no array twin
            ("rotor", "fleet", False),  # no lockstep class
        ],
    )
    def test_engine_must_exist_for_walk(self, walk, engine, ok):
        # Fleet capability is membership in FLEET_ENGINES; the error lists
        # every engine the walk does have, fleet included.
        if ok:
            resolve_walk_factory(walk, engine)
            return
        with pytest.raises(ReproError, match=f"'{engine}' engine") as info:
            resolve_walk_factory(walk, engine)
        assert "'reference'" in str(info.value)
        if walk == "vprocess":
            assert "'fleet'" in str(info.value).split(";")[0]

    def test_callable_passthrough_reference_only(self):
        def factory(graph, start, rng):
            return SimpleRandomWalk(graph, start, rng=rng)

        assert resolve_walk_factory(factory, "reference") is factory
        with pytest.raises(ReproError):
            resolve_walk_factory(factory, "array")

    def test_unknown_walk_or_engine_rejected(self):
        with pytest.raises(ReproError):
            resolve_walk_factory("teleport", "array")
        with pytest.raises(ReproError):
            resolve_walk_factory("srw", "warp")
