"""The implicit neighbor-oracle backend: contracts, engines, fleets.

Three layers of guarantees:

* **Slot-order contract** — for every implicit family,
  ``kth_neighbor(v, k)`` is exactly ``materialize().incidence(v)[k][1]``,
  and ascending canonical-dart (``edge_slot``) order is exactly the
  materialized edge-id order.  Everything else rests on this.
* **Bit-identity** — each oracle walk engine (per-trial and fleet)
  replays the materialized reference walk's draw sequence exactly: same
  trajectories, cover times, first-visit tables, and RNG end-states.
* **Refusals** — walks needing per-edge state the oracle cannot provide
  raise :class:`~repro.errors.ReproError` naming the walk and backend,
  never a silent materialization.
"""

import pickle
import random

import pytest
from hypothesis import given, settings

from repro.core.eprocess import EdgeProcess
from repro.engine import NAMED_WALK_FACTORIES, OracleEdgeProcess, OracleSRW, OracleVProcess
from repro.engine.base import VisitedSet
from repro.cli import main
from repro.engine.fleet import FleetSRW, FleetUnsupported
from repro.engine.fleet_unvisited import FleetEdgeProcess, FleetVProcess
from repro.errors import CoverTimeout, GraphError, ReproError
from repro.experiments.store import ResultStore
from repro.graphs import (
    ImplicitHashedRegular,
    ImplicitHypercube,
    ImplicitTorus,
    is_implicit,
)
from repro.graphs.properties import is_connected
from repro.sim.policy import ExecutionPolicy
from repro.sim.runner import cover_time_trials
from repro.walks.choice import UnvisitedVertexWalk
from repro.walks.srw import SimpleRandomWalk
from tests.strategies import implicit_graphs


def _connected_hashed(n, d):
    for key in range(64):
        g = ImplicitHashedRegular(n, d, key)
        if is_connected(g.materialize()):
            return g
    raise AssertionError(f"no connected hashed graph at n={n}, d={d}")


# Small members of all three families; the hashed ones include odd degree
# (d=3) and a dense one likely to carry loops/parallel edges (d=6, n=20).
FAMILIES = [
    ImplicitHypercube(4),
    ImplicitTorus(4, 6),
    _connected_hashed(40, 4),
    _connected_hashed(30, 3),
    _connected_hashed(20, 6),
]


@pytest.fixture(params=FAMILIES, ids=lambda g: g.name)
def family(request):
    return request.param


class TestSlotOrderContract:
    def test_kth_neighbor_matches_materialized_incidence(self, family):
        mat = family.materialize()
        assert mat.n == family.n and mat.m == family.m
        for v in range(family.n):
            inc = mat.incidence(v)
            assert len(inc) == family.degree(v)
            for k, (_, w) in enumerate(inc):
                assert family.kth_neighbor(v, k) == w

    def test_canonical_dart_rank_is_edge_id(self, family):
        mat = family.materialize()
        darts = {}
        for v in range(family.n):
            for k, (eid, _) in enumerate(mat.incidence(v)):
                dart = family.edge_slot(v, k)
                darts.setdefault(eid, set()).add(dart)
        # one canonical dart per edge, ranked in edge-id order
        canon = [min(ds) for eid, ds in sorted(darts.items())]
        assert canon == sorted(canon)
        assert len(set(canon)) == mat.m

    def test_vectorized_oracles_match_scalar(self, family):
        import numpy as np

        rng = random.Random(5)
        vs = np.array([rng.randrange(family.n) for _ in range(200)], dtype=np.int64)
        ks = np.array(
            [rng.randrange(family.degree(int(v))) for v in vs], dtype=np.int64
        )
        nbrs = family.kth_neighbors(vs, ks)
        slots = family.edge_slots(vs, ks)
        for v, k, w, s in zip(vs.tolist(), ks.tolist(), nbrs.tolist(), slots.tolist()):
            assert family.kth_neighbor(v, k) == w
            assert family.edge_slot(v, k) == s

    def test_reverse_slot_round_trips(self, family):
        for v in range(min(family.n, 30)):
            for k in range(family.degree(v)):
                w = family.kth_neighbor(v, k)
                rk = family.reverse_slot(v, k)
                assert family.kth_neighbor(w, rk) == v
                # both directions name one edge
                assert family.edge_slot(w, rk) == family.edge_slot(v, k)

    def test_pickle_is_tiny_and_faithful(self, family):
        payload = pickle.dumps(family)
        assert len(payload) < 200
        clone = pickle.loads(payload)
        assert clone == family
        for v in (0, family.n - 1):
            for k in range(family.degree(v)):
                assert clone.kth_neighbor(v, k) == family.kth_neighbor(v, k)

    def test_describe_names_size_without_materializing(self):
        g = ImplicitHypercube(24)  # 16.7M vertices; must stay O(1)
        assert "16777216" in g.describe()
        assert g.degree(0) == 24
        with pytest.raises(GraphError):
            g.degree(1 << 24)


class TestConstruction:
    def test_hashed_rejects_odd_dart_count(self):
        with pytest.raises(GraphError):
            ImplicitHashedRegular(3, 3, key=1)

    def test_torus_rejects_small_sides(self):
        with pytest.raises(GraphError):
            ImplicitTorus(2, 5)

    def test_is_implicit(self, family):
        assert is_implicit(family)
        assert not is_implicit(family.materialize())


def _reference_walk(walk, graph, rng):
    if walk == "srw":
        return SimpleRandomWalk(graph, 0, rng=rng, track_edges=True)
    if walk == "eprocess":
        return EdgeProcess(graph, 0, rng=rng, record_phases=False)
    return UnvisitedVertexWalk(graph, 0, rng=rng, track_edges=True)


def _oracle_walk(walk, graph, rng):
    if walk == "srw":
        return OracleSRW(graph, 0, rng=rng, track_edges=True)
    if walk == "eprocess":
        return OracleEdgeProcess(graph, 0, rng=rng, record_phases=False)
    return OracleVProcess(graph, 0, rng=rng, track_edges=True)


class TestBitIdentity:
    """Oracle engines vs materialized reference walks, per family x walk."""

    @pytest.mark.parametrize("walk", ["srw", "eprocess", "vprocess"])
    def test_trajectory_and_rng_end_state(self, family, walk):
        rng_o = random.Random(11)
        rng_r = random.Random(11)
        oracle = _oracle_walk(walk, family, rng_o)
        ref = _reference_walk(walk, family.materialize(), rng_r)
        for _ in range(300):
            assert oracle.step() == ref.step()
            assert oracle.current == ref.current
        assert rng_o.getstate() == rng_r.getstate()
        assert oracle.num_visited_vertices == ref.num_visited_vertices
        assert oracle.num_visited_edges == ref.num_visited_edges

    @pytest.mark.parametrize("walk", ["srw", "eprocess", "vprocess"])
    @pytest.mark.parametrize("target", ["vertices", "edges"])
    def test_cover_runs_match(self, family, walk, target):
        rng_o = random.Random(23)
        rng_r = random.Random(23)
        oracle = _oracle_walk(walk, family, rng_o)
        ref = _reference_walk(walk, family.materialize(), rng_r)
        if target == "vertices":
            c_o = oracle.run_until_vertex_cover()
            c_r = ref.run_until_vertex_cover()
        else:
            c_o = oracle.run_until_edge_cover()
            c_r = ref.run_until_edge_cover()
        assert c_o == c_r
        assert rng_o.getstate() == rng_r.getstate()
        assert list(oracle.first_visit_time) == list(ref.first_visit_time)

    @pytest.mark.parametrize("engine", ["reference", "array"])
    def test_registry_dispatch_is_bit_identical(self, family, engine):
        # The registry routes implicit graphs to the oracle engines under
        # every engine name; numbers must match the materialized walk.
        rng_o = random.Random(31)
        rng_r = random.Random(31)
        factory = NAMED_WALK_FACTORIES["srw"][engine]
        oracle = factory(family, 0, rng_o)
        ref = factory(family.materialize(), 0, rng_r)
        assert oracle.run_until_vertex_cover() == ref.run_until_vertex_cover()
        assert rng_o.getstate() == rng_r.getstate()

    def test_edge_first_visit_darts_match_reference(self, family):
        mat = family.materialize()
        rng_o = random.Random(43)
        rng_r = random.Random(43)
        oracle = OracleSRW(family, 0, rng=rng_o, track_edges=True)
        ref = SimpleRandomWalk(mat, 0, rng=rng_r, track_edges=True)
        oracle.run_until_edge_cover()
        ref.run_until_edge_cover()
        dart_of_edge = {}
        for v in range(family.n):
            for k, (eid, _) in enumerate(mat.incidence(v)):
                d = family.edge_slot(v, k)
                if eid not in dart_of_edge or d < dart_of_edge[eid]:
                    dart_of_edge[eid] = d
        got = [oracle.first_edge_visit_dart_time[dart_of_edge[e]] for e in range(mat.m)]
        assert got == list(ref.first_edge_visit_time)

    def test_eprocess_red_blue_split_matches(self, family):
        if family.regularity() % 2:
            pytest.skip("odd degree: red/blue split compared on even families")
        rng_o = random.Random(53)
        rng_r = random.Random(53)
        oracle = OracleEdgeProcess(family, 0, rng=rng_o)
        ref = EdgeProcess(family.materialize(), 0, rng=rng_r)
        oracle.run_until_edge_cover()
        ref.run_until_edge_cover()
        assert oracle.blue_steps == ref.blue_steps
        assert oracle.red_steps == ref.red_steps
        assert oracle.phase_marks == ref.phase_marks


class TestFleet:
    K = 9

    @pytest.mark.parametrize("target", ["vertices", "edges"])
    def test_fleet_matches_reference_lanes(self, family, target):
        starts = [(3 * k) % family.n for k in range(self.K)]
        rngs_f = [random.Random(61 + k) for k in range(self.K)]
        rngs_r = [random.Random(61 + k) for k in range(self.K)]
        fleet = FleetSRW([family] * self.K, starts, rngs_f)
        covers = fleet.run_until_cover(target=target)
        mat = family.materialize()
        for k in range(self.K):
            ref = SimpleRandomWalk(mat, starts[k], rng=rngs_r[k], track_edges=True)
            if target == "vertices":
                expect = ref.run_until_vertex_cover()
            else:
                expect = ref.run_until_edge_cover()
            assert covers[k] == expect
            assert rngs_f[k].getstate() == rngs_r[k].getstate()
            assert fleet.positions[k] == ref.current

    def test_fleet_timeout_syncs_live_lanes(self):
        g = ImplicitHypercube(6)
        rngs_f = [random.Random(71 + k) for k in range(self.K)]
        rngs_r = [random.Random(71 + k) for k in range(self.K)]
        fleet = FleetSRW([g] * self.K, [0] * self.K, rngs_f, block_steps=32)
        with pytest.raises(CoverTimeout):
            fleet.run_until_cover(target="vertices", max_steps=64)
        mat = g.materialize()
        for k in range(self.K):
            ref = SimpleRandomWalk(mat, 0, rng=rngs_r[k])
            with pytest.raises(CoverTimeout):
                ref.run_until_vertex_cover(max_steps=64)
            assert rngs_f[k].getstate() == rngs_r[k].getstate()

    def test_fleet_accepts_mixed_backends(self):
        g = ImplicitHypercube(3)
        rngs = [random.Random(1), random.Random(2)]
        fleet = FleetSRW([g, g.materialize()], [0, 0], rngs)
        assert fleet.graphs[0] is not g  # the implicit lane steps on its twin

    def test_fleet_refuses_distinct_implicit_graphs(self):
        rngs = [random.Random(1), random.Random(2)]
        with pytest.raises(FleetUnsupported) as info:
            FleetSRW([ImplicitHypercube(3), ImplicitHypercube(4)], [0, 0], rngs)
        assert "lane 1" in info.value.reason and "shared shape" in info.value.reason

    def test_fleet_refuses_graphs_past_the_dart_bound(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a fleet materialized a graph past the dart bound")

        monkeypatch.setattr(ImplicitHypercube, "materialize", refuse)
        g = ImplicitHypercube(22)
        rngs = [random.Random(1), random.Random(2)]
        with pytest.raises(FleetUnsupported, match="darts") as info:
            FleetSRW([g, g], [0, 0], rngs)
        assert "lane 0" in info.value.reason and "engine='array'" in info.value.reason
        with pytest.raises(ReproError, match="darts"):
            cover_time_trials(
                workload=g, walk_factory="eprocess", trials=2, root_seed=1,
                policy=ExecutionPolicy(engine="fleet"),
            )

    @pytest.mark.parametrize("walk", ["eprocess", "vprocess"])
    @pytest.mark.parametrize("target", ["vertices", "edges"])
    @pytest.mark.parametrize(
        "graph", [ImplicitHypercube(6), ImplicitTorus(6, 7)], ids=lambda g: g.name
    )
    def test_unvisited_fleets_match_oracle_engines(self, walk, target, graph):
        fleet_cls = FleetEdgeProcess if walk == "eprocess" else FleetVProcess
        starts = [(5 * k) % graph.n for k in range(self.K)]
        rngs_f = [random.Random(83 + k) for k in range(self.K)]
        rngs_o = [random.Random(83 + k) for k in range(self.K)]
        fleet = fleet_cls([graph] * self.K, starts, rngs_f)
        covers = fleet.run_until_cover(target=target)
        for k in range(self.K):
            if walk == "eprocess":
                ref = OracleEdgeProcess(graph, starts[k], rng=rngs_o[k])
            else:
                ref = OracleVProcess(graph, starts[k], rng=rngs_o[k], track_edges=True)
            if target == "vertices":
                expect = ref.run_until_vertex_cover()
            else:
                expect = ref.run_until_edge_cover()
            assert covers[k] == expect
            assert rngs_f[k].getstate() == rngs_o[k].getstate()
            assert fleet.positions[k] == ref.current

    @pytest.mark.parametrize(
        "walk,why", [("eprocess", "self-loops"), ("vprocess", "not simple")]
    )
    def test_fleet_refuses_hashed_lanes_with_loops(self, walk, why):
        simple, loopy = ImplicitHashedRegular(40, 4, 21), ImplicitHashedRegular(40, 4, 0)
        assert loopy.materialize().has_loops()
        rngs = [random.Random(1), random.Random(2)]
        fleet_cls = FleetEdgeProcess if walk == "eprocess" else FleetVProcess
        with pytest.raises(FleetUnsupported) as info:
            fleet_cls([simple, loopy], [0, 0], rngs)
        assert "lane 1" in info.value.reason and why in info.value.reason

    def test_hashed_regular_sweep_fleet_equals_array(self, tmp_path, capsys):
        covers = {}
        for engine in ("fleet", "array"):
            store = tmp_path / engine
            assert main([
                "sweep", "--family", "implicit_hashed_regular", "--degrees", "4",
                "--sizes", "64", "--walk", "srw", "--engine", engine,
                "--trials", "6", "--seed", "3", "--store", str(store),
            ]) == 0
            [entry] = ResultStore(store).entries()
            records = ResultStore(store).trials_for(entry.spec_hash)
            covers[engine] = {t: r.cover_time for t, r in records.items()}
        capsys.readouterr()
        assert len(covers["fleet"]) == 6
        assert covers["fleet"] == covers["array"]


class TestRefusals:
    @pytest.mark.parametrize(
        "walk,state",
        [
            ("rotor", "rotor table"),
            ("rwc2", "visit counts"),
            ("least-used", "traversal counts"),
            ("oldest-first", "last-use ages"),
        ],
    )
    def test_per_edge_state_walks_refuse_by_name(self, walk, state):
        g = ImplicitTorus(3, 3)
        for engine, factory in NAMED_WALK_FACTORIES[walk].items():
            with pytest.raises(ReproError, match=state):
                factory(g, 0, random.Random(0))

    def test_eprocess_refuses_degree_above_mask_width(self):
        g = ImplicitHashedRegular(66, 66, key=0)
        with pytest.raises(ReproError, match="64"):
            OracleEdgeProcess(g, 0, rng=random.Random(0))

    def test_eprocess_refuses_non_uniform_rule(self):
        from repro.core.rules import UniformEdgeRule

        class OtherRule(UniformEdgeRule):
            pass

        g = ImplicitHypercube(3)
        OracleEdgeProcess(g, 0, rng=random.Random(0), rule=UniformEdgeRule())
        with pytest.raises(ReproError):
            OracleEdgeProcess(g, 0, rng=random.Random(0), rule=OtherRule())

    def test_start_out_of_range_names_span(self):
        with pytest.raises(GraphError, match=r"0\.\.7"):
            OracleSRW(ImplicitHypercube(3), 8, rng=random.Random(0))


class TestRunnerIntegration:
    def test_workers_ship_implicit_graphs_bit_identically(self):
        g = ImplicitHypercube(6)
        serial = cover_time_trials(
            workload=g, walk_factory="srw", trials=4, root_seed=13,
            policy=ExecutionPolicy(engine="array"),
        )
        pooled = cover_time_trials(
            workload=g, walk_factory="srw", trials=4, root_seed=13,
            policy=ExecutionPolicy(engine="array", workers=2),
        )
        assert serial.cover_times == pooled.cover_times

    def test_fleet_engine_matches_reference_via_runner(self):
        g = ImplicitTorus(4, 4)
        ref = cover_time_trials(
            workload=g, walk_factory="srw", trials=8, root_seed=17
        )
        fleet = cover_time_trials(
            workload=g, walk_factory="srw", trials=8, root_seed=17,
            policy=ExecutionPolicy(engine="fleet"),
        )
        assert ref.cover_times == fleet.cover_times


class TestVisitedSet:
    def test_add_and_test(self):
        bits = VisitedSet(200)
        assert bits.add(7) and not bits.add(7)
        assert bits.test(7) and not bits.test(8)
        assert bits.count == 1

    def test_word_checkout_round_trip(self):
        bits = VisitedSet(100)
        words = bits.checkout_words()
        words[0] |= 1 << 5
        bits.checkin_words(words, added=1)
        assert bits.test(5) and bits.count == 1


@settings(max_examples=40, deadline=None)
@given(graph=implicit_graphs())
def test_property_oracle_matches_materialized(graph):
    mat = graph.materialize()
    assert mat.n == graph.n and mat.m == graph.m
    for v in range(graph.n):
        inc = mat.incidence(v)
        for k, (_, w) in enumerate(inc):
            assert graph.kth_neighbor(v, k) == w


@settings(max_examples=20, deadline=None)
@given(graph=implicit_graphs())
def test_property_srw_steps_bit_identically(graph):
    if graph.n > 1 and graph.min_degree == 0:  # pragma: no cover - never for these families
        return
    rng_o, rng_r = random.Random(3), random.Random(3)
    oracle = OracleSRW(graph, 0, rng=rng_o, track_edges=True)
    ref = SimpleRandomWalk(graph.materialize(), 0, rng=rng_r, track_edges=True)
    for _ in range(80):
        assert oracle.step() == ref.step()
    assert rng_o.getstate() == rng_r.getstate()
    assert oracle.num_visited_edges == ref.num_visited_edges
