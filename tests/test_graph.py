"""Unit tests for the multigraph substrate (repro.graphs.graph)."""

import pytest

from repro.errors import GraphError
from repro.graphs.graph import Graph, GraphBuilder


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.n == 0
        assert g.m == 0
        assert g.is_regular()

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert g.n == 2
        assert g.m == 1
        assert g.degree(0) == g.degree(1) == 1
        assert g.endpoints(0) == (0, 1)

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1, [])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(-1, 0)])

    def test_name_is_carried(self):
        g = Graph(1, [], name="solo")
        assert g.name == "solo"
        assert "solo" in repr(g)


class TestLoopsAndParallels:
    def test_loop_counts_twice_in_degree(self):
        g = Graph(2, [(0, 0), (0, 1)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_loop_appears_twice_in_incidence(self):
        g = Graph(1, [(0, 0)])
        assert len(g.incidence(0)) == 2
        assert g.incidence(0) == ((0, 0), (0, 0))

    def test_parallel_edges_distinct_ids(self):
        g = Graph(2, [(0, 1), (0, 1)])
        assert g.m == 2
        assert g.degree(0) == 2
        assert g.edge_ids_between(0, 1) == (0, 1)

    def test_has_loops_and_parallels_flags(self):
        assert Graph(1, [(0, 0)]).has_loops()
        assert not Graph(2, [(0, 1)]).has_loops()
        assert Graph(2, [(0, 1), (1, 0)]).has_parallel_edges()
        assert not Graph(3, [(0, 1), (1, 2)]).has_parallel_edges()

    def test_is_simple(self):
        assert Graph(3, [(0, 1), (1, 2)]).is_simple()
        assert not Graph(2, [(0, 1), (0, 1)]).is_simple()
        assert not Graph(1, [(0, 0)]).is_simple()

    def test_loop_edge_ids_between_deduplicated(self):
        g = Graph(1, [(0, 0), (0, 0)])
        assert g.edge_ids_between(0, 0) == (0, 1)


class TestAccessors:
    def test_degrees_sum_to_twice_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 0)])
        assert sum(g.degrees()) == 2 * g.m
        assert g.total_degree == 2 * g.m

    def test_neighbors_sorted_unique(self):
        g = Graph(4, [(0, 3), (0, 1), (0, 1)])
        assert g.neighbors(0) == (1, 3)

    def test_loop_makes_self_neighbor(self):
        g = Graph(2, [(0, 0), (0, 1)])
        assert 0 in g.neighbors(0)

    def test_other_endpoint(self):
        g = Graph(3, [(0, 2)])
        assert g.other_endpoint(0, 0) == 2
        assert g.other_endpoint(0, 2) == 0
        with pytest.raises(GraphError):
            g.other_endpoint(0, 1)

    def test_other_endpoint_loop(self):
        g = Graph(1, [(0, 0)])
        assert g.other_endpoint(0, 0) == 0

    def test_incident_edges(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert g.incident_edges(0) == (0, 1)
        assert g.incident_edges(2) == (1, 2)

    def test_has_edge(self):
        g = Graph(3, [(0, 1)])
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(0, 99)

    def test_max_min_degree(self):
        g = Graph(3, [(0, 1), (0, 2)])
        assert g.max_degree == 2
        assert g.min_degree == 1

    def test_iteration_and_len(self):
        g = Graph(3, [])
        assert list(g) == [0, 1, 2]
        assert len(g) == 3


class TestRegularityAndParity:
    def test_regularity(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.is_regular()
        assert g.regularity() == 2

    def test_not_regular(self):
        g = Graph(3, [(0, 1)])
        assert not g.is_regular()
        with pytest.raises(GraphError):
            g.regularity()

    def test_even_degrees(self):
        triangle = Graph(3, [(0, 1), (1, 2), (2, 0)])
        assert triangle.has_even_degrees()
        path = Graph(2, [(0, 1)])
        assert not path.has_even_degrees()

    def test_loop_preserves_even_parity(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0), (0, 0)])
        assert g.has_even_degrees()


class TestDerivedGraphs:
    def test_edge_subgraph_keeps_vertex_set(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sub = g.edge_subgraph([0, 2])
        assert sub.n == 4
        assert sub.m == 2
        assert sub.edges() == ((0, 1), (2, 3))

    def test_edge_subgraph_bad_id(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(GraphError):
            g.edge_subgraph([5])

    def test_relabeled(self):
        g = Graph(2, [(0, 1)], name="a")
        h = g.relabeled("b")
        assert h.name == "b"
        assert h == g


class TestEquality:
    def test_equal_ignores_edge_order_and_orientation(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(2, 1), (1, 0)])
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_different_multiplicity(self):
        a = Graph(2, [(0, 1)])
        b = Graph(2, [(0, 1), (0, 1)])
        assert a != b

    def test_unequal_different_n(self):
        assert Graph(2, [(0, 1)]) != Graph(3, [(0, 1)])

    def test_eq_non_graph(self):
        assert Graph(1, []) != "graph"


class TestGraphBuilder:
    def test_incremental_build(self):
        b = GraphBuilder()
        v0 = b.add_vertex()
        v1 = b.add_vertex()
        eid = b.add_edge(v0, v1)
        assert eid == 0
        g = b.build("pair")
        assert (g.n, g.m, g.name) == (2, 1, "pair")

    def test_add_vertices_range(self):
        b = GraphBuilder()
        r = b.add_vertices(5)
        assert list(r) == [0, 1, 2, 3, 4]
        assert b.num_vertices == 5

    def test_negative_vertices_rejected(self):
        with pytest.raises(GraphError):
            GraphBuilder(-1)
        with pytest.raises(GraphError):
            GraphBuilder().add_vertices(-1)

    def test_edge_requires_existing_vertices(self):
        b = GraphBuilder(1)
        with pytest.raises(GraphError):
            b.add_edge(0, 1)

    def test_ensure_vertices(self):
        b = GraphBuilder(2)
        b.ensure_vertices(5)
        assert b.num_vertices == 5
        b.ensure_vertices(3)  # never shrinks
        assert b.num_vertices == 5

    def test_add_path_and_cycle(self):
        b = GraphBuilder(4)
        b.add_path([0, 1, 2])
        b.add_cycle([0, 2, 3])
        g = b.build()
        assert g.m == 2 + 3
        assert g.has_edge(3, 0)

    def test_single_vertex_cycle_is_loop(self):
        b = GraphBuilder(1)
        b.add_cycle([0])
        g = b.build()
        assert g.m == 1
        assert g.has_loops()

    def test_add_edges_bulk(self):
        b = GraphBuilder(3)
        b.add_edges([(0, 1), (1, 2)])
        assert b.num_edges == 2


class TestCSRLayout:
    def test_offsets_are_degree_cumsums(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
        offsets = g.csr_offsets
        assert offsets.tolist() == [0, 2, 5, 7, 10]
        assert offsets[-1] == g.total_degree

    def test_entries_match_incidence_order(self):
        g = Graph(5, [(0, 1), (0, 1), (2, 2), (1, 2), (3, 4)])
        offsets, edge_ids, neighbors = g.csr_arrays()
        for v in range(g.n):
            lo, hi = int(offsets[v]), int(offsets[v + 1])
            entries = list(zip(edge_ids[lo:hi].tolist(), neighbors[lo:hi].tolist()))
            assert entries == list(g.incidence(v))

    def test_loop_contributes_two_entries(self):
        g = Graph(1, [(0, 0)])
        assert g.csr_offsets.tolist() == [0, 2]
        assert g.csr_neighbors.tolist() == [0, 0]
        assert g.csr_edge_ids.tolist() == [0, 0]

    def test_cached_and_read_only(self):
        g = Graph(3, [(0, 1), (1, 2)])
        first = g.csr_arrays()
        second = g.csr_arrays()
        assert all(a is b for a, b in zip(first, second))
        with pytest.raises(ValueError):
            g.csr_offsets[0] = 7

    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.csr_offsets.tolist() == [0]
        assert g.csr_edge_ids.size == 0


class TestScratchAndPickle:
    def test_scratch_cache_persists(self):
        g = Graph(2, [(0, 1)])
        g.scratch_cache()["k"] = 41
        assert g.scratch_cache()["k"] == 41

    def test_pickle_roundtrip_drops_caches(self):
        import pickle

        g = Graph(3, [(0, 1), (1, 2), (2, 0)], name="tri")
        g.csr_arrays()
        g.scratch_cache()["payload"] = list(range(10))
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g
        assert clone.name == "tri"
        assert clone.incidence(1) == g.incidence(1)
        assert clone.scratch_cache() == {}

    def test_scratch_invisible_to_equality_and_hash(self):
        a = Graph(2, [(0, 1)])
        b = Graph(2, [(0, 1)])
        a.scratch_cache()["x"] = 1
        assert a == b
        assert hash(a) == hash(b)


class TestArrayBacked:
    """``Graph._from_arrays``: the same graph as ``Graph(n, edges)``, with
    the edge and incidence tuples built only on first access."""

    # A loop, a parallel pair, an isolated vertex and mixed orientations.
    EDGES = [(0, 1), (1, 2), (2, 2), (2, 0), (1, 0), (3, 1)]

    def _pair(self, edges=EDGES, n=5):
        import numpy as np

        eager = Graph(n, edges, name="g")
        lazy = Graph._from_arrays(
            n, np.array(edges, dtype=np.int64).reshape(-1, 2), name="g"
        )
        return eager, lazy

    def test_arrays_answer_without_building_tuples(self):
        eager, lazy = self._pair()
        assert (lazy.n, lazy.m, lazy.name) == (eager.n, eager.m, eager.name)
        assert lazy.degrees() == eager.degrees()
        assert (lazy.min_degree, lazy.max_degree) == (eager.min_degree, eager.max_degree)
        assert lazy.is_regular() == eager.is_regular()
        assert lazy.has_loops() and lazy.has_parallel_edges()
        for mine, theirs in zip(lazy.csr_arrays(), eager.csr_arrays()):
            assert mine.tolist() == theirs.tolist()
            assert not mine.flags.writeable
        assert lazy._edges is None and lazy._incidence is None

    def test_simple_graph_flags(self):
        eager, lazy = self._pair([(0, 1), (1, 2), (2, 0), (2, 3)], n=4)
        assert not lazy.has_loops() and not lazy.has_parallel_edges()
        assert lazy.is_simple() and eager.is_simple()

    def test_csr_is_incidence_order(self):
        # Flattened from the eager constructor's own incidence lists, which
        # do not go through the array path.
        eager, lazy = self._pair()
        offsets, edge_ids, neighbors = lazy.csr_arrays()
        flat = [entry for row in eager.incidence_table() for entry in row]
        assert list(zip(edge_ids.tolist(), neighbors.tolist())) == flat
        assert offsets.tolist() == [0] + [
            sum(eager.degrees()[: v + 1]) for v in range(eager.n)
        ]

    def test_equals_eager_graph(self):
        eager, lazy = self._pair()
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)
        assert lazy.edges() == eager.edges()
        assert lazy.incidence_table() == eager.incidence_table()
        assert lazy.neighbors(2) == eager.neighbors(2)
        assert lazy.edge_ids_between(2, 2) == eager.edge_ids_between(2, 2)
        assert lazy.other_endpoint(5, 3) == 1

    def test_pickle_roundtrip_stays_array_backed(self):
        import pickle

        eager, lazy = self._pair()
        clone = pickle.loads(pickle.dumps(lazy))
        assert clone._edges is None and clone._incidence is None
        assert clone == eager and clone.name == "g"
        for mine, theirs in zip(clone.csr_arrays(), eager.csr_arrays()):
            assert mine.tolist() == theirs.tolist()
            assert not mine.flags.writeable
        assert pickle.loads(pickle.dumps(eager)) == clone

    def test_empty(self):
        eager, lazy = self._pair([], n=3)
        assert lazy == eager and lazy.m == 0
        assert lazy.csr_offsets.tolist() == [0, 0, 0, 0]
        assert lazy.incidence_table() == ((), (), ())


class TestInt32Arrays:
    """One int32 copy of each graph: the edge and CSR arrays are int32, and
    a graph past their index range is refused, never wrapped.  The range
    checks patch :data:`~repro.graphs.graph.INDEX_LIMIT` down instead of
    allocating 2^31 entries."""

    def test_arrays_are_contiguous_int32(self):
        import numpy as np

        eager = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 0)])
        lazy = Graph._from_arrays(4, np.array(eager.edges(), dtype=np.int64))
        for g in (eager, lazy):
            for arr in g.csr_arrays():
                assert arr.dtype == np.int32 and arr.flags.c_contiguous
        assert lazy._edge_array.dtype == np.int32
        assert lazy == eager

    def test_csr_refused_at_the_dart_limit(self, monkeypatch):
        from repro.graphs import graph as graph_mod

        monkeypatch.setattr(graph_mod, "INDEX_LIMIT", 8)
        assert Graph(4, [(0, 1), (1, 2), (2, 3)]).csr_offsets.tolist() == [0, 1, 3, 5, 6]
        square = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # 2m = 8
        with pytest.raises(GraphError, match="int32"):
            square.csr_arrays()

    def test_csr_refused_at_the_vertex_limit(self, monkeypatch):
        from repro.graphs import graph as graph_mod

        monkeypatch.setattr(graph_mod, "INDEX_LIMIT", 8)
        with pytest.raises(GraphError, match="int32"):
            Graph(8, [(0, 7)]).csr_arrays()

    def test_array_backed_refused_at_the_limit(self, monkeypatch):
        import numpy as np

        from repro.graphs import graph as graph_mod

        monkeypatch.setattr(graph_mod, "INDEX_LIMIT", 8)
        edges = np.array([(0, 1), (1, 2), (2, 3), (3, 0)], dtype=np.int32)
        with pytest.raises(GraphError, match="int32"):
            Graph._from_arrays(4, edges)

    def test_native_builder_refuses_past_the_limit(self, monkeypatch):
        import random

        from repro.graphs import random_regular as rr

        assert rr._native_refusal(64, 4, random.Random(1)) == ""
        monkeypatch.setattr(rr, "INDEX_LIMIT", 256)
        assert "int32" in rr._native_refusal(64, 4, random.Random(1))

    def test_parallel_edge_keys_do_not_wrap(self):
        # min * n + max of these two edges agree modulo 2^32 at n = 100000:
        # int32 keys would collide and report a parallel pair.
        import numpy as np

        n = 100_000
        edges = np.array([(0, 1), (42_949, 67_297)], dtype=np.int32)
        assert 42_949 * n + 67_297 == 1 + (1 << 32)
        g = Graph._from_arrays(n, edges)
        assert not g.has_parallel_edges()
        assert Graph._from_arrays(n, np.array([(0, 1), (1, 0)], dtype=np.int32)).has_parallel_edges()

    def test_native_built_graph_past_int32_keys_is_simple(self):
        # A fresh 4-regular graph with n = 50000 (min * n reaches 2.5e9,
        # past int32) built by the native pass when it loads.
        import random

        from repro.engine import native
        from repro.graphs.random_regular import random_regular_graph

        g = random_regular_graph(50_000, 4, random.Random(3))
        assert (g._edge_array is not None) == native.available()
        assert g.is_simple()
