"""Tests for construction helpers."""

import pytest

from repro.errors import GraphError
from repro.graphs.builders import from_adjacency, from_edges


class TestFromEdges:
    def test_infers_vertex_count(self):
        g = from_edges([(0, 1), (1, 4)])
        assert g.n == 5
        assert g.m == 2

    def test_explicit_vertex_count(self):
        g = from_edges([(0, 1)], num_vertices=10)
        assert g.n == 10

    def test_empty(self):
        g = from_edges([])
        assert (g.n, g.m) == (0, 0)


class TestFromAdjacency:
    def test_triangle(self):
        g = from_adjacency([[1, 2], [0, 2], [0, 1]])
        assert g.m == 3
        assert g.is_regular()

    def test_asymmetric_rejected(self):
        with pytest.raises(GraphError):
            from_adjacency([[1], []])

    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            from_adjacency([[0]])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            from_adjacency([[5]])
