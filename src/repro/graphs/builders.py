"""Construction helpers: graphs from edge lists and adjacency lists."""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.errors import GraphError
from repro.graphs.graph import Edge, Graph

__all__ = [
    "from_edges",
    "from_adjacency",
]


def from_edges(edges: Iterable[Edge], num_vertices: int = None, name: str = "") -> Graph:
    """Build a graph from an edge list.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs with non-negative integer endpoints.
    num_vertices:
        Total vertex count.  Defaults to ``1 + max endpoint`` (0 if no edges).
    name:
        Optional label.
    """
    edge_list = list(edges)
    if num_vertices is None:
        num_vertices = 0
        for u, v in edge_list:
            num_vertices = max(num_vertices, u + 1, v + 1)
    return Graph(num_vertices, edge_list, name=name)


def from_adjacency(adjacency: Sequence[Sequence[int]], name: str = "") -> Graph:
    """Build a *simple* graph from adjacency lists.

    ``adjacency[v]`` lists the neighbours of ``v``.  Each undirected edge must
    appear in both endpoint lists exactly once; loops are rejected (use
    :func:`from_edges` for multigraphs).
    """
    n = len(adjacency)
    edges: List[Edge] = []
    seen = set()
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            if not (0 <= v < n):
                raise GraphError(f"neighbour {v} of vertex {u} out of range")
            if u == v:
                raise GraphError(f"loop at vertex {u}; adjacency input must be simple")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
    graph = Graph(n, edges, name=name)
    for u, nbrs in enumerate(adjacency):
        if graph.degree(u) != len(nbrs):
            raise GraphError(
                f"adjacency lists are asymmetric at vertex {u}: "
                f"listed {len(nbrs)} neighbours, reconstructed degree {graph.degree(u)}"
            )
    return graph
