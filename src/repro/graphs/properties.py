"""Structural graph properties: connectivity, girth, diameter, bipartiteness,
degrees and the SRW's stationary distribution.

These feed directly into the paper's hypotheses: Theorem 1 needs connected
even-degree graphs, Theorem 3 is parameterized by girth ``g`` and maximum
degree ``Δ``, and the lazy-walk fallback triggers on bipartite graphs (where
``λ_n = -1``).

All algorithms are iterative (no recursion) so they handle large instances,
and run in ``O(n + m)`` (BFS-based) or ``O(n (n + m))`` (all-sources) time.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

import numpy as np

from repro.errors import GraphError, NotConnectedError, SpectralError
from repro.graphs.graph import Graph

__all__ = [
    "connected_components",
    "is_connected",
    "require_connected",
    "bfs_distances",
    "eccentricity",
    "diameter",
    "is_bipartite",
    "girth",
    "shortest_cycle_through",
    "degree_histogram",
    "degree_vector",
    "stationary_distribution",
]

_UNSEEN = -1


def connected_components(graph: Graph) -> List[List[int]]:
    """Vertex sets of the connected components, each in ascending order.

    Components are ordered by their smallest vertex.  Isolated vertices form
    singleton components.
    """
    label = [_UNSEEN] * graph.n
    components: List[List[int]] = []
    for root in range(graph.n):
        if label[root] != _UNSEEN:
            continue
        comp_id = len(components)
        members = [root]
        label[root] = comp_id
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for _eid, w in graph.incidence(v):
                if label[w] == _UNSEEN:
                    label[w] = comp_id
                    members.append(w)
                    queue.append(w)
        components.append(sorted(members))
    return components


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (the empty graph counts as connected)."""
    if graph.n == 0:
        return True
    return len(connected_components(graph)) == 1


def require_connected(graph: Graph, context: str = "operation") -> None:
    """Raise :class:`NotConnectedError` unless ``graph`` is connected."""
    if not is_connected(graph):
        raise NotConnectedError(f"{context} requires a connected graph")


def bfs_distances(graph: Graph, source: int) -> List[int]:
    """Hop distances from ``source``; unreachable vertices get ``-1``."""
    if not (0 <= source < graph.n):
        raise GraphError(f"source {source} out of range 0..{graph.n - 1}")
    dist = [_UNSEEN] * graph.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for _eid, w in graph.incidence(v):
            if dist[w] == _UNSEEN:
                dist[w] = dv + 1
                queue.append(w)
    return dist


def eccentricity(graph: Graph, vertex: int) -> int:
    """Maximum distance from ``vertex`` to any other vertex.

    Raises
    ------
    NotConnectedError
        If some vertex is unreachable from ``vertex``.
    """
    dist = bfs_distances(graph, vertex)
    if any(d == _UNSEEN for d in dist):
        raise NotConnectedError("eccentricity undefined: graph is not connected")
    return max(dist)


def diameter(graph: Graph) -> int:
    """Exact diameter via all-sources BFS (``O(n(n+m))``)."""
    if graph.n == 0:
        return 0
    return max(eccentricity(graph, v) for v in range(graph.n))


def is_bipartite(graph: Graph) -> bool:
    """Two-colourability check.  Loops make a graph non-bipartite."""
    colour = [_UNSEEN] * graph.n
    for root in range(graph.n):
        if colour[root] != _UNSEEN:
            continue
        colour[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for _eid, w in graph.incidence(v):
                if w == v:
                    return False  # loop: odd cycle of length 1
                if colour[w] == _UNSEEN:
                    colour[w] = colour[v] ^ 1
                    queue.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


def girth(graph: Graph, upper_bound: Optional[int] = None) -> float:
    """Length of a shortest cycle; ``math.inf`` for forests.

    Loops are 1-cycles and a pair of parallel edges is a 2-cycle.  For simple
    graphs we run the classic BFS-per-vertex algorithm, stopping each BFS at
    depth ``girth_so_far / 2``.  ``upper_bound`` (if given) lets callers cap
    the search: the function returns ``min(true girth, values > upper_bound
    reported as inf)`` — useful on large high-girth expanders.
    """
    best = float("inf")
    # Cheap multigraph cases first.
    seen_pairs = set()
    for u, v in graph.edges():
        if u == v:
            return 1.0
        key = (u, v) if u < v else (v, u)
        if key in seen_pairs:
            best = 2.0
        seen_pairs.add(key)
    if best == 2.0:
        return best

    cap = upper_bound if upper_bound is not None else graph.n + 1
    dist = [_UNSEEN] * graph.n
    parent_edge = [_UNSEEN] * graph.n
    for root in range(graph.n):
        # BFS that detects the shortest cycle through `root`'s BFS tree.
        touched = [root]
        dist[root] = 0
        parent_edge[root] = -2
        queue = deque([root])
        limit = min(best, cap)
        while queue:
            v = queue.popleft()
            dv = dist[v]
            if 2 * dv + 1 >= limit:
                break
            for eid, w in graph.incidence(v):
                if eid == parent_edge[v]:
                    continue
                if dist[w] == _UNSEEN:
                    dist[w] = dv + 1
                    parent_edge[w] = eid
                    touched.append(w)
                    queue.append(w)
                else:
                    # Non-tree edge: cycle of length dist[v] + dist[w] + 1.
                    cycle_len = dv + dist[w] + 1
                    if cycle_len < best:
                        best = float(cycle_len)
                        limit = min(best, cap)
        for v in touched:
            dist[v] = _UNSEEN
            parent_edge[v] = _UNSEEN
    if best > cap:
        return float("inf")
    return best


def shortest_cycle_through(graph: Graph, vertex: int) -> float:
    """Length of a shortest cycle passing through ``vertex`` (inf if none).

    Runs one BFS from ``vertex``; a non-tree edge ``{v, w}`` closes a cycle
    through ``vertex`` of length ``dist[v] + dist[w] + 1`` only when the two
    tree paths to ``v`` and ``w`` leave ``vertex`` by different branches, so
    we track each vertex's root branch.
    """
    if not (0 <= vertex < graph.n):
        raise GraphError(f"vertex {vertex} out of range 0..{graph.n - 1}")
    for eid in graph.incident_edges(vertex):
        u, v = graph.endpoints(eid)
        if u == v:
            return 1.0
    # Parallel edge at vertex => 2-cycle through it.
    nbr_counts = {}
    for _eid, w in graph.incidence(vertex):
        nbr_counts[w] = nbr_counts.get(w, 0) + 1
        if w != vertex and nbr_counts[w] >= 2:
            return 2.0

    dist = [_UNSEEN] * graph.n
    branch = [_UNSEEN] * graph.n
    parent_edge = [_UNSEEN] * graph.n
    dist[vertex] = 0
    parent_edge[vertex] = -2
    queue = deque()
    for eid, w in graph.incidence(vertex):
        if dist[w] == _UNSEEN:
            dist[w] = 1
            branch[w] = eid
            parent_edge[w] = eid
            queue.append(w)
    best = float("inf")
    while queue:
        v = queue.popleft()
        dv = dist[v]
        if 2 * dv >= best:
            break
        for eid, w in graph.incidence(v):
            if eid == parent_edge[v]:
                continue
            if w == vertex:
                best = min(best, float(dv + 1))
                continue
            if dist[w] == _UNSEEN:
                dist[w] = dv + 1
                branch[w] = branch[v]
                parent_edge[w] = eid
                queue.append(w)
            elif branch[w] != branch[v]:
                best = min(best, float(dv + dist[w] + 1))
    return best


def degree_histogram(graph: Graph) -> dict:
    """Mapping ``degree -> count of vertices with that degree``."""
    hist: dict = {}
    for d in graph.degrees():
        hist[d] = hist.get(d, 0) + 1
    return hist


def degree_vector(graph: Graph) -> np.ndarray:
    """Degrees as a float array (loops count 2)."""
    return np.array(graph.degrees(), dtype=float)


def stationary_distribution(graph: Graph) -> np.ndarray:
    """Stationary distribution ``π_v = d(v) / 2m`` of the SRW."""
    if graph.m == 0:
        raise SpectralError("stationary distribution undefined: no edges")
    return degree_vector(graph) / (2.0 * graph.m)
