"""Finite undirected multigraphs with dense integer vertex and edge ids.

This is the graph substrate every other subsystem builds on.  Design goals,
in order:

1. *Fast walk simulation.*  Vertices are ``0..n-1`` and edges are ``0..m-1``,
   so walk processes can index plain ``list``/``bytearray`` state by id.  The
   incidence structure is a list of ``(edge_id, neighbour)`` pairs per vertex;
   a uniform choice over a vertex's incidence entries *is* the simple random
   walk transition on multigraphs (parallel edges weight the transition,
   loops — which appear twice — keep the chain's stationary distribution
   proportional to degree).

2. *Multigraph fidelity.*  The paper's proofs contract vertex sets to a
   single vertex "retaining multiple edges and loops" (Section 2.2) and
   subdivide edges (Lemma 16).  Those transforms need loops and parallel
   edges to be first-class, so they are.

3. *Immutability.*  A :class:`Graph` never changes after construction; all
   generators and transforms build new graphs through :class:`GraphBuilder`.
   Walk processes can therefore share one graph across thousands of trials.

4. *Array-backed graphs, one int32 copy.*  Builders that already hold
   the flat arrays (the native random regular graph builder) construct
   through :meth:`Graph._from_arrays`: the edge list and the CSR incidence
   arrays are frozen int32 numpy arrays, and the Python tuples behind
   :meth:`edges` and :meth:`incidence_table` are built only on first
   access.  The array engines and fleets read only the arrays — the
   native fleet kernel reads a lane's CSR arrays in place, with no copy —
   so such a graph never pays for the tuples.  Every graph's CSR arrays
   are int32; a graph with ``2m`` or ``n`` at :data:`INDEX_LIMIT` or
   beyond has no CSR arrays (:class:`~repro.errors.GraphError`), so an
   index never wraps.

Conventions
-----------
* A loop ``(v, v)`` contributes **2** to ``degree(v)`` and appears twice in
  ``incidence(v)``.
* ``sum(degrees) == 2 * m`` always holds.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterable, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

from repro.errors import GraphError

__all__ = ["Graph", "GraphBuilder", "INDEX_LIMIT"]

#: Exclusive bound on ``2m`` and ``n`` for a graph's int32 CSR and edge
#: arrays (:meth:`Graph.csr_arrays`).
INDEX_LIMIT = 1 << 31

#: Serializes the lazy CSR builds: threads sharing a graph must share one
#: copy, because the native fleet kernel reads it by address.
_CSR_BUILD = threading.Lock()

Edge = Tuple[int, int]
IncidenceEntry = Tuple[int, int]  # (edge_id, neighbour)


def _normalize_edge(u: int, v: int) -> Edge:
    """Return the endpoints in sorted order (undirected identity)."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """An immutable undirected multigraph.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertices are the integers ``0..num_vertices-1``.
    edges:
        Iterable of ``(u, v)`` endpoint pairs.  Order defines edge ids.
        Loops (``u == v``) and parallel edges are allowed.
    name:
        Optional human-readable label used in ``repr`` and reports.
    """

    __slots__ = (
        "_n", "_m", "_edges", "_incidence", "_degrees", "_name", "_csr",
        "_edge_array", "_scratch",
    )

    def __init__(self, num_vertices: int, edges: Iterable[Edge], name: str = "") -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        edge_list: List[Edge] = []
        incidence: List[List[IncidenceEntry]] = [[] for _ in range(num_vertices)]
        degrees = [0] * num_vertices
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise GraphError(
                    f"edge {eid} = ({u}, {v}) has an endpoint outside "
                    f"0..{num_vertices - 1}"
                )
            edge_list.append((u, v))
            incidence[u].append((eid, v))
            incidence[v].append((eid, u))
            degrees[u] += 1
            degrees[v] += 1
        self._n = num_vertices
        self._m = len(edge_list)
        # The tuples are None only on array-backed graphs (see _from_arrays)
        # until first access.
        self._edges: Optional[Tuple[Edge, ...]] = tuple(edge_list)
        self._incidence: Optional[Tuple[Tuple[IncidenceEntry, ...], ...]] = tuple(
            tuple(entries) for entries in incidence
        )
        self._degrees: Tuple[int, ...] = tuple(degrees)
        self._name = name
        # Lazily built flat-array incidence and memo dict (see csr_arrays /
        # scratch_cache); the (m, 2) edge array exists on array-backed graphs.
        self._csr: Optional[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]] = None
        self._edge_array: Optional["np.ndarray"] = None
        self._scratch: Optional[dict] = None

    @classmethod
    def _from_arrays(
        cls,
        num_vertices: int,
        edge_array: "np.ndarray",
        csr: Optional[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]] = None,
        name: str = "",
    ) -> "Graph":
        """An array-backed graph (internal: inputs are trusted, not checked).

        ``edge_array`` is the ``(m, 2)`` edge list, in edge-id order, kept
        as contiguous int32 (converted if handed in otherwise); ``csr`` the
        int32 :meth:`csr_arrays` triple in :meth:`incidence` order, derived
        from the edges when omitted.  The arrays are frozen here.  The
        result equals ``Graph(num_vertices, edges)`` in every respect; only
        its :meth:`edges` and :meth:`incidence_table` tuples wait for first
        access.
        """
        import numpy as np

        _check_index_range(num_vertices, int(edge_array.shape[0]))
        edge_array = np.ascontiguousarray(edge_array, dtype=np.int32)
        if csr is None:
            csr = _csr_from_edge_array(num_vertices, edge_array)
        for arr in (edge_array, *csr):
            arr.setflags(write=False)
        g = cls.__new__(cls)
        g._n = num_vertices
        g._m = int(edge_array.shape[0])
        g._edges = None
        g._incidence = None
        g._degrees = tuple(np.diff(csr[0]).tolist())
        g._name = name
        g._csr = csr
        g._edge_array = edge_array
        g._scratch = None
        return g

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges (loops and parallel edges each count once)."""
        return self._m

    @property
    def name(self) -> str:
        """Human-readable label (may be empty)."""
        return self._name

    def vertices(self) -> range:
        """The vertex set as a ``range`` object."""
        return range(self._n)

    def edges(self) -> Tuple[Edge, ...]:
        """All edges as ``(u, v)`` pairs, indexed by edge id."""
        if self._edges is None:
            assert self._edge_array is not None
            self._edges = tuple((u, v) for u, v in self._edge_array.tolist())
        return self._edges

    def endpoints(self, edge_id: int) -> Edge:
        """Endpoints ``(u, v)`` of the edge with the given id."""
        return self.edges()[edge_id]

    def other_endpoint(self, edge_id: int, vertex: int) -> int:
        """The endpoint of ``edge_id`` that is not ``vertex``.

        For a loop at ``vertex`` this returns ``vertex`` itself.
        """
        u, v = self.edges()[edge_id]
        if vertex == u:
            return v
        if vertex == v:
            return u
        raise GraphError(f"vertex {vertex} is not an endpoint of edge {edge_id}")

    def degree(self, vertex: int) -> int:
        """Degree of ``vertex`` (a loop contributes 2)."""
        return self._degrees[vertex]

    def degrees(self) -> Tuple[int, ...]:
        """Degrees of all vertices, indexed by vertex id."""
        return self._degrees

    def incidence(self, vertex: int) -> Tuple[IncidenceEntry, ...]:
        """Incident ``(edge_id, neighbour)`` pairs of ``vertex``.

        Loops at ``vertex`` appear twice, so ``len(incidence(v)) == degree(v)``.
        """
        table = self._incidence
        if table is None:
            table = self.incidence_table()
        return table[vertex]

    def incidence_table(self) -> Tuple[Tuple[IncidenceEntry, ...], ...]:
        """The whole incidence structure, vertex-indexed (shared, immutable).

        The walk framework keeps a reference to this instead of building a
        per-walk copy — sharing one graph across thousands of trials then
        costs no per-trial allocation.
        """
        if self._incidence is None:
            offsets, edge_ids, neighbors = self.csr_arrays()
            bounds = offsets.tolist()
            entries = list(zip(edge_ids.tolist(), neighbors.tolist()))
            self._incidence = tuple(
                tuple(entries[a:b]) for a, b in zip(bounds, bounds[1:])
            )
        return self._incidence

    def neighbors(self, vertex: int) -> Tuple[int, ...]:
        """Distinct neighbours of ``vertex`` in ascending order.

        A vertex with a loop is its own neighbour.  Cached per graph:
        property code and walk setup call this in loops, and re-sorting a
        fresh set on every call dominated their profiles.
        """
        cache = self.scratch_cache()
        table = cache.get("neighbors")
        if table is None:
            table = cache["neighbors"] = {}
        out = table.get(vertex)
        if out is None:
            out = table[vertex] = tuple(
                sorted({w for (_, w) in self.incidence(vertex)})
            )
        return out

    def incident_edges(self, vertex: int) -> Tuple[int, ...]:
        """Distinct ids of edges incident with ``vertex`` (cached)."""
        cache = self.scratch_cache()
        table = cache.get("incident_edges")
        if table is None:
            table = cache["incident_edges"] = {}
        out = table.get(vertex)
        if out is None:
            out = table[vertex] = tuple(
                sorted({eid for (eid, _) in self.incidence(vertex)})
            )
        return out

    # ------------------------------------------------------------------
    # Aggregate properties
    # ------------------------------------------------------------------
    @property
    def max_degree(self) -> int:
        """Maximum degree Δ (0 for the empty graph)."""
        return max(self._degrees, default=0)

    @property
    def min_degree(self) -> int:
        """Minimum degree δ (0 for the empty graph)."""
        return min(self._degrees, default=0)

    @property
    def total_degree(self) -> int:
        """Sum of degrees; always equals ``2 * m``."""
        return 2 * self._m

    def is_regular(self) -> bool:
        """Whether every vertex has the same degree."""
        return self._n == 0 or self.max_degree == self.min_degree

    def regularity(self) -> int:
        """The common degree of a regular graph.

        Raises
        ------
        GraphError
            If the graph is not regular.
        """
        if not self.is_regular():
            raise GraphError("graph is not regular")
        return self._degrees[0] if self._n else 0

    def has_even_degrees(self) -> bool:
        """Whether all vertex degrees are even (the paper's graph class)."""
        return all(d % 2 == 0 for d in self._degrees)

    def has_loops(self) -> bool:
        """Whether any edge is a loop."""
        ends = self._edge_array
        if ends is not None:
            return bool((ends[:, 0] == ends[:, 1]).any())
        return any(u == v for (u, v) in self.edges())

    def has_parallel_edges(self) -> bool:
        """Whether any two edges share both endpoints."""
        ends = self._edge_array
        if ends is not None:
            import numpy as np

            # int64 keys: n * n overflows the int32 ends past n = 46341.
            keys = ends.min(axis=1).astype(np.int64) * self._n + ends.max(axis=1)
            return int(np.unique(keys).size) < self._m
        seen = set()
        for u, v in self.edges():
            key = _normalize_edge(u, v)
            if key in seen:
                return True
            seen.add(key)
        return False

    def is_simple(self) -> bool:
        """Whether the graph has neither loops nor parallel edges."""
        return not self.has_loops() and not self.has_parallel_edges()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether at least one edge joins ``u`` and ``v``."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        # scan the smaller incidence list
        if self._degrees[u] > self._degrees[v]:
            u, v = v, u
        return any(w == v for (_, w) in self.incidence(u))

    def edge_ids_between(self, u: int, v: int) -> Tuple[int, ...]:
        """All edge ids joining ``u`` and ``v`` (parallel edges give several)."""
        if u == v:
            # each loop appears twice in incidence; deduplicate
            return tuple(sorted({eid for (eid, w) in self.incidence(u) if w == u}))
        return tuple(sorted(eid for (eid, w) in self.incidence(u) if w == v))

    # ------------------------------------------------------------------
    # Flat-array (CSR) incidence layout
    # ------------------------------------------------------------------
    def csr_arrays(self) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Flat-array (CSR-style) incidence layout as three numpy arrays.

        Returns ``(csr_offsets, csr_edge_ids, csr_neighbors)`` where the
        incidence entries of vertex ``v`` occupy positions
        ``csr_offsets[v]:csr_offsets[v+1]`` of the two flat arrays, **in the
        same order as** :meth:`incidence` — so a uniform index into a
        vertex's slice is exactly the SRW transition, and array-backed
        engines replay the reference engines' random choices bit for bit.

        ``csr_offsets`` has length ``n + 1`` with ``csr_offsets[n] == 2m``;
        loops contribute two entries, like :meth:`incidence`.  All three are
        contiguous int32: a graph with ``2m`` or ``n`` at
        :data:`INDEX_LIMIT` or beyond raises
        :class:`~repro.errors.GraphError` here instead of wrapping.  The
        arrays are built lazily on first access, once per graph even when
        threads race for them, cached on the graph (sharing one graph
        across thousands of trials amortizes the build), and marked
        read-only to preserve the immutability contract.
        """
        csr = self._csr
        if csr is None:
            with _CSR_BUILD:
                csr = self._csr
                if csr is None:
                    import numpy as np

                    ends = np.array(self.edges(), dtype=np.int32).reshape(self._m, 2)
                    csr = _csr_from_edge_array(self._n, ends)
                    for arr in csr:
                        arr.setflags(write=False)
                    self._csr = csr
        return csr

    @property
    def csr_offsets(self) -> "np.ndarray":
        """Per-vertex slice starts into the flat incidence arrays."""
        return self.csr_arrays()[0]

    @property
    def csr_edge_ids(self) -> "np.ndarray":
        """Edge ids of all incidence entries, vertex-major."""
        return self.csr_arrays()[1]

    @property
    def csr_neighbors(self) -> "np.ndarray":
        """Neighbour endpoints of all incidence entries, vertex-major."""
        return self.csr_arrays()[2]

    def scratch_cache(self) -> dict:
        """Per-graph memo for derived acceleration structures.

        Consumers (e.g. the array walk engines) key expensive read-only
        artifacts here so every walk sharing the graph reuses them.  The
        cache is invisible to equality/hashing and dropped on pickling.
        """
        if self._scratch is None:
            self._scratch = {}
        return self._scratch

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def edge_subgraph(self, edge_ids: Iterable[int]) -> "Graph":
        """Edge-induced subgraph on the *same* vertex set.

        Vertex ids are preserved; the returned graph has the selected edges
        renumbered ``0..k-1`` in ascending original-id order.  This is the
        natural object for the paper's "blue subgraph" (unvisited edges).
        """
        ids = sorted(set(edge_ids))
        for eid in ids:
            if not (0 <= eid < self._m):
                raise GraphError(f"edge id {eid} out of range 0..{self.m - 1}")
        edges = self.edges()
        return Graph(self._n, [edges[eid] for eid in ids], name=self._name)

    def relabeled(self, name: str) -> "Graph":
        """A copy of this graph carrying a different name."""
        return Graph(self._n, self.edges(), name=name)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Structural equality: same vertex count and same edge multiset."""
        if not isinstance(other, Graph):
            return NotImplemented
        if self._n != other._n or self.m != other.m:
            return False
        mine = sorted(_normalize_edge(u, v) for (u, v) in self.edges())
        theirs = sorted(_normalize_edge(u, v) for (u, v) in other.edges())
        return mine == theirs

    def __hash__(self) -> int:
        return hash(
            (self._n, tuple(sorted(_normalize_edge(u, v) for (u, v) in self.edges())))
        )

    def __reduce__(self) -> Tuple[Any, ...]:
        # Pickle structurally (vertex count + edge list); the lazy caches
        # are rebuilt on demand so worker-pool payloads stay small.  An
        # array-backed graph unpickles array-backed.
        if self._edge_array is not None:
            return (_graph_from_edge_array, (self._n, self._edge_array, self._name))
        return (Graph, (self._n, self._edges, self._name))

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return f"<Graph{label} n={self._n} m={self.m}>"

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n


def _csr_from_edge_array(
    n: int, ends: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """The int32 :meth:`Graph.csr_arrays` triple of an ``(m, 2)`` edge array.

    Edge ``e`` has two darts, ``2e`` at its first endpoint and ``2e + 1``
    at its second; a stable sort of the darts by vertex lists each vertex's
    entries by edge id, first endpoint's before second's — exactly the
    order :class:`Graph` appends to its incidence lists.
    """
    import numpy as np

    _check_index_range(n, int(ends.shape[0]))
    ends = ends.astype(np.int32, copy=False)
    tails = ends.reshape(-1)
    heads = ends[:, ::-1].reshape(-1)
    order = np.argsort(tails, kind="stable")
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(tails, minlength=n), out=offsets[1:])
    return offsets, (order >> 1).astype(np.int32), heads[order]


def _check_index_range(n: int, m: int) -> None:
    """Refuse a graph whose ids or darts do not fit the int32 arrays."""
    if 2 * m >= INDEX_LIMIT or n >= INDEX_LIMIT:
        raise GraphError(
            f"graph with n={n}, m={m} is too large for int32 incidence arrays "
            f"(2m and n must stay below {INDEX_LIMIT})"
        )


def _graph_from_edge_array(n: int, edge_array: "np.ndarray", name: str) -> Graph:
    """Unpickle an array-backed :class:`Graph`."""
    return Graph._from_arrays(n, edge_array, name=name)


class GraphBuilder:
    """Mutable accumulator that produces immutable :class:`Graph` objects.

    Examples
    --------
    >>> b = GraphBuilder()
    >>> v0, v1 = b.add_vertex(), b.add_vertex()
    >>> b.add_edge(v0, v1)
    0
    >>> g = b.build("edge")
    >>> (g.n, g.m)
    (2, 1)
    """

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        self._n = num_vertices
        self._edges: List[Edge] = []

    @property
    def num_vertices(self) -> int:
        """Vertices added so far."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Edges added so far."""
        return len(self._edges)

    def add_vertex(self) -> int:
        """Add one vertex; returns its id."""
        vid = self._n
        self._n += 1
        return vid

    def add_vertices(self, count: int) -> range:
        """Add ``count`` vertices; returns their id range."""
        if count < 0:
            raise GraphError(f"count must be >= 0, got {count}")
        start = self._n
        self._n += count
        return range(start, self._n)

    def ensure_vertices(self, count: int) -> None:
        """Grow the vertex set so that at least ``count`` vertices exist."""
        if count > self._n:
            self._n = count

    def add_edge(self, u: int, v: int) -> int:
        """Add an edge (loops and parallels allowed); returns its id."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise GraphError(
                f"edge ({u}, {v}) has an endpoint outside 0..{self._n - 1}; "
                "add vertices first"
            )
        self._edges.append((u, v))
        return len(self._edges) - 1

    def add_edges(self, edges: Sequence[Edge]) -> None:
        """Add several edges in order."""
        for u, v in edges:
            self.add_edge(u, v)

    def add_path(self, vertices: Sequence[int]) -> None:
        """Add edges forming a path through ``vertices`` in order."""
        for u, v in zip(vertices, vertices[1:]):
            self.add_edge(u, v)

    def add_cycle(self, vertices: Sequence[int]) -> None:
        """Add edges forming a cycle through ``vertices`` in order."""
        if len(vertices) < 1:
            return
        self.add_path(vertices)
        if len(vertices) > 1:
            self.add_edge(vertices[-1], vertices[0])
        else:
            self.add_edge(vertices[0], vertices[0])

    def build(self, name: str = "") -> Graph:
        """Freeze the accumulated structure into a :class:`Graph`."""
        return Graph(self._n, self._edges, name=name)
