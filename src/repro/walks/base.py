"""Walk-process framework: stepping, visitation tracking, cover-time runs.

Every exploration process in the library (simple/lazy/weighted random walks,
rotor-router, locally fair walks, the E-process) derives from
:class:`WalkProcess`.  The base class owns the bookkeeping that the paper's
quantities are defined over:

* vertex visitation (first-visit times, covered count) → vertex cover time;
* optional edge visitation → edge cover time;
* a step counter that *is* the paper's time axis (the walk starts at its
  start vertex at ``t = 0``; each transition advances ``t`` by one).

Subclasses implement :meth:`WalkProcess._transition`, returning the next
vertex (and recording any edge traversal through
:meth:`WalkProcess._record_edge_visit`).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, List, Optional

from repro.errors import CoverTimeout, GraphError
from repro.graphs.graph import Graph
from repro.telemetry import get_telemetry

__all__ = ["WalkProcess", "default_step_budget"]


def default_step_budget(graph: Graph) -> int:
    """Generous safety cap for cover-time runs.

    The classical bound of Aleliunas et al. caps the SRW's expected vertex
    cover time on any connected unweighted graph at ``2m(n-1)``, which
    reaches the Feige-tight ``Θ(n³)`` regime on dense bottleneck graphs
    such as lollipops and barbells (Feige: worst case ``(4/27)n³+o(n³)``).
    The budget is therefore edge-aware: ``10_000 + 8·n·m`` sits a factor
    ≥ 4 above the ``2m(n-1)`` worst case (the additive floor keeps tiny
    graphs safe from unlucky tails), so legitimate Θ(n³) runs no longer
    trip :class:`~repro.errors.CoverTimeout`.
    """
    return 10_000 + 8 * graph.n * graph.m


class WalkProcess(ABC):
    """A vertex-to-vertex exploration process on a fixed graph.

    Parameters
    ----------
    graph:
        The (connected) graph to explore.  Never mutated.
    start:
        Start vertex; the process is at ``start`` at time 0 and time-0 counts
        as a visit.
    rng:
        ``random.Random`` instance (Mersenne Twister).  A fresh unseeded one
        is created if omitted; pass a seeded instance for reproducibility.
    track_edges:
        Enable edge-visitation bookkeeping (needed for edge cover times).
        Processes that inherently track edges (the E-process) force this on.
    """

    def __init__(
        self,
        graph: Graph,
        start: int,
        rng: Optional[random.Random] = None,
        track_edges: bool = False,
    ):
        if graph.n == 0:
            raise GraphError("cannot walk on the empty graph")
        if not (0 <= start < graph.n):
            raise GraphError(f"start vertex {start} out of range 0..{graph.n - 1}")
        if graph.degree(start) == 0 and graph.n > 1:
            raise GraphError(f"start vertex {start} is isolated")
        # Lazy import: repro.sim's package init pulls in the runner, which
        # imports this module back.
        from repro.sim.rng import fresh_generator

        self.graph = graph
        self.start = start
        self.rng = rng if rng is not None else fresh_generator()
        self.current = start
        self.steps = 0

        self.visited_vertices = bytearray(graph.n)
        self.visited_vertices[start] = 1
        self.num_visited_vertices = 1
        self.first_visit_time: List[int] = [-1] * graph.n
        self.first_visit_time[start] = 0

        self._edge_tracking = track_edges
        if track_edges:
            self.visited_edges: Optional[bytearray] = bytearray(graph.m)
            self.num_visited_edges = 0
            self.first_edge_visit_time: List[int] = [-1] * graph.m
        else:
            self.visited_edges = None
            self.num_visited_edges = 0
            self.first_edge_visit_time = []

    def __getattr__(self, name: str) -> Any:
        # ``_incidence`` is the graph's own (immutable) incidence table:
        # the reference hot loops read it every step, and sharing it costs
        # no per-trial allocation.  It is fetched on first use, so the array
        # engines — which step on the CSR arrays — never make an
        # array-backed graph build its tuples.
        if name == "_incidence":
            table = self._incidence = self.graph.incidence_table()
            return table
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    # ------------------------------------------------------------------
    # Core stepping
    # ------------------------------------------------------------------
    @abstractmethod
    def _transition(self) -> int:
        """Choose and return the next vertex (subclass behaviour).

        Implementations must call :meth:`_record_edge_visit` for the edge
        they traverse *if* edge tracking is enabled and the process semantics
        mark edges as visited.
        """

    def step(self) -> int:
        """Advance one step; returns the new current vertex."""
        nxt = self._transition()
        self.steps += 1
        self.current = nxt
        if not self.visited_vertices[nxt]:
            self.visited_vertices[nxt] = 1
            self.num_visited_vertices += 1
            self.first_visit_time[nxt] = self.steps
        return nxt

    def _record_edge_visit(self, edge_id: int) -> None:
        """Mark ``edge_id`` visited at the *next* step index.

        Called by subclasses from inside ``_transition`` (i.e. before the
        step counter increments), matching the paper's convention that an
        edge is recoloured at the instant the walk arrives.
        """
        if not self._edge_tracking:
            return
        assert self.visited_edges is not None
        if not self.visited_edges[edge_id]:
            self.visited_edges[edge_id] = 1
            self.num_visited_edges += 1
            self.first_edge_visit_time[edge_id] = self.steps + 1

    # ------------------------------------------------------------------
    # Cover state
    # ------------------------------------------------------------------
    @property
    def vertices_covered(self) -> bool:
        """Whether every vertex has been visited."""
        return self.num_visited_vertices == self.graph.n

    @property
    def edges_covered(self) -> bool:
        """Whether every edge has been visited (edge tracking required)."""
        if not self._edge_tracking:
            raise GraphError("edge tracking is disabled for this process")
        return self.num_visited_edges == self.graph.m

    @property
    def tracks_edges(self) -> bool:
        """Whether this instance records edge visitation."""
        return self._edge_tracking

    # ------------------------------------------------------------------
    # Runners
    # ------------------------------------------------------------------
    def run(self, num_steps: int) -> int:
        """Take exactly ``num_steps`` steps; returns the final vertex."""
        for _ in range(num_steps):
            self.step()
        return self.current

    def _cover_advance(self, budget: int, target: str) -> None:
        """Advance toward covering ``target`` (``"vertices"``/``"edges"``).

        One step here; the array engines override this with a bounded
        chunk, keeping the budget/timeout logic in one place.
        """
        self.step()

    def run_until_vertex_cover(self, max_steps: Optional[int] = None) -> int:
        """Step until all vertices are visited; returns the cover step count.

        Raises
        ------
        CoverTimeout
            If the budget (default :func:`default_step_budget`) runs out.
        """
        budget = max_steps if max_steps is not None else default_step_budget(self.graph)
        tel = get_telemetry()
        while not self.vertices_covered:
            if self.steps >= budget:
                raise CoverTimeout(
                    f"{type(self).__name__} did not cover all vertices within "
                    f"{budget} steps ({self.graph.n - self.num_visited_vertices} left)",
                    steps=self.steps,
                    remaining=self.graph.n - self.num_visited_vertices,
                )
            self._cover_advance(budget, "vertices")
            if tel.enabled:
                tel.progress(
                    step=self.steps,
                    done=self.num_visited_vertices,
                    total=self.graph.n,
                    unit="vertices",
                    label=type(self).__name__,
                )
        return self.steps

    def run_until_edge_cover(self, max_steps: Optional[int] = None) -> int:
        """Step until all edges are visited; returns the cover step count."""
        if not self._edge_tracking:
            raise GraphError("edge tracking is disabled for this process")
        budget = max_steps if max_steps is not None else default_step_budget(self.graph)
        tel = get_telemetry()
        while not self.edges_covered:
            if self.steps >= budget:
                raise CoverTimeout(
                    f"{type(self).__name__} did not cover all edges within "
                    f"{budget} steps ({self.graph.m - self.num_visited_edges} left)",
                    steps=self.steps,
                    remaining=self.graph.m - self.num_visited_edges,
                )
            self._cover_advance(budget, "edges")
            if tel.enabled:
                tel.progress(
                    step=self.steps,
                    done=self.num_visited_edges,
                    total=self.graph.m,
                    unit="edges",
                    label=type(self).__name__,
                )
        return self.steps

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def unvisited_vertices(self) -> List[int]:
        """Vertices not yet visited, ascending."""
        return [v for v in range(self.graph.n) if not self.visited_vertices[v]]

    def unvisited_edges(self) -> List[int]:
        """Edge ids not yet visited, ascending (edge tracking required)."""
        if not self._edge_tracking:
            raise GraphError("edge tracking is disabled for this process")
        assert self.visited_edges is not None
        return [e for e in range(self.graph.m) if not self.visited_edges[e]]

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} t={self.steps} at={self.current} "
            f"covered={self.num_visited_vertices}/{self.graph.n}>"
        )
