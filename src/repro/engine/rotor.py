"""Array-backed rotor-router walk.

Same process as :class:`~repro.walks.rotor.RotorRouterWalk` — the particle
leaves along the current vertex's rotor edge and the rotor advances
cyclically — stepped in chunks over the graph's flat CSR arrays.  The
rotor-router is deterministic (the only randomness is the optional rotor
initialization, which the inherited reference constructor performs), so
there are no RNG parity constraints at all: every chunk tier is exact on
every graph and for every ``rng``.

Two layout tricks carry the speedup:

* rotors are stored as *absolute CSR positions* (``off[v] + offset``), so
  a step reads its edge id and neighbour with two flat indexes instead of
  an incidence-tuple unpack;
* rotor advancement goes through a precomputed successor table
  (``succ[j]`` is the next rotor position after using slot ``j``), which
  replaces the per-step ``(idx + 1) % deg`` with one list read.  The table
  depends only on the graph, so it lives in ``scratch_cache()`` and is
  shared by every rotor walk on the graph.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.engine.base import (
    DEFAULT_CHUNK_SIZE,
    STOP_EDGES,
    STOP_VERTICES,
    ArrayWalkEngine,
)
from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.walks.rotor import RotorRouterWalk

__all__ = ["ArrayRotorRouter"]


def _rotor_successors(graph: Graph) -> List[int]:
    """``succ[j]``: the rotor position following CSR slot ``j`` (cyclic per
    vertex).  Built once per graph and cached in ``scratch_cache()``."""
    cache = graph.scratch_cache()
    succ = cache.get("engine_rotor_successors")
    if succ is None:
        offsets = graph.csr_offsets.tolist()
        succ = []
        for v in range(graph.n):
            base, end = offsets[v], offsets[v + 1]
            succ.extend(range(base + 1, end))
            if end > base:
                succ.append(base)
        cache["engine_rotor_successors"] = succ
    return succ


class ArrayRotorRouter(ArrayWalkEngine, RotorRouterWalk):
    """Chunked rotor-router; bit-identical to the reference walk.

    Trajectories, rotor state (via :meth:`rotor_positions`), visitation
    bookkeeping, and cover times all match
    :class:`~repro.walks.rotor.RotorRouterWalk` exactly; single ``step()``
    calls and chunked runs interleave freely.
    """

    def __init__(
        self,
        graph: Graph,
        start: int,
        rng: Optional[random.Random] = None,
        track_edges: bool = False,
        randomize_rotors: bool = False,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        RotorRouterWalk.__init__(
            self,
            graph,
            start,
            rng=rng,
            track_edges=track_edges,
            randomize_rotors=randomize_rotors,
        )
        self._init_arrays(chunk_size)
        # Canonical rotor state becomes the absolute CSR position; the
        # inherited relative list is retired (any stray direct access
        # should fail loudly rather than read stale state).
        off = self._off
        self._rotor_abs: List[int] = [
            off[v] + offset for v, offset in enumerate(self._pointer)
        ]
        self._pointer = None
        self._succ = _rotor_successors(graph)

    def rotor_positions(self) -> List[int]:
        off = self._off
        return [j - off[v] for v, j in enumerate(self._rotor_abs)]

    def _transition(self) -> int:
        # Single-step path over the absolute rotor state (the inherited
        # _transition reads the retired relative list).
        v = self.current
        j = self._rotor_abs[v]
        self._rotor_abs[v] = self._succ[j]
        self._record_edge_visit(self._eids[j])
        return self._nbrs[j]

    def _chunk(self, num_steps: int, stop: int) -> None:
        if num_steps <= 0:
            return
        if stop == STOP_VERTICES and self.num_visited_vertices == self.graph.n:
            return
        if stop == STOP_EDGES and self.num_visited_edges == self.graph.m:
            return
        if self._deg[self.current] == 0:
            # Only reachable on the single-vertex edgeless graph; the
            # reference loop raises an IndexError from the empty incidence
            # list here, we fail with intent.
            raise GraphError(
                f"vertex {self.current} has no incident edges to step along"
            )
        n = self.graph.n
        m = self.graph.m
        nbrs = self._nbrs
        eids = self._eids
        rot = self._rotor_abs
        succ = self._succ
        visited = self.visited_vertices
        first = self.first_visit_time
        track = self._edge_tracking
        ev = self.visited_edges
        fe = self.first_edge_visit_time
        cur = self.current
        steps = self.steps
        nv = self.num_visited_vertices
        ne = self.num_visited_edges
        # Sentinels: nv/ne can never reach -1, so unset stops never fire.
        tv = n if stop == STOP_VERTICES else -1
        te = m if stop == STOP_EDGES else -1
        try:
            for _ in range(num_steps):
                j = rot[cur]
                rot[cur] = succ[j]
                steps += 1
                if track:
                    e = eids[j]
                    if not ev[e]:
                        ev[e] = 1
                        ne += 1
                        fe[e] = steps
                cur = nbrs[j]
                if not visited[cur]:
                    visited[cur] = 1
                    nv += 1
                    first[cur] = steps
                if nv == tv or ne == te:
                    break
        finally:
            self.current = cur
            self.steps = steps
            self.num_visited_vertices = nv
            self.num_visited_edges = ne
