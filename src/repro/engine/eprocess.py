"""Array-backed E-process (uniform rule).

Same process as :class:`~repro.core.eprocess.EdgeProcess` with the paper's
experimental rule A (uniform over unvisited incident edges), stepped in
chunks over the graph's flat CSR arrays.  The blue/red decision, candidate
order, RNG draws, phase marks, and edge/vertex first-visit bookkeeping all
replicate the reference implementation exactly — only the per-step
dispatch, rule indirection, and tuple traffic are gone.

Other rules keep their strategy-object flexibility on the reference
:class:`~repro.core.eprocess.EdgeProcess`; this fast path deliberately
hard-codes the uniform rule because it is the one the paper's figures (and
this repo's large sweeps) use.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.eprocess import BLUE, RED, EdgeProcess, PhaseMark
from repro.errors import GraphError
from repro.engine.base import (
    DEFAULT_CHUNK_SIZE,
    STOP_EDGES,
    STOP_VERTICES,
    ArrayWalkEngine,
)
from repro.graphs.graph import Graph

__all__ = ["ArrayEdgeProcess"]


class ArrayEdgeProcess(ArrayWalkEngine, EdgeProcess):
    """Chunked E-process; bit-identical to the reference with uniform rule.

    Exposes the full :class:`~repro.core.eprocess.EdgeProcess` surface
    (``red_steps``/``blue_steps``, phase marks, blue degrees, ...); single
    ``step()`` calls and chunked runs interleave freely.
    """

    def __init__(
        self,
        graph: Graph,
        start: int,
        rng: Optional[random.Random] = None,
        require_even_degrees: bool = False,
        record_phases: bool = True,
        record_red_trajectory: bool = False,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        EdgeProcess.__init__(
            self,
            graph,
            start,
            rng=rng,
            rule=None,  # uniform — the rule this fast path specializes
            require_even_degrees=require_even_degrees,
            record_phases=record_phases,
            record_red_trajectory=record_red_trajectory,
        )
        self._init_arrays(chunk_size)

    def _chunk(self, num_steps: int, stop: int) -> None:
        if num_steps <= 0:
            return
        n = self.graph.n
        m = self.graph.m
        nv = self.num_visited_vertices
        ne = self.num_visited_edges
        stop_v = stop == STOP_VERTICES
        stop_e = stop == STOP_EDGES
        if (stop_v and nv == n) or (stop_e and ne == m):
            return
        if self._deg[self.current] == 0:
            # Only reachable on the single-vertex edgeless graph (the walk
            # constructor rejects isolated starts otherwise); the reference
            # loop raises from randrange(0) here, we fail with intent
            # instead of spinning on zero-width draws.
            raise GraphError(
                f"vertex {self.current} has no incident edges to step along"
            )
        if self._grb is None:
            self._chunk_steps(num_steps, stop)
            return
        off = self._off
        eids = self._eids
        nbrs = self._nbrs
        deg = self._deg
        kbits = self._kbits
        grb = self._grb
        bd = self.blue_degree
        ev = self.visited_edges
        fe = self.first_edge_visit_time
        visited = self.visited_vertices
        first = self.first_visit_time
        marks = self.phase_marks
        record_phases = self._record_phases
        record_red = self._record_red_trajectory
        red_trajectory = self.red_trajectory
        has_loops = self._has_loops
        cur = self.current
        steps = self.steps
        red = self.red_steps
        blue = self.blue_steps
        last_color = self._last_color
        try:
            for _ in range(num_steps):
                if bd[cur]:
                    # Blue step: uniform over unvisited incident edges, in
                    # incidence order (matching blue_candidates + the
                    # uniform rule's randrange index).
                    base = off[cur]
                    end = off[cur + 1]
                    if has_loops:
                        cand = []
                        seen = set()
                        for j in range(base, end):
                            e = eids[j]
                            if not ev[e] and e not in seen:
                                seen.add(e)
                                cand.append(j)
                    else:
                        cand = [j for j in range(base, end) if not ev[eids[j]]]
                    q = len(cand)
                    kq = kbits[q]
                    r = grb(kq)
                    while r >= q:
                        r = grb(kq)
                    j = cand[r]
                    e = eids[j]
                    nxt = nbrs[j]
                    steps += 1
                    ev[e] = 1
                    ne += 1
                    fe[e] = steps
                    if nxt == cur:  # loop consumes both endpoints
                        bd[cur] -= 2
                    else:
                        bd[cur] -= 1
                        bd[nxt] -= 1
                    blue += 1
                    if last_color != BLUE:
                        if record_phases:
                            marks.append(PhaseMark(steps, BLUE, cur))
                        last_color = BLUE
                else:
                    # Red step: plain SRW over the incidence entries.
                    dq = deg[cur]
                    kq = kbits[dq]
                    r = grb(kq)
                    while r >= dq:
                        r = grb(kq)
                    nxt = nbrs[off[cur] + r]
                    steps += 1
                    red += 1
                    if last_color != RED:
                        if record_phases:
                            marks.append(PhaseMark(steps, RED, cur))
                        last_color = RED
                    if record_red:
                        red_trajectory.append(nxt)
                cur = nxt
                if not visited[cur]:
                    visited[cur] = 1
                    nv += 1
                    first[cur] = steps
                if (stop_v and nv == n) or (stop_e and ne == m):
                    break
        finally:
            self.current = cur
            self.steps = steps
            self.num_visited_vertices = nv
            self.num_visited_edges = ne
            self.red_steps = red
            self.blue_steps = blue
            self._last_color = last_color
