"""Array-backed simple random walk.

Same process as :class:`~repro.walks.srw.SimpleRandomWalk` — a uniform
choice over the current vertex's incidence entries per step — stepped in
chunks over the graph's flat CSR arrays.  On regular graphs every draw has
the same modulus, so a whole chunk's worth of draws comes from one bulk
raw-word pull with the rejection sampling done vectorized (see
:class:`~repro.engine.base.MTWordStream`); the remaining per-step work is
two list indexes and a visited check.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.engine.base import (
    BATCH_MIN_STEPS,
    DEFAULT_CHUNK_SIZE,
    STOP_EDGES,
    STOP_VERTICES,
    ArrayWalkEngine,
)
from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.walks.srw import SimpleRandomWalk

__all__ = ["ArraySRW"]


class ArraySRW(ArrayWalkEngine, SimpleRandomWalk):
    """Chunked SRW over flat arrays; bit-identical to the reference SRW.

    ``step()`` (inherited) and the chunked runners interleave freely and
    draw the same Mersenne-Twister stream, so for a given seed this class
    reproduces :class:`~repro.walks.srw.SimpleRandomWalk` trajectories and
    cover times exactly while stepping several times faster.
    """

    def __init__(
        self,
        graph: Graph,
        start: int,
        rng: Optional[random.Random] = None,
        track_edges: bool = False,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        SimpleRandomWalk.__init__(self, graph, start, rng=rng, track_edges=track_edges)
        self._init_arrays(chunk_size)

    def _chunk(self, num_steps: int, stop: int) -> None:
        if num_steps <= 0:
            return
        if stop == STOP_VERTICES and self.num_visited_vertices == self.graph.n:
            return
        if stop == STOP_EDGES and self.num_visited_edges == self.graph.m:
            return
        if self._deg[self.current] == 0:
            # Only reachable on the single-vertex edgeless graph (the walk
            # constructor rejects isolated starts otherwise); the reference
            # loop raises from randrange(0) here, we fail with intent.
            raise GraphError(
                f"vertex {self.current} has no incident edges to step along"
            )
        if self._grb is None:
            self._chunk_steps(num_steps, stop)
        elif (
            self._regular_degree
            and self._stream is not None
            and num_steps >= BATCH_MIN_STEPS
        ):
            self._chunk_batched(num_steps, stop)
        else:
            self._chunk_scalar(num_steps, stop)

    # ------------------------------------------------------------------
    # Tier 2: inlined per-step rejection sampling (any graph)
    # ------------------------------------------------------------------
    def _chunk_scalar(self, num_steps: int, stop: int) -> None:
        n = self.graph.n
        m = self.graph.m
        off = self._off
        nbrs = self._nbrs
        deg = self._deg
        kbits = self._kbits
        grb = self._grb
        visited = self.visited_vertices
        first = self.first_visit_time
        track = self._edge_tracking
        eids = self._eids
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
                dq = deg[cur]
                kq = kbits[dq]
                r = grb(kq)
                while r >= dq:
                    r = grb(kq)
                j = off[cur] + r
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

    # ------------------------------------------------------------------
    # Tier 1: bulk-filtered draws (regular graphs, plain MT rng)
    # ------------------------------------------------------------------
    def _chunk_batched(self, num_steps: int, stop: int) -> None:
        n = self.graph.n
        m = self.graph.m
        d = self._regular_degree
        k = d.bit_length()
        shift = 32 - k
        # Expected raw words per accepted draw (rejection waste factor).
        factor = (1 << k) / d
        off = self._off
        nbrs = self._nbrs
        visited = self.visited_vertices
        first = self.first_visit_time
        track = self._edge_tracking
        eids = self._eids
        ev = self.visited_edges
        fe = self.first_edge_visit_time
        stream = self._stream
        cur = self.current
        steps = self.steps
        nv = self.num_visited_vertices
        ne = self.num_visited_edges
        tv = n if stop == STOP_VERTICES else -1
        te = m if stop == STOP_EDGES else -1
        stream.begin()
        unused = 0
        remaining = num_steps
        done = False
        try:
            while remaining and not done:
                est = int(remaining * factor) + 32
                raw = stream.take(est)
                cand = raw >> shift
                pos = (cand < d).nonzero()[0]
                if pos.size > remaining:
                    pos = pos[:remaining]
                draws = cand[pos].tolist()
                steps0 = steps
                if track:
                    for i in draws:
                        j = off[cur] + i
                        steps += 1
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
                            done = True
                            break
                else:
                    for i in draws:
                        steps += 1
                        cur = nbrs[off[cur] + i]
                        if not visited[cur]:
                            visited[cur] = 1
                            nv += 1
                            first[cur] = steps
                            if nv == tv:
                                done = True
                                break
                used = steps - steps0
                if done or used == remaining:
                    # Final batch: words after the last consumed draw were
                    # never drawn by the sequential algorithm.
                    unused = est - (int(pos[used - 1]) + 1)
                    remaining = 0
                else:
                    # Statistical shortfall: every word (including trailing
                    # rejects, which belong to the in-flight draw the next
                    # batch continues) is consumed.
                    remaining -= used
        finally:
            self.current = cur
            self.steps = steps
            self.num_visited_vertices = nv
            self.num_visited_edges = ne
            stream.end(unused)
