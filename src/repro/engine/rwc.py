"""Array-backed RWC(d) — random walk with choice.

Same process as :class:`~repro.walks.choice.RandomWalkWithChoice`: each
step samples ``d`` incident edges uniformly at random and moves to the
endpoint with the smallest visit count, ties broken uniformly
(reservoir-style).  Stepped in chunks over the graph's flat CSR arrays.

RWC consumes *two kinds* of draws, interleaved data-dependently:

* ``randrange(deg)`` per candidate — one ``getrandbits(k)`` rejection
  round per tempered word (``word >> (32 - k)``);
* ``random()`` per tie after the first equally-visited candidate —
  CPython's ``genrand_res53``: exactly two words,
  ``((w1 >> 5) * 2**26 + (w2 >> 6)) / 2**53``.

Two chunk tiers replay them in the reference walk's order:

* :meth:`ArrayRWC._chunk_choice2` — RWC(2) on a regular graph of degree
  below 256.  Raw words come in large batches through
  :class:`~repro.engine.base.MTWordStream`, and the constant modulus lets
  every word's role (draw, rejection, tie word) be derived vectorized per
  batch, leaving the scalar loop with list reads only.
* :meth:`ArrayRWC._chunk_scalar` — every other graph and ``d``: the
  reference's ``getrandbits``/``random`` calls with the loop state
  hoisted.  A tie decision depends on visit counts, so the word split
  cannot be precomputed here, and consuming batched words one at a time
  in Python is slower than the generator calls themselves.

Both are bit-exact, so trajectories, visit counts, and the generator
state after any number of steps all match the reference walk.
``visit_counts`` update on every step, cover or no cover.
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
from repro.walks.choice import RandomWalkWithChoice

__all__ = ["ArrayRWC"]


class ArrayRWC(ArrayWalkEngine, RandomWalkWithChoice):
    """Chunked RWC(d); bit-identical to the reference walk.

    ``step()`` (inherited) and the chunked runners interleave freely and
    draw the same Mersenne-Twister stream, so for a given seed this class
    reproduces :class:`~repro.walks.choice.RandomWalkWithChoice`
    trajectories, visit counts, and cover times exactly.
    """

    def __init__(
        self,
        graph: Graph,
        start: int,
        d: int = 2,
        rng: Optional[random.Random] = None,
        track_edges: bool = False,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        RandomWalkWithChoice.__init__(
            self, graph, start, d=d, rng=rng, track_edges=track_edges
        )
        self._init_arrays(chunk_size)

    def _chunk(self, num_steps: int, stop: int) -> None:
        if num_steps <= 0:
            return
        if stop == STOP_VERTICES and self.num_visited_vertices == self.graph.n:
            return
        if stop == STOP_EDGES and self.num_visited_edges == self.graph.m:
            return
        if self._deg[self.current] == 0:
            # Only reachable on the single-vertex edgeless graph; the
            # reference loop raises from randrange(0) here, we fail with
            # intent.
            raise GraphError(
                f"vertex {self.current} has no incident edges to step along"
            )
        if self._grb is None:
            self._chunk_steps(num_steps, stop)
        elif (
            self.d == 2
            and 0 < self._regular_degree < 256  # draw values must fit a byte
            and self._stream is not None
            and num_steps >= BATCH_MIN_STEPS
        ):
            self._chunk_choice2(num_steps, stop)
        else:
            self._chunk_scalar(num_steps, stop)

    # ------------------------------------------------------------------
    # Per-draw rng calls with everything hoisted (any graph, any d)
    # ------------------------------------------------------------------
    def _chunk_scalar(self, num_steps: int, stop: int) -> None:
        n = self.graph.n
        m = self.graph.m
        d = self.d
        off = self._off
        nbrs = self._nbrs
        eids = self._eids
        deg = self._deg
        kbits = self._kbits
        grb = self._grb
        rnd = self.rng.random
        vc = self.visit_counts
        visited = self.visited_vertices
        first = self.first_visit_time
        track = self._edge_tracking
        ev = self.visited_edges
        fe = self.first_edge_visit_time
        cur = self.current
        steps = self.steps
        nv = self.num_visited_vertices
        ne = self.num_visited_edges
        tv = n if stop == STOP_VERTICES else -1
        te = m if stop == STOP_EDGES else -1
        try:
            for _ in range(num_steps):
                base = off[cur]
                dq = deg[cur]
                kq = kbits[dq]
                # First candidate always wins (the reference's
                # best_count-is-None branch), so it is unrolled.
                r = grb(kq)
                while r >= dq:
                    r = grb(kq)
                best_j = base + r
                best_count = vc[nbrs[best_j]]
                ties = 1
                for _ in range(d - 1):
                    r = grb(kq)
                    while r >= dq:
                        r = grb(kq)
                    j = base + r
                    count = vc[nbrs[j]]
                    if count < best_count:
                        best_count = count
                        best_j = j
                        ties = 1
                    elif count == best_count:
                        ties += 1
                        if rnd() < 1.0 / ties:
                            best_j = j
                steps += 1
                if track:
                    e = eids[best_j]
                    if not ev[e]:
                        ev[e] = 1
                        ne += 1
                        fe[e] = steps
                cur = nbrs[best_j]
                vc[cur] += 1
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
    # RWC(2) on regular graphs: batched words, precomputed word roles
    # ------------------------------------------------------------------
    def _chunk_choice2(self, num_steps: int, stop: int) -> None:
        """RWC(2)-on-regular-graph kernel: vectorized draw/tie precompute.

        With ``d = 2`` and a constant modulus, almost every per-word
        decision can be taken vectorized per raw batch, leaving the scalar
        loop with sequential list reads only:

        * *draws*: rejection-prefiltered into ``drl`` (the accepted draw
          values in order) — a step reads ``drl[di], drl[di+1]``;
        * *tie outcomes*: a tie after draw ``j`` consumes the two raw
          words right after ``j``'s accepting word, and with two
          candidates the reference test ``random() < 1/2`` is exactly the
          integer test ``(w1>>5)*2**26 + (w2>>6) < 2**52`` — precomputed
          per draw index;
        * *draw-cursor repair*: the two tie words may themselves have
          passed the rejection filter, in which case they must be skipped
          as draws.

        Both tie facts are packed into one byte table ``tmg`` (bit 2 =
        winner, bits 0-1 = draw-index skip), so a tie costs one byte read.

        Exactness of the word split is preserved by construction: the
        rejection filter is position-independent, so the accepted-draw
        sequence stays valid however draw and tie consumption interleave.
        The raw cursor (for RNG sync and batch tail carry) is recovered
        from ``di`` and the last tie index, not tracked per step.
        """
        import numpy as np

        n = self.graph.n
        m = self.graph.m
        D = self._regular_degree
        k = D.bit_length()
        shift = 32 - k
        factor = (1 << k) / D
        wps = 2.0 * factor + 1.5  # two draws plus tie-word slack
        nbl = self._nbrs
        eil = self._eids
        vcl = self.visit_counts
        visited = self.visited_vertices
        first = self.first_visit_time
        track = self._edge_tracking
        ev = self.visited_edges
        fe = self.first_edge_visit_time
        stream = self._stream
        cur = self.current
        steps = self.steps
        steps0 = steps
        nv = self.num_visited_vertices
        ne = self.num_visited_edges
        tv = n if stop == STOP_VERTICES else -1
        te = m if stop == STOP_EDGES else -1
        pow2 = D & (D - 1) == 0  # base = cur << (k-1) beats the offsets read

        stream.begin()
        base_words = 0  # stream-global index of raw[0]
        raw = stream.take(min(int(num_steps * wps) + 64, 1 << 17))

        def derive(raw):
            # All word-role tables for one raw batch, vectorized.  Draw
            # values and tie bytes go through ``tobytes`` (not ``tolist``):
            # bytes indexing hands out interned ints at list speed without
            # paying per-element conversion up front.
            cand = raw >> shift
            accmask = cand < D
            acc8 = accmask.view(np.uint8)
            acc_pos = np.nonzero(accmask)[0]
            L = len(raw)
            drl = cand[acc_pos].astype(np.uint8).tobytes()
            # random() < 1/2 ⟺ the 53-bit numerator (w1>>5)*2**26 + (w2>>6)
            # is < 2**52 ⟺ w1's top bit is clear: (w1>>5) ≥ 2**26 forces the
            # numerator ≥ 2**52, and (w1>>5) ≤ 2**26 - 1 caps it at 2**52-1.
            tw8 = (raw < 0x80000000).view(np.uint8)
            app = np.minimum(acc_pos + 1, L - 2)
            tmg = (
                (tw8[app] << 2) | (acc8[app] + acc8[np.minimum(acc_pos + 2, L - 1)])
            ).tobytes()
            # Draw indices safe for a full step (two draws + two tie words
            # all inside this batch).
            n_acc_safe = int(np.searchsorted(acc_pos, L - 4, side="right"))
            return acc_pos, drl, tmg, n_acc_safe

        acc_pos, drl, tmg, n_acc_safe = derive(raw)
        di = 0  # next unconsumed accepted-draw index
        lt = -1  # second-draw index of this batch's last tie (cursor repair)

        def cursor():
            # Raw words consumed from the current batch: one past the last
            # consumed draw word, unless the batch's final action was a
            # tie, whose two words reach further.
            c = int(acc_pos[di - 1]) + 1 if di > 0 else 0
            if lt >= 0:
                c2 = int(acc_pos[lt]) + 3
                if c2 > c:
                    c = c2
            return c

        done = False
        try:
            while not done:
                remaining = num_steps - (steps - steps0)
                if not remaining:
                    break
                S = (n_acc_safe - di) >> 2  # ≤ 4 draw indices per step
                if S <= 0:
                    used = cursor()
                    base_words += used
                    est = min(int(remaining * wps) + 1024, 1 << 17)
                    raw = np.concatenate([raw[used:], stream.take(est)])
                    acc_pos, drl, tmg, n_acc_safe = derive(raw)
                    di = 0
                    lt = -1
                    continue
                if S > remaining:
                    S = remaining
                off = self._off
                if nv == n and (not track or ne == m):
                    # Saturated: any requested stop target already returned
                    # at _chunk entry, so only position/visit-count state
                    # evolves.
                    if pow2:
                        lsh = k - 1
                        for _ in range(S >> 1):
                            r1 = drl[di]
                            r2 = drl[di + 1]
                            di += 2
                            base = cur << lsh
                            m1 = nbl[base + r1]
                            m2 = nbl[base + r2]
                            c1 = vcl[m1]
                            c2 = vcl[m2]
                            if c2 < c1:
                                cur = m2
                            elif c2 == c1:
                                j = di - 1
                                t = tmg[j]
                                cur = m2 if t & 4 else m1
                                lt = j
                                di += t & 3
                            else:
                                cur = m1
                            vcl[cur] += 1
                            r1 = drl[di]
                            r2 = drl[di + 1]
                            di += 2
                            base = cur << lsh
                            m1 = nbl[base + r1]
                            m2 = nbl[base + r2]
                            c1 = vcl[m1]
                            c2 = vcl[m2]
                            if c2 < c1:
                                cur = m2
                            elif c2 == c1:
                                j = di - 1
                                t = tmg[j]
                                cur = m2 if t & 4 else m1
                                lt = j
                                di += t & 3
                            else:
                                cur = m1
                            vcl[cur] += 1
                        if S & 1:
                            r1 = drl[di]
                            r2 = drl[di + 1]
                            di += 2
                            base = cur << lsh
                            m1 = nbl[base + r1]
                            m2 = nbl[base + r2]
                            c1 = vcl[m1]
                            c2 = vcl[m2]
                            if c2 < c1:
                                cur = m2
                            elif c2 == c1:
                                j = di - 1
                                t = tmg[j]
                                cur = m2 if t & 4 else m1
                                lt = j
                                di += t & 3
                            else:
                                cur = m1
                            vcl[cur] += 1
                    else:
                        for _ in range(S):
                            r1 = drl[di]
                            r2 = drl[di + 1]
                            di += 2
                            base = off[cur]
                            m1 = nbl[base + r1]
                            m2 = nbl[base + r2]
                            c1 = vcl[m1]
                            c2 = vcl[m2]
                            if c2 < c1:
                                cur = m2
                            elif c2 == c1:
                                j = di - 1
                                t = tmg[j]
                                cur = m2 if t & 4 else m1
                                lt = j
                                di += t & 3
                            else:
                                cur = m1
                            vcl[cur] += 1
                    steps += S
                else:
                    for _ in range(S):
                        r1 = drl[di]
                        r2 = drl[di + 1]
                        di += 2
                        base = off[cur]
                        i1 = base + r1
                        i2 = base + r2
                        m1 = nbl[i1]
                        m2 = nbl[i2]
                        c1 = vcl[m1]
                        c2 = vcl[m2]
                        if c2 < c1:
                            cur = m2
                            jbest = i2
                        elif c2 == c1:
                            j = di - 1
                            t = tmg[j]
                            if t & 4:
                                cur = m2
                                jbest = i2
                            else:
                                cur = m1
                                jbest = i1
                            lt = j
                            di += t & 3
                        else:
                            cur = m1
                            jbest = i1
                        steps += 1
                        if track:
                            e = eil[jbest]
                            if not ev[e]:
                                ev[e] = 1
                                ne += 1
                                fe[e] = steps
                        vcl[cur] += 1
                        if not visited[cur]:
                            visited[cur] = 1
                            nv += 1
                            first[cur] = steps
                        if nv == tv or ne == te:
                            done = True
                            break
        finally:
            self.current = cur
            self.steps = steps
            self.num_visited_vertices = nv
            self.num_visited_edges = ne
            # Returning words from the final take alone is much cheaper
            # than a full replay (end() rewinds to the final take's start;
            # sync_to() regenerates the whole chunk), and the unconsumed
            # tail almost always fits: carried tails are tiny.
            unused = len(raw) - cursor()
            if unused <= stream._last_count:
                stream.end(unused)
            else:
                stream.sync_to(base_words + cursor())
