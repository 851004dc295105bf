"""Walk engines for implicit neighbor-oracle graphs.

The reference walks subclass :class:`~repro.walks.base.WalkProcess`, whose
constructor materializes O(n·d) incidence state — exactly what an
:class:`~repro.graphs.implicit.ImplicitGraph` exists to avoid.  The
engines here re-implement the same stepping semantics against the oracle
surface only (``degree``/``kth_neighbor``/``edge_slot``), with all
visitation state in packed :class:`~repro.engine.base.VisitedSet` bitsets,
so a cover run at n = 2^24 fits comfortably in memory.

**Bit identity.**  Each engine consumes the Mersenne-Twister stream in the
exact order its reference twin does (``randrange(q)`` inlined as CPython's
``_randbelow`` rejection loop), and the implicit families' canonical slot
order equals the materialized incidence order — so for the same seed, an
oracle walk on ``ImplicitHypercube(r)`` and its reference twin on
``ImplicitHypercube(r).materialize()`` produce the same trajectory, cover
time, first-visit table, and final RNG state.  ``tests/test_implicit.py``
pins this per (family, walk, engine).

**Edge identity.**  With no global edge ids, edges are tracked by their
canonical dart (:meth:`~repro.graphs.implicit.ImplicitGraph.edge_slot`):
a bitset over the dart space counts edge cover, and — when the dart space
is small enough (:data:`EDGE_TIMES_MAX_DARTS`) — first-visit steps are
kept in a dart-keyed dict.  Giant runs keep exact cover *counts* and drop
only the per-edge time table.

Walks that need dense per-edge state (rotor-router's rotor table, RWC's
visit counts, the locally-fair walks' per-edge ages) have no oracle twin;
the registry raises an explicit :class:`~repro.errors.ReproError` naming
the walk and backend instead of silently materializing.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.core.rules import UniformEdgeRule
from repro.core.eprocess import BLUE, RED, PhaseMark
from repro.errors import CoverTimeout, EvenDegreeError, GraphError, ReproError
from repro.engine.base import (
    STOP_EDGES,
    STOP_NONE,
    STOP_VERTICES,
    VisitedSet,
)
from repro.graphs.implicit import ImplicitGraph
from repro.telemetry import get_telemetry
from repro.walks.base import default_step_budget

__all__ = [
    "OracleWalkBase",
    "OracleSRW",
    "OracleEdgeProcess",
    "OracleVProcess",
    "ORACLE_CHUNK_SIZE",
    "EDGE_TIMES_MAX_DARTS",
    "EPROCESS_MAX_DEGREE",
]

#: Steps per cover-runner chunk.  Larger than the CSR engines' chunk: each
#: chunk checks the word list out of the bitsets, and the conversion is
#: worth amortizing over more steps.
ORACLE_CHUNK_SIZE = 65536

#: Keep per-edge first-visit times (a dart-keyed dict) only while the dart
#: space is at most this big; beyond it the dict would dwarf the bitsets
#: the backend exists to shrink.  Cover *counts* stay exact regardless.
EDGE_TIMES_MAX_DARTS = 1 << 22

#: The oracle E-process packs each vertex's local blue-edge state into one
#: uint64 (bit k = slot k unvisited), so it supports degree ≤ 64 only.
EPROCESS_MAX_DEGREE = 64


class OracleWalkBase:
    """Shared state/runner surface for the oracle walk engines.

    Mirrors the slice of :class:`~repro.walks.base.WalkProcess` that the
    runner, ``record_profile``, and the test suites touch — it is *not* a
    subclass, because the base constructor materializes incidence state.
    """

    def __init__(
        self,
        graph: ImplicitGraph,
        start: int,
        rng: Optional[random.Random] = None,
        track_edges: bool = False,
    ):
        if not isinstance(graph, ImplicitGraph):
            raise ReproError(
                f"{type(self).__name__} needs an implicit neighbor-oracle "
                f"graph, got {type(graph).__name__}; use the walk's "
                "reference/array class for materialized graphs"
            )
        if not 0 <= start < graph.n:
            raise GraphError(f"start vertex {start} out of range 0..{graph.n - 1}")
        import numpy as np

        from repro.sim.rng import fresh_generator

        self.graph = graph
        self.start = start
        self.rng = rng if rng is not None else fresh_generator()
        self.current = start
        self.steps = 0
        self._d = graph.regularity()
        self._kbits = [q.bit_length() for q in range(self._d + 1)]

        self.visited = VisitedSet(graph.n)
        self.visited.add(start)
        self._fv = np.full(graph.n, -1, dtype=np.int64)
        self._fv[start] = 0

        self._edge_tracking = track_edges
        self.num_visited_edges = 0
        darts = graph.n * self._d
        if track_edges:
            self.visited_edge_darts: Optional[VisitedSet] = VisitedSet(darts)
            self._record_edge_times = darts <= EDGE_TIMES_MAX_DARTS
        else:
            self.visited_edge_darts = None
            self._record_edge_times = False
        #: Canonical dart -> first-visit step (only when the dart space is
        #: small; see :data:`EDGE_TIMES_MAX_DARTS`).
        self.first_edge_visit_dart_time: Dict[int, int] = {}

        if type(self.rng)._randbelow is random.Random._randbelow and hasattr(
            self.rng, "getrandbits"
        ):
            self._grb = self.rng.getrandbits
        else:
            self._grb = None
        self.chunk_size = ORACLE_CHUNK_SIZE

    # ------------------------------------------------------------------
    # WalkProcess-compatible surface
    # ------------------------------------------------------------------
    @property
    def num_visited_vertices(self) -> int:
        return self.visited.count

    @property
    def first_visit_time(self):
        """First-visit step per vertex (int64 numpy array; -1 unvisited)."""
        return self._fv

    @property
    def vertices_covered(self) -> bool:
        return self.visited.count == self.graph.n

    @property
    def edges_covered(self) -> bool:
        if not self._edge_tracking:
            raise GraphError("edge tracking is disabled for this process")
        return self.num_visited_edges == self.graph.m

    @property
    def tracks_edges(self) -> bool:
        return self._edge_tracking

    def unvisited_vertices(self) -> List[int]:
        import numpy as np

        return (self._fv < 0).nonzero()[0].tolist()

    def _transition(self) -> int:
        raise NotImplementedError

    def step(self) -> int:
        """Advance one step; returns the new current vertex."""
        nxt = self._transition()
        self.steps += 1
        self.current = nxt
        if self.visited.add(nxt):
            self._fv[nxt] = self.steps
        return nxt

    def _record_edge_visit_dart(self, dart: int) -> None:
        if not self._edge_tracking:
            return
        if self.visited_edge_darts.add(dart):
            self.num_visited_edges += 1
            if self._record_edge_times:
                self.first_edge_visit_dart_time[dart] = self.steps + 1

    # ------------------------------------------------------------------
    # Runners (budget/timeout logic mirrors WalkProcess)
    # ------------------------------------------------------------------
    def _chunk(self, num_steps: int, stop: int) -> None:
        """Take up to ``num_steps`` steps (early exit at the cover instant
        when ``stop`` asks).  Default: the per-step loop."""
        step = self.step
        for _ in range(num_steps):
            step()
            if stop == STOP_VERTICES:
                if self.visited.count == self.graph.n:
                    return
            elif stop == STOP_EDGES:
                if self.num_visited_edges == self.graph.m:
                    return

    def run(self, num_steps: int) -> int:
        """Take exactly ``num_steps`` steps; returns the final vertex."""
        if num_steps < 0:
            raise ReproError(f"num_steps must be >= 0, got {num_steps}")
        remaining = num_steps
        while remaining > 0:
            size = min(remaining, self.chunk_size)
            self._chunk(size, STOP_NONE)
            remaining -= size
        return self.current

    def run_until_vertex_cover(self, max_steps: Optional[int] = None) -> int:
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
            before = self.steps
            self._chunk(min(self.chunk_size, budget - self.steps), STOP_VERTICES)
            if tel.enabled:
                tel.count("oracle.chunks")
                tel.count("oracle.steps", self.steps - before)
                tel.progress(
                    step=self.steps,
                    done=self.num_visited_vertices,
                    total=self.graph.n,
                    unit="vertices",
                    label=type(self).__name__,
                )
        return self.steps

    def run_until_edge_cover(self, max_steps: Optional[int] = None) -> int:
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
            before = self.steps
            self._chunk(min(self.chunk_size, budget - self.steps), STOP_EDGES)
            if tel.enabled:
                tel.count("oracle.chunks")
                tel.count("oracle.steps", self.steps - before)
                tel.progress(
                    step=self.steps,
                    done=self.num_visited_edges,
                    total=self.graph.m,
                    unit="edges",
                    label=type(self).__name__,
                )
        return self.steps

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} t={self.steps} at={self.current} "
            f"covered={self.num_visited_vertices}/{self.graph.n}>"
        )


class OracleSRW(OracleWalkBase):
    """Simple random walk on an implicit graph.

    Reference twin: :class:`~repro.walks.srw.SimpleRandomWalk` — one
    ``randrange(d)`` per step, drawn one at a time by the inlined
    rejection loop (``kth_neighbor`` dominates the step, so batching the
    words buys nothing).
    """

    def _transition(self) -> int:
        k = self.rng.randrange(self._d)
        if self._edge_tracking:
            self._record_edge_visit_dart(self.graph.edge_slot(self.current, k))
        return self.graph.kth_neighbor(self.current, k)

    def _chunk(self, num_steps: int, stop: int) -> None:
        if self._grb is None:
            super()._chunk(num_steps, stop)
            return
        steps0 = self.steps
        grb = self._grb
        d = self._d
        kq = self._kbits[d]
        graph = self.graph
        kth = graph.kth_neighbor
        eslot = graph.edge_slot
        tracking = self._edge_tracking
        n = graph.n
        m = graph.m
        fv = self._fv
        cur = self.current
        steps = self.steps
        vwords = self.visited.checkout_words()
        vadded = 0
        nvv = self.visited.count
        nve = self.num_visited_edges
        if tracking:
            ewords = self.visited_edge_darts.checkout_words()
            eadded = 0
            record_times = self._record_edge_times
            etimes = self.first_edge_visit_dart_time
        try:
            for _ in range(num_steps):
                r = grb(kq)
                while r >= d:
                    r = grb(kq)
                if tracking:
                    dart = eslot(cur, r)
                    wi = dart >> 6
                    bit = 1 << (dart & 63)
                    if not ewords[wi] & bit:
                        ewords[wi] |= bit
                        eadded += 1
                        nve += 1
                        if record_times:
                            etimes[dart] = steps + 1
                cur = kth(cur, r)
                steps += 1
                wi = cur >> 6
                bit = 1 << (cur & 63)
                if not vwords[wi] & bit:
                    vwords[wi] |= bit
                    vadded += 1
                    fv[cur] = steps
                if stop == STOP_VERTICES:
                    if nvv + vadded == n:
                        break
                elif stop == STOP_EDGES:
                    if nve == m:
                        break
        finally:
            self.visited.checkin_words(vwords, vadded)
            if tracking:
                self.visited_edge_darts.checkin_words(ewords, eadded)
                self.num_visited_edges = nve
            self.current = cur
            self.steps = steps
        tel = get_telemetry()
        if tel.enabled:
            tel.count("oracle.kth_calls", self.steps - steps0)
            if tracking:
                tel.count("oracle.edge_slot_calls", self.steps - steps0)


class OracleEdgeProcess(OracleWalkBase):
    """The E-process on an implicit graph (uniform rule, degree ≤ 64).

    Reference twin: :class:`~repro.core.eprocess.EdgeProcess` with
    :class:`~repro.core.rules.UniformEdgeRule`.  Per-vertex local blue
    state is one uint64 mask (bit k set ⇔ slot k's edge unvisited; a blue
    loop holds both its slots' bits, so a nonzero mask is exactly the
    reference's ``blue_degree[v] > 0`` test), giving 8n bytes of edge
    state instead of CSR tables.

    Rules other than uniform need candidate metadata (labels, histories)
    the oracle does not carry — an explicit :class:`ReproError` names the
    rule; degrees above :data:`EPROCESS_MAX_DEGREE` likewise refuse
    rather than degrade.
    """

    def __init__(
        self,
        graph: ImplicitGraph,
        start: int,
        rng: Optional[random.Random] = None,
        rule=None,
        require_even_degrees: bool = False,
        record_phases: bool = True,
    ):
        if isinstance(graph, ImplicitGraph) and graph.regularity() > EPROCESS_MAX_DEGREE:
            raise ReproError(
                f"walk 'eprocess' on the implicit neighbor-oracle backend "
                f"packs per-vertex blue-edge masks into uint64, so degree "
                f"must be <= {EPROCESS_MAX_DEGREE}; {graph!r} has degree "
                f"{graph.regularity()} — materialize() the graph instead"
            )
        if rule is not None and type(rule) is not UniformEdgeRule:
            # Exact type, not isinstance: the oracle inlines the uniform
            # choice, so a subclass overriding choose() would be silently
            # ignored rather than honored.
            raise ReproError(
                f"walk 'eprocess' on the implicit neighbor-oracle backend "
                f"supports the uniform rule only; rule "
                f"{getattr(rule, 'name', rule)!r} needs per-edge state the "
                "oracle cannot provide — materialize() the graph instead"
            )
        if require_even_degrees and graph.regularity() % 2:
            raise EvenDegreeError(
                f"graph is {graph.regularity()}-regular (odd); Theorem 1's "
                "guarantees need even degrees"
            )
        super().__init__(graph, start, rng=rng, track_edges=True)
        import numpy as np

        self.rule = rule if rule is not None else UniformEdgeRule()
        # bit k of _blue_masks[v] ⇔ the edge in slot k at v is unvisited.
        d = self._d
        full = (1 << d) - 1
        self._blue_masks = np.full(graph.n, full, dtype=np.uint64)
        self.red_steps = 0
        self.blue_steps = 0
        self._record_phases = record_phases
        self.phase_marks: List[PhaseMark] = []
        self._last_color: Optional[str] = None
        # Loop dedup needs a neighbor probe per candidate; skip it for
        # families that cannot have loops (everything but hashed-regular
        # with an unlucky key).
        self._may_have_loops = type(graph).__name__ == "ImplicitHashedRegular"

    @property
    def blue_degree_at(self):
        """``blue_degree[v]`` equivalent: popcount of the local mask."""
        return lambda v: int(self._blue_masks[v]).bit_count()

    @property
    def last_color(self) -> Optional[str]:
        return self._last_color

    @property
    def next_color(self) -> str:
        return BLUE if int(self._blue_masks[self.current]) else RED

    @property
    def num_blue_edges(self) -> int:
        return self.graph.m - self.num_visited_edges

    def _note_color(self, color: str, vertex_before: int) -> None:
        if self._record_phases and color != self._last_color:
            self.phase_marks.append(PhaseMark(self.steps + 1, color, vertex_before))
        self._last_color = color

    def _transition(self) -> int:
        graph = self.graph
        v = self.current
        mask = int(self._blue_masks[v])
        if mask:
            if self._may_have_loops:
                # Candidate slots in incidence order, loops deduped to
                # their first slot (= the reference's eid dedup).
                cands = []
                mm = mask
                while mm:
                    low = mm & -mm
                    k = low.bit_length() - 1
                    mm ^= low
                    if graph.kth_neighbor(v, k) == v and graph.reverse_slot(v, k) < k:
                        continue
                    cands.append(k)
                k = cands[self.rng.randrange(len(cands))]
            else:
                idx = self.rng.randrange(mask.bit_count())
                mm = mask
                for _ in range(idx):
                    mm &= mm - 1
                k = (mm & -mm).bit_length() - 1
            w = graph.kth_neighbor(v, k)
            self._record_edge_visit_dart(graph.edge_slot(v, k))
            rk = graph.reverse_slot(v, k)
            if w == v:
                self._blue_masks[v] = mask & ~((1 << k) | (1 << rk))
            else:
                self._blue_masks[v] = mask & ~(1 << k)
                self._blue_masks[w] = int(self._blue_masks[w]) & ~(1 << rk)
            self._note_color(BLUE, v)
            self.blue_steps += 1
            return w
        nxt = graph.kth_neighbor(v, self.rng.randrange(self._d))
        self._note_color(RED, v)
        self.red_steps += 1
        return nxt

    def _chunk(self, num_steps: int, stop: int) -> None:
        if self._grb is None:
            super()._chunk(num_steps, stop)
            return
        graph = self.graph
        kth = graph.kth_neighbor
        eslot = graph.edge_slot
        rslot = graph.reverse_slot
        grb = self._grb
        kbits = self._kbits
        d = self._d
        kd = kbits[d]
        may_loops = self._may_have_loops
        masks = self._blue_masks
        n = graph.n
        m = graph.m
        fv = self._fv
        record_phases = self._record_phases
        last_color = self._last_color
        marks = self.phase_marks
        record_times = self._record_edge_times
        etimes = self.first_edge_visit_dart_time
        cur = self.current
        steps = self.steps
        red = self.red_steps
        blue = self.blue_steps
        nve = self.num_visited_edges
        vwords = self.visited.checkout_words()
        vadded = 0
        nvv = self.visited.count
        ewords = self.visited_edge_darts.checkout_words()
        eadded = 0
        try:
            for _ in range(num_steps):
                mask = int(masks[cur])
                if mask:
                    if may_loops:
                        cands = []
                        mm = mask
                        while mm:
                            low = mm & -mm
                            k = low.bit_length() - 1
                            mm ^= low
                            if kth(cur, k) == cur and rslot(cur, k) < k:
                                continue
                            cands.append(k)
                        q = len(cands)
                        kq = kbits[q]
                        r = grb(kq)
                        while r >= q:
                            r = grb(kq)
                        k = cands[r]
                    else:
                        q = mask.bit_count()
                        kq = kbits[q]
                        r = grb(kq)
                        while r >= q:
                            r = grb(kq)
                        mm = mask
                        for _i in range(r):
                            mm &= mm - 1
                        k = (mm & -mm).bit_length() - 1
                    w = kth(cur, k)
                    dart = eslot(cur, k)
                    wi = dart >> 6
                    bit = 1 << (dart & 63)
                    if not ewords[wi] & bit:  # blue edges are always fresh
                        ewords[wi] |= bit
                        eadded += 1
                        nve += 1
                        if record_times:
                            etimes[dart] = steps + 1
                    rk = rslot(cur, k)
                    if w == cur:
                        masks[cur] = mask & ~((1 << k) | (1 << rk))
                    else:
                        masks[cur] = mask & ~(1 << k)
                        masks[w] = int(masks[w]) & ~(1 << rk)
                    if record_phases and last_color != BLUE:
                        marks.append(PhaseMark(steps + 1, BLUE, cur))
                    last_color = BLUE
                    blue += 1
                    nxt = w
                else:
                    r = grb(kd)
                    while r >= d:
                        r = grb(kd)
                    nxt = kth(cur, r)
                    if record_phases and last_color != RED:
                        marks.append(PhaseMark(steps + 1, RED, cur))
                    last_color = RED
                    red += 1
                steps += 1
                cur = nxt
                wi = cur >> 6
                bit = 1 << (cur & 63)
                if not vwords[wi] & bit:
                    vwords[wi] |= bit
                    vadded += 1
                    fv[cur] = steps
                if stop == STOP_VERTICES:
                    if nvv + vadded == n:
                        break
                elif stop == STOP_EDGES:
                    if nve == m:
                        break
        finally:
            self.visited.checkin_words(vwords, vadded)
            self.visited_edge_darts.checkin_words(ewords, eadded)
            self.num_visited_edges = nve
            self.current = cur
            self.steps = steps
            self.red_steps = red
            self.blue_steps = blue
            self._last_color = last_color

    def __repr__(self) -> str:
        return (
            f"<OracleEdgeProcess t={self.steps} (red={self.red_steps}, "
            f"blue={self.blue_steps}) at={self.current} "
            f"vertices={self.num_visited_vertices}/{self.graph.n} "
            f"edges={self.num_visited_edges}/{self.graph.m}>"
        )


class OracleVProcess(OracleWalkBase):
    """The V-process on an implicit graph.

    Reference twin: :class:`~repro.walks.choice.UnvisitedVertexWalk` —
    prefer a uniformly random unvisited distinct neighbor, else an SRW
    step; the traversed edge is recorded either way.
    """

    def _transition(self) -> int:
        graph = self.graph
        v = self.current
        d = self._d
        visited = self.visited
        unvisited = []
        seen = set()
        for k in range(d):
            w = graph.kth_neighbor(v, k)
            if not visited.test(w) and w not in seen:
                seen.add(w)
                unvisited.append((k, w))
        if unvisited:
            k, nxt = unvisited[self.rng.randrange(len(unvisited))]
        else:
            k = self.rng.randrange(d)
            nxt = graph.kth_neighbor(v, k)
        if self._edge_tracking:
            self._record_edge_visit_dart(graph.edge_slot(v, k))
        return nxt

    def _chunk(self, num_steps: int, stop: int) -> None:
        if self._grb is None:
            super()._chunk(num_steps, stop)
            return
        graph = self.graph
        kth = graph.kth_neighbor
        eslot = graph.edge_slot
        grb = self._grb
        kbits = self._kbits
        d = self._d
        kd = kbits[d]
        tracking = self._edge_tracking
        n = graph.n
        m = graph.m
        fv = self._fv
        record_times = self._record_edge_times
        etimes = self.first_edge_visit_dart_time
        cur = self.current
        steps = self.steps
        nve = self.num_visited_edges
        vwords = self.visited.checkout_words()
        vadded = 0
        nvv = self.visited.count
        if tracking:
            ewords = self.visited_edge_darts.checkout_words()
            eadded = 0
        try:
            for _ in range(num_steps):
                unvisited = None
                seen = None
                for k in range(d):
                    w = kth(cur, k)
                    if not (vwords[w >> 6] >> (w & 63)) & 1:
                        if unvisited is None:
                            unvisited = [(k, w)]
                            seen = {w}
                        elif w not in seen:
                            seen.add(w)
                            unvisited.append((k, w))
                if unvisited is not None:
                    q = len(unvisited)
                    kq = kbits[q]
                    r = grb(kq)
                    while r >= q:
                        r = grb(kq)
                    k, nxt = unvisited[r]
                else:
                    r = grb(kd)
                    while r >= d:
                        r = grb(kd)
                    k = r
                    nxt = kth(cur, k)
                if tracking:
                    dart = eslot(cur, k)
                    wi = dart >> 6
                    bit = 1 << (dart & 63)
                    if not ewords[wi] & bit:
                        ewords[wi] |= bit
                        eadded += 1
                        nve += 1
                        if record_times:
                            etimes[dart] = steps + 1
                steps += 1
                cur = nxt
                wi = cur >> 6
                bit = 1 << (cur & 63)
                if not vwords[wi] & bit:
                    vwords[wi] |= bit
                    vadded += 1
                    fv[cur] = steps
                if stop == STOP_VERTICES:
                    if nvv + vadded == n:
                        break
                elif stop == STOP_EDGES:
                    if nve == m:
                        break
        finally:
            self.visited.checkin_words(vwords, vadded)
            if tracking:
                self.visited_edge_darts.checkin_words(ewords, eadded)
                self.num_visited_edges = nve
            self.current = cur
            self.steps = steps
