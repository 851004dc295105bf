"""Lockstep fleets for the walks that prefer the unexplored.

:class:`FleetEdgeProcess` steps K independent E-process cover trials
(Berenbrink–Cooper–Friedetzky; the paper's object of study) in lockstep;
:class:`FleetVProcess` does the same for the vertex-analogue V-process
(:class:`~repro.walks.choice.UnvisitedVertexWalk`).  Both are
bit-identical to their per-trial reference walks — trajectories, cover
times, visit bookkeeping, red/blue step splits, and RNG end-state.  The
E-process colour sequence needs no recording of its own: every blue step
visits exactly one new edge, so the edge first-visit table names the
blue steps.

Why the draws cannot be prefiltered per lane up front: a blue step's
modulus is the current vertex's *unvisited-edge* (resp. unvisited-
neighbour) count, so each lane's word roles depend on walk state and the
per-lane rejection split cannot be precomputed.  Instead the numpy path
resolves each lockstep step speculatively from the lanes' buffered word
rows (the native kernel runs the same chain per lane, drawing straight
from each lane's generator state):

1. one ``(A, Δ)`` gather per step pulls every active lane's incidence row
   and its visited mask, giving the per-lane blue count ``q`` (and with it
   the blue-vs-red decision and the step's modulus — ``q`` or ``deg``);
2. the per-degree word-role prefilter (:meth:`_WordBank.draw`) assigns
   each lane's next buffered words their roles under that modulus — a
   speculative panel, vectorized, with only whole-panel rejections (rare
   by construction) retried scalar;
3. the chosen candidate is recovered order-faithfully (the reference
   walks scan incidence order) and the bookkeeping exploits structure:
   every blue E-step visits exactly one new edge (so ``blue_steps``
   equals edges visited and red counts follow from the step counter),
   every blue V-step visits exactly one new vertex, and red steps can
   visit nothing new.

On the numpy path, regular graphs of modest degree collapse the whole
mask→modulus→candidate chain into bitmask table lookups: the row's
unvisited flags dot into a Δ-bit code, and precomputed tables give the
modulus, the draw's word shift, and the ``r``-th-candidate incidence
slot per ``(code, r)`` — no axis reductions in the hot loop.  Irregular
(or high-degree) lanes use the general cumulative-rank path.  The native
kernel runs the cumulative-rank path on every row: in C a scan of the
row costs no more than the table lookups, which pay off in numpy only
because they save dispatches.
"""

from __future__ import annotations

from typing import List

from repro.engine.fleet import _StepwiseFleet

__all__ = ["FleetEdgeProcess", "FleetVProcess"]

#: Largest regular degree the packed bitmask tables are built for
#: (``2**d * d`` selection entries; 16 keeps them under ~1M int8).
PACKED_DEGREE_MAX = 16

#: Per-degree packed tables: d -> (powers, moduli, shifts, select).
_PACK_TABLES: dict = {}


def _packed_tables(d: int):
    """Bitmask lookup tables for a d-regular row.

    ``code`` is the Δ-bit unvisited mask of the current row (bit j set =
    incidence slot j is a candidate).  ``moduli[code]`` is the step's
    draw modulus (the popcount for blue, the degree for the red
    ``code == 0``), ``shifts[code]`` its ``_randbelow`` word shift, and
    ``select[code*d + r]`` the incidence slot of the draw's winner — the
    ``r``-th set bit for blue, slot ``r`` itself for red.
    """
    import numpy as np

    hit = _PACK_TABLES.get(d)
    if hit is not None:
        return hit
    size = 1 << d
    powers = (np.int64(1) << np.arange(d, dtype=np.int64)).astype(np.int64)
    # Every table value is < 33 (a slot index, a modulus <= d, or a word
    # shift), so int8 keeps the cached tables inside the stated budget;
    # downstream arithmetic against int64 row bases upcasts as needed.
    moduli = np.empty(size, dtype=np.int8)
    shifts = np.empty(size, dtype=np.int8)
    select = np.zeros(size * d, dtype=np.int8)
    for code in range(size):
        bits = [j for j in range(d) if code >> j & 1]
        q = len(bits) if code else d
        moduli[code] = q
        shifts[code] = 32 - q.bit_length()
        for r in range(q):
            select[code * d + r] = bits[r] if code else r
    # Frozen at creation: the module-level registry is shared by every
    # fleet of this degree (and by every thread once the fused kernel
    # drops the GIL) — the tables are pure functions of d, never edited.
    for arr in (powers, moduli, shifts, select):
        arr.setflags(write=False)
    hit = (powers, moduli, shifts, select)
    _PACK_TABLES[d] = hit
    return hit


class _UnvisitedFleet(_StepwiseFleet):
    """Shared kernel skeleton: blue-mask → modulus → draw → select.

    Subclasses define what "unvisited" means (which table the row mask
    reads) and the per-step bookkeeping; array assembly, the numpy
    path's packed / general dispatch, and the draw-and-select chain are
    common.
    """

    def _prepare(self, target: str, budget: int) -> List[int]:
        import numpy as np

        K, n, m = self.K, self.n, self.m
        self._by_edges = target == "edges"
        self._dmax = dmax = max(g.max_degree for g in self.graphs)
        self._d = self._common_degree()
        self._packed = bool(self._d) and self._d <= PACKED_DEGREE_MAX
        if self._packed:
            self._pw, self._tqs, self._tsh, self._tsel = _packed_tables(self._d)
        else:
            self._ar = np.arange(dmax, dtype=np.int64)
            self._shift = self._shift_table(max(dmax, 1))
        # Full-fleet visitation state over globalized ids.  The mask table
        # the row gather reads (edges for the E-process, vertices for the
        # V-process) is stored *inverted* (1 = unvisited) so row codes and
        # candidate counts come straight out of the gather.  The edge mask
        # itself is E-process-only and allocated there.
        self._fe = np.full(K * m, -1, dtype=np.int64)
        self._visu = np.ones(K * n, dtype=np.uint8)
        self._fv = np.full(K * n, -1, dtype=np.int64)
        for k, s in enumerate(self.starts):
            self._visu[k * n + s] = 0
            self._fv[k * n + s] = 0
        if self._by_edges:
            return list(range(K)) if m == 0 else []
        return list(range(K)) if n == 1 else []

    def _init_rows(self, act: List[int]) -> None:
        import numpy as np

        super()._init_rows(act)
        A = len(act)
        self._ne = np.zeros(A, dtype=np.int64)
        self._nv = np.ones(A, dtype=np.int64)
        # Pessimistic steps-to-soonest-cover counters: the leading lane
        # gains at most one edge / one vertex per step, so the ``== full``
        # cover scan (two dispatches) only needs to run once the slack is
        # spent; a miss re-tightens against the actual leader.  Plain
        # Python ints — the point is that the per-step decrement costs no
        # numpy dispatch.
        self._eslack = self.m - (int(self._ne.max()) if A else 0)
        self._vslack = self.n - (int(self._nv.max()) if A else 0)

    def _compact_state(self, keep) -> None:
        super()._compact_state(keep)
        self._ne = self._ne[keep]
        self._nv = self._nv[keep]
        if self._ne.size:
            self._eslack = self.m - int(self._ne.max())
            self._vslack = self.n - int(self._nv.max())

    def _left(self, row: int) -> int:
        done = self._ne[row] if self._by_edges else self._nv[row]
        return int((self.m if self._by_edges else self.n) - done)

    def _mask_table(self):
        """The inverted visitation table row masks are gathered from."""
        raise NotImplementedError

    def _mask_values(self, j2d):
        """Row ids whose visitation defines candidacy (edge or vertex)."""
        raise NotImplementedError

    def _choose(self):
        """One lockstep step's draw: returns ``(isb, jsel)`` — the per-lane
        blue flags and the selected incidence positions — plus the row
        bases, having consumed exactly the reference walks' words."""
        np = self._bank.np
        base, deg = self._row_base()
        if self._packed:
            d = self._d
            j2d = base[:, None] + self._tsel[:d]  # first d entries are 0..d-1
            unv = self._mask_table().take(self._mask_values(j2d))
            code = unv @ self._pw
            qs = self._tqs.take(code)
            r = self._bank.draw(qs, self._tsh.take(code))
            jsel = base + self._tsel.take(code * d + r)
            return code != 0, jsel
        j2d = base[:, None] + self._ar
        unv = self._mask_table().take(self._mask_values(j2d)) != 0
        if self._d:
            valid = True
            unvm = unv
        else:
            valid = self._ar < deg[:, None]
            unvm = unv & valid
        qb = unvm.sum(1)
        isb = qb > 0
        qs = np.where(isb, qb, deg)
        r = self._bank.draw(qs, self._shift.take(qs))
        mask = np.where(isb[:, None], unvm, valid)
        cs = mask.cumsum(1)
        pos = (cs <= r[:, None]).sum(1)
        return isb, base + pos


class FleetEdgeProcess(_UnvisitedFleet):
    """K lockstep E-process cover trials (uniform rule, loop-free graphs).

    Bit-identical to per-trial
    :class:`~repro.core.eprocess.EdgeProcess`/
    :class:`~repro.engine.eprocess.ArrayEdgeProcess` runs of the same
    seeds: cover times, first-visit tables (vertices *and* edges),
    red/blue step splits, and RNG end-state all match.  The edge
    first-visit table fixes which steps were blue.  Every lane runs in
    the fleet to its own cover instant.
    """

    walk_name = "eprocess"
    _NATIVE_WALK = 1

    def _mask_table(self):
        return self._evu

    def _mask_values(self, j2d):
        return self._eids_t.take(j2d) + self._eoff[:, None]

    def _prepare(self, target: str, budget: int) -> List[int]:
        import numpy as np

        at_zero = super()._prepare(target, budget)
        self._evu = np.ones(self.K * self.m, dtype=np.uint8)
        self._all_v = self.n == 1
        self._blue_out = [0] * self.K
        self._red_out = [0] * self.K
        return at_zero

    def _step(self, step_no: int):
        isb, jsel = self._choose()
        e = self._eids_t.take(jsel) + self._eoff
        nxt = self._nbrs_t.take(jsel)
        self._cur = nxt
        covered = None
        # Every blue step visits exactly one new edge (its candidates are
        # unvisited by construction); red steps visit none.
        eb = e[isb]
        if eb.size:
            self._evu[eb] = 0
            self._fe[eb] = step_no
            ne = self._ne
            ne += isb
            if self._by_edges:
                self._eslack -= 1
                if self._eslack <= 0:
                    cov = ne == self.m
                    if cov.any():
                        covered = cov
                    else:
                        self._eslack = self.m - int(ne.max())
        if not self._all_v:
            # Vertex first visits stop once every lane's vertex set is
            # complete (at most n-1 events per lane) — skip the gather then.
            gnxt = nxt + self._voff
            fresh = self._visu.take(gnxt) != 0
            vb = gnxt[fresh]
            if vb.size:
                self._visu[vb] = 0
                self._fv[vb] = step_no
                nv = self._nv
                nv += fresh
                self._vslack -= 1
                if not self._by_edges:
                    if self._vslack <= 0:
                        cov = nv == self.n
                        if cov.any():
                            covered = cov
                        else:
                            self._vslack = self.n - int(nv.max())
                elif self._vslack <= 0:
                    # min == n needs max == n first, so the slack gates
                    # the all-vertices check too.
                    if int(nv.min()) == self.n:
                        self._all_v = True
                    else:
                        self._vslack = max(self.n - int(nv.max()), 0)
        return covered

    def _native_state(self):
        return self._evu, self._fe, self._ne, self._visu, self._fv, self._nv

    def _native_all_v(self) -> int:
        return int(self._all_v)

    def _native_set_all_v(self, value: bool) -> None:
        self._all_v = value

    def _on_lane_exit(self, row: int, lane: int) -> None:
        blue = int(self._ne[row])
        self._blue_out[lane] = blue
        self._red_out[lane] = self.cover_steps[lane] - blue

    # -- post-run introspection ----------------------------------------------

    def first_visit_time(self, lane: int) -> List[int]:
        """Lane's per-vertex first-visit times at its cover instant."""
        n = self.n
        return self._fv[lane * n : (lane + 1) * n].tolist()

    def first_edge_visit_time(self, lane: int) -> List[int]:
        """Lane's per-edge first-visit times at its cover instant."""
        m = self.m
        return self._fe[lane * m : (lane + 1) * m].tolist()

    @property
    def red_steps(self) -> List[int]:
        """Per-lane red (SRW) step counts at the cover instants."""
        return list(self._red_out)

    @property
    def blue_steps(self) -> List[int]:
        """Per-lane blue (unvisited-edge) step counts at the cover instants."""
        return list(self._blue_out)


class FleetVProcess(_UnvisitedFleet):
    """K lockstep V-process cover trials (simple graphs).

    Bit-identical to per-trial
    :class:`~repro.walks.choice.UnvisitedVertexWalk` runs of the same
    seeds (with ``track_edges=True``): cover times, vertex and edge
    first-visit tables, and RNG end-state.  Every lane runs in the fleet
    to its own cover instant.
    """

    walk_name = "vprocess"
    _NATIVE_WALK = 2

    def _native_state(self):
        return self._visu, self._fv, self._nv, None, self._fe, self._ne

    def _mask_table(self):
        return self._visu

    def _mask_values(self, j2d):
        return self._nbrs_t.take(j2d) + self._voff[:, None]

    def _step(self, step_no: int):
        isb, jsel = self._choose()
        e = self._eids_t.take(jsel) + self._eoff
        nxt = self._nbrs_t.take(jsel)
        self._cur = nxt
        covered = None
        # The traversed edge is recorded either colour; only first visits
        # stick (the V-process re-crosses edges, unlike E-process blues).
        efresh = self._fe.take(e) < 0
        eb = e[efresh]
        if eb.size:
            self._fe[eb] = step_no
            ne = self._ne
            ne += efresh
            if self._by_edges:
                self._eslack -= 1
                if self._eslack <= 0:
                    cov = ne == self.m
                    if cov.any():
                        covered = cov
                    else:
                        self._eslack = self.m - int(ne.max())
        # Every blue step visits exactly one new vertex; red steps (all
        # neighbours visited) cannot discover one.
        vb = nxt[isb] + self._voff[isb]
        if vb.size:
            self._visu[vb] = 0
            self._fv[vb] = step_no
            nv = self._nv
            nv += isb
            if not self._by_edges:
                self._vslack -= 1
                if self._vslack <= 0:
                    cov = nv == self.n
                    if cov.any():
                        covered = cov
                    else:
                        self._vslack = self.n - int(nv.max())
        return covered

    # -- post-run introspection ----------------------------------------------

    def first_visit_time(self, lane: int) -> List[int]:
        """Lane's per-vertex first-visit times at its cover instant."""
        n = self.n
        return self._fv[lane * n : (lane + 1) * n].tolist()

    def first_edge_visit_time(self, lane: int) -> List[int]:
        """Lane's per-edge first-visit times at its cover instant."""
        m = self.m
        return self._fe[lane * m : (lane + 1) * m].tolist()
