"""Fleet stepping: K independent cover trials per numpy dispatch.

The scalar engines (:class:`~repro.engine.srw.ArraySRW`,
:class:`~repro.engine.eprocess.ArrayEdgeProcess`) run one walk at a time:
however tight the loop, every step costs a handful of interpreter
operations.  The fleet engines turn the per-step cost into a per-*fleet*
cost — K independent trials advance with a few vectorized operations per
step — so the interpreter overhead amortizes across the whole fleet.

Every fleet over materialized graphs — :class:`FleetSRW` on regular and
irregular lanes alike, and the E-/V-process fleets in
:mod:`repro.engine.fleet_unvisited` — runs one **stepwise lockstep
driver** (:class:`_StepwiseFleet`).  The draw modulus may depend on walk
state — the degree of the current vertex on an irregular graph, or the
unvisited-edge/neighbour count of the E-/V-process — so word roles are
resolved one lockstep step at a time: a per-degree word-role prefilter
(shift tables indexed by each lane's current modulus) turns the
per-lane rejection loop
of CPython's ``_randbelow`` into two or three vectorized operations over
the whole fleet, with the rare rejected lanes retried scalar
(:meth:`_WordBank.draw`, the numpy path).  Word consumption is accounted
exactly per lane, so a lane's generator can be placed at any instant's
end-state.

Lanes step in lockstep until the last one covers.  A lane stops at the
instant it covers: its position, first-visit stamps and generator stay
at that instant, and the driver retires it (a ``random.Random`` lane's
generator synced, state rows compacted away) when the block that
covered it ends.

The driver pays its numpy dispatches per lockstep step, so it has a
**native fused path**: when the optional C extension
(:mod:`repro.engine.native`) is built, whole blocks of lockstep steps run
as one C call over the same visitation masks — bit-identical to the numpy
path by contract.  The kernel reads every lane's own int32 CSR arrays
(:meth:`~repro.graphs.graph.Graph.csr_arrays`) in place, through one row
of pointers per lane, so a native fleet holds no copy of any graph.  The
kernel retires lanes itself: a covered lane stops drawing while the rest
step on, so a fleet costs one C call per block rather than one per
distinct cover instant.
The numpy path ends its block at the first cover instant instead; both
hand the driver the same per-lane cover steps.  Every fleet takes the
kernel when it loads; ``REPRO_NATIVE=0`` is the one switch that turns it
off, and an unavailable build falls back to numpy with one warning.  The
kernel runs each lane's Mersenne Twister itself, on one state row per
lane (:class:`~repro.engine.base.MTStateRows`): a ``random.Random``
lane's ``getstate()`` words go in and come back out through
``setstate``, while a lane given as an int seed has its row written
straight from the seed, with no generator built or written back.  Only
the numpy path buffers word rows (:class:`_WordBank`, one
:class:`~repro.engine.base.MTWordStream` per lane, a seeded lane's on a
generator of its own).

Implicit neighbor-oracle lanes (:mod:`repro.graphs.implicit`) run the
same driver on their ``materialize()`` twin (:func:`materialized_lanes`):
every family's twin keeps the oracle's slot order, so the twin's walk
replays the oracle walk bit for bit.  A twin costs O(n·d) memory, so an
implicit lane whose dart space ``n·d`` exceeds
:data:`~repro.engine.oracle.EDGE_TIMES_MAX_DARTS` is refused; the
per-trial oracle engines (``engine='array'``) serve giant graphs.

Graphs may be one shared :class:`~repro.graphs.graph.Graph` (fixed
workloads) or K structurally distinct graphs of one shared ``(n, m)``
shape (factory workloads, e.g. a fresh random graph per trial).  Either
way lane k's vertex ``v`` / edge ``e`` keep their visitation state at
``k*n + v`` / ``k*m + e``.  Only the numpy path copies incidence arrays,
into int64 tiles for its fixed-width gathers: a shared graph's padded
arrays are cached in its ``scratch_cache()``, and distinct graphs'
arrays are concatenated lane-major.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.base import MTStateRows, MTWordStream
from repro.engine.oracle import EDGE_TIMES_MAX_DARTS
from repro.errors import CoverTimeout, GraphError, ReproError
from repro.graphs.graph import Graph
from repro.graphs.implicit import is_implicit
from repro.sim.rng import as_generator
from repro.telemetry import get_telemetry
from repro.walks.base import default_step_budget

__all__ = [
    "DEFAULT_BLOCK_STEPS",
    "FleetWalkBase",
    "FleetSRW",
    "FleetUnsupported",
    "materialized_lanes",
]

#: Steps per kernel block: the most lockstep steps one native call
#: advances before the driver's bookkeeping runs.
DEFAULT_BLOCK_STEPS = 2048

#: Raw Mersenne-Twister words buffered per lane by the numpy path's word
#: bank; refills are per-lane ``random_raw`` bulk pulls.
WORD_BANK_WIDTH = 4096

#: One fleet lane's randomness: a generator, or an int seed in [0, 2^64)
#: standing for a ``random.Random(seed)`` that nobody else holds.
Lane = Union[int, random.Random]

#: Seeds fit the native seeded-row writer's two 32-bit key words, as
#: every child seed does (:func:`repro.sim.rng.child_seed`).
_SEED_LIMIT = 1 << 64


def materialized_lanes(graphs: Sequence[Graph]) -> List[Graph]:
    """``graphs`` with every implicit lane swapped for its ``materialize()`` twin.

    One twin per *distinct* implicit graph (implicit graphs compare by
    family and parameters), so lanes that share a graph keep sharing one
    object — the driver's shared-tile path.  A lane whose dart space
    ``n·d`` exceeds :data:`~repro.engine.oracle.EDGE_TIMES_MAX_DARTS` stays
    implicit: the check is analytic, so a giant graph is never built, and
    the fleet refuses the lane.
    """
    twins: Dict[object, Graph] = {}
    lanes = []
    for g in graphs:
        if is_implicit(g) and g.n * g.max_degree <= EDGE_TIMES_MAX_DARTS:
            if g not in twins:
                twins[g] = g.materialize()
            g = twins[g]
        lanes.append(g)
    return lanes


class FleetUnsupported(ReproError):
    """The lanes handed to a fleet cannot step as one.

    ``reason`` names the lane (and its label) that broke eligibility; see
    :func:`_refusal` for the rules.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(f"fleet unsupported: {reason}")
        self.reason = reason


def _refusal(
    graphs: Sequence[Graph],
    rngs: Sequence[Lane],
    walk: str,
    labels: Optional[Sequence[object]],
) -> str:
    """Why these materialized lanes cannot step as one ``walk`` fleet; ``""`` if they can.

    Common requirements: at least one lane, every lane graph of one shared
    ``(n, m)`` shape with no isolated vertices (unless trivial, ``n == 1``,
    which covers at step 0), and every lane's randomness either a seed —
    an ``int`` in [0, 2^64), never a ``bool`` — or a distinct plain
    Mersenne-Twister ``random.Random`` (the word-stream transplant needs
    its state layout).
    Regularity is **not** required — irregular lanes run the stepwise
    kernel with per-degree word prefilters.

    Per-walk requirements: the ``eprocess`` fleet needs loop-free graphs
    (a blue loop consumes two blue-degree endpoints and is deduplicated in
    the candidate scan — per-step state the vectorized kernel does not
    model); the ``vprocess`` fleet needs simple graphs (its reference walk
    deduplicates *distinct* neighbours, which is the identity exactly when
    there are no loops or parallel edges).

    An implicit lane still here was too large to materialize and is
    refused with a reason pointing at ``engine='array'``.  A failed check
    names the offending lane — annotated with its entry in ``labels`` when
    given (the runner passes trial ids).
    """

    def lane(k: int) -> str:
        if labels is not None:
            return f"lane {k} (trial {labels[k]!r})"
        return f"lane {k}"

    if not graphs:
        return "empty fleet"
    first = graphs[0]
    n, m = first.n, first.m
    checked: List[Tuple[int, Graph]] = []
    seen_graphs: Dict[int, int] = {}
    for k, g in enumerate(graphs):
        if id(g) in seen_graphs:
            continue
        seen_graphs[id(g)] = k
        checked.append((k, g))
        if is_implicit(g):
            return (
                f"{lane(k)}: implicit graph {g!r} has n·d = {g.n * g.max_degree} "
                f"darts, past the {EDGE_TIMES_MAX_DARTS} a fleet materializes; "
                "use engine='array' (the per-trial oracle engines step it in "
                "O(n) bits)"
            )
        if g.n != n or g.m != m:
            return (
                f"{lane(k)}: graph {g!r} breaks the fleet's shared shape "
                f"(lane 0 has n={n}, m={m}; a fleet needs one (n, m) "
                "across all lanes)"
            )
        if g.min_degree == 0 and g.n > 1:
            return f"{lane(k)}: graph {g!r} has isolated vertices"
    if walk == "eprocess":
        for k, g in checked:
            if g.has_loops():
                return (
                    f"{lane(k)}: graph {g!r} has self-loops (the E-process "
                    "blue-candidate dedup and double blue-degree decrement "
                    "are per-step state the fleet kernel does not model)"
                )
    elif walk == "vprocess":
        for k, g in checked:
            if g.has_loops() or g.has_parallel_edges():
                return (
                    f"{lane(k)}: graph {g!r} is not simple (the V-process "
                    "deduplicates distinct neighbours, which only matches "
                    "the incidence rows on loop-free, parallel-free graphs)"
                )
    for k, rng in enumerate(rngs):
        if isinstance(rng, int) and not isinstance(rng, bool):
            if not 0 <= rng < _SEED_LIMIT:
                return f"{lane(k)}: seed {rng} is outside [0, 2^64)"
        elif not MTWordStream.supports(rng):
            return (
                f"{lane(k)}: rng {type(rng).__name__} is neither a seed (an int in "
                "[0, 2^64)) nor a plain Mersenne Twister random.Random"
            )
    seen_rngs: Dict[int, int] = {}
    for k, rng in enumerate(rngs):
        if isinstance(rng, int):
            # Each seed stands for a generator of its own.
            continue
        if id(rng) in seen_rngs:
            # One generator shared by two lanes would replay the same draw
            # stream twice (fully correlated "independent" trials) and the
            # later lane's end-state sync would clobber the earlier's.
            return (
                f"lanes {seen_rngs[id(rng)]} and {k} share a random.Random "
                "instance (need one per lane)"
            )
        seen_rngs[id(rng)] = k
    return ""


#: Speculative words resolved per lane per draw by the word bank's panel.
#: ``_randbelow`` accepts each word with probability >= 1/2 (exactly 1/2
#: for power-of-two moduli — the common case: a red E-process step or an
#: SRW step on a power-of-two-degree graph), so the whole-panel rejection
#: probability is up to 2^-PANEL *per lane per step*.  At 4 words that was
#: ~1/16 — several scalar retry loops per step at the default fleet size,
#: dominating the red-heavy tail of edge-cover runs; at 16 words a scalar
#: fallback happens about once per thousand fleet steps, while the wider
#: panel only grows tiny (A, PANEL) intermediates in the already
#: dispatch-bound vectorized pass.
_PANEL = 16


class _WordBank:
    """The numpy path's lockstep word supply: one buffered row per live lane.

    :meth:`draw` performs one accepted ``randrange``-style draw per lane —
    bit-identical to CPython's ``_randbelow`` rejection loop — for a
    *per-lane* modulus: word ``w`` plays role ``w >> (32 - k)`` where
    ``k`` is the modulus' bit length (the per-degree word-role prefilter).
    Each lane's next :data:`_PANEL` buffered words are assigned their
    roles speculatively in one vectorized pass; the first accepted word
    wins and exactly the words up to it count as consumed, so the rare
    lane that rejects the whole panel falls through to a scalar retry
    loop.  Word consumption is tracked exactly per lane, and each lane's
    words come from its own :class:`~repro.engine.base.MTWordStream`, so
    :meth:`sync_row` can place a lane's generator at its current instant
    at any time.  A seeded lane gets a generator of its own
    (:func:`repro.sim.rng.as_generator`), which nobody reads afterwards.

    The native kernel draws from the generators' own states instead
    (:class:`~repro.engine.base.MTStateRows`); the bank only serves the
    numpy path, which stays the reference the kernel is tested against.
    """

    def __init__(self, rngs: Sequence[Lane], width: int = WORD_BANK_WIDTH):
        import numpy as np

        self.np = np
        self._tel = get_telemetry()
        self.streams = [MTWordStream(as_generator(rng)) for rng in rngs]
        self.width = width
        A = len(self.streams)
        # Flat row-major storage: lane i's words live at [i*width : (i+1)*width],
        # so the hot gathers are cheap `take` calls on flat indices.
        self.words = np.empty(A * width, dtype=np.int64)
        for i, stream in enumerate(self.streams):
            stream.begin()
            self.words[i * width : (i + 1) * width] = stream.take(width)
        self.ptr = np.zeros(A, dtype=np.int64)
        self.used = np.zeros(A, dtype=np.int64)  # words consumed before the row
        self.rowbase = np.arange(A, dtype=np.int64) * width
        self._panel_off = np.arange(_PANEL, dtype=np.int64)
        self._out_base = np.arange(A, dtype=np.int64) * _PANEL

    def _refill(self, i: int) -> None:
        """Slide lane i's unconsumed tail to the row start and top up."""
        w, lo, p = self.width, i * self.width, int(self.ptr[i])
        tail = w - p
        self.words[lo : lo + tail] = self.words[lo + p : lo + w]
        self.words[lo + tail : lo + w] = self.streams[i].take(p)
        self.used[i] += p
        self.ptr[i] = 0
        if self._tel.enabled:
            self._tel.count("wordbank.refills")
            self._tel.count("wordbank.words_refilled", p)

    def draw(self, moduli, shifts):
        """One accepted draw per lane; ``moduli[i] >= 1``, ``shifts[i] =
        32 - moduli[i].bit_length()``.  Returns int64 results."""
        np = self.np
        self.refill_low(_PANEL)
        ptr, width = self.ptr, self.width
        idx = self.rowbase + ptr
        panel = self.words.take(idx[:, None] + self._panel_off)
        r = panel >> shifts[:, None]
        ok = r < moduli[:, None]
        first = ok.argmax(1)
        out = r.take(self._out_base + first)
        found = ok.any(1)
        if self._tel.enabled:
            self._count_draw(moduli, first, found)
        ptr += first + 1
        if not found.all():
            words, rowbase = self.words, self.rowbase
            for i in np.flatnonzero(~found).tolist():
                # argmax over all-False is 0: the += above consumed one
                # word; account for the rest of the rejected panel.
                ptr[i] += _PANEL - 1
                q, s = int(moduli[i]), int(shifts[i])
                while True:
                    if ptr[i] >= width:
                        self._refill(i)
                    w = int(words[rowbase[i] + ptr[i]])
                    ptr[i] += 1
                    rv = w >> s
                    if rv < q:
                        out[i] = rv
                        break
        return out

    def _count_draw(self, moduli, first, found) -> None:
        """Telemetry for one lockstep draw (enabled contexts only).

        ``first[i]`` words were rejected before lane i's accepted word, so
        per-modulus rejection rates come straight from two bincounts; a
        lane with no accepted panel word falls to the scalar retry loop
        and counts as ``panel_exhausted``.
        """
        np = self.np
        tel = self._tel
        if not tel.enabled:
            return
        A = int(moduli.shape[0])
        nfound = int(found.sum())
        tel.count("wordbank.draws", A)
        tel.count("wordbank.panel_words", int(first[found].sum()) + nfound)
        if A - nfound:
            tel.count("wordbank.panel_exhausted", A - nfound)
        per = np.bincount(moduli)
        rej = np.bincount(moduli, weights=first * found)
        for q in np.flatnonzero(per).tolist():
            tel.count(f"wordbank.degree[{q}].draws", int(per[q]))
            rejected = int(rej[q]) if q < len(rej) else 0
            if rejected:
                tel.count(f"wordbank.degree[{q}].rejected_words", rejected)

    def refill_low(self, margin: int) -> None:
        """Top up every lane with fewer than ``margin`` buffered words
        (the draw path's speculative panel width)."""
        np = self.np
        ptr, width = self.ptr, self.width
        if ptr.max() > width - margin:
            for i in np.flatnonzero(ptr > width - margin).tolist():
                self._refill(i)

    def consumed(self, row: int) -> int:
        """Total raw words lane ``row`` has consumed so far."""
        return int(self.used[row] + self.ptr[row])

    def sync_row(self, row: int) -> None:
        """Place lane ``row``'s generator at its current instant."""
        self.streams[row].sync_to(self.consumed(row))

    def compact(self, keep) -> None:
        """Drop the rows where ``keep`` (bool array) is False."""
        np = self.np
        A = int(keep.sum())
        self.words = self.words.reshape(-1, self.width)[keep].reshape(-1)
        self.ptr = self.ptr[keep]
        self.used = self.used[keep]
        self.streams = [s for s, k in zip(self.streams, keep.tolist()) if k]
        self.rowbase = np.arange(A, dtype=np.int64) * self.width
        self._out_base = np.arange(A, dtype=np.int64) * _PANEL


class FleetWalkBase:
    """Shared lane machinery for the lockstep fleet engines.

    Handles lane validation (:func:`_refusal`'s rules for the subclass's
    :attr:`walk_name`), start-vertex checks, the stepwise kernels' view of
    the lanes' graphs (pointer rows into each lane's own CSR arrays for
    the native kernel, int64 tiles for the numpy path), and the post-run
    introspection surface (:attr:`cover_steps`, :attr:`positions`).

    Parameters
    ----------
    graphs:
        One graph per lane (repeat the same object for a shared fixed
        workload).  All must share one ``(n, m)`` shape.  Implicit lanes
        are swapped for their twins (:func:`materialized_lanes`), so
        :attr:`graphs` holds what the fleet steps on.
    starts:
        Start vertex per lane; time 0 counts as a visit, as in
        :class:`~repro.walks.base.WalkProcess`.
    rngs:
        One per lane: a plain Mersenne-Twister ``random.Random``, or an
        ``int`` seed in [0, 2^64) standing for ``random.Random(seed)``
        that nobody else holds.  After :meth:`run_until_cover`, each
        generator's state equals what the reference walk's would be at
        that lane's cover instant (or at the budget); a seeded lane has
        no generator to leave anywhere, which spares the native path the
        per-lane ``getstate``/``setstate`` round trip.  The runner passes
        seeds.
    labels:
        Optional name per lane (the runner passes trial ids), used when an
        error names a lane: :class:`FleetUnsupported` at construction,
        :class:`~repro.errors.CoverTimeout` from :meth:`run_until_cover`.
        Defaults to the lane indices.

    Construction is the fleet's one eligibility check: lanes are
    materialized and checked once, and an ineligible set raises
    :class:`FleetUnsupported` naming the offending lane.
    """

    walk_name = "srw"

    def __init__(
        self,
        graphs: Sequence[Graph],
        starts: Sequence[int],
        rngs: Sequence[Lane],
        block_steps: int = DEFAULT_BLOCK_STEPS,
        labels: Optional[Sequence[object]] = None,
    ):
        if not (len(graphs) == len(starts) == len(rngs)):
            raise ReproError(
                f"fleet lanes disagree: {len(graphs)} graphs, "
                f"{len(starts)} starts, {len(rngs)} rngs"
            )
        graphs = materialized_lanes(graphs)
        reason = _refusal(graphs, rngs, self.walk_name, labels)
        if reason:
            raise FleetUnsupported(reason)
        if block_steps < 1:
            raise ReproError(f"block_steps must be >= 1, got {block_steps}")
        for k, (g, s) in enumerate(zip(graphs, starts)):
            if not (0 <= s < g.n):
                raise GraphError(f"lane {k}: start vertex {s} out of range 0..{g.n - 1}")
            if g.degree(s) == 0 and g.n > 1:
                raise GraphError(f"lane {k}: start vertex {s} is isolated")
        self.graphs = list(graphs)
        self.starts = list(starts)
        self.rngs = list(rngs)
        self.block_steps = block_steps
        self.K = len(graphs)
        self.labels = list(labels) if labels is not None else list(range(self.K))
        self.n = graphs[0].n
        self.m = graphs[0].m
        self.cover_steps: List[Optional[int]] = [None] * self.K
        self._pos: List[int] = list(starts)

    # -- lane array assembly -------------------------------------------------

    def _lanes_shared(self) -> bool:
        return all(g is self.graphs[0] for g in self.graphs)

    def _common_degree(self) -> int:
        """Shared degree of an all-regular fleet; 0 otherwise.

        Zero sends a kernel down its general path — irregular or
        mixed-degree lanes, or degenerate shapes (``n == 1`` / ``m == 0``)
        where the regular fast paths have nothing to gain.
        """
        if not self.n or not self.m:
            return 0
        d0 = self.graphs[0].degrees()[0]
        for g in {id(g): g for g in self.graphs}.values():
            if not g.is_regular() or g.degrees()[0] != d0:
                return 0
        return d0

    def _csr_rows(self, act: List[int]):
        """The native kernel's view of the graphs: pointer rows (one per
        active lane) to each lane's own ``csr_edge_ids``,
        ``csr_neighbors`` and ``csr_offsets``, read in place.

        Addresses are taken once per *distinct* graph, so lanes sharing a
        graph cost one list entry each; the three uintp rows compact with
        the other per-row state.  :attr:`graphs` keeps the arrays alive,
        and a graph builds them once even under racing threads
        (:meth:`~repro.graphs.graph.Graph.csr_arrays`), so the addresses
        hold for the whole run.
        """
        import numpy as np

        index: Dict[int, int] = {}
        table: List[Tuple[int, int, int]] = []
        rows = []
        for k in act:
            g = self.graphs[k]
            j = index.get(id(g))
            if j is None:
                j = index[id(g)] = len(table)
                offsets, eids, nbrs = g.csr_arrays()
                table.append((eids.ctypes.data, nbrs.ctypes.data, offsets.ctypes.data))
            rows.append(j)
        return tuple(col[rows] for col in np.array(table, dtype=np.uintp).T)

    def _incidence_context(self, dmax: int) -> None:
        """Build the numpy path's int64 incidence tiles (*local* values).

        Shared-graph fleets use the graph's own flat CSR arrays, widened to
        int64 and padded with ``dmax`` trailing zeros so fixed-width
        ``(A, dmax)`` row gathers stay in bounds; the tiles are cached on
        the graph.  Distinct-graph fleets concatenate the per-lane arrays
        (``self._tiled``); positions are then lane-major (lane k's row of
        vertex v starts at ``k*2m + csr_offsets[v]``) but the *values*
        stay local — per-lane visitation offsets are applied separately.
        The native kernel reads none of these (:meth:`_csr_rows`).
        """
        import numpy as np

        pad = np.zeros(dmax, dtype=np.int64)
        if self._lanes_shared():
            g = self.graphs[0]
            cache = g.scratch_cache()
            key = ("fleet-local", dmax)
            hit = cache.get(key)
            if hit is None:
                eids = np.concatenate([g.csr_edge_ids, pad])
                nbrs = np.concatenate([g.csr_neighbors, pad])
                rowstart = g.csr_offsets[:-1].astype(np.int64)
                degs = np.asarray(g.degrees(), dtype=np.int64)
                # Frozen at creation: every fleet (and, post-GIL-release,
                # every thread) over this graph reads the same tuple.
                for arr in (eids, nbrs, rowstart, degs):
                    arr.setflags(write=False)
                hit = (eids, nbrs, rowstart, degs)
                cache[key] = hit
            self._eids_t, self._nbrs_t, self._rowstart_t, self._degs_t = hit
            self._tiled = False
        else:
            self._eids_t = np.concatenate(
                [g.csr_edge_ids for g in self.graphs] + [pad]
            )
            self._nbrs_t = np.concatenate(
                [g.csr_neighbors for g in self.graphs] + [pad]
            )
            # Widened before the add: lane-major row starts pass 2^31
            # long before any one lane's do.
            self._rowstart_t = np.concatenate(
                [
                    g.csr_offsets[:-1].astype(np.int64) + k * 2 * self.m
                    for k, g in enumerate(self.graphs)
                ]
            )
            self._degs_t = np.concatenate(
                [np.asarray(g.degrees(), dtype=np.int64) for g in self.graphs]
            )
            self._tiled = True

    def _shift_table(self, dmax: int):
        """``shift[q] = 32 - q.bit_length()`` for the vectorized
        ``_randbelow`` word-role prefilter (``q = 0`` unused)."""
        import numpy as np

        return np.array([32] + [32 - q.bit_length() for q in range(1, dmax + 1)],
                        dtype=np.int64)

    @property
    def positions(self) -> List[int]:
        """Per-lane current vertex (local ids; cover instants after a run)."""
        return list(self._pos)


class _StepwiseFleet(FleetWalkBase):
    """Driver for every lockstep kernel on materialized graphs.

    Subclasses implement the per-step hook :meth:`_step` (advance every
    active lane one step; return a bool cover mask or None) plus the
    state hooks (:meth:`_prepare`, :meth:`_init_rows`,
    :meth:`_compact_state`, :meth:`_on_lane_exit`, :meth:`_left`).  The
    driver owns the lockstep loop: block/budget bookkeeping, lane
    retirement (cover step recorded, RNG synced to the cover instant),
    state compaction once per block, and the abnormal-exit RNG sync.
    Every lane, the last included, retires through that one loop.

    When the native fused kernel loads (built C extension, not switched
    off by ``REPRO_NATIVE=0``), :meth:`_run_block` routes whole blocks
    through one C call instead of the per-step python loop —
    bit-identical by contract (same word consumption per lane, same
    candidate order, same first-visit stamps and cover instants).  The
    kernel runs its block past cover instants, the numpy loop stops at
    the first; either way the block reports per-lane cover steps, so
    everything around it (retirement, RNG sync, compaction) is shared
    verbatim by both paths.  Subclasses set :attr:`_NATIVE_WALK`
    and map their arrays onto the kernel's slots (:meth:`_native_state`).
    """

    #: Walk code of the native kernel (0 srw, 1 eprocess, 2 vprocess).
    _NATIVE_WALK: int

    # -- subclass hooks ------------------------------------------------------

    def _prepare(self, target: str, budget: int) -> List[int]:
        """Build full-fleet state; return lanes already covered at t=0."""
        raise NotImplementedError

    def _init_rows(self, act: List[int]) -> None:
        """Build the compact per-active-lane state (one row per lane).

        The base provides the per-row visitation offsets (lane k's local
        vertex ``v`` / edge ``e`` live at ``k*n + v`` / ``k*m + e`` of the
        full-fleet visitation arrays) and the kernel's view of the graphs:
        pointer rows on the native path, the incidence tiles on the numpy
        path (``self._dmax`` wide, set by :meth:`_prepare`).
        """
        import numpy as np

        lanes = np.asarray(act, dtype=np.int64)
        self._voff = lanes * self.n
        self._eoff = lanes * self.m
        if self._native is not None:
            self._csr_ptrs = self._csr_rows(act)
        else:
            self._incidence_context(self._dmax)

    def _row_base(self):
        """Per-active-lane incidence-row start and degree in the numpy
        path's tiles (local ids)."""
        cur = self._cur
        gcur = cur + self._voff if self._tiled else cur
        d = self._d
        if d:
            # Regular tiled rows: (v + k*n)*d == v*d + k*2m — exactly lane
            # k's row start inside the concatenated arrays.
            return gcur * d, d
        return self._rowstart_t.take(gcur), self._degs_t.take(gcur)

    def _step(self, step_no: int):
        """Advance every active lane one step; returns a bool mask of
        rows that covered at this step, or None."""
        raise NotImplementedError

    def _compact_state(self, keep) -> None:
        self._voff = self._voff[keep]
        self._eoff = self._eoff[keep]
        if self._native is not None:
            self._csr_ptrs = tuple(p[keep] for p in self._csr_ptrs)

    def _on_lane_exit(self, row: int, lane: int) -> None:
        pass

    def _left(self, row: int) -> int:
        """How many target ids the lane at ``row`` still has uncovered."""
        raise NotImplementedError

    # -- native fused kernel -------------------------------------------------

    def _native_state(self):
        """Arrays for the kernel's visitation slots:
        ``(maskA, fvA, cntA, maskB, fvB, cntB)`` (unused slots None)."""
        raise NotImplementedError

    def _native_all_v(self) -> int:
        return 0

    def _native_set_all_v(self, value: bool) -> None:
        pass

    def _native_setup(self):
        """The fused kernel's ctypes handle, or None for the numpy path
        (``REPRO_NATIVE=0``, or no loadable build: the loader warns once)."""
        from repro.engine import native

        fn = native.load()
        if fn is None:
            tel = get_telemetry()
            if tel.enabled:
                tel.count("fleet.native_unavailable")
        return fn

    def _native_block(self, T: int, steps: int):
        """Run one block through the fused kernel; ``(t_used, cover_steps)``.

        One C call.  A lane that covers records its cover step and stops
        (no more draws, position and tables frozen at its cover instant)
        while the others step on, until ``T`` steps have run or no lane
        is live.  ``cover_steps`` is an int64 row per lane, 0 for lanes
        still live, or None when no lane retired.  The kernel draws every
        lane's words from its state row in ``self._bank``
        (:class:`~repro.engine.base.MTStateRows`) and steps on the lane's
        own CSR arrays through its pointer row (:meth:`_csr_rows`).
        """
        import ctypes

        import numpy as np

        states = self._bank
        A = int(self._cur.shape[0])
        maskA, fvA, cntA, maskB, fvB, cntB = self._native_state()
        cover_steps = np.zeros(A, dtype=np.int64)
        out = np.zeros(2, dtype=np.int64)
        par = np.array(
            [
                self._NATIVE_WALK,
                int(self._by_edges),
                A,
                T,
                steps,
                self.n,
                self.m,
                int(self._d),
                self.m if self._by_edges else self.n,
                self._native_all_v(),
            ],
            dtype=np.int64,
        )
        arrays = (
            self._cur, self._voff, self._eoff, states.mt, states.drawn,
            *self._csr_ptrs,
            maskA, fvA, cntA, maskB, fvB, cntB,
            cover_steps, out,
        )
        slots = (ctypes.c_void_p * len(arrays))(
            *[None if a is None else ctypes.c_void_p(a.ctypes.data) for a in arrays]
        )
        status = int(self._native(ctypes.c_void_p(par.ctypes.data), slots))
        if status < 0:
            raise ReproError(f"native fused kernel failed (status {status})")
        self._native_set_all_v(bool(out[1]))
        return int(out[0]), cover_steps if status == 1 else None

    # -- the lockstep driver -------------------------------------------------

    def _run_block(self, T: int, steps: int):
        """Advance up to ``T`` lockstep steps; ``(t_used, cover_steps-or-None)``.

        ``cover_steps`` holds each row's cover step (0 for a row still
        live), or is None when no lane covered.  One fused C call when
        the native kernel is live: lanes retire inside it and the rest
        step on.  Else the python per-step loop, which stops at the first
        step where a lane covers.
        """
        if self._native is not None:
            return self._native_block(T, steps)
        t = 0
        while t < T:
            t += 1
            covered = self._step(steps + t)
            if covered is not None:
                return t, covered * (steps + t)
        return t, None

    def run_until_cover(
        self, target: str = "vertices", max_steps: Optional[int] = None
    ) -> List[int]:
        """Run every lane to its cover instant; returns per-lane cover steps.

        Raises :class:`~repro.errors.CoverTimeout` (naming the first
        affected lane by its :attr:`labels` entry) if the budget — shared
        by construction, every lane has the same ``(n, m)`` — runs out
        with lanes still uncovered.  :attr:`cover_steps` fills in as lanes
        retire, so after a timeout it still holds the covers of the lanes
        that made it (None for the rest), and every ``random.Random`` lane
        stands at its cover instant or at the budget.
        """
        import numpy as np

        if target not in ("vertices", "edges"):
            raise ReproError(f"target must be 'vertices' or 'edges', got {target!r}")
        tel = get_telemetry()
        K, n = self.K, self.n
        budget = (
            max_steps if max_steps is not None else default_step_budget(self.graphs[0])
        )
        cover: List[Optional[int]] = [None] * K
        self.cover_steps = cover
        for k in self._prepare(target, budget):
            cover[k] = 0
        act = [k for k in range(K) if cover[k] is None]
        self._native = self._native_setup() if act else None
        self._cur = np.array([self.starts[k] for k in act], dtype=np.int64)
        self._init_rows(act)
        lane_rngs = [self.rngs[k] for k in act]
        # Both expose sync_row / consumed / compact: all this loop calls.
        self._bank = MTStateRows(lane_rngs) if self._native is not None else _WordBank(lane_rngs)
        if tel.enabled and act:
            tel.count("fleet.fleets")
            tel.count("fleet.lanes", len(act))
            tel.count(
                "fleet.native_fleets" if self._native is not None else "fleet.numpy_fleets"
            )
        lane_steps = 0
        steps = 0
        block = self.block_steps
        try:
            while act:
                if steps >= budget:
                    raise CoverTimeout(
                        f"fleet lane {self.labels[act[0]]!r} did not cover all {target} "
                        f"within {budget} steps ({self._left(0)} left)",
                        steps=steps,
                        remaining=self._left(0),
                    )
                T = min(block, budget - steps)
                t, cover_steps = self._run_block(T, steps)
                retired = [] if cover_steps is None else np.flatnonzero(cover_steps).tolist()
                if tel.enabled:
                    # A retired lane stepped up to its cover instant, a
                    # live one all t steps of the block.
                    stepped = t * (len(act) - len(retired)) + sum(
                        int(cover_steps[row]) - steps for row in retired
                    )
                    lane_steps += stepped
                    tel.count("fleet.blocks")
                    tel.count("fleet.block_steps", t)
                    tel.count("fleet.lane_steps", stepped)
                    tel.progress(
                        step=lane_steps,
                        done=K - len(act),
                        total=K,
                        unit="lanes",
                        label=f"fleet {self.walk_name}",
                    )
                steps += t
                if retired:
                    # Retire the covered lanes: each stopped at its cover
                    # instant, so its RNG syncs to the words its reference
                    # twin consumed.
                    for row in retired:
                        k = act[row]
                        cover[k] = int(cover_steps[row])
                        self._pos[k] = int(self._cur[row])
                        if tel.enabled:
                            tel.count("fleet.lane_retirements")
                            tel.count("fleet.words_consumed", self._bank.consumed(row))
                        self._bank.sync_row(row)
                        self._on_lane_exit(row, k)
                    keep = cover_steps == 0
                    if tel.enabled:
                        tel.count("fleet.compactions")
                    self._bank.compact(keep)
                    self._cur = self._cur[keep]
                    self._compact_state(keep)
                    act = [k for row, k in enumerate(act) if keep[row]]
        except BaseException:
            # Lanes still live on an abnormal exit (budget timeout): their
            # reference twins would have consumed exactly the words drawn
            # so far.
            for row in range(len(act)):
                if tel.enabled:
                    tel.count("fleet.words_consumed", self._bank.consumed(row))
                self._bank.sync_row(row)
            raise
        return [int(c) for c in cover]  # type: ignore[arg-type]


class FleetSRW(_StepwiseFleet):
    """K lockstep SRW cover trials; bit-identical to K sequential walks.

    Every lane, regular or not, runs the stepwise driver (one lockstep
    step at a time, native fused blocks when built); implicit lanes step
    on their ``materialize()`` twin.  Every lane is bit-identical to a
    sequential :class:`~repro.walks.srw.SimpleRandomWalk` of the same
    seed, RNG end-state included.

    After a run, :attr:`cover_steps` holds per-lane cover times,
    :meth:`first_visit_time` the per-lane first-visit tables (vertex or
    edge ids, matching the run's target), and :attr:`positions` the
    per-lane cover-instant vertices.
    """

    walk_name = "srw"
    _NATIVE_WALK = 0

    # -- stepwise driver hooks ------------------------------------------------

    def _prepare(self, target: str, budget: int) -> List[int]:
        import numpy as np

        K, n, m = self.K, self.n, self.m
        self._by_edges = target == "edges"
        stride = m if self._by_edges else n
        self._full = m if self._by_edges else n
        self._stride = stride
        # Per-lane degree rows for every graph, regular or not.
        self._d = 0
        self._dmax = dmax = max(g.max_degree for g in self.graphs)
        self._shift = self._shift_table(dmax)
        self._visited = np.zeros(K * stride, dtype=np.uint8)
        self._fvn = np.full(K * stride, -1, dtype=np.int64)
        at_zero: List[int] = []
        if self._by_edges:
            if m == 0:
                at_zero = list(range(K))
        else:
            for k, s in enumerate(self.starts):
                self._visited[k * n + s] = 1
                self._fvn[k * n + s] = 0
                if n == 1:
                    at_zero.append(k)
        return at_zero

    def _init_rows(self, act: List[int]) -> None:
        import numpy as np

        super()._init_rows(act)
        self._counts = np.array(
            [0 if self._by_edges else 1 for _ in act], dtype=np.int64
        )
        self._koff = self._eoff if self._by_edges else self._voff
        # Pessimistic steps-to-soonest-cover: the leading lane gains at
        # most one target id per step, so the two-dispatch cover scan only
        # runs once this Python-int slack is spent (a miss re-tightens it
        # against the actual leader).
        self._slack = self._full - (0 if self._by_edges else 1)

    def _step(self, step_no: int):
        base, deg = self._row_base()
        r = self._bank.draw(deg, self._shift.take(deg))
        jsel = base + r
        nxt = self._nbrs_t.take(jsel)
        key = (self._eids_t.take(jsel) if self._by_edges else nxt) + self._koff
        self._cur = nxt
        fresh = self._visited.take(key) == 0
        if fresh.any():
            ids = key[fresh]
            self._visited[ids] = 1
            self._fvn[ids] = step_no
            counts = self._counts
            counts += fresh
            self._slack -= 1
            if self._slack <= 0:
                cov = counts == self._full
                if cov.any():
                    return cov
                self._slack = self._full - int(counts.max())
        return None

    def _compact_state(self, keep) -> None:
        super()._compact_state(keep)
        self._counts = self._counts[keep]
        self._koff = self._eoff if self._by_edges else self._voff
        if self._counts.size:
            self._slack = self._full - int(self._counts.max())

    def _native_state(self):
        return self._visited, self._fvn, self._counts, None, None, None

    def _left(self, row: int) -> int:
        return int(self._full - self._counts[row])

    # -- post-run introspection ----------------------------------------------

    def first_visit_time(self, lane: int) -> List[int]:
        """Lane's first-visit times over the run's target ids.

        Vertex ids for a ``"vertices"`` run, edge ids for ``"edges"`` —
        matching ``first_visit_time`` / ``first_edge_visit_time`` of the
        reference walk at its cover instant.  Implicit lanes index by their
        twin's edge ids, which follow canonical dart order.
        """
        s = self._stride
        return self._fvn[lane * s : (lane + 1) * s].tolist()
