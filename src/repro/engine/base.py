"""Shared machinery for the array-backed walk engines.

The reference engines (:class:`~repro.walks.srw.SimpleRandomWalk`,
:class:`~repro.core.eprocess.EdgeProcess`) pay per-step method dispatch:
``step()`` → ``_transition()`` → ``_record_edge_visit()``, plus a tuple
unpack from the per-vertex incidence list and a full ``randrange`` call.
The array engines keep identical semantics but step in *chunks*: one
bytecode loop over the graph's flat CSR arrays with every piece of hot
state hoisted into locals and the RNG draws batched.

Everything rests on one invariant — **bit-identical randomness**.  For a
``random.Random`` seed, an array engine replays its reference twin's draw
sequence exactly, so trajectories, cover times, phase statistics, and even
the generator state after any number of steps all match.  Three draw tiers
implement this, fastest first:

1. *Batched raw words* (:class:`MTWordStream`).  ``random.Random`` and
   ``numpy.random.MT19937`` share the same core generator, and
   ``randrange(k)`` → ``_randbelow(k)`` → ``getrandbits(b)`` consumes
   exactly one tempered 32-bit output word per rejection round
   (``word >> (32 - b)``).  Transplanting the state into a numpy
   ``MT19937`` lets a chunk draw its words with one ``random_raw`` call
   and do the rejection filter vectorized; the state is synced back when
   the chunk ends.  Used by :class:`~repro.engine.srw.ArraySRW` on
   regular graphs and by :class:`~repro.engine.rwc.ArrayRWC` with
   ``d = 2`` on regular graphs, where a constant modulus lets the word
   roles be derived vectorized.

2. *Inlined rejection*.  ``r = getrandbits(k)`` / ``while r >= q`` with a
   hoisted bound method — the body of CPython's ``_randbelow``, minus the
   per-call function overhead.  Used by every other chunk: irregular
   graphs, state-dependent moduli (the E-process), RWC with ``d != 2``,
   and the oracle walks.

3. *Reference stepping*.  For RNGs that are not plain Mersenne-Twister
   ``random.Random`` instances (``_randbelow`` overridden, no state
   access), chunks degrade to the inherited per-step ``step()`` loop —
   slow but always faithful.

Chunks mutate the very containers the reference base class owns
(``visited_vertices``, ``first_visit_time``, ...) and write scalars back
on exit, so single ``step()`` calls and chunked runs interleave freely.

The CSR arrays live on :class:`~repro.graphs.graph.Graph` as numpy arrays;
the engines copy them into plain lists once per walk because CPython list
indexing with a Python int is several times faster than numpy scalar
indexing, and the per-step part of the loop is scalar by nature (a walk is
a sequential chain).
"""

from __future__ import annotations

import random
from array import array
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "ArrayWalkEngine",
    "MTStateRows",
    "MTWordStream",
    "VisitedSet",
    "mt_state_to_numpy",
    "mt_state_from_numpy",
    "DEFAULT_CHUNK_SIZE",
    "STOP_NONE",
    "STOP_VERTICES",
    "STOP_EDGES",
]

#: Steps per inner chunk for the cover-time runners.  Large enough that the
#: per-chunk setup (local hoisting, RNG state transplant) is noise, small
#: enough that a cover run re-checks its budget at a reasonable cadence.
DEFAULT_CHUNK_SIZE = 8192

#: Below this many steps a chunk skips the numpy word batching — the
#: state-transplant overhead would exceed the per-draw savings.
BATCH_MIN_STEPS = 1024

#: ``run`` splits long requests into chunks of this size, which bounds
#: each chunk's word batches while the per-chunk setup stays amortized.
RUN_SPLIT_STEPS = 65536

# Chunk stop conditions (protocol between the runners and each engine's
# ``_chunk``).
STOP_NONE = 0  # take exactly num_steps steps
STOP_VERTICES = 1  # additionally stop the instant all vertices are visited
STOP_EDGES = 2  # additionally stop the instant all edges are visited


def mt_state_to_numpy(internal: Tuple[int, ...]) -> dict:
    """A numpy ``MT19937.state`` dict from ``random.Random.getstate()[1]``
    (the 625-word internal tuple: 624 key words plus the position)."""
    import numpy as np

    return {
        "bit_generator": "MT19937",
        "state": {
            "key": np.asarray(internal[:-1], dtype=np.uint32),
            "pos": internal[-1],
        },
    }


def mt_state_from_numpy(mt: Any, base: Tuple[Any, ...]) -> tuple:
    """A ``random.Random.setstate`` tuple from a numpy ``MT19937``'s
    current state, carrying ``base``'s version and cached-gauss fields."""
    version, _internal, gauss = base
    state = mt.state["state"]
    return (version, tuple(map(int, state["key"])) + (int(state["pos"]),), gauss)


#: ``random.Random`` methods a generator's class must not override for its
#: raw words to be transplanted (:meth:`MTWordStream.supports`).
_STOCK_MT_METHODS = ("_randbelow", "getrandbits", "getstate", "setstate")


class MTStateRows:
    """Generators' Mersenne-Twister states, one row each, for the native kernels.

    Row ``i`` of :attr:`mt` is ``rngs[i].getstate()[1]`` as ``uint32`` —
    624 key words, then the read position — the layout the C kernels run
    MT19937 on in place, counting each row's words in :attr:`drawn`.  A
    row is therefore always its generator's state at the current
    instant; :meth:`sync_row` writes it back, keeping that generator's
    own version and cached ``gauss_next``.
    """

    def __init__(self, rngs: Sequence[random.Random]) -> None:
        import numpy as np

        self.rngs = list(rngs)
        self.meta = []
        # One typed buffer, extended row by row, builds faster than
        # ``np.array`` over a list of 625-int tuples.
        words = array("I")
        for rng in self.rngs:
            version, internal, gauss = rng.getstate()
            self.meta.append((version, gauss))
            words.extend(internal)
        self.mt = np.frombuffer(words, dtype=np.uint32).reshape(len(self.rngs), -1)
        self.drawn = np.zeros(len(self.rngs), dtype=np.int64)

    def consumed(self, row: int) -> int:
        """Total raw words drawn from row ``row`` so far."""
        return int(self.drawn[row])

    def sync_row(self, row: int) -> None:
        """Place row ``row``'s generator at its current instant."""
        version, gauss = self.meta[row]
        self.rngs[row].setstate((version, tuple(self.mt[row].tolist()), gauss))

    def compact(self, keep) -> None:
        """Drop the rows where ``keep`` (bool array) is False."""
        self.mt = self.mt[keep]
        self.drawn = self.drawn[keep]
        flags = keep.tolist()
        self.rngs = [rng for rng, k in zip(self.rngs, flags) if k]
        self.meta = [meta for meta, k in zip(self.meta, flags) if k]


class MTWordStream:
    """Batched, bit-identical access to a ``random.Random``'s raw words.

    Between :meth:`begin` and :meth:`end`, :meth:`take` hands out the exact
    sequence of tempered 32-bit Mersenne-Twister outputs the wrapped
    generator would produce, as numpy arrays.  :meth:`end` advances the
    wrapped generator past precisely the words the caller reports as
    consumed, so interleaving batched chunks with ordinary ``rng`` calls
    (or comparing ``getstate()`` against a reference run) stays exact.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._mt: Any = None  # reusable scratch numpy MT19937 (created lazily)
        self._base: Any = None
        self._handed = 0
        self._pre_take_state: Any = None
        self._last_count = 0

    @staticmethod
    def supports(rng: random.Random) -> bool:
        """Whether ``rng`` is a plain Mersenne-Twister ``random.Random``.

        Decided by method identity, without building a state: the
        instance is a ``random.Random`` whose class keeps the stock
        methods the transplant relies on (:data:`_STOCK_MT_METHODS`).  A
        subclass overriding ``random()`` gets a different ``_randbelow``
        rejection scheme, one overriding ``getrandbits`` draws other
        words, and the stock ``getstate``/``setstate`` are what make the
        625-word state rows exact.
        """
        if not isinstance(rng, random.Random):
            return False
        cls = type(rng)
        return all(
            getattr(cls, name) is getattr(random.Random, name)
            for name in _STOCK_MT_METHODS
        )

    def begin(self) -> None:
        """Capture the generator's state and start handing out its words."""
        import numpy as np

        self._base = self._rng.getstate()
        if self._mt is None:
            self._mt = np.random.MT19937(0)
        self._mt.state = mt_state_to_numpy(self._base[1])
        self._handed = 0
        self._pre_take_state = None
        self._last_count = 0

    def take(self, count: int) -> Any:
        """The next ``count`` raw 32-bit words as a numpy array."""
        # Snapshot so end() can rewind to the start of this batch and
        # replay only its consumed prefix (MT cannot run backwards).
        self._pre_take_state = self._mt.state
        self._last_count = count
        self._handed += count
        return self._mt.random_raw(count)

    def end(self, unused: int = 0) -> None:
        """Advance the wrapped generator past the consumed words.

        ``unused`` is how many words from the *final* :meth:`take` batch
        the caller did not consume (earlier batches must be fully
        consumed); those word positions will be re-handed next time.
        """
        consumed = self._handed - unused
        if consumed:
            mt = self._mt
            if unused:
                # Rewind to the final batch's start and replay only its
                # consumed prefix.
                mt.state = self._pre_take_state
                mt.random_raw(self._last_count - unused)
            self._rng.setstate(mt_state_from_numpy(mt, self._base))
        self._base = None
        self._handed = 0
        self._pre_take_state = None
        self._last_count = 0

    def sync_to(self, consumed: int) -> None:
        """Advance the wrapped generator exactly ``consumed`` words past the
        :meth:`begin` state, regardless of batching.

        Unlike :meth:`end` — which can only return words from the *final*
        :meth:`take` batch — this supports rewinding across batch
        boundaries by replaying the consumed prefix from the captured base
        state (MT cannot run backwards).  :class:`~repro.engine.rwc.ArrayRWC`
        uses it when a chunk's unconsumed words reach back past its final
        batch, and the fleets' numpy word bank when a lane retires.  Ends
        the batch accounting like :meth:`end` but keeps the base state, so
        a repeated call places the generator at the same instant.
        """
        if consumed:
            mt = self._mt
            mt.state = mt_state_to_numpy(self._base[1])
            mt.random_raw(consumed)
            self._rng.setstate(mt_state_from_numpy(mt, self._base))
        self._handed = 0
        self._pre_take_state = None
        self._last_count = 0


class VisitedSet:
    """A packed-uint64 bitset for visitation state: n *bits*, not n bytes.

    The materialized engines keep their historical ``bytearray`` state
    (one byte per vertex is fine at n ~ 10^5), but at n ≥ 10^7 bytes are
    the difference between fitting in cache and not.  The :mod:`repro.engine.oracle` walks keep
    their visitation state here.

    Hot loops go through :meth:`checkout_words`/:meth:`checkin_words`:
    the caller borrows the words as a plain Python list (CPython int
    bit-ops beat numpy scalar indexing several-fold in per-step loops),
    mutates, and checks back in.
    """

    __slots__ = ("nbits", "words", "count", "_checked_out")

    def __init__(self, nbits: int) -> None:
        import numpy as np

        self.nbits = nbits
        self.words = np.zeros((nbits + 63) >> 6, dtype=np.uint64)
        self.count = 0  # bits set, maintained by add()/checkin_words()
        self._checked_out = False

    def test(self, i: int) -> bool:
        return bool((int(self.words[i >> 6]) >> (i & 63)) & 1)

    def add(self, i: int) -> bool:
        """Set bit ``i``; True if it was fresh."""
        w = i >> 6
        bit = 1 << (i & 63)
        old = int(self.words[w])
        if old & bit:
            return False
        self.words[w] = old | bit
        self.count += 1
        return True

    def checkout_words(self) -> list:
        """Borrow the words as a Python int list for a scalar hot loop.

        The caller owns bit mutations until :meth:`checkin_words`; it must
        track its own fresh count and pass the delta back in.
        """
        if self._checked_out:
            raise ReproError("VisitedSet words already checked out")
        self._checked_out = True
        return self.words.tolist()

    def checkin_words(self, words: list, added: int) -> None:
        """Absorb a borrowed word list and the number of newly set bits."""
        import numpy as np

        if not self._checked_out:
            raise ReproError("VisitedSet words were not checked out")
        self.words[:] = np.asarray(words, dtype=np.uint64)
        self.count += added
        self._checked_out = False

    def __len__(self) -> int:
        return self.nbits


class ArrayWalkEngine:
    """Mixin adding flat-array state and chunked runners to a walk class.

    Subclasses inherit from this mixin *and* the reference walk class they
    accelerate (``class ArraySRW(ArrayWalkEngine, SimpleRandomWalk)``), so
    the single-step protocol, introspection surface, and constructor
    validation all come from the reference implementation; the mixin
    overrides only the bulk runners.  Call :meth:`_init_arrays` at the end
    of ``__init__``.
    """

    # Provided by the reference walk class the mixin is combined with.
    graph: Any
    rng: random.Random
    current: int
    steps: int
    step: Callable[[], Any]
    num_visited_vertices: int
    num_visited_edges: int

    def _init_arrays(self, chunk_size: int) -> None:
        if chunk_size < 1:
            raise ReproError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        graph = self.graph
        offsets, edge_ids, neighbors = graph.csr_arrays()
        # Plain lists: fastest scalar indexing for the pure-Python hot loop.
        self._off = offsets.tolist()
        self._eids = edge_ids.tolist()
        self._nbrs = neighbors.tolist()
        self._deg = list(graph.degrees())
        self._regular_degree = graph.regularity() if graph.is_regular() else 0
        # Rejection-sampling bit widths per modulus: _randbelow(q) draws
        # getrandbits(q.bit_length()) until the result is < q.
        self._kbits = [q.bit_length() for q in range(graph.max_degree + 1)]
        if type(self.rng)._randbelow is random.Random._randbelow and hasattr(
            self.rng, "getrandbits"
        ):
            self._grb = self.rng.getrandbits
        else:
            self._grb = None  # exotic RNG: chunks fall back to step()
        self._stream: Optional[MTWordStream] = (
            MTWordStream(self.rng) if MTWordStream.supports(self.rng) else None
        )

    # ------------------------------------------------------------------
    # Per-engine chunk kernel
    # ------------------------------------------------------------------
    def _chunk(self, num_steps: int, stop: int) -> None:
        """Take up to ``num_steps`` steps in one tight loop.

        Takes exactly ``num_steps`` steps unless ``stop`` requests an early
        exit at the cover instant.  Implemented by each engine.
        """
        raise NotImplementedError

    def _chunk_steps(self, num_steps: int, stop: int) -> None:
        """Portable chunk fallback: the inherited per-step reference loop."""
        step = self.step
        for _ in range(num_steps):
            step()
            if stop == STOP_VERTICES:
                if self.num_visited_vertices == self.graph.n:
                    return
            elif stop == STOP_EDGES:
                if self.num_visited_edges == self.graph.m:
                    return

    # ------------------------------------------------------------------
    # Bulk runners (override the per-step loops of WalkProcess)
    # ------------------------------------------------------------------
    def run(self, num_steps: int) -> int:
        """Take exactly ``num_steps`` steps; returns the final vertex.

        Equivalent to ``num_steps`` calls of ``step()`` (same trajectory,
        same RNG consumption), minus the dispatch overhead.
        """
        if num_steps < 0:
            raise ReproError(f"num_steps must be >= 0, got {num_steps}")
        remaining = num_steps
        while remaining > 0:
            size = RUN_SPLIT_STEPS if remaining > RUN_SPLIT_STEPS else remaining
            self._chunk(size, STOP_NONE)
            remaining -= size
        return self.current

    def _cover_advance(self, budget: int, target: str) -> None:
        # The cover runners (budget/timeout logic) live on WalkProcess;
        # the engines advance by bounded chunks instead of single steps.
        stop = STOP_VERTICES if target == "vertices" else STOP_EDGES
        self._chunk(min(self.chunk_size, budget - self.steps), stop)
