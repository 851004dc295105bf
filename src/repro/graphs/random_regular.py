"""Random regular and fixed-degree-sequence graphs.

Two samplers are provided:

* :func:`configuration_model` — the classical pairing model.  Exact for
  multigraphs; with ``simple=True`` it rejects until simple, which is the
  textbook uniform sampler over simple r-regular graphs (acceptance
  probability ``≈ e^{-(r²-1)/4}``, fine for the constant degrees used here).
* :func:`random_regular_graph` — the Steger–Wormald incremental pairing
  algorithm [15], the same algorithm behind the NetworkX generator the paper
  used.  Asymptotically uniform and fast even for large ``n``.

Both use Python's Mersenne Twister (`random.Random`), matching the paper's
experimental setup (Section 5).

Steger–Wormald runs natively when it can.  With the optional C extension
built (:mod:`repro.engine.native`), a plain Mersenne-Twister ``rng``
(:meth:`~repro.engine.base.MTWordStream.supports`) and every draw's
modulus within 32 bits (``n*r`` and ``n*(n-1)/2`` below ``2**32``), each
pass runs as one C call that draws from the generator's own
Mersenne-Twister state, handed in and written back through
``getstate``/``setstate``.  It replays
:func:`_steger_wormald_attempt` draw for draw, so the edges, their order
and ``rng.getstate()`` afterwards are identical, and it hands back an
array-backed :class:`Graph` whose CSR arrays and connectivity come out of
the same pass.  In every other case — ``REPRO_NATIVE=0`` included — the
Python pass below runs; it is the only fallback and the reference the
native pass is tested against.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import GenerationError
from repro.graphs.graph import Graph
from repro.graphs.properties import is_connected

__all__ = [
    "configuration_model",
    "random_regular_graph",
    "random_even_degree_graph",
    "random_connected_regular_graph",
]


#: Steger–Wormald restarts before :func:`random_regular_graph` gives up.
_MAX_RESTARTS = 1_000


def _validate_degree_sequence(degrees: Sequence[int], simple: bool = False) -> None:
    """Reject impossible degree sequences.

    The base checks (non-negative, even sum) apply to any pairing; with
    ``simple=True`` the simple-graph bound ``d <= n-1`` is enforced too —
    multigraph callers keep ``simple=False`` because loops and parallel
    edges can realize any even-sum sequence.
    """
    if any(d < 0 for d in degrees):
        raise GenerationError("degrees must be non-negative")
    if sum(degrees) % 2 != 0:
        raise GenerationError("degree sum must be even")
    n = len(degrees)
    if simple and any(d > n - 1 for d in degrees):
        raise GenerationError("simple graph impossible: some degree exceeds n-1")


def _pairing_edges(degrees: Sequence[int], rng: random.Random) -> List[Tuple[int, int]]:
    """One pairing-model sample: match half-edges uniformly at random."""
    stubs: List[int] = []
    for v, d in enumerate(degrees):
        stubs.extend([v] * d)
    rng.shuffle(stubs)
    return [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]


def _is_simple_edge_list(edges: Sequence[Tuple[int, int]]) -> bool:
    seen = set()
    for u, v in edges:
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return False
        seen.add(key)
    return True


def configuration_model(
    degrees: Sequence[int],
    rng: random.Random,
    simple: bool = True,
    max_retries: int = 10_000,
    name: str = "",
) -> Graph:
    """Sample a graph with the given degree sequence via the pairing model.

    With ``simple=True`` the sample is rejected and redrawn until it has no
    loops or parallel edges, yielding the uniform distribution over simple
    graphs with that degree sequence.  With ``simple=False`` a single pairing
    is returned (a multigraph in general).

    Raises
    ------
    GenerationError
        On invalid degree sequences, or if ``max_retries`` rejections occur.
    """
    _validate_degree_sequence(degrees, simple=simple)
    n = len(degrees)
    label = name or f"CM(n={n})"
    if not simple:
        return Graph(n, _pairing_edges(degrees, rng), name=label)
    for _ in range(max_retries):
        edges = _pairing_edges(degrees, rng)
        if _is_simple_edge_list(edges):
            return Graph(n, edges, name=label)
    raise GenerationError(
        f"configuration model failed to produce a simple graph in "
        f"{max_retries} attempts (degrees too dense?)"
    )


def random_regular_graph(
    n: int,
    r: int,
    rng: random.Random,
    max_restarts: int = _MAX_RESTARTS,
    name: str = "",
) -> Graph:
    """Random simple r-regular graph via Steger–Wormald incremental pairing.

    The algorithm repeatedly joins two random *distinct, non-adjacent*
    vertices that still have free stubs; when it paints itself into a corner
    (only forbidden pairs remain) it restarts.  For fixed ``r`` restarts are
    rare and the output distribution is asymptotically uniform [15].

    Parameters
    ----------
    n, r:
        Vertex count and degree; ``n*r`` must be even and ``r < n``.
    rng:
        Mersenne-Twister source; pass a seeded ``random.Random``.
    """
    return _regular_graph(n, r, rng, max_restarts, name)[0]


def _regular_graph(
    n: int, r: int, rng: random.Random, max_restarts: int, name: str
) -> Tuple[Graph, Optional[int]]:
    """:func:`random_regular_graph` plus the component count when the
    builder knows it (the native pass does; otherwise None)."""
    if n <= 0:
        raise GenerationError(f"n must be positive, got {n}")
    if r < 0 or r >= n:
        raise GenerationError(f"need 0 <= r < n, got r={r}, n={n}")
    if (n * r) % 2 != 0:
        raise GenerationError(f"n*r must be even, got n={n}, r={r}")
    label = name or f"G({n},{r})"
    if r == 0:
        return Graph(n, [], name=label), None

    from repro.telemetry import get_telemetry

    tel = get_telemetry()
    kernel = _native_kernel(n, r, rng)
    if kernel is not None:
        if tel.enabled:
            tel.count("graphs.native_builds")
        return _native_regular_graph(kernel, n, r, rng, max_restarts, label)
    if tel.enabled:
        tel.count("graphs.python_builds")
    for _restart in range(max_restarts):
        edges = _steger_wormald_attempt(n, r, rng)
        if edges is not None:
            return Graph(n, edges, name=label), None
    raise _restarts_exhausted(n, r, max_restarts)


def _restarts_exhausted(n: int, r: int, max_restarts: int) -> GenerationError:
    return GenerationError(
        f"Steger-Wormald failed after {max_restarts} restarts (n={n}, r={r})"
    )


# Statuses of the native pass (``SW_*`` in ``_fused.c``).
_SW_DONE, _SW_DEADEND = 0, 1


def _native_kernel(n: int, r: int, rng: random.Random) -> Any:
    """The native Steger–Wormald pass, or None when the Python one must run."""
    if n * r >= 1 << 32 or n * (n - 1) // 2 >= 1 << 32:
        return None  # some modulus would need more than one word per draw
    from repro.engine.base import MTWordStream

    if not MTWordStream.supports(rng):
        return None
    from repro.engine import native

    return native.load_sw_regular()


def _native_regular_graph(
    kernel: Any, n: int, r: int, rng: random.Random, max_restarts: int, label: str
) -> Tuple[Graph, int]:
    """Steger–Wormald passes in C until one succeeds; ``(graph, components)``.

    The kernel draws from ``rng``'s own Mersenne-Twister state, handed in
    as one :class:`~repro.engine.base.MTStateRows` row; the advanced row
    is written back — also when every restart dead-ends and this raises.
    """
    import ctypes

    import numpy as np

    from repro.engine.base import MTStateRows

    stubs = n * r
    states = MTStateRows([rng])
    components = np.zeros(1, dtype=np.int64)
    pool, positions, adjacent = (np.empty(stubs, dtype=np.int64) for _ in range(3))
    free = np.empty(n, dtype=np.int64)
    edges = np.empty((stubs // 2, 2), dtype=np.int64)
    csr = (
        np.empty(n + 1, dtype=np.int64),
        np.empty(stubs, dtype=np.int64),
        np.empty(stubs, dtype=np.int64),
    )
    par = np.array([n, r], dtype=np.int64)
    arrays = (states.mt, components, pool, positions, free, adjacent, edges, *csr)
    slots = (ctypes.c_void_p * len(arrays))(
        *[ctypes.c_void_p(a.ctypes.data) for a in arrays]
    )
    try:
        for _restart in range(max_restarts):
            status = int(kernel(ctypes.c_void_p(par.ctypes.data), slots))
            if status == _SW_DONE:
                graph = Graph._from_arrays(n, edges, csr, name=label)
                return graph, int(components[0])
            if status != _SW_DEADEND:
                raise GenerationError(
                    f"native Steger-Wormald pass failed (status {status})"
                )
    finally:
        states.sync_row(0)
    raise _restarts_exhausted(n, r, max_restarts)


def _steger_wormald_attempt(
    n: int, r: int, rng: random.Random
) -> Optional[List[Tuple[int, int]]]:
    """One Steger–Wormald pass; ``None`` signals a dead end (restart).

    The free-stub weighting is realized by sampling from a pool of *stubs*
    (each vertex present with multiplicity ``free[v]``), so a draw is
    automatically proportional to the remaining stub counts and no
    probability-rejection step is needed; only self-pairs and already
    adjacent pairs are rejected.  Stub removal is O(r) via swap-deletion.
    """
    free = [r] * n
    adjacent = [set() for _ in range(n)]
    edges: List[Tuple[int, int]] = []
    # stub pool: vertex ids with multiplicity; positions[v] lists v's indices.
    pool: List[int] = []
    positions: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        for _ in range(r):
            positions[v].append(len(pool))
            pool.append(v)

    def remove_stub(vertex: int) -> None:
        idx = positions[vertex].pop()
        last_idx = len(pool) - 1
        last_vertex = pool[last_idx]
        if idx != last_idx:
            pool[idx] = last_vertex
            # update the moved stub's recorded position (lists are length <= r)
            plist = positions[last_vertex]
            plist[plist.index(last_idx)] = idx
        pool.pop()

    def place(u: int, v: int) -> None:
        edges.append((u, v))
        adjacent[u].add(v)
        adjacent[v].add(u)
        free[u] -= 1
        free[v] -= 1
        remove_stub(u)
        remove_stub(v)

    while pool:
        placed = False
        for _ in range(200):
            u = pool[rng.randrange(len(pool))]
            v = pool[rng.randrange(len(pool))]
            if u == v or v in adjacent[u]:
                continue
            place(u, v)
            placed = True
            break
        if placed:
            continue
        # Exhaustive fallback over remaining free vertices; detects dead ends.
        remaining = sorted({x for x in pool})
        suitable = [
            (x, y)
            for i, x in enumerate(remaining)
            for y in remaining[i + 1 :]
            if y not in adjacent[x]
        ]
        if not suitable:
            return None  # dead end: restart
        u, v = suitable[rng.randrange(len(suitable))]
        place(u, v)
    return edges


def random_even_degree_graph(
    degrees: Sequence[int],
    rng: random.Random,
    max_retries: int = 10_000,
    name: str = "",
) -> Graph:
    """Random simple graph with a *fixed even degree sequence*.

    This is the paper's second example class ("fixed degree sequence random
    graphs, with all vertex degrees d(v) >= 4, even and finite").  All
    degrees must be even and >= 2.
    """
    if any(d % 2 != 0 for d in degrees):
        raise GenerationError("all degrees must be even")
    if any(d < 2 for d in degrees):
        raise GenerationError("all degrees must be >= 2 for a meaningful walk")
    return configuration_model(
        degrees, rng, simple=True, max_retries=max_retries,
        name=name or f"EvenDS(n={len(degrees)})",
    )


def random_connected_regular_graph(
    n: int,
    r: int,
    rng: random.Random,
    max_attempts: int = 200,
    name: str = "",
) -> Graph:
    """Random simple *connected* r-regular graph (rejection on connectivity).

    For ``r >= 3`` random regular graphs are connected whp, so rejections are
    rare; the retry cap exists for pathological parameters.
    """
    if r < 2:
        raise GenerationError(f"connected regular graphs need r >= 2, got r={r}")
    for _ in range(max_attempts):
        g, components = _regular_graph(n, r, rng, _MAX_RESTARTS, name)
        if is_connected(g) if components is None else components == 1:
            return g
    raise GenerationError(
        f"no connected sample in {max_attempts} attempts (n={n}, r={r})"
    )
