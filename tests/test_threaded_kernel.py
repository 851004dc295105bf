"""Free-threaded stress harness: concurrent fleets over shared frozen arrays.

The fused kernel is called through ctypes, which releases the GIL for the
duration of each ``repro_fused_block`` call — so several fleets stepping
from a :class:`~concurrent.futures.ThreadPoolExecutor` may run the C
kernel at the same time, all reading the shared graph's own CSR arrays
(``Graph.csr_arrays()``, in place).  On the numpy path the fleets read
the int64 tiles cached on the graph (``Graph.scratch_cache()``) instead.
Each fleet here steps its lanes to their cover instants in the kernel
when it is built; :func:`_drive` asserts that every fleet took at least
one native block, and that each block read only the graph's frozen CSR
arrays, so the harness cannot silently stop reaching C.
Sharing those arrays is safe only because every one is frozen at creation
(``setflags(write=False)`` — lint rule R6); this suite is the runtime
counterpart of that static contract:

* **Bit-identity**: each fleet, driven from its own thread, must finish in
  exactly the end-state of an identically-seeded fleet run serially —
  cover times, final positions, generator states, first-visit tables.
  Any cross-thread mutation of shared state would perturb at least one
  lane's replay.
* **Zero data races**: under ``REPRO_SANITIZE=thread`` (see ``setup.py``)
  the kernel is compiled with ``-fsanitize=thread`` and CI runs this file
  with ``TSAN_OPTIONS=halt_on_error=1`` — a single racy access aborts the
  run.  The suite also passes on plain and numpy-only builds, where it
  still exercises the frozen-tile sharing through the fallback path.

Thread count deliberately exceeds the fleet count on some tests so the
pool reuses threads across fleets, and the cold-cache tests make several
threads first read a fresh graph's CSR arrays at once: the graph builds
them once, under a lock, because the kernel holds their addresses.  On
the numpy path the threads also *build* the shared tiles at once (last
write wins; each fleet holds the tiles it built, whose contents are
identical and frozen, so that race is benign by construction).
"""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import FleetEdgeProcess, FleetSRW, FleetVProcess, native
from repro.graphs.graph import Graph
from repro.graphs.random_regular import random_connected_regular_graph

THREADS = 4
FLEETS = 6  # > THREADS: forces thread reuse across fleets
LANES = 5

FLEET_CLASSES = [FleetSRW, FleetEdgeProcess, FleetVProcess]


def _regular(n=120, d=4, seed=7):
    return random_connected_regular_graph(n, d, random.Random(seed))


def _irregular(n=90, seed=11):
    """Connected non-regular graph: exercises the general kernel path."""
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    seen = set(edges)
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in seen and (v, u) not in seen:
            seen.add((u, v))
            edges.append((u, v))
    return Graph(n, edges, name=f"irregular-{n}")


def _build(cls, graph, fleet_idx):
    """One fleet plus its rngs, deterministically seeded by ``fleet_idx``."""
    starts = [
        random.Random(100 * fleet_idx + k).randrange(graph.n) for k in range(LANES)
    ]
    rngs = [random.Random(9_000 + 100 * fleet_idx + k) for k in range(LANES)]
    return cls([graph] * LANES, starts, rngs), rngs


def _drive(cls, graph, fleet_idx, target):
    """Run one fleet to cover; returns its complete observable end-state.

    With the kernel built, the fleet must have run at least one native
    block (counted on this fleet alone, so concurrent fleets cannot mix
    their counts).
    """
    fleet, rngs = _build(cls, graph, fleet_idx)
    blocks = []
    native_block = fleet._native_block

    def counted(T, steps):
        blocks.append(T)
        _assert_reads_graph_csr(fleet, graph)
        return native_block(T, steps)

    fleet._native_block = counted
    cover = fleet.run_until_cover(target=target)
    assert blocks or not native.available(), "fleet never reached the native kernel"
    state = {
        "cover": list(cover),
        "positions": list(fleet.positions),
        "rng": [r.getstate() for r in rngs],
    }
    if isinstance(fleet, FleetSRW):
        state["first_visit"] = [fleet.first_visit_time(k) for k in range(fleet.K)]
    return state


def _serial_vs_threaded(cls, graph_factory, target):
    """End-states of FLEETS serial runs vs. the same fleets threaded.

    Distinct graph objects per pass (same seed, same topology) so the
    threaded pass populates its shared caches itself — from several
    threads at once — rather than inheriting warm tiles.
    """
    serial_graph = graph_factory()
    serial = [_drive(cls, serial_graph, i, target) for i in range(FLEETS)]

    threaded_graph = graph_factory()
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        futures = [
            pool.submit(_drive, cls, threaded_graph, i, target)
            for i in range(FLEETS)
        ]
        threaded = [f.result() for f in futures]
    return serial, threaded, threaded_graph


def _assert_reads_graph_csr(fleet, graph):
    """The native block about to run reads only ``graph``'s own, frozen
    CSR arrays: every lane's pointer row holds their addresses."""
    offsets, eids, nbrs = graph.csr_arrays()
    for ptrs, arr in zip(fleet._csr_ptrs, (eids, nbrs, offsets)):
        assert set(ptrs.tolist()) == {arr.ctypes.data}
        assert not arr.flags.writeable


def _kernel_arrays(graph):
    """``(name, array)`` for every shared array the fleets' kernel reads:
    the graph's CSR arrays on the native path (each native block checks
    that it reads exactly these), the tiles cached on the graph on the
    numpy path."""
    import numpy as np

    if native.available():
        names = ("csr_offsets", "csr_edge_ids", "csr_neighbors")
        return list(zip(names, graph.csr_arrays()))

    def _flat(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                yield from _flat(item)

    return [
        (key, arr)
        for key, value in graph.scratch_cache().items()
        for arr in _flat(value)
    ]


def _assert_frozen_reads(graph):
    """Every shared array a kernel read from the graph must be read-only."""
    arrays = _kernel_arrays(graph)
    assert arrays, "expected the run to read shared arrays"
    for key, arr in arrays:
        assert not arr.flags.writeable, f"writable shared array {key!r}"


class TestThreadedFleets:
    @pytest.mark.parametrize("cls", FLEET_CLASSES)
    def test_regular_graph_bit_identical(self, cls):
        serial, threaded, graph = _serial_vs_threaded(cls, _regular, "vertices")
        assert threaded == serial
        _assert_frozen_reads(graph)

    def test_edge_cover_bit_identical(self):
        serial, threaded, graph = _serial_vs_threaded(
            FleetSRW, _regular, "edges"
        )
        assert threaded == serial
        _assert_frozen_reads(graph)

    def test_irregular_graph_bit_identical(self):
        serial, threaded, graph = _serial_vs_threaded(
            FleetSRW, _irregular, "vertices"
        )
        assert threaded == serial
        _assert_frozen_reads(graph)

    def test_threaded_matches_numpy_reference(self, monkeypatch):
        """Threaded native end-states equal the single-threaded numpy path.

        Closes the loop across *both* axes at once (threading and kernel):
        if the native kernel raced anywhere, matching the numpy fallback
        bit-for-bit from a threaded run would require the race to be
        exactly invisible — TSan catches the rest.
        """
        serial_graph = _regular(seed=23)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native._reset_probe_for_testing()
        try:
            reference = [
                _drive(FleetSRW, serial_graph, i, "vertices") for i in range(FLEETS)
            ]
        finally:
            monkeypatch.delenv("REPRO_NATIVE")
            native._reset_probe_for_testing()

        threaded_graph = _regular(seed=23)
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [
                pool.submit(_drive, FleetSRW, threaded_graph, i, "vertices")
                for i in range(FLEETS)
            ]
            threaded = [f.result() for f in futures]
        assert threaded == reference

    def test_repeated_threaded_runs_are_stable(self):
        """Two threaded passes over one warm shared graph agree exactly.

        Same graph object both times: the second pass consumes tiles the
        first pass cached, catching any mutation the first pass leaked
        into shared state.
        """
        graph = _regular(seed=31)
        results = []
        for _ in range(2):
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                futures = [
                    pool.submit(_drive, FleetSRW, graph, i, "vertices")
                    for i in range(FLEETS)
                ]
                results.append([f.result() for f in futures])
        assert results[0] == results[1]
        _assert_frozen_reads(graph)


class TestSharedTileContract:
    def test_shared_tiles_reject_writes(self):
        """Every shared array the kernel reads raises on mutation — the R6
        contract at runtime."""
        graph = _regular(seed=5)
        fleet, _ = _build(FleetSRW, graph, 0)
        fleet.run_until_cover(target="vertices")
        arrays = _kernel_arrays(graph)
        assert arrays
        for _, arr in arrays:
            with pytest.raises((ValueError, RuntimeError)):
                arr[...] = 0

    def test_racing_csr_builds_share_one_copy(self):
        """Threads that first read a graph's CSR arrays at once all get the
        same arrays: the kernel reads them by address, so a racing build
        that replaced a copy another fleet points at would free it under
        that fleet."""
        import sys
        import threading

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(10):
                graph = _irregular(n=2000, seed=seed)
                barrier = threading.Barrier(THREADS * 2)

                def first_read():
                    barrier.wait(timeout=10)
                    return graph.csr_arrays()

                with ThreadPoolExecutor(max_workers=THREADS * 2) as pool:
                    futures = [pool.submit(first_read) for _ in range(THREADS * 2)]
                    triples = [f.result(timeout=30) for f in futures]
                assert all(t is triples[0] for t in triples), f"seed {seed}"
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(not native.available(), reason="native kernel not built")
    def test_native_kernel_in_use(self):
        """The harness actually exercises the fused kernel when built."""
        graph = _regular(seed=3)
        fleet, _ = _build(FleetSRW, graph, 0)
        assert fleet._native_setup() is not None
