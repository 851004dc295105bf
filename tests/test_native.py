"""Native fused kernel vs. the numpy stepwise fleets, bit for bit.

The contract: with the C extension loaded, every stepwise fleet block
runs through one fused call that consumes the same Mersenne-Twister
words in the same per-lane order as the numpy kernel — so cover times,
first-visit tables (vertices and edges), red/blue splits, phase marks,
final positions, and every generator's end-state are identical between
``native=True`` and ``native=False`` runs, and both match the per-trial
reference walks.

The suite covers every fleet walk (srw / eprocess / vprocess), regular
and irregular lanes (packed bitmask tables, the general cumulative-rank
path, and the >16-degree regular path), shared and distinct-graph
(tiled) fleets, K in {1, 2, 7, 32}, both cover targets, budget timeouts,
and the loader's fallback behaviour (numpy path + one RuntimeWarning)
when the extension is missing.

The kernel runs each trial's Mersenne Twister itself, on the state
``getstate()`` hands it, so generators are also started at the edges of
the 624-word state: positions 0, 1, 623 and 624 (a twist before the next
word), mid-row, and with a cached ``gauss_next`` that must survive the
round trip.

The native Steger–Wormald pass is held to the same standard against the
python builder: same edges in the same order, same CSR arrays, same
component count and the same generator end state, over dead-end
restarts, the exhaustive fallback and every state boundary; pinned
digests of fresh 4-regular graphs hold with and without the kernel.
"""

import hashlib
import os
import random
import shutil
import subprocess
import warnings

import pytest

from repro.core.eprocess import EdgeProcess
from repro.engine import FleetEdgeProcess, FleetSRW, FleetVProcess, native
from repro.engine.fleet import TAIL_LANES
from repro.errors import CoverTimeout, GenerationError, ReproError
from repro.graphs import random_regular as rr
from repro.graphs.generators import complete_graph, lollipop_graph
from repro.graphs.graph import Graph
from repro.graphs.properties import connected_components
from repro.graphs.random_regular import random_connected_regular_graph, random_regular_graph
from repro.telemetry import Telemetry, session
from repro.walks.choice import UnvisitedVertexWalk
from repro.walks.srw import SimpleRandomWalk

FLEET_SIZES = [1, 2, 7, 32]

FLEETS = {
    "srw": FleetSRW,
    "eprocess": FleetEdgeProcess,
    "vprocess": FleetVProcess,
}

REFERENCES = {
    "srw": lambda g, s, r: SimpleRandomWalk(g, s, rng=r, track_edges=True),
    "eprocess": lambda g, s, r: EdgeProcess(g, s, rng=r, record_phases=True),
    "vprocess": lambda g, s, r: UnvisitedVertexWalk(g, s, rng=r, track_edges=True),
}

native_built = pytest.mark.skipif(
    not native.available(),
    reason="native fused kernel not built (no compiler?)",
)


def _graph(shape: str):
    if shape == "regular":
        # 4-regular: the packed 2^d bitmask path for the E-/V-process.
        return random_connected_regular_graph(60, 4, random.Random(7))
    if shape == "bigdegree":
        # 17-regular: regular but past PACKED_DEGREE_MAX, so the E-/V-
        # process fleets run the general candidate scan with d fixed.
        return complete_graph(18)
    # Clique + pendant path: degrees 1..6, the per-degree prefilter path.
    return lollipop_graph(6, 9)


def _lanes(graph, K, base_seed):
    starts = [random.Random(100 + k).randrange(graph.n) for k in range(K)]
    rngs = [random.Random(base_seed + k) for k in range(K)]
    twins = [random.Random(base_seed + k) for k in range(K)]
    return starts, rngs, twins


def _snapshot(walk_name, fleet, K):
    """Everything a fleet exposes post-run, per lane."""
    snap = {
        "positions": fleet.positions,
        "cover": list(fleet.cover_steps),
        "fv": [fleet.first_visit_time(k) for k in range(K)],
    }
    if walk_name in ("eprocess", "vprocess"):
        snap["fe"] = [fleet.first_edge_visit_time(k) for k in range(K)]
    if walk_name == "eprocess":
        snap["red"] = fleet.red_steps
        snap["blue"] = fleet.blue_steps
        snap["marks"] = [fleet.phase_marks(k) for k in range(K)]
        snap["last"] = [fleet.last_color(k) for k in range(K)]
    return snap


def _make_fleet(walk_name, graphs, starts, rngs, native_pref):
    cls = FLEETS[walk_name]
    if walk_name == "eprocess":
        return cls(graphs, starts, rngs, record_phases=True, native=native_pref)
    return cls(graphs, starts, rngs, native=native_pref)


@native_built
class TestNativeVsNumpyParity:
    @pytest.mark.parametrize("K", FLEET_SIZES)
    @pytest.mark.parametrize("target", ["vertices", "edges"])
    @pytest.mark.parametrize("shape", ["regular", "irregular"])
    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_native_matches_numpy_and_reference(self, walk, shape, target, K):
        graph = _graph(shape)
        starts, n_rngs, p_rngs = _lanes(graph, K, 1000)
        twins = [random.Random(1000 + k) for k in range(K)]

        nat = _make_fleet(walk, [graph] * K, starts, n_rngs, True)
        cover_nat = nat.run_until_cover(target=target)
        num = _make_fleet(walk, [graph] * K, starts, p_rngs, False)
        cover_num = num.run_until_cover(target=target)

        assert cover_nat == cover_num
        assert _snapshot(walk, nat, K) == _snapshot(walk, num, K)
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()
            walk_ref = REFERENCES[walk](graph, starts[k], twins[k])
            expected = (
                walk_ref.run_until_vertex_cover()
                if target == "vertices"
                else walk_ref.run_until_edge_cover()
            )
            assert cover_nat[k] == expected
            assert n_rngs[k].getstate() == twins[k].getstate()

    @pytest.mark.parametrize("walk", ["eprocess", "vprocess"])
    def test_big_degree_regular_general_path(self, walk):
        # Regular but d > PACKED_DEGREE_MAX: the non-packed fixed-degree
        # branch of the kernel.
        graph = _graph("bigdegree")
        K = 7
        starts, n_rngs, p_rngs = _lanes(graph, K, 4000)
        nat = _make_fleet(walk, [graph] * K, starts, n_rngs, True)
        num = _make_fleet(walk, [graph] * K, starts, p_rngs, False)
        assert nat.run_until_cover("edges") == num.run_until_cover("edges")
        assert _snapshot(walk, nat, K) == _snapshot(walk, num, K)
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()

    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_distinct_graphs_per_lane(self, walk):
        # Tiled incidence rows: lane-major row bases in the kernel.
        K = 7
        graphs = [
            random_connected_regular_graph(40, 4, random.Random(50 + k))
            for k in range(K)
        ]
        starts = [k % 40 for k in range(K)]
        n_rngs = [random.Random(2000 + k) for k in range(K)]
        p_rngs = [random.Random(2000 + k) for k in range(K)]
        nat = _make_fleet(walk, graphs, starts, n_rngs, True)
        num = _make_fleet(walk, graphs, starts, p_rngs, False)
        assert nat.run_until_cover("vertices") == num.run_until_cover("vertices")
        assert _snapshot(walk, nat, K) == _snapshot(walk, num, K)
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()

    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_timeout_syncs_rng_like_numpy(self, walk):
        graph = _graph("irregular")
        K = 8  # above the tail hand-off, so the lockstep kernel times out
        starts, n_rngs, p_rngs = _lanes(graph, K, 3000)
        budget = 37
        nat = _make_fleet(walk, [graph] * K, starts, n_rngs, True)
        with pytest.raises(CoverTimeout):
            nat.run_until_cover("edges", max_steps=budget)
        num = _make_fleet(walk, [graph] * K, starts, p_rngs, False)
        with pytest.raises(CoverTimeout):
            num.run_until_cover("edges", max_steps=budget)
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()

    @pytest.mark.parametrize("target", ["vertices", "edges"])
    def test_regular_srw_fleet_runs_the_fused_kernel(self, target):
        # Regular SRW lanes share the stepwise driver with every other
        # materialized fleet, so the fused kernel runs them — including a
        # mid-run budget timeout — bit-identical to the numpy path.
        graph = _graph("regular")
        K = 8  # above the tail hand-off, so the timeout hits the kernel
        starts, n_rngs, p_rngs = _lanes(graph, K, 6000)
        tel = Telemetry()
        with session(tel):
            nat = FleetSRW([graph] * K, starts, n_rngs)
            cover = nat.run_until_cover(target)
        assert tel.counters["fleet.native_fleets"] == 1
        assert "fleet.numpy_fleets" not in tel.counters
        num = FleetSRW([graph] * K, starts, p_rngs, native=False)
        assert num.run_until_cover(target) == cover
        assert _snapshot("srw", nat, K) == _snapshot("srw", num, K)
        budget = min(cover) - 1
        for native_pref, rngs in ((True, n_rngs), (False, p_rngs)):
            fleet = FleetSRW([graph] * K, starts, rngs, native=native_pref)
            with pytest.raises(CoverTimeout):
                fleet.run_until_cover(target, max_steps=budget)
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()

    def test_word_row_refill_midstream(self):
        # A run long enough to take every lane's generator through many MT
        # twists: the kernel's in-place state must track the numpy path's
        # buffered words (exact word accounting end to end).
        graph = lollipop_graph(7, 30)
        K = 7
        starts, n_rngs, p_rngs = _lanes(graph, K, 5000)
        nat = FleetSRW([graph] * K, starts, n_rngs, native=True)
        num = FleetSRW([graph] * K, starts, p_rngs, native=False)
        assert nat.run_until_cover("edges") == num.run_until_cover("edges")
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()


#: Where the generators start: read positions inside the 624-word state
#: (0 reads key word 0 with no twist; 624 twists first), plus "gauss" —
#: a mid-row generator with a cached ``gauss_next``.
MT_STARTS = [0, 1, 311, 623, 624, "gauss"]


def _positioned(seed, start):
    """``random.Random(seed)`` moved to an MT boundary (see MT_STARTS)."""
    rng = random.Random(seed)
    if start == "gauss":
        for _ in range(100):
            rng.getrandbits(32)
        rng.gauss()
        assert rng.getstate()[2] is not None
        return rng
    version, internal, gauss = rng.getstate()
    rng.setstate((version, internal[:-1] + (start,), gauss))
    return rng


def _boundary_lanes(K, start, base_seed):
    """Three identical generator sets: native fleet, numpy fleet, reference."""
    return [[_positioned(base_seed + k, start) for k in range(K)] for _ in range(3)]


@native_built
class TestMersenneTwisterBoundaries:
    @pytest.mark.parametrize("start", MT_STARTS)
    @pytest.mark.parametrize("K", [TAIL_LANES - 2, TAIL_LANES + 3])
    @pytest.mark.parametrize("target", ["vertices", "edges"])
    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_fleet_matches_numpy_and_reference(self, walk, target, K, start):
        graph = _graph("regular" if K > TAIL_LANES else "irregular")
        starts = [k % graph.n for k in range(K)]
        n_rngs, p_rngs, twins = _boundary_lanes(K, start, 11_000)
        nat = _make_fleet(walk, [graph] * K, starts, n_rngs, True)
        num = _make_fleet(walk, [graph] * K, starts, p_rngs, False)
        cover = nat.run_until_cover(target)
        assert cover == num.run_until_cover(target)
        assert nat.positions == num.positions
        for k in range(K):
            ref = REFERENCES[walk](graph, starts[k], twins[k])
            expected = (
                ref.run_until_vertex_cover()
                if target == "vertices"
                else ref.run_until_edge_cover()
            )
            assert cover[k] == expected
            assert nat.positions[k] == ref.current
            assert n_rngs[k].getstate() == p_rngs[k].getstate() == twins[k].getstate()

    @pytest.mark.parametrize("start", MT_STARTS)
    @pytest.mark.parametrize("K", [TAIL_LANES - 2, TAIL_LANES + 3])
    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_timeout_matches_numpy_and_reference(self, walk, K, start):
        graph = _graph("irregular")
        starts = [k % graph.n for k in range(K)]
        n_rngs, p_rngs, twins = _boundary_lanes(K, start, 12_000)
        budget = graph.m - 4  # a step visits at most one new edge: no lane covers
        for rngs, native_pref in ((n_rngs, True), (p_rngs, False)):
            fleet = _make_fleet(walk, [graph] * K, starts, rngs, native_pref)
            with pytest.raises(CoverTimeout):
                fleet.run_until_cover("edges", max_steps=budget)
        # Above the hand-off every lane is live when the lockstep budget
        # runs out; below it the per-trial tail runs lane by lane and the
        # first timeout ends the fleet, leaving later lanes' generators
        # where the fleet found them.
        timed_out = K if K > TAIL_LANES else 1
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()
            if k < timed_out:
                ref = REFERENCES[walk](graph, starts[k], twins[k])
                with pytest.raises(CoverTimeout):
                    ref.run_until_edge_cover(max_steps=budget)
            assert n_rngs[k].getstate() == twins[k].getstate()


class TestNativeLoader:
    def test_env_opt_out_disables_without_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert native.load() is None
            assert not native.available()
            assert "REPRO_NATIVE" in native.unavailable_reason()
        finally:
            monkeypatch.undo()
            native._reset_probe_for_testing()

    @native_built
    def test_env_flip_reprobes(self, monkeypatch):
        assert native.available()
        monkeypatch.setenv("REPRO_NATIVE", "off")
        assert not native.available()
        monkeypatch.delenv("REPRO_NATIVE")
        assert native.available()
        assert native.kernel_path() is not None

    def test_missing_extension_falls_back_and_warns_once(self, monkeypatch):
        graph = _graph("irregular")
        # An explicit REPRO_NATIVE=0 suppresses the warning by design;
        # this test simulates a *missing build* under default settings.
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setattr(native, "_find_extension", lambda: None)
        native._reset_probe_for_testing()
        try:
            with pytest.warns(RuntimeWarning, match="native fused kernel unavailable"):
                assert native.load() is None
            # Second probe is silent: the fallback warns once per process.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert native.load() is None
                assert not native.available()

            # Auto preference still runs — on the numpy path — and stays
            # bit-identical to the reference walk.
            K = 3
            starts, rngs, twins = _lanes(graph, K, 7000)
            fleet = FleetVProcess([graph] * K, starts, rngs)
            cover = fleet.run_until_cover("vertices")
            for k in range(K):
                ref = UnvisitedVertexWalk(
                    graph, starts[k], rng=twins[k], track_edges=True
                )
                assert cover[k] == ref.run_until_vertex_cover()
                assert rngs[k].getstate() == twins[k].getstate()

            # An explicit native=True is a hard error, never silent numpy.
            starts, rngs, _ = _lanes(graph, 2, 8000)
            fleet = FleetVProcess([graph] * 2, starts, rngs, native=True)
            with pytest.raises(ReproError, match="fused kernel is unavailable"):
                fleet.run_until_cover("vertices")
        finally:
            monkeypatch.undo()
            native._reset_probe_for_testing()

    @native_built
    def test_abi_mismatch_refused(self, monkeypatch):
        native._reset_probe_for_testing()
        monkeypatch.setattr(native, "ABI_VERSION", 999)
        try:
            with pytest.warns(RuntimeWarning, match="ABI"):
                assert native.load() is None
            assert "ABI" in native.unavailable_reason()
        finally:
            monkeypatch.undo()
            native._reset_probe_for_testing()

    def test_stale_abi_build_refused_by_name(self, tmp_path, monkeypatch):
        # A kernel from before the generator moved into C (ABI 2) reads
        # word rows where this build passes state rows: it must be refused
        # with its path in the reason, never called.
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            pytest.skip("no C compiler to build a stale kernel")
        src = tmp_path / "stale.c"
        src.write_text("long long repro_fused_abi(void) { return 2; }\n")
        stale = tmp_path / "_fused_abi2.so"
        # A sanitizer runtime preloaded into this process must not ride
        # into the compiler (its leak checker would fail the build).
        env = {k: v for k, v in os.environ.items() if k != "LD_PRELOAD"}
        subprocess.run(
            [cc, "-shared", "-fPIC", str(src), "-o", str(stale)], check=True, env=env
        )
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setattr(native, "_find_extension", lambda: str(stale))
        native._reset_probe_for_testing()
        try:
            with pytest.warns(RuntimeWarning, match="ABI 2"):
                assert native.load() is None
            reason = native.unavailable_reason()
            assert str(stale) in reason
            assert f"ABI 2, this build of repro needs {native.ABI_VERSION}" in reason
        finally:
            monkeypatch.undo()
            native._reset_probe_for_testing()

    @native_built
    def test_native_false_skips_kernel(self):
        # native=False must not even probe per-fleet state: the numpy and
        # native fleets share every other code path, so the only visible
        # difference is throughput.  Spot-check the flag plumbs through.
        graph = _graph("irregular")
        starts, rngs, twins = _lanes(graph, 2, 9000)
        fleet = FleetSRW([graph] * 2, starts, rngs, native=False)
        fleet.run_until_cover("vertices")
        assert fleet._native is None
        fleet2 = FleetSRW([graph] * 2, starts, twins, native=None)
        fleet2.run_until_cover("vertices")
        assert fleet2._native is not None


# ---------------------------------------------------------------------------
# Native Steger–Wormald pass vs. the python reference
# ---------------------------------------------------------------------------


class _CountingRandom(random.Random):
    """A plain Mersenne Twister that records every ``randrange`` modulus."""

    def __init__(self, seed):
        super().__init__(seed)
        self.moduli = []

    def randrange(self, start, *args, **kwargs):
        self.moduli.append(start)
        return super().randrange(start, *args, **kwargs)


def _fallback_draws(moduli, n, r):
    """Draws made by the exhaustive fallback, read off the moduli alone.

    Each try draws twice from the pool at one modulus, and the pool
    shrinks after every placement, so 400 equal moduli in a row are 200
    failed tries.  A draw right after them that does not start a new
    pass (modulus ``n*r``) picked from the fallback's suitable pairs.
    """
    count, run = 0, 1
    for prev, q in zip(moduli, moduli[1:]):
        if q == prev:
            run += 1
            continue
        if run >= 400 and q != n * r:
            count += 1
        run = 1
    return count


def _reference_pass(n, r, seed):
    """Python Steger–Wormald attempts until one succeeds, with counts."""
    rng = _CountingRandom(seed)
    dead_ends = 0
    while (edges := rr._steger_wormald_attempt(n, r, rng)) is None:
        dead_ends += 1
    return edges, rng, dead_ends, _fallback_draws(rng.moduli, n, r)


def _flat_incidence(graph):
    """The CSR entries flattened from the eager constructor's own lists."""
    return [entry for row in graph.incidence_table() for entry in row]


#: (n, r, seeds).  n=6, r=4 dead-ends often; the three dense shapes each
#: have a seed whose pass, after dozens of dead ends, places an edge
#: through the exhaustive fallback (complete graphs such as K5 never
#: reach it: no pair of open vertices is ever adjacent there).
SW_CASES = [
    (6, 4, range(12)),
    (22, 20, [25]),
    (25, 22, [53]),
    (30, 27, [48]),
    (5, 4, range(6)),
    (9, 8, range(6)),
    (8, 3, range(12)),
    (41, 6, range(12)),
    (200, 4, range(6)),
    (64, 7, range(6)),
]


@native_built
class TestNativeStegerWormald:
    def _native(self, n, r, seed):
        rng = random.Random(seed)
        kernel = rr._native_kernel(n, r, rng)
        assert kernel is not None
        graph, components = rr._native_regular_graph(kernel, n, r, rng, 10_000, "g")
        return graph, components, rng

    def test_bit_identical_to_python_pass(self):
        dead_ends = {}
        fallbacks = {}
        for n, r, seeds in SW_CASES:
            for seed in seeds:
                graph, components, rng = self._native(n, r, seed)
                edges, ref_rng, dead, fell = _reference_pass(n, r, seed)
                assert graph.edges() == tuple(edges), (n, r, seed)
                assert rng.getstate() == ref_rng.getstate(), (n, r, seed)
                eager = Graph(n, edges)
                offsets, edge_ids, neighbors = graph.csr_arrays()
                assert offsets.tolist() == list(range(0, n * r + 1, r))
                assert list(zip(edge_ids.tolist(), neighbors.tolist())) == (
                    _flat_incidence(eager)
                )
                assert components == len(connected_components(eager))
                dead_ends[n, r] = dead_ends.get((n, r), 0) + dead
                fallbacks[n, r] = fallbacks.get((n, r), 0) + fell
        # The cases really reach the rare paths the kernel must replay.
        assert dead_ends[6, 4] > 0
        assert all(fallbacks[shape] > 0 for shape in [(22, 20), (25, 22), (30, 27)])

    @pytest.mark.parametrize("start", MT_STARTS)
    def test_builds_at_mt_boundaries(self, start):
        # Dead-end restarts (6, 4), the exhaustive fallback (22, 20) and a
        # pass that draws across many twists (2000, 4), each from every
        # state boundary: same edges and the same end state as python.
        for n, r, seed in [(6, 4, 3), (6, 4, 5), (22, 20, 25), (2000, 4, 1)]:
            rng = _positioned(seed, start)
            ref_rng = _positioned(seed, start)
            graph, components = rr._native_regular_graph(
                rr._native_kernel(n, r, rng), n, r, rng, 10_000, "g"
            )
            while (edges := rr._steger_wormald_attempt(n, r, ref_rng)) is None:
                pass
            assert graph.edges() == tuple(edges), (n, r, seed)
            assert components == len(connected_components(Graph(n, edges)))
            assert rng.getstate() == ref_rng.getstate(), (n, r, seed)

    def test_restart_budget_exhaustion_syncs_rng(self):
        # Seeds whose first n=6, r=4 pass dead-ends: with one restart
        # allowed both builders give up, having consumed the same words.
        failing = [s for s in range(40) if _reference_pass(6, 4, s)[2] > 0]
        assert failing
        for seed in failing[:3]:
            states = []
            for env in ("1", "0"):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setenv("REPRO_NATIVE", env)
                    rng = random.Random(seed)
                    with pytest.raises(GenerationError, match="restarts"):
                        random_regular_graph(6, 4, rng, max_restarts=1)
                    states.append(rng.getstate())
            assert states[0] == states[1]

    def test_builder_counters(self, monkeypatch):
        tel = Telemetry()
        with session(tel):
            random_connected_regular_graph(30, 4, random.Random(1))
            monkeypatch.setenv("REPRO_NATIVE", "0")
            random_regular_graph(30, 4, random.Random(1))
            monkeypatch.delenv("REPRO_NATIVE")
            # An rng the word stream cannot transplant stays in python.
            random_regular_graph(30, 4, _OwnRandbelow(1))
        assert tel.counters["graphs.native_builds"] == 1
        assert tel.counters["graphs.python_builds"] == 2

    @pytest.mark.parametrize("native_pref", [True, False])
    def test_fleet_never_builds_graph_tuples(self, native_pref):
        # The array-backed graphs are the gain: a fleet on native-built
        # lanes, straggler hand-off included, must read only the arrays.
        K = 5
        graphs = [random_connected_regular_graph(60, 4, random.Random(k)) for k in range(K)]
        rngs = [random.Random(900 + k) for k in range(K)]
        fleet = FleetEdgeProcess(graphs, [0] * K, rngs, native=native_pref)
        fleet.run_until_cover("vertices")
        assert all(g._edges is None and g._incidence is None for g in graphs)


class _OwnRandbelow(random.Random):
    def _randbelow(self, n):
        return super()._randbelow(n)


#: sha256 of ``repr(graph.edges())`` and the next ``getrandbits(64)`` for
#: ``random_connected_regular_graph(n, 4, random.Random(seed))``, recorded
#: from the python builder before the native pass existed.
PINNED_GRAPHS = [
    (2000, 1, "f367232f9d7b5859af0331de5646ee65f5a55cde09fd9ce0b24b46a5d8b15e7d", 8063559846201904738),
    (2000, 2, "9ec5ed4bcf73dcfa82763ada4737413eacc75be2e6b0db6761324bc70de49ffd", 13053675292181821466),
    (2000, 3, "895ee1e060aa9861d77892b63dc48837fa2095d3fb1666b1e52ddad9478fc32a", 2472614057189410621),
    (8000, 1, "85c375565aaa2b57f0829b8a30bf8a2c7d20b4339cc6dc1fe685d6beef30a692", 16692200287999714541),
    (8000, 2, "a18b8031126d5adfc7955e8b6158e32ee5d6a718999ab9cce9392694fc2595a3", 18248763941143279203),
    (8000, 3, "db0e3ade77b7e2bf45964f97731c1f6cde5b5c033a5b03a94e2d03fe2829e468", 12521568718687747037),
]


@pytest.mark.parametrize("n,seed,digest,next_word", PINNED_GRAPHS)
def test_pinned_connected_regular_graphs(n, seed, digest, next_word):
    # Holds on whichever builder runs: native when built, python under
    # REPRO_NATIVE=0.
    rng = random.Random(seed)
    graph = random_connected_regular_graph(n, 4, rng)
    assert hashlib.sha256(repr(graph.edges()).encode()).hexdigest() == digest
    assert rng.getrandbits(64) == next_word


def test_fallback_warning_names_graph_builds(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    monkeypatch.setattr(native, "_find_extension", lambda: None)
    native._reset_probe_for_testing()
    try:
        with pytest.warns(RuntimeWarning, match="random regular graph builds"):
            assert native.load_sw_regular() is None
    finally:
        monkeypatch.undo()
        native._reset_probe_for_testing()
