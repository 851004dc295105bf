"""Native fused kernel vs. the numpy stepwise fleets, bit for bit.

The contract: with the C extension loaded, every stepwise fleet block
runs through one fused call that consumes the same Mersenne-Twister
words in the same per-lane order as the numpy kernel — so cover times,
first-visit tables (vertices and edges), red/blue splits, final
positions, and every generator's end-state are identical between runs on
the kernel and runs under ``REPRO_NATIVE=0`` (the one switch to the numpy
path), and both match the per-trial reference walks.

The suite covers every fleet walk (srw / eprocess / vprocess), regular
and irregular lanes (the kernel takes its one cumulative-rank path on
all of them; the numpy side it is checked against takes its packed
bitmask tables, its general path, and its >16-degree regular path),
shared and distinct-graph
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
from repro.errors import CoverTimeout, GenerationError
from repro.graphs import random_regular as rr
from repro.graphs.generators import complete_graph, lollipop_graph
from repro.graphs.graph import Graph
from repro.graphs.properties import connected_components
from repro.graphs.random_regular import random_connected_regular_graph, random_regular_graph
from repro.telemetry import Telemetry, session
from repro.walks.choice import UnvisitedVertexWalk
from repro.walks.srw import SimpleRandomWalk
from tests.kernels import run_on

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
        # 4-regular: the numpy E-/V-process fleets take their packed 2^d
        # bitmask tables; the kernel its cumulative-rank path.
        return random_connected_regular_graph(60, 4, random.Random(7))
    if shape == "bigdegree":
        # 17-regular: regular but past PACKED_DEGREE_MAX, so the numpy
        # E-/V-process fleets run the general candidate scan with d fixed.
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
    return snap


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

        nat = FLEETS[walk]([graph] * K, starts, n_rngs)
        cover_nat = run_on(True, nat, target=target)
        num = FLEETS[walk]([graph] * K, starts, p_rngs)
        cover_num = run_on(False, num, target=target)

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

    @pytest.mark.parametrize("K", range(1, 7))
    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_small_fleets_step_in_the_kernel(self, walk, K):
        # However few lanes a fleet has, they step in the kernel to their
        # cover instants: these suites must not pass without reaching C.
        graph = _graph("irregular")
        starts, rngs, _ = _lanes(graph, K, 7000)
        tel = Telemetry()
        with session(tel):
            run_on(True, FLEETS[walk]([graph] * K, starts, rngs), "vertices")
        assert tel.counters.get("fleet.blocks", 0) >= 1

    @pytest.mark.parametrize("walk", ["eprocess", "vprocess"])
    def test_big_degree_regular_general_path(self, walk):
        # Regular but d > PACKED_DEGREE_MAX: the numpy side's general
        # fixed-degree path (the kernel's one path reads d fixed too).
        graph = _graph("bigdegree")
        K = 7
        starts, n_rngs, p_rngs = _lanes(graph, K, 4000)
        nat = FLEETS[walk]([graph] * K, starts, n_rngs)
        num = FLEETS[walk]([graph] * K, starts, p_rngs)
        assert run_on(True, nat, "edges") == run_on(False, num, "edges")
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
        nat = FLEETS[walk](graphs, starts, n_rngs)
        num = FLEETS[walk](graphs, starts, p_rngs)
        assert run_on(True, nat, "vertices") == run_on(False, num, "vertices")
        assert _snapshot(walk, nat, K) == _snapshot(walk, num, K)
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()

    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_timeout_syncs_rng_like_numpy(self, walk):
        graph = _graph("irregular")
        K = 8
        starts, n_rngs, p_rngs = _lanes(graph, K, 3000)
        budget = 37
        nat = FLEETS[walk]([graph] * K, starts, n_rngs)
        with pytest.raises(CoverTimeout):
            run_on(True, nat, "edges", max_steps=budget)
        num = FLEETS[walk]([graph] * K, starts, p_rngs)
        with pytest.raises(CoverTimeout):
            run_on(False, num, "edges", max_steps=budget)
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()

    @pytest.mark.parametrize("target", ["vertices", "edges"])
    def test_regular_srw_fleet_runs_the_fused_kernel(self, target):
        # Regular SRW lanes share the stepwise driver with every other
        # materialized fleet, so the fused kernel runs them — including a
        # mid-run budget timeout — bit-identical to the numpy path.
        graph = _graph("regular")
        K = 8
        starts, n_rngs, p_rngs = _lanes(graph, K, 6000)
        tel = Telemetry()
        with session(tel):
            nat = FleetSRW([graph] * K, starts, n_rngs)
            cover = nat.run_until_cover(target)
        assert tel.counters["fleet.native_fleets"] == 1
        assert "fleet.numpy_fleets" not in tel.counters
        num = FleetSRW([graph] * K, starts, p_rngs)
        assert run_on(False, num, target) == cover
        assert _snapshot("srw", nat, K) == _snapshot("srw", num, K)
        budget = min(cover) - 1
        for use_native, rngs in ((True, n_rngs), (False, p_rngs)):
            fleet = FleetSRW([graph] * K, starts, rngs)
            with pytest.raises(CoverTimeout):
                run_on(use_native, fleet, target, max_steps=budget)
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()

    def test_word_row_refill_midstream(self):
        # A run long enough to take every lane's generator through many MT
        # twists: the kernel's in-place state must track the numpy path's
        # buffered words (exact word accounting end to end).
        graph = lollipop_graph(7, 30)
        K = 7
        starts, n_rngs, p_rngs = _lanes(graph, K, 5000)
        nat = FleetSRW([graph] * K, starts, n_rngs)
        num = FleetSRW([graph] * K, starts, p_rngs)
        assert run_on(True, nat, "edges") == run_on(False, num, "edges")
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
    @pytest.mark.parametrize("K", [4, 9])
    @pytest.mark.parametrize("target", ["vertices", "edges"])
    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_fleet_matches_numpy_and_reference(self, walk, target, K, start):
        graph = _graph("regular" if K == 9 else "irregular")
        starts = [k % graph.n for k in range(K)]
        n_rngs, p_rngs, twins = _boundary_lanes(K, start, 11_000)
        nat = FLEETS[walk]([graph] * K, starts, n_rngs)
        num = FLEETS[walk]([graph] * K, starts, p_rngs)
        cover = run_on(True, nat, target)
        assert cover == run_on(False, num, target)
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
    @pytest.mark.parametrize("K", [4, 9])
    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_timeout_matches_numpy_and_reference(self, walk, K, start):
        graph = _graph("irregular")
        starts = [k % graph.n for k in range(K)]
        n_rngs, p_rngs, twins = _boundary_lanes(K, start, 12_000)
        budget = graph.m - 4  # a step visits at most one new edge: no lane covers
        for rngs, use_native in ((n_rngs, True), (p_rngs, False)):
            fleet = FLEETS[walk]([graph] * K, starts, rngs)
            with pytest.raises(CoverTimeout):
                run_on(use_native, fleet, "edges", max_steps=budget)
        # Every lane is live when the budget runs out, so every lane's
        # generator is synced to its reference twin's at the budget.
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()
            ref = REFERENCES[walk](graph, starts[k], twins[k])
            with pytest.raises(CoverTimeout):
                ref.run_until_edge_cover(max_steps=budget)
            assert n_rngs[k].getstate() == twins[k].getstate()


class _WordCounting(random.Random):
    """A reference twin that counts the raw words its walk draws
    (every ``getrandbits(k <= 32)`` call reads exactly one)."""

    words = 0

    def getrandbits(self, k):
        self.words += 1
        return super().getrandbits(k)


def _reference_lane(walk, graph, start, rng, target, budget=None):
    """One reference walk to its cover instant (or to ``budget``):
    ``(cover or None, position, vertex fv, edge fv)``."""
    ref = REFERENCES[walk](graph, start, rng)
    run = ref.run_until_vertex_cover if target == "vertices" else ref.run_until_edge_cover
    try:
        cover = run(max_steps=budget)
    except CoverTimeout:
        cover = None
    return cover, ref.current, list(ref.first_visit_time), list(ref.first_edge_visit_time)


def _assert_lanes_match_reference(walk, fleet, twins, graphs, starts, rngs, target):
    """Every lane of a finished fleet against its reference walk: cover
    step, position, first-visit tables and generator end state."""
    for k, graph in enumerate(graphs):
        cover, pos, fv, fe = _reference_lane(walk, graph, starts[k], twins[k], target)
        assert fleet.cover_steps[k] == cover
        assert fleet.positions[k] == pos
        if walk == "srw":
            assert fleet.first_visit_time(k) == (fv if target == "vertices" else fe)
        else:
            assert fleet.first_visit_time(k) == fv
            assert fleet.first_edge_visit_time(k) == fe
        if walk == "eprocess":
            blue = sum(1 for t in fe if t > 0)
            assert (fleet.blue_steps[k], fleet.red_steps[k]) == (blue, cover - blue)
        assert rngs[k].getstate() == twins[k].getstate()


@native_built
class TestMidBlockRetirement:
    """The kernel retires lanes inside a block and steps the rest on.

    A retired lane draws no more words, so its position, tables and
    generator stay at its cover instant; the driver syncs and compacts
    retired lanes once per block.  The fleets below have the shapes of
    the two benchmark workloads: 128 lanes of one tiny implicit
    hypercube, and 16 distinct fresh 4-regular graphs.
    """

    @pytest.mark.parametrize("target", ["vertices", "edges"])
    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_shared_hypercube_fleet_matches_reference(self, walk, target):
        from repro.engine.fleet import DEFAULT_BLOCK_STEPS
        from repro.graphs import ImplicitHypercube

        graph = ImplicitHypercube(6)
        twin_graph = graph.materialize()
        K = 128
        starts = [random.Random(100 + k).randrange(graph.n) for k in range(K)]
        rngs = [random.Random(21_000 + k) for k in range(K)]
        twins = [random.Random(21_000 + k) for k in range(K)]
        fleet = FLEETS[walk]([graph] * K, starts, rngs)
        tel = Telemetry()
        with session(tel):
            cover = run_on(True, fleet, target)
        _assert_lanes_match_reference(walk, fleet, twins, [twin_graph] * K, starts, rngs, target)
        # One C call per block: the last block ends at the last cover.
        assert tel.counters["fleet.blocks"] == -(-max(cover) // DEFAULT_BLOCK_STEPS)
        assert tel.counters["fleet.lane_retirements"] == K

    @pytest.mark.parametrize("target", ["vertices", "edges"])
    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_distinct_fresh_graph_fleet_matches_reference(self, walk, target):
        from repro.engine.fleet import DEFAULT_BLOCK_STEPS

        K = 16
        graphs = [
            random_connected_regular_graph(2000, 4, random.Random(31_000 + k))
            for k in range(K)
        ]
        starts = [random.Random(200 + k).randrange(2000) for k in range(K)]
        rngs = [random.Random(32_000 + k) for k in range(K)]
        twins = [random.Random(32_000 + k) for k in range(K)]
        fleet = FLEETS[walk](graphs, starts, rngs)
        tel = Telemetry()
        with session(tel):
            cover = run_on(True, fleet, target)
        # Covers span several blocks, so lanes retire inside later ones.
        assert min(cover) // DEFAULT_BLOCK_STEPS < max(cover) // DEFAULT_BLOCK_STEPS
        _assert_lanes_match_reference(walk, fleet, twins, graphs, starts, rngs, target)
        assert tel.counters["fleet.blocks"] == -(-max(cover) // DEFAULT_BLOCK_STEPS)

    @pytest.mark.parametrize("use_native", [True, False])
    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_budget_runs_out_after_some_lanes_retired(self, walk, use_native):
        # The budget ends inside the block where the early lanes covered:
        # those keep their covers, the rest time out with their generators
        # at the budget, and the words counted are the reference walks'.
        graph = _graph("irregular")
        K = 16
        starts = [random.Random(300 + k).randrange(graph.n) for k in range(K)]
        covers = sorted(
            _reference_lane(walk, graph, starts[k], random.Random(41_000 + k), "edges")[0]
            for k in range(K)
        )
        budget = covers[K // 2]
        rngs = [random.Random(41_000 + k) for k in range(K)]
        twins = [_WordCounting(41_000 + k) for k in range(K)]
        fleet = FLEETS[walk]([graph] * K, starts, rngs)
        tel = Telemetry()
        with session(tel):
            with pytest.raises(CoverTimeout):
                run_on(use_native, fleet, "edges", max_steps=budget)
        expected = [
            _reference_lane(walk, graph, starts[k], twins[k], "edges", budget)[0]
            for k in range(K)
        ]
        assert 0 < expected.count(None) < K
        assert fleet.cover_steps == expected
        for k in range(K):
            assert rngs[k].getstate() == twins[k].getstate()
        assert tel.counters["fleet.words_consumed"] == sum(t.words for t in twins)
        assert tel.counters["fleet.lane_steps"] == sum(
            budget if c is None else c for c in expected
        )

    @pytest.mark.parametrize("use_native", [True, False])
    def test_eprocess_edge_lanes_retire_before_all_vertices_seen(self, use_native):
        # Early lanes cover every edge while slow lanes still miss
        # vertices, so the fleet-wide "all vertex sets complete" shortcut
        # is off when they retire; the live lanes keep stamping vertices.
        graph = _graph("irregular")
        K = 16
        starts = [random.Random(100 + k).randrange(graph.n) for k in range(K)]
        vertex_covers = [
            _reference_lane("eprocess", graph, starts[k], random.Random(9000 + k), "vertices")[0]
            for k in range(K)
        ]
        rngs = [random.Random(9000 + k) for k in range(K)]
        twins = [random.Random(9000 + k) for k in range(K)]
        fleet = FleetEdgeProcess([graph] * K, starts, rngs)
        cover = run_on(use_native, fleet, "edges")
        assert min(cover) < max(vertex_covers)
        _assert_lanes_match_reference("eprocess", fleet, twins, [graph] * K, starts, rngs, "edges")

    @pytest.mark.parametrize("walk", sorted(FLEETS))
    def test_one_block_when_every_lane_covers_within_it(self, walk):
        from repro.engine.fleet import DEFAULT_BLOCK_STEPS
        from repro.graphs import ImplicitHypercube

        graph = ImplicitHypercube(6)
        K = 128
        counters = {}
        for use_native in (True, False):
            rngs = [random.Random(51_000 + k) for k in range(K)]
            tel = Telemetry()
            with session(tel):
                cover = run_on(use_native, FLEETS[walk]([graph] * K, [0] * K, rngs), "vertices")
            counters[use_native] = tel.counters
        assert max(cover) <= DEFAULT_BLOCK_STEPS
        native_counts = counters[True]
        assert native_counts["fleet.blocks"] == native_counts["fleet.compactions"] == 1
        assert native_counts["fleet.lane_retirements"] == K
        # The numpy path still ends a block at each distinct cover instant.
        assert counters[False]["fleet.blocks"] == len(set(cover))


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

            # Fleets still run — on the numpy path — and stay
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
            assert fleet._native is None
        finally:
            monkeypatch.undo()
            native._reset_probe_for_testing()

    def test_abi_stamps_agree(self):
        # The loader's stamp and the kernel source's are bumped together.
        source = os.path.join(os.path.dirname(native.__file__), "_fused.c")
        with open(source) as handle:
            assert f"#define REPRO_FUSED_ABI {native.ABI_VERSION}\n" in handle.read()

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
        # word rows where this build passes state rows, and one from before
        # the phase-recording slots went (ABI 4) reads the covered flags
        # from a slot this build no longer fills: each must be refused
        # with its path in the reason, never called.
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            pytest.skip("no C compiler to build a stale kernel")
        # A sanitizer runtime preloaded into this process must not ride
        # into the compiler (its leak checker would fail the build).
        env = {k: v for k, v in os.environ.items() if k != "LD_PRELOAD"}
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        try:
            for abi in (2, 4):
                src = tmp_path / f"stale{abi}.c"
                src.write_text(f"long long repro_fused_abi(void) {{ return {abi}; }}\n")
                stale = tmp_path / f"_fused_abi{abi}.so"
                subprocess.run(
                    [cc, "-shared", "-fPIC", str(src), "-o", str(stale)],
                    check=True,
                    env=env,
                )
                monkeypatch.setattr(native, "_find_extension", lambda: str(stale))
                native._reset_probe_for_testing()
                with pytest.warns(RuntimeWarning, match=f"ABI {abi}"):
                    assert native.load() is None
                reason = native.unavailable_reason()
                assert str(stale) in reason
                assert f"ABI {abi}, this build of repro needs {native.ABI_VERSION}" in reason
        finally:
            monkeypatch.undo()
            native._reset_probe_for_testing()


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

    @pytest.mark.parametrize("use_native", [True, False])
    def test_fleet_never_builds_graph_tuples(self, use_native):
        # The array-backed graphs are the gain: a fleet on native-built
        # lanes, run to its last lane's cover, must read only the arrays.
        K = 5
        graphs = [random_connected_regular_graph(60, 4, random.Random(k)) for k in range(K)]
        rngs = [random.Random(900 + k) for k in range(K)]
        fleet = FleetEdgeProcess(graphs, [0] * K, rngs)
        run_on(use_native, fleet, "vertices")
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
