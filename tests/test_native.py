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
"""

import random
import warnings

import pytest

from repro.core.eprocess import EdgeProcess
from repro.engine import FleetEdgeProcess, FleetSRW, FleetVProcess, native
from repro.errors import CoverTimeout, ReproError
from repro.graphs.generators import complete_graph, lollipop_graph
from repro.graphs.random_regular import random_connected_regular_graph
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
        # A run long enough to exhaust the 4096-word rows many times over:
        # refills must stay invisible (exact word accounting end to end).
        graph = lollipop_graph(7, 30)
        K = 7
        starts, n_rngs, p_rngs = _lanes(graph, K, 5000)
        nat = FleetSRW([graph] * K, starts, n_rngs, native=True)
        num = FleetSRW([graph] * K, starts, p_rngs, native=False)
        assert nat.run_until_cover("edges") == num.run_until_cover("edges")
        for k in range(K):
            assert n_rngs[k].getstate() == p_rngs[k].getstate()



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
