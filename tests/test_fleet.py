"""Fleet stepping: lockstep many-trial SRW vs. sequential walks.

Two layers under test:

* :class:`repro.engine.fleet.FleetSRW` directly — every lane's cover
  time, final position, first-visit table, and generator end-state must
  equal a sequential :class:`~repro.walks.srw.SimpleRandomWalk` run of
  the same seed, for every fleet size and both cover targets;
* the runner surface — ``cover_time_trials(engine="fleet")`` must be
  bit-identical to ``engine="reference"`` for every worker count and
  fleet size, raise :class:`ReproError` naming the offending lane when a
  batch is fleet-ineligible, and share store buckets across engine
  switches.

The E-/V-process fleets have their own parity suite in
``tests/test_fleet_unvisited.py``.
"""

import random

import pytest

from repro.engine import DEFAULT_FLEET_SIZE, FLEET_ENGINES, FleetSRW, resolve_walk_factory
from repro.engine.fleet import FleetUnsupported
from repro.errors import CoverTimeout, GraphError, ReproError
from repro.graphs.generators import cycle_graph, path_graph
from repro.graphs.graph import Graph
from repro.graphs.random_regular import random_connected_regular_graph
from repro.sim.policy import ExecutionPolicy
from repro.sim.runner import cover_time_trials, run_trials
from repro.walks.srw import SimpleRandomWalk

FLEET_SIZES = [1, 2, 7, 32]


def _regular(n=200, d=4, seed=7):
    return random_connected_regular_graph(n, d, random.Random(seed))


class TestFleetSRWParity:
    @pytest.mark.parametrize("K", FLEET_SIZES)
    @pytest.mark.parametrize("target", ["vertices", "edges"])
    def test_shared_graph_lanes_match_sequential_walks(self, K, target):
        graph = _regular()
        starts = [random.Random(100 + k).randrange(graph.n) for k in range(K)]
        rngs = [random.Random(1000 + k) for k in range(K)]
        twins = [random.Random(1000 + k) for k in range(K)]
        fleet = FleetSRW([graph] * K, starts, rngs)
        cover = fleet.run_until_cover(target=target)
        for k in range(K):
            walk = SimpleRandomWalk(graph, starts[k], rng=twins[k], track_edges=True)
            expected = (
                walk.run_until_vertex_cover()
                if target == "vertices"
                else walk.run_until_edge_cover()
            )
            assert cover[k] == expected
            assert rngs[k].getstate() == twins[k].getstate()
            assert fleet.positions[k] == walk.current
            reference_fv = (
                walk.first_visit_time
                if target == "vertices"
                else walk.first_edge_visit_time
            )
            assert fleet.first_visit_time(k) == list(reference_fv)

    def test_distinct_same_shape_graphs_per_lane(self):
        # The factory-workload shape: a fresh random regular graph per
        # trial, all same (n, d) — lanes' incidence rows are tiled side
        # by side.
        K = 7
        graphs = [random_connected_regular_graph(80, 4, random.Random(50 + k)) for k in range(K)]
        starts = [k % 80 for k in range(K)]
        rngs = [random.Random(2000 + k) for k in range(K)]
        twins = [random.Random(2000 + k) for k in range(K)]
        fleet = FleetSRW(graphs, starts, rngs)
        cover = fleet.run_until_cover("vertices")
        for k in range(K):
            walk = SimpleRandomWalk(graphs[k], starts[k], rng=twins[k], track_edges=True)
            assert cover[k] == walk.run_until_vertex_cover()
            assert rngs[k].getstate() == twins[k].getstate()

    @pytest.mark.parametrize("target", ["vertices", "edges"])
    def test_regular_multigraph_rows(self, target):
        # A loop fills two incidence slots and parallel edges repeat a
        # neighbour; the SRW draws over slots, so both weigh twice.
        n = 14
        edges = [(v, (v + 1) % n) for v in range(n)] + [(v, v) for v in range(n)]
        edges += [(v, v + 1) for v in range(0, n, 2)]
        graph = Graph(n, edges)
        assert graph.is_regular() and graph.degrees()[0] == 5
        K = 9
        rngs = [random.Random(70 + k) for k in range(K)]
        twins = [random.Random(70 + k) for k in range(K)]
        fleet = FleetSRW([graph] * K, [k % n for k in range(K)], rngs)
        cover = fleet.run_until_cover(target)
        for k in range(K):
            walk = SimpleRandomWalk(graph, k % n, rng=twins[k], track_edges=True)
            run = walk.run_until_vertex_cover if target == "vertices" else walk.run_until_edge_cover
            assert cover[k] == run()
            assert rngs[k].getstate() == twins[k].getstate()

    def test_odd_degree_modulus(self):
        graph = _regular(n=90, d=3, seed=2)
        rng, twin = random.Random(4), random.Random(4)
        fleet = FleetSRW([graph], [0], [rng])
        walk = SimpleRandomWalk(graph, 0, rng=twin)
        assert fleet.run_until_cover("vertices") == [walk.run_until_vertex_cover()]
        assert rng.getstate() == twin.getstate()

    def test_trivial_graph_covers_at_zero_without_rng(self):
        rng = random.Random(5)
        before = rng.getstate()
        fleet = FleetSRW([Graph(1, [])], [0], [rng])
        assert fleet.run_until_cover("vertices") == [0]
        assert rng.getstate() == before

    def test_budget_timeout_raises(self):
        fleet = FleetSRW(
            [cycle_graph(40)] * 2, [0, 0], [random.Random(3), random.Random(4)]
        )
        with pytest.raises(CoverTimeout):
            fleet.run_until_cover("vertices", max_steps=25)

    def test_timeout_syncs_finished_and_timed_out_lanes(self):
        # Lane 0 covers inside the budget and lane 1 does not: the finished
        # lane keeps its cover-instant generator, and the timed-out lane's
        # generator is synced to its reference twin's at the budget.
        from repro.graphs.generators import lollipop_graph

        graph = lollipop_graph(5, 12)
        budget = 1075
        rngs = [random.Random(33), random.Random(21)]
        twins = [random.Random(33), random.Random(21)]
        fleet = FleetSRW([graph, graph], [0, 0], rngs)
        with pytest.raises(CoverTimeout):
            fleet.run_until_cover("vertices", max_steps=budget)
        walk = SimpleRandomWalk(graph, 0, rng=twins[0], track_edges=True)
        assert walk.run_until_vertex_cover() <= budget  # lane 0 did finish
        assert rngs[0].getstate() == twins[0].getstate()
        walk = SimpleRandomWalk(graph, 0, rng=twins[1], track_edges=True)
        with pytest.raises(CoverTimeout):
            walk.run_until_vertex_cover(max_steps=budget)
        assert rngs[1].getstate() == twins[1].getstate()


def _refusal(walk, graphs, rngs, labels=None):
    """The :class:`FleetUnsupported` reason constructing ``walk``'s fleet raises."""
    with pytest.raises(FleetUnsupported) as info:
        FLEET_ENGINES[walk](graphs, [0] * len(graphs), rngs, labels=labels)
    return info.value.reason


class TestFleetEligibility:
    def test_irregular_graph_supported(self):
        # Irregular lanes fleet since the per-degree word-role prefilter:
        # the stepwise kernel handles state-dependent draw moduli.
        rng, twin = random.Random(0), random.Random(0)
        fleet = FleetSRW([path_graph(5)], [0], [rng])
        walk = SimpleRandomWalk(path_graph(5), 0, rng=twin)
        assert fleet.run_until_cover() == [walk.run_until_vertex_cover()]

    def test_unknown_walk_unsupported(self):
        # FLEET_ENGINES is the one record of which walks can fleet.
        assert "rotor" not in FLEET_ENGINES
        with pytest.raises(ReproError, match="no 'fleet' engine"):
            resolve_walk_factory("rotor", "fleet")

    def test_eprocess_rejects_self_loops(self):
        looped = Graph(3, [(0, 0), (0, 1), (1, 2)])  # same (n, m) as C_3
        reason = _refusal(
            "eprocess", [cycle_graph(3), looped], [random.Random(0), random.Random(1)]
        )
        assert "lane 1" in reason and "self-loops" in reason

    def test_vprocess_rejects_parallel_edges(self):
        multi = Graph(3, [(0, 1), (0, 1), (1, 2)])
        reason = _refusal("vprocess", [multi], [random.Random(0)])
        assert "lane 0" in reason and "simple" in reason

    def test_labels_name_the_offending_trial(self):
        reason = _refusal(
            "srw",
            [cycle_graph(10), cycle_graph(12)],
            [random.Random(0), random.Random(1)],
            labels=[17, 23],
        )
        assert "lane 1 (trial 23)" in reason

    def test_mixed_shapes_unsupported(self):
        reason = _refusal(
            "srw", [cycle_graph(10), cycle_graph(12)], [random.Random(0), random.Random(1)]
        )
        assert "shape" in reason

    def test_shared_rng_instance_unsupported(self):
        # One generator driving two lanes would correlate the "independent"
        # trials and double-sync its end state; must be an explicit error.
        rng = random.Random(1)
        reason = _refusal("srw", [cycle_graph(10)] * 2, [rng, rng])
        assert "share" in reason

    @pytest.mark.parametrize("seed", [True, -1, 2**64])
    def test_bad_seed_lane_refused_naming_lane_and_trial(self, seed):
        # An int lane is a seed in [0, 2^64); a bool is no seed at all.
        reason = _refusal("srw", [cycle_graph(10)] * 2, [5, seed], labels=[40, 41])
        assert "lane 1 (trial 41)" in reason
        assert "[0, 2^64)" in reason

    def test_equal_seeds_are_separate_generators(self):
        # Unlike one shared random.Random, equal seeds stand for two
        # generators of their own: the lanes replay the same walk.
        graph = cycle_graph(10)
        fleet = FleetSRW([graph] * 3, [0, 0, 0], [2**64 - 1, 2**64 - 1, 0])
        cover = fleet.run_until_cover()
        walk = SimpleRandomWalk(graph, 0, rng=random.Random(2**64 - 1))
        assert cover[0] == cover[1] == walk.run_until_vertex_cover()

    def test_exotic_rng_unsupported(self):
        class Custom(random.Random):
            def random(self):
                return 0.5

        reason = _refusal("srw", [cycle_graph(10)], [Custom(1)])
        assert "Mersenne" in reason

    @pytest.mark.parametrize("method", ["_randbelow", "getrandbits", "getstate", "setstate"])
    def test_rng_overriding_a_transplanted_method_unsupported(self, method):
        # Eligibility is decided by method identity: even an override that
        # only delegates is refused, since its words or state might differ.
        inherited = getattr(random.Random, method)
        Custom = type("Custom", (random.Random,), {method: lambda self, *a: inherited(self, *a)})
        reason = _refusal("srw", [cycle_graph(10)], [Custom(1)])
        assert "Mersenne" in reason

    def test_constructor_validates_starts(self):
        with pytest.raises(GraphError):
            FleetSRW([cycle_graph(10)], [99], [random.Random(0)])


class TestFleetRunnerSurface:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fleet_size", FLEET_SIZES)
    def test_bit_identical_to_reference(self, workers, fleet_size):
        from repro.experiments.spec import family_workload

        workload = family_workload("regular", {"n": 80, "degree": 4})
        reference = cover_time_trials(
            workload, "srw", trials=9, root_seed=42
        )
        fleet = cover_time_trials(
            workload,
            "srw",
            trials=9,
            root_seed=42,
            policy=ExecutionPolicy(engine="fleet", workers=workers, fleet_size=fleet_size),
        )
        assert fleet.cover_times == reference.cover_times

    def test_edges_target_fixed_graph(self):
        graph = _regular(n=60)
        reference = cover_time_trials(
            graph, "srw", trials=6, root_seed=7, target="edges"
        )
        fleet = cover_time_trials(
            graph, "srw", trials=6, root_seed=7, target="edges",
            policy=ExecutionPolicy(engine="fleet", fleet_size=4),
        )
        assert fleet.cover_times == reference.cover_times

    def test_irregular_graph_runs_stepwise_kernel(self):
        # Irregular graphs fleet too (per-degree word prefilters) — no
        # fallback, same numbers.
        graph = path_graph(12)
        reference = cover_time_trials(graph, "srw", trials=4, root_seed=3)
        fleet = cover_time_trials(
            graph, "srw", trials=4, root_seed=3, policy=ExecutionPolicy(engine="fleet")
        )
        assert fleet.cover_times == reference.cover_times

    def test_srw_batches_run_per_trial_without_native_kernel(self, monkeypatch):
        # Without the fused kernel, SRW batches on materialized graphs run
        # on per-trial ArraySRW (faster than the numpy SRW fleet).
        from repro.engine import native
        from repro.telemetry import Telemetry, session

        monkeypatch.setattr(native, "available", lambda: False)
        graph = _regular(n=60)
        reference = cover_time_trials(graph, "srw", trials=6, root_seed=5)
        tel = Telemetry()
        with session(tel):
            run = cover_time_trials(
                graph, "srw", trials=6, root_seed=5,
                policy=ExecutionPolicy(engine="fleet", fleet_size=3),
            )
        assert run.cover_times == reference.cover_times
        assert tel.counters["runner.srw_array_batches"] == 2
        assert "fleet.fleets" not in tel.counters

    def test_ineligible_batch_raises_naming_lane_and_trial(self):
        # A workload factory whose graphs disagree on (n, m) cannot fleet;
        # the error carries the fleet's refusal reason, which names the
        # offending lane and its trial id.
        def varying(rng):
            return cycle_graph(10 + rng.randrange(3))

        with pytest.raises(ReproError, match=r"lane \d+ \(trial \d+\).*shape"):
            cover_time_trials(
                varying, "srw", trials=6, root_seed=1,
                policy=ExecutionPolicy(engine="fleet"),
            )

    def test_budget_timeout_names_the_trial(self):
        # The runner hands the fleet its trial ids as lane labels, so a
        # budget timeout names the trial, not the lane index.
        with pytest.raises(CoverTimeout, match="fleet lane 5 did not cover"):
            run_trials(
                cycle_graph(20), "eprocess", [5, 9], root_seed=1, max_steps=3,
                policy=ExecutionPolicy(engine="fleet"),
            )

    def test_fleet_rejects_walks_without_fleet_engine(self):
        with pytest.raises(ReproError, match="'fleet' engine"):
            cover_time_trials(
                cycle_graph(10), "rotor", trials=2, root_seed=1,
                policy=ExecutionPolicy(engine="fleet"),
            )

    def test_fleet_rejects_extra_metrics(self):
        with pytest.raises(ReproError, match="extra_metrics"):
            cover_time_trials(
                cycle_graph(10),
                "srw",
                trials=2,
                root_seed=1,
                policy=ExecutionPolicy(engine="fleet"),
                extra_metrics=lambda walk: {"steps": walk.steps},
            )

    def test_default_fleet_size_sane(self):
        assert DEFAULT_FLEET_SIZE >= 1


class TestFleetStoreIntegration:
    def test_engine_switch_schedules_zero_trials(self, tmp_path):
        from repro.experiments import ResultStore, SweepSpec, run_sweep

        store = ResultStore(tmp_path / "store")
        sweep = SweepSpec.regular_grid(
            "fleet-switch", sizes=[40], degrees=[4], walk="srw", trials=4, root_seed=9
        )
        cold = run_sweep(sweep, store=store)
        assert (cold.scheduled, cold.cached) == (4, 0)
        warm = run_sweep(sweep, store=store, policy=ExecutionPolicy(engine="fleet"))
        assert (warm.scheduled, warm.cached) == (0, 4)
        assert warm.points[0].run.cover_times == cold.points[0].run.cover_times

    def test_fleet_topup_matches_reference_cold_run(self, tmp_path):
        from repro.experiments import ResultStore, SweepSpec, run_sweep

        store = ResultStore(tmp_path / "store")
        base = SweepSpec.regular_grid(
            "topup", sizes=[40], degrees=[4], walk="srw", trials=3, root_seed=9
        )
        run_sweep(base, store=store)
        topped = SweepSpec.regular_grid(
            "topup", sizes=[40], degrees=[4], walk="srw", trials=8, root_seed=9
        )
        up = run_sweep(
            topped, store=store, policy=ExecutionPolicy(engine="fleet", fleet_size=2)
        )
        assert (up.scheduled, up.cached) == (5, 3)
        cold_store = ResultStore(tmp_path / "cold")
        cold = run_sweep(
            SweepSpec.regular_grid(
                "topup", sizes=[40], degrees=[4], walk="srw", trials=8, root_seed=9
            ),
            store=cold_store,
        )
        assert up.points[0].run.cover_times == cold.points[0].run.cover_times
