"""Tests for store-backed reports (Series/tables without recomputation)."""

import pytest

from repro.errors import ReproError
from repro.experiments.reports import (
    cover_run_from_store,
    format_sweep_report,
    regular_degree_series,
    series_from_specs,
    sweep_runs_from_store,
)
from repro.experiments.scheduler import run_sweep
from repro.experiments.spec import ExperimentSpec, SweepSpec
from repro.experiments.store import ResultStore


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def _grid_sweep():
    return SweepSpec.regular_grid(
        "grid", sizes=[20, 40], degrees=[3, 4], walk="eprocess", trials=2, root_seed=3
    )


class TestCoverRunFromStore:
    def test_rebuilds_without_running(self, store):
        sweep = _grid_sweep()
        live = run_sweep(sweep, store=store)
        for point in live.points:
            rebuilt = cover_run_from_store(store, point.spec)
            assert rebuilt == point.run

    def test_missing_trials_named(self, store):
        spec = ExperimentSpec("cycle", {"n": 10}, "srw", trials=3, root_seed=1)
        with pytest.raises(ReproError, match=r"missing trials \[0, 1, 2\]"):
            cover_run_from_store(store, spec)

    def test_partially_filled_point_rejected(self, store):
        spec = ExperimentSpec("cycle", {"n": 10}, "srw", trials=2, root_seed=1)
        run_sweep(SweepSpec("one", (spec,)), store=store)
        widened = spec.with_trials(5)
        with pytest.raises(ReproError, match=r"missing trials \[2, 3, 4\]"):
            cover_run_from_store(store, widened)


class TestSeries:
    def test_degree_series_shape(self, store):
        sweep = _grid_sweep()
        run_sweep(sweep, store=store)
        runs = sweep_runs_from_store(store, sweep)
        series = regular_degree_series(runs)
        assert [s.label for s in series] == ["E d=3", "E d=4"]
        for s in series:
            assert s.xs() == [20.0, 40.0]

    def test_normalization_divides_by_x(self, store):
        sweep = _grid_sweep()
        run_sweep(sweep, store=store)
        runs = sweep_runs_from_store(store, sweep)
        raw = regular_degree_series(runs, normalize_by_n=False)
        norm = regular_degree_series(runs, normalize_by_n=True)
        for s_raw, s_norm in zip(raw, norm):
            for p_raw, p_norm in zip(s_raw.points, s_norm.points):
                assert p_norm.stats.mean == pytest.approx(p_raw.stats.mean / p_raw.x)

    def test_degree_series_rejects_other_families(self, store):
        spec = ExperimentSpec("cycle", {"n": 10}, "srw", trials=1, root_seed=1)
        sweep = SweepSpec("c", (spec,))
        run_sweep(sweep, store=store)
        with pytest.raises(ReproError, match="regular"):
            regular_degree_series(sweep_runs_from_store(store, sweep))

    def test_series_from_specs_sorted_by_x(self, store):
        spec_big = ExperimentSpec("cycle", {"n": 30}, "srw", trials=1, root_seed=1)
        spec_small = ExperimentSpec("cycle", {"n": 10}, "srw", trials=1, root_seed=1)
        sweep = SweepSpec("c", (spec_big, spec_small))
        run_sweep(sweep, store=store)
        series = series_from_specs(
            "srw", sweep_runs_from_store(store, sweep), x_of=lambda s: s.params["n"]
        )
        assert series.xs() == [10.0, 30.0]


class TestFormatSweepReport:
    def test_full_table(self, store):
        sweep = _grid_sweep()
        result = run_sweep(sweep, store=store)
        text = format_sweep_report(sweep.name, sweep_runs_from_store(store, sweep))
        assert "sweep 'grid'" in text
        assert "regular(degree=3,n=20)" in text
        assert "eprocess" in text
        # The sweep's own aggregates print the same table, byte for byte.
        pairs = [(p.spec, p.run) for p in result.points]
        assert format_sweep_report(result.name, pairs) == text

    def test_incomplete_store_raises(self, store):
        with pytest.raises(ReproError, match="repro sweep"):
            format_sweep_report("grid", sweep_runs_from_store(store, _grid_sweep()))
