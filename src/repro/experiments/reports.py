"""Rebuild figures and tables purely from the experiment store.

Once a sweep's trials are persisted, every downstream artifact — Series
for plots, aggregate tables, growth-model fits — is a pure function of the
store: no walk steps, no RNG.  That is the read side of the subsystem:
``repro report`` and the migrated benchmarks call in here and never touch
the engines when the store is warm.

Missing cells are an error, not a silent gap: reports name the incomplete
points and how to fill them (`repro sweep`), because a figure quietly
averaged over fewer trials than specified is worse than no figure.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.experiments.spec import ExperimentSpec, SweepSpec
from repro.experiments.store import ResultStore
from repro.sim.results import Series, SweepPoint
from repro.sim.runner import CoverRun, aggregate_outcomes
from repro.sim.tables import format_table

__all__ = [
    "cover_run_from_store",
    "sweep_runs_from_store",
    "series_from_specs",
    "regular_degree_series",
    "format_sweep_report",
]


def cover_run_from_store(store: ResultStore, spec: ExperimentSpec) -> CoverRun:
    """Aggregate one point's trials from the store alone.

    Raises :class:`ReproError` naming the missing trial cells if the store
    does not hold all ``spec.trials`` of them.
    """
    records = store.trials_for(spec)
    missing = [t for t in range(spec.trials) if t not in records]
    if missing:
        raise ReproError(
            f"store {store.root} is missing trials {missing} of "
            f"{spec.describe()} [{spec.spec_hash}] — run `repro sweep` to fill them"
        )
    outcomes = [records[t].to_outcome() for t in range(spec.trials)]
    return aggregate_outcomes(outcomes)


def sweep_runs_from_store(
    store: ResultStore, sweep: SweepSpec
) -> List[Tuple[ExperimentSpec, CoverRun]]:
    """Every point of a sweep, rebuilt from the store (all must be complete)."""
    return [(spec, cover_run_from_store(store, spec)) for spec in sweep.specs]


def series_from_specs(
    label: str,
    runs: Sequence[Tuple[ExperimentSpec, CoverRun]],
    x_of: Callable[[ExperimentSpec], float],
    normalize_by_x: bool = False,
) -> Series:
    """Fold (spec, run) pairs into one plottable curve.

    ``x_of`` maps a spec to its x-coordinate (typically a family param);
    ``normalize_by_x`` divides the stats by x — the paper's ``C/n`` axes.
    """
    points = []
    for spec, run in runs:
        x = float(x_of(spec))
        stats = run.stats.scaled(1.0 / x) if normalize_by_x else run.stats
        points.append(SweepPoint(x=x, stats=stats))
    points.sort(key=lambda p: p.x)
    return Series(label=label, points=points)


def regular_degree_series(
    runs: Sequence[Tuple[ExperimentSpec, CoverRun]],
    normalize_by_n: bool = True,
    label_format: str = "E d={degree}",
) -> List[Series]:
    """Figure-1-shaped series: group regular-family runs by degree, x = n.

    Non-regular specs in ``runs`` are rejected — this is specifically the
    paper's d-regular grid layout.
    """
    by_degree: Dict[int, List[Tuple[ExperimentSpec, CoverRun]]] = {}
    for spec, run in runs:
        if spec.family != "regular":
            raise ReproError(
                f"regular_degree_series needs 'regular' specs, got {spec.family!r}"
            )
        by_degree.setdefault(spec.params["degree"], []).append((spec, run))
    series = []
    for degree in sorted(by_degree):
        series.append(
            series_from_specs(
                label=label_format.format(degree=degree),
                runs=by_degree[degree],
                x_of=lambda s: s.params["n"],
                normalize_by_x=normalize_by_n,
            )
        )
    return series


def format_sweep_report(
    name: str,
    runs: Sequence[Tuple[ExperimentSpec, CoverRun]],
    title: Optional[str] = None,
) -> str:
    """A full per-point table of sweep ``name``'s ``(spec, run)`` pairs.

    The pairs are the store's aggregates: :func:`sweep_runs_from_store`
    rebuilds them, and a sweep that just ran already holds them (its
    points were aggregated from the store's records and the fresh
    trials), so printing them costs no second read.
    """
    rows = []
    for spec, run in runs:
        inner = ",".join(f"{k}={v}" for k, v in spec.family_params)
        rows.append(
            [
                f"{spec.family}({inner})",
                spec.walk,
                spec.target,
                run.stats.count,
                run.stats.mean,
                run.stats.std,
                run.stats.ci95,
                run.stats.minimum,
                run.stats.maximum,
            ]
        )
    return format_table(
        ["point", "walk", "target", "trials", "mean", "std", "ci95", "min", "max"],
        rows,
        title=title or f"sweep {name!r} (from store)",
    )
