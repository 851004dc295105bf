"""Simulation harness: seeds, trials, aggregation, fitting, rendering."""

from repro.sim.blanket import blanket_time, time_to_visit_counts
from repro.sim.fitting import (
    FitResult,
    NormalizedProfile,
    fit_linear,
    fit_nlogn,
    fit_normalized_profile,
    fit_through_origin,
    select_growth_model,
)
from repro.sim.results import (
    Aggregate,
    Series,
    SweepPoint,
    aggregate,
    series_from_json,
    series_to_json,
)
from repro.sim.plot import ascii_plot
from repro.sim.profiles import ExplorationProfile, ProfilePoint, record_profile
from repro.sim.rng import DEFAULT_ROOT_SEED, child_seed, seed_sequence, spawn
from repro.sim.policy import ExecutionPolicy
from repro.sim.runner import CoverRun, cover_time_trials, sweep
from repro.sim.tables import format_kv_block, format_series_table, format_table

__all__ = [
    "blanket_time",
    "time_to_visit_counts",
    "ascii_plot",
    "ExplorationProfile",
    "ProfilePoint",
    "record_profile",
    "DEFAULT_ROOT_SEED",
    "child_seed",
    "seed_sequence",
    "spawn",
    "Aggregate",
    "Series",
    "SweepPoint",
    "aggregate",
    "series_from_json",
    "series_to_json",
    "CoverRun",
    "ExecutionPolicy",
    "cover_time_trials",
    "sweep",
    "FitResult",
    "NormalizedProfile",
    "fit_linear",
    "fit_nlogn",
    "fit_normalized_profile",
    "fit_through_origin",
    "select_growth_model",
    "format_kv_block",
    "format_series_table",
    "format_table",
]
