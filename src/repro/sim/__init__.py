"""Simulation harness: seeds, trials, aggregation, fitting, rendering.

Names load their defining module on first use (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "blanket": ("blanket_time", "time_to_visit_counts"),
        "plot": ("ascii_plot",),
        "profiles": ("ExplorationProfile", "ProfilePoint", "record_profile"),
        "rng": ("DEFAULT_ROOT_SEED", "child_seed", "seed_sequence", "spawn"),
        "results": (
            "Aggregate",
            "Series",
            "SweepPoint",
            "aggregate",
            "series_from_json",
            "series_to_json",
        ),
        "outcomes": ("CoverRun",),
        "runner": ("cover_time_trials", "sweep"),
        "policy": ("ExecutionPolicy",),
        "fitting": (
            "FitResult",
            "NormalizedProfile",
            "fit_linear",
            "fit_nlogn",
            "fit_normalized_profile",
            "fit_through_origin",
            "select_growth_model",
        ),
        "tables": ("format_kv_block", "format_series_table", "format_table"),
    },
)
