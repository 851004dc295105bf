"""Every metric the ledger reports, with its unit and direction.

``BENCHMARK.json`` at the repository root mirrors these tables; the
ledger's own checks assert that the two agree.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: Optional[float] = None  # end-to-end only: allowed worsening share


#: Measured untraced, one value per workload run (see ``run._end_to_end``).
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("trials_per_s", "1/s", "higher", 0.25),
    Metric("steps_per_s", "1/s", "higher", 0.25),
    Metric("warm_s", "s", "lower", 0.25),
    Metric("cpu_ms_per_trial", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

#: Measured in the separate traced run.
PER_LAYER = (
    Metric("graphs.build_s", "s", "lower"),
    Metric("graphs.builds", "count", "lower"),
    Metric("graphs.build_ms", "ms", "lower"),
    Metric("engine.fleet_init_s", "s", "lower"),
    Metric("engine.run_s", "s", "lower"),
    Metric("engine.lane_steps_per_s", "1/s", "higher"),
    Metric("engine.fleets", "count", "lower"),
    Metric("engine.words_used_frac", "ratio", "higher"),
    Metric("fleet.blocks", "count", "lower"),
    Metric("fleet.lane_retirements", "count", "lower"),
    Metric("fleet.compactions", "count", "lower"),
    Metric("fleet.tail_lanes", "count", "lower"),
    Metric("wordbank.refills", "count", "lower"),
    Metric("fleet.native_fleets", "count", "higher"),
    Metric("fleet.numpy_fleets", "count", "lower"),
    Metric("fleet.block_fleets", "count", "lower"),
    Metric("fleet.oracle_fleets", "count", "lower"),
    Metric("telemetry.dropped_trials_frac", "ratio", "lower"),
    Metric("runner.run_trials_s", "s", "lower"),
    Metric("runner.self_s", "s", "lower"),
    Metric("runner.batches", "count", "lower"),
    Metric("runner.pool_starts", "count", "lower"),
    Metric("runner.worker_util", "ratio", "higher"),
    Metric("store.append_s", "s", "lower"),
    Metric("store.appends", "count", "lower"),
    Metric("store.append_us", "us", "lower"),
    Metric("store.read_s", "s", "lower"),
    Metric("store.records_read", "count", "lower"),
    Metric("store.lock_waits", "count", "lower"),
    Metric("scheduler.self_s", "s", "lower"),
    Metric("reports.format_s", "s", "lower"),
    Metric("cli.import_s", "s", "lower"),
    Metric("cli.self_s", "s", "lower"),
    Metric("python.start_s", "s", "lower"),
    Metric("python.exit_s", "s", "lower"),
    Metric("trace.overhead_frac", "ratio", "lower"),
    Metric("trace.unaccounted_frac", "ratio", "lower"),
    Metric("telemetry.overhead_frac", "ratio", "lower"),
)

ALL = {m.name: m for m in END_TO_END + PER_LAYER}
