"""Per-layer metrics from the spans a traced run wrote (see ``tracer.py``).

A span's *self time* is its duration minus the part of it that its child
spans cover.  Children are found by nesting within one process; the
runner's spans also count the pool workers' spans as children, since the
runner only waits while workers compute.  ``trace.unaccounted_frac`` is
the share of each command's wall time covered by no span at all, counting
interpreter start (spawn to the tracer's first line) and exit (CLI return
to process reaped) as spans of their own.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, float]

#: Engine counters taken from the CLI's own ``--telemetry`` manifest.
MANIFEST_COUNTERS = (
    "fleet.blocks",
    "fleet.lane_retirements",
    "fleet.compactions",
    "fleet.tail_lanes",
    "wordbank.refills",
    "fleet.native_fleets",
    "fleet.numpy_fleets",
    "fleet.block_fleets",
    "fleet.oracle_fleets",
    "store.lock_waits",
)

_TRIAL_WORK = ("graphs.build", "engine.fleet_init", "engine.run")


@dataclass
class TracedCommand:
    """One CLI command run under the tracer."""

    spawned: float
    reaped: float
    spans_dir: Path
    manifest: Optional[dict]
    fresh_trials: int  # trials the command computed (0 when served warm)
    workers: int


def union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _clip(spans, lo: float, hi: float):
    return [(max(s[1], lo), min(s[2], hi)) for s in spans if s[2] > lo and s[1] < hi]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of each span of one process (spans nest, never overlap)."""
    order = sorted(range(len(spans)), key=lambda i: (spans[i][1], -spans[i][2]))
    child = [0.0] * len(spans)
    stack: List[int] = []
    for i in order:
        start, end = spans[i][1], spans[i][2]
        while stack and spans[stack[-1]][2] <= start:
            stack.pop()
        if stack:
            child[stack[-1]] += end - start
        stack.append(i)
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def load(spans_dir: Path) -> Tuple[Dict[int, List[Span]], dict]:
    """Spans by pid, and the main process's entry/exit record."""
    by_pid: Dict[int, List[Span]] = {}
    process: dict = {}
    for path in sorted(spans_dir.glob("*.jsonl")):
        spans = []
        for line in path.read_text().splitlines():
            item = json.loads(line)
            if isinstance(item, dict):
                process = item
            else:
                spans.append(tuple(item))
        by_pid[int(path.stem)] = spans
    return by_pid, process


def layer_metrics(commands: Sequence[TracedCommand]) -> Dict[str, float]:
    busy: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    value: Dict[str, float] = defaultdict(float)
    counters: Dict[str, int] = defaultdict(int)
    wall = covered = start_s = exit_s = runner_self = worker_busy = 0.0
    worker_capacity = 0.0
    fresh = 0
    for cmd in commands:
        by_pid, process = load(cmd.spans_dir)
        if not process:
            continue  # the command died before the CLI returned; its round failed
        main_pid = next(p for p, spans in by_pid.items() if any(s[0] == "cli.main" for s in spans))
        everything: List[Span] = []
        for pid, spans in by_pid.items():
            everything += spans
            for span, self_s in zip(spans, self_times(spans)):
                name = span[0]
                busy[name] += span[2] - span[1]
                own[name] += self_s
                count[name] += 1
                value[name] += span[3]
        main_spans = by_pid[main_pid]
        worker_spans = [s for pid, spans in by_pid.items() if pid != main_pid for s in spans]
        run_spans = [s for s in main_spans if s[0] == "runner.run_trials"]
        for r in run_spans:
            nested = [s for s in main_spans if s is not r and s[1] >= r[1] and s[2] <= r[2]]
            runner_self += (r[2] - r[1]) - union_length(_clip(nested + worker_spans, r[1], r[2]))
            worker_capacity += cmd.workers * (r[2] - r[1])
        for pid, spans in by_pid.items():
            work = [s for s in spans if s[0] in _TRIAL_WORK]
            if pid == main_pid:
                work = [w for r in run_spans for w in _clip(work, r[1], r[2])]
            else:
                work = [(s[1], s[2]) for s in work]
            worker_busy += union_length(work)
        entry, exit_ = process["entry"], process["exit"]
        wall += cmd.reaped - cmd.spawned
        start_s += entry - cmd.spawned
        exit_s += cmd.reaped - exit_
        intervals = [(cmd.spawned, entry), (exit_, cmd.reaped)]
        intervals += _clip(everything, cmd.spawned, cmd.reaped)
        covered += union_length(intervals)
        if cmd.manifest is not None:
            for key, n in cmd.manifest.get("counters", {}).items():
                counters[key] += n
        fresh += cmd.fresh_trials

    def per(a: float, b: float, scale: float = 1.0) -> float:
        return scale * a / b if b else 0.0

    metrics = {
        "graphs.build_s": busy["graphs.build"],
        "graphs.builds": count["graphs.build"],
        "graphs.build_ms": per(busy["graphs.build"], count["graphs.build"], 1e3),
        "engine.fleet_init_s": busy["engine.fleet_init"],
        "engine.run_s": busy["engine.run"],
        "engine.lane_steps_per_s": per(value["engine.run"], busy["engine.run"]),
        "engine.fleets": count["engine.fleet_init"],
        "engine.words_used_frac": per(
            counters["fleet.words_consumed"], counters["wordbank.words_refilled"]
        ),
        "telemetry.dropped_trials_frac": 1.0 - per(counters["runner.trials"], fresh) if fresh else 0.0,
        "runner.run_trials_s": busy["runner.run_trials"],
        "runner.self_s": runner_self,
        "runner.batches": value["runner.run_trials"],
        "runner.pool_starts": count["runner.pool_start"],
        "runner.worker_util": per(worker_busy, worker_capacity),
        "store.append_s": busy["store.append"],
        "store.appends": count["store.append"],
        "store.append_us": per(busy["store.append"], count["store.append"], 1e6),
        "store.read_s": busy["store.read"],
        "store.records_read": value["store.read"],
        "scheduler.self_s": own["scheduler.run_sweep"],
        "reports.format_s": busy["reports.format"],
        "cli.import_s": busy["cli.import"],
        "cli.self_s": own["cli.main"] + own["cli.import"],
        "python.start_s": start_s,
        "python.exit_s": exit_s,
        "trace.unaccounted_frac": per(wall - covered, wall),
    }
    for key in MANIFEST_COUNTERS:
        metrics[key] = counters[key]
    return metrics
