"""Trial outcomes and their aggregate: the runner's result types.

A leaf module, so the experiment store and its reports can read, write
and fold trial results without importing the runner and the
process-pool machinery (``multiprocessing``, ``concurrent.futures``) it
brings along.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence

from repro.sim.results import Aggregate, aggregate

__all__ = ["CoverRun", "TrialOutcome", "aggregate_outcomes"]

#: Classes sanctioned to cross the process-pool boundary (lint rule R8):
#: pool workers return these, and each pickles *structurally*.
#:
#: * ``TrialOutcome`` — NamedTuple of primitives.
#: * ``CoverRun`` — frozen dataclass of lists/aggregates (result surface).
#: * ``Aggregate`` — NamedTuple of floats (:mod:`repro.sim.results`).
POOL_PAYLOAD_ALLOWLIST = (
    "Aggregate",
    "CoverRun",
    "TrialOutcome",
)


class TrialOutcome(NamedTuple):
    """Result of one trial: where it sat in the seed tree and what it measured.

    ``peak_rss_bytes`` is the *process* peak RSS observed as the trial
    finished — a monotone high-water mark shared by every trial of the
    run, not a per-trial allocation figure (0 where unsupported).
    """

    trial: int
    steps: int
    extras: Dict[str, float]
    wall_time: float
    peak_rss_bytes: int = 0


@dataclass(frozen=True)
class CoverRun:
    """Outcome of :func:`~repro.sim.runner.cover_time_trials`.

    Attributes
    ----------
    cover_times:
        Per-trial cover step counts, in trial order.
    stats:
        Aggregate over ``cover_times``.
    extras:
        Aggregates of any per-trial extra metrics emitted by the walks
        (e.g. red/blue step splits), keyed by metric name.
    """

    cover_times: List[int]
    stats: Aggregate
    extras: Dict[str, Aggregate] = field(default_factory=dict)


def aggregate_outcomes(outcomes: Sequence[TrialOutcome]) -> CoverRun:
    """Fold per-trial outcomes (in trial order) into a :class:`CoverRun`."""
    cover_times: List[int] = []
    extra_values: Dict[str, List[float]] = {}
    for outcome in outcomes:
        cover_times.append(outcome.steps)
        for key, value in outcome.extras.items():
            extra_values.setdefault(key, []).append(value)
    extras_agg = {key: aggregate(vals) for key, vals in extra_values.items()}
    return CoverRun(
        cover_times=cover_times, stats=aggregate(cover_times), extras=extras_agg
    )
