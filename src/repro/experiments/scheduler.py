"""Sweep orchestrator: diff a sweep against the store, run only the gaps.

The scheduler turns a :class:`~repro.experiments.spec.SweepSpec` into
per-point :class:`~repro.sim.runner.CoverRun` results while touching the
walk engines as little as possible:

1. for each point, ask the store which trial cells ``0..trials-1`` already
   hold a valid record;
2. schedule only the missing cells through
   :func:`repro.sim.runner.run_trials` (same seed tree, so a back-filled
   trial is bit-identical to one computed in an uninterrupted cold run);
3. persist fresh trials *the moment they finish* (the runner's
   ``on_result`` hook), one store append per completed work item: a
   whole fleet batch under ``engine="fleet"`` (its lanes finish at the
   same instant), one trial otherwise.  An interrupt — Ctrl-C, OOM, a
   killed pool — loses at most the work in flight, and the next run
   resumes from the completed cells;
4. assemble cached + fresh outcomes, in trial order, into aggregates.

Consequences worth spelling out: a warm re-run schedules zero trials; an
interrupted sweep re-run with ``--resume`` (the default behaviour — the
flag is documentation) finishes the gaps and reports aggregates
bit-identical to the cold run; raising ``trials=5`` to ``trials=20`` is an
incremental top-up of 15 cells per point, not a recompute.

Fault tolerance: execution is supervised (the runner requeues trials lost
to dead workers — see :mod:`repro.sim.runner`), and the checkpoint write
itself retries transient ``OSError`` (full disk, NFS blips) with a capped
backoff before failing the run, counted in ``store.checkpoint_retries``.
Because the store locks shard appends, any number of ``run_sweep``
processes may share one store: each computes whatever cells the store
was missing when it looked, appends race safely, and duplicate cells
(both processes computed the same missing trial) collapse under
first-record-wins with identical bytes in either order.
"""

from __future__ import annotations

import logging
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.experiments.spec import ExperimentSpec, SweepSpec
from repro.experiments.store import ResultStore
from repro.sim.policy import ExecutionPolicy
from repro.sim.runner import CoverRun, TrialOutcome, aggregate_outcomes, run_trials
from repro.telemetry import get_telemetry
from repro.testing import faults

logger = logging.getLogger(__name__)

#: Checkpoint-append retry backoff (seconds): base doubles per attempt, capped.
_CHECKPOINT_BACKOFF_BASE = 0.05
_CHECKPOINT_BACKOFF_CAP = 1.0


def _checkpoint(
    store: ResultStore,
    spec: ExperimentSpec,
    outcomes: Sequence[TrialOutcome],
    policy: ExecutionPolicy,
) -> None:
    """Persist one batch of trials, riding out transient write failures.

    The batch (a whole fleet batch, or one trial of a per-trial engine)
    is one store append, its records stamped with ``policy.engine``; a
    failed write retries the whole batch, which is safe because reads
    are first-record-wins.  A checkpoint that cannot be written after
    ``policy.retries`` attempts fails the run loudly — continuing would
    silently recompute the cells on every future resume, which on
    campaign-scale sweeps is worse than stopping.  After the successful
    write comes the ``post_checkpoint_kill`` fault site, once per trial:
    the kill-between-checkpoint-and-ack window, where a crash must cost
    zero records on resume.
    """
    tel = get_telemetry()
    retries = policy.retries
    attempt = 0
    while True:
        try:
            if tel.enabled:
                t0 = time.perf_counter()  # repro: allow[R2] checkpoint timing telemetry
                store.record(spec, outcomes, policy.engine)
                tel.time_add("store.checkpoint_seconds", time.perf_counter() - t0)  # repro: allow[R2] checkpoint timing telemetry
                tel.count("store.checkpoints", len(outcomes))
            else:
                store.record(spec, outcomes, policy.engine)
            break
        except OSError as exc:
            attempt += 1
            trials = [outcome.trial for outcome in outcomes]
            what = f"trial {trials[0]}" if len(trials) == 1 else f"trials {trials}"
            if attempt > retries:
                raise ReproError(
                    f"could not checkpoint {what} of "
                    f"{spec.describe()} after {retries} retr"
                    f"{'y' if retries == 1 else 'ies'}: {exc}"
                ) from exc
            if tel.enabled:
                tel.count("store.checkpoint_retries")
            logger.warning(
                "checkpoint of %s failed (%s); retry %d/%d",
                what,
                exc,
                attempt,
                retries,
            )
            time.sleep(
                min(_CHECKPOINT_BACKOFF_CAP, _CHECKPOINT_BACKOFF_BASE * (2 ** (attempt - 1)))
            )
    for outcome in outcomes:
        faults.maybe_kill("post_checkpoint_kill", trial=outcome.trial)


__all__ = ["PointResult", "SweepRunResult", "run_point", "run_sweep", "print_progress"]

Progress = Callable[[str], None]


@dataclass(frozen=True)
class PointResult:
    """One sweep point's aggregate plus its cache accounting."""

    spec: ExperimentSpec
    run: CoverRun
    scheduled: int
    cached: int


@dataclass(frozen=True)
class SweepRunResult:
    """Everything a finished sweep produced."""

    name: str
    points: Tuple[PointResult, ...]

    @property
    def scheduled(self) -> int:
        """Fresh trials computed in this run."""
        return sum(p.scheduled for p in self.points)

    @property
    def cached(self) -> int:
        """Trials served from the store without recomputation."""
        return sum(p.cached for p in self.points)

    @property
    def total_trials(self) -> int:
        return sum(p.spec.trials for p in self.points)

    def run_for(self, spec: ExperimentSpec) -> CoverRun:
        """The aggregate for one point of the sweep (by content hash)."""
        for point in self.points:
            if point.spec.spec_hash == spec.spec_hash:
                return point.run
        raise ReproError(f"sweep {self.name!r} has no point {spec.describe()!r}")

    def summary(self) -> str:
        """One-line accounting: 'N trials: S scheduled, C cached'."""
        return (
            f"{self.total_trials} trials across {len(self.points)} points: "
            f"{self.scheduled} scheduled, {self.cached} cached"
        )


def run_point(
    spec: ExperimentSpec,
    store: Optional[ResultStore] = None,
    policy: ExecutionPolicy = ExecutionPolicy(),
    use_cache: bool = True,
    progress: Optional[Progress] = None,
) -> PointResult:
    """Run one experiment point, filling only the store's missing trials.

    With ``store=None`` every trial is computed and nothing persists (the
    orchestration path without the durability — what ephemeral commands
    like ``repro figure1`` without ``--store`` use).  ``use_cache=False``
    recomputes everything and records the fresh values in place of any
    the store already held (the repair path for a store suspected stale).

    ``policy`` says how the missing cells run (see
    :class:`~repro.sim.policy.ExecutionPolicy`).  Under
    ``policy.engine == "fleet"`` the runner cuts them into fleet-sized
    lockstep batches — so a partially cached point fleets only its gaps,
    and every engine lands in the same store bucket (the policy is not
    part of the spec).  ``policy.retries`` also bounds how many transient
    ``OSError`` a checkpoint write absorbs before the run fails.
    """
    cached: Dict[int, TrialOutcome] = {}
    if store is not None and use_cache:
        cached = {
            trial: record.to_outcome()
            for trial, record in store.trials_for(spec).items()
            if trial < spec.trials
        }
    missing = [t for t in range(spec.trials) if t not in cached]
    tel = get_telemetry()
    if tel.enabled:
        tel.count("scheduler.points")
        tel.count("scheduler.trials_cached", len(cached))
        tel.count("scheduler.trials_scheduled", len(missing))
    if progress is not None:
        progress(
            f"{spec.describe()} [{spec.spec_hash}]: "
            f"{len(cached)} cached, {len(missing)} scheduled"
        )
    on_result = None
    if store is not None:
        if not use_cache:
            # Forced recompute: the fresh values must supersede whatever
            # the store holds, so drop those cells once up front (reads
            # are first-record-wins, appending alone would change nothing).
            store.clear_trials(spec, missing)
        # Cached cells were excluded from `missing`, so from here every
        # computed trial is a genuinely new cell: plain append.
        def on_result(outcomes: List[TrialOutcome], _spec=spec) -> None:
            _checkpoint(store, _spec, outcomes, policy)

    fresh = run_trials(
        workload=spec.workload(),
        walk_factory=spec.runner_walk(),
        trial_indices=missing,
        root_seed=spec.root_seed,
        target=spec.target,
        start=spec.start,
        max_steps=spec.max_steps,
        label=spec.seed_label,
        policy=policy,
        on_result=on_result,
    )
    by_trial = dict(cached)
    by_trial.update({outcome.trial: outcome for outcome in fresh})
    ordered = [by_trial[t] for t in range(spec.trials)]
    return PointResult(
        spec=spec,
        run=aggregate_outcomes(ordered),
        scheduled=len(missing),
        cached=len(cached),
    )


def run_sweep(
    sweep: SweepSpec,
    store: Optional[ResultStore] = None,
    policy: ExecutionPolicy = ExecutionPolicy(),
    use_cache: bool = True,
    progress: Optional[Progress] = None,
) -> SweepRunResult:
    """Run a whole sweep through :func:`run_point`, streaming progress.

    ``progress`` (e.g. ``lambda msg: print(msg, file=sys.stderr)``)
    receives one line per point as it is diffed against the store, so long
    sweeps show where they are and how much the store saved.
    """
    points: List[PointResult] = []
    total = len(sweep.specs)
    for index, spec in enumerate(sweep.specs):
        prefixed: Optional[Progress] = None
        if progress is not None:
            prefixed = lambda msg, _i=index: progress(f"[{_i + 1}/{total}] {msg}")
        points.append(
            run_point(
                spec,
                store=store,
                policy=policy,
                use_cache=use_cache,
                progress=prefixed,
            )
        )
    result = SweepRunResult(name=sweep.name, points=tuple(points))
    if progress is not None:
        progress(f"sweep {sweep.name!r}: {result.summary()}")
    return result


def print_progress(msg: str) -> None:
    """Default progress sink: stderr, so tables on stdout stay diff-able.

    Flushed per line: progress exists to be watched live (terminals,
    ``tee``, CI logs), and block-buffered stderr would batch it.
    """
    print(msg, file=sys.stderr, flush=True)
