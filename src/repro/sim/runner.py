"""Experiment runner: repeated cover-time trials with derived seeds.

The pattern every benchmark shares: build a (random) graph, start a walk at
a (random) vertex, run to vertex or edge cover, repeat, aggregate.  The
paper averaged five experiments per data point; the runner makes trial
counts, seeds, and workloads explicit so each table/figure's harness is a
few declarative lines.

Trials are independent by construction — every trial derives its graph,
start vertex, and walk noise from ``(root_seed, label, kind, trial)``
through the seed tree — so the runner can fan them out across a process
pool and the results are bit-identical regardless of worker count or
scheduling.  How trials run — engine tier, worker count, fleet size and
the supervision knobs below — is one frozen
:class:`~repro.sim.policy.ExecutionPolicy`, passed as ``policy=``: it
changes throughput, never numbers, and so it never enters an experiment
spec's identity.  ``engine="fleet"`` regroups trials into lockstep
batches (``fleet_size`` per fleet, whole batches per pool worker) and
always takes the fastest bit-identical kernel it can observe (the fused
C kernel when built; ``REPRO_NATIVE=0`` opts out).

Pooled execution is *supervised*: a worker that dies (OOM kill, segfault,
``kill -9``) breaks only its pool generation, not the run — the
supervisor detects the broken pool, requeues exactly the trials that were
lost, backs off exponentially (capped), and rebuilds the pool; after
``retries`` consecutive pool failures it degrades to inline
single-process execution (``on_worker_crash="retry"``, the default —
``"inline"`` degrades on the first crash, ``"fail"`` raises).  Because
trial seeds are positional in the seed tree, a requeued trial reproduces
the lost one bit-for-bit.  Transient per-trial failures (``OSError``,
wall-clock :class:`~repro.errors.TrialTimeout` under ``trial_timeout``)
are retried per trial with the same budget.  Telemetry counts
``runner.retries`` / ``runner.worker_crashes`` / ``runner.timeouts`` /
``runner.inline_fallbacks``.

Two layers:

* :func:`run_trials` — the per-trial surface: takes an explicit list of
  trial indices, returns one :class:`TrialOutcome` per index, and can
  stream outcomes to a callback as each trial (or fleet batch) finishes.
  The experiment store (:mod:`repro.experiments`) schedules *only
  missing* trials through this, and because a trial's randomness depends
  only on its seed-tree path, a trial computed in isolation is
  bit-identical to the same trial inside a full run.
* :func:`cover_time_trials` — the classic aggregate surface: trials
  ``0..trials-1``, summarized into a :class:`CoverRun`.
"""

from __future__ import annotations

import logging
import multiprocessing
import random
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ReproError, TrialTimeout
from repro.graphs.graph import Graph
from repro.sim.outcomes import CoverRun, TrialOutcome, aggregate_outcomes
from repro.sim.policy import ExecutionPolicy
from repro.sim.rng import as_generator, child_seed, spawn
from repro.telemetry import get_telemetry, peak_rss_bytes
from repro.testing import faults
from repro.walks.base import WalkProcess

logger = logging.getLogger(__name__)

__all__ = [
    "CoverRun",
    "TrialOutcome",
    "run_trials",
    "cover_time_trials",
    "aggregate_outcomes",
    "sweep",
]

GraphFactory = Callable[[random.Random], Graph]
WalkFactory = Callable[[Graph, int, random.Random], WalkProcess]

#: Classes sanctioned to cross the process-pool boundary (lint rule R8).
#: Everything here pickles *structurally* — plain field tuples, no live
#: handles — so a worker rebuilt after a crash deserializes bit-identical
#: payloads (the results coming back are sanctioned in
#: :mod:`repro.sim.outcomes`):
#:
#: * ``_TrialSpec`` — NamedTuple of primitives plus the entry below
#:   (callables ride along by reference, resolved in-worker).
#: * ``Graph`` — defines ``__reduce__`` rebuilding from ``(n, edges, name)``,
#:   dropping scratch caches so workers never share mutable state.
POOL_PAYLOAD_ALLOWLIST = (
    "Graph",
    "_TrialSpec",
)


class _TrialSpec(NamedTuple):
    """Everything one trial needs, picklable for the worker pool."""

    workload: Union[Graph, GraphFactory]
    walk_factory: Callable  # per trial; the lockstep constructor under fleets
    trial: int
    root_seed: int
    label: str
    target: str
    start: Optional[int]  # None means "uniform random per trial"
    max_steps: Optional[int]
    extra_metrics: Optional[Callable[[WalkProcess], Dict[str, float]]]
    walk_name: Optional[str] = None  # registry name; set when walks go by name
    trial_timeout: Optional[float] = None  # wall-clock ceiling per trial


@contextmanager
def _wall_clock_limit(seconds: Optional[float], what: str) -> Iterator[None]:
    """Raise :class:`TrialTimeout` if the block outlives ``seconds``.

    Distinct from the step budget: this is a *wall-clock* ceiling, the
    guard against a stalled worker (NFS hang, swap death) blocking a
    sweep forever.  Enforced with ``SIGALRM``/``setitimer``, which exists
    on POSIX and only fires in a process's main thread — exactly where
    trials run, both inline and inside pool workers.  Where that doesn't
    hold (Windows, embedding in a thread) the limit is best-effort: the
    block runs unlimited rather than failing spuriously.
    """
    if seconds is None:
        yield
        return
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):  # pragma: no cover - platform/embedding dependent
        yield
        return

    def _on_alarm(signum, frame):
        raise TrialTimeout(
            f"{what} exceeded its wall-clock timeout of {seconds:g}s "
            "(step budgets are max_steps; this is elapsed time)"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _trial_inputs(spec: _TrialSpec) -> Tuple[Graph, int, int]:
    """Derive one trial's (graph, start, walk seed) from the seed tree.

    A generator is spawned only where a draw is made: for a graph factory
    and for a random start.  The walk gets its child seed, which a fleet
    lane takes as it is (the native kernel seeds its state row from it)
    and a per-trial walk turns into its generator
    (:func:`~repro.sim.rng.as_generator`).
    """
    if callable(spec.workload):
        graph = spec.workload(spawn(spec.root_seed, spec.label, "graph", spec.trial))
    else:
        graph = spec.workload
    if spec.start is None:
        start_rng = spawn(spec.root_seed, spec.label, "start", spec.trial)
        start_vertex = start_rng.randrange(graph.n)
    else:
        start_vertex = spec.start
        if not 0 <= start_vertex < graph.n:
            raise ReproError(
                f"trial {spec.trial}: start vertex {start_vertex} out of "
                f"range 0..{graph.n - 1} for graph {graph!r}"
            )
    return graph, start_vertex, child_seed(spec.root_seed, spec.label, "walk", spec.trial)


def _run_trial(spec: _TrialSpec) -> TrialOutcome:
    """Run one trial from its spec (serial path and pool workers alike)."""
    t0 = time.perf_counter()  # repro: allow[R2] reported wall time, result-inert
    if multiprocessing.parent_process() is not None:
        # Fault site: only ever kill *worker* processes — after the
        # supervisor degrades to inline execution the same standing rule
        # must not take the orchestrator down with it.
        faults.maybe_kill("worker_kill", trial=spec.trial)
    with _wall_clock_limit(spec.trial_timeout, f"trial {spec.trial}"):
        faults.maybe_stall("trial_stall", trial=spec.trial)
        graph, start_vertex, walk_seed = _trial_inputs(spec)
        walk = spec.walk_factory(graph, start_vertex, as_generator(walk_seed))
        if spec.target == "vertices":
            steps = walk.run_until_vertex_cover(spec.max_steps)
        else:
            steps = walk.run_until_edge_cover(spec.max_steps)
        extras: Dict[str, float] = {}
        if spec.extra_metrics is not None:
            extras = {
                key: float(value) for key, value in spec.extra_metrics(walk).items()
            }
    wall = time.perf_counter() - t0  # repro: allow[R2] reported wall time, result-inert
    tel = get_telemetry()
    if tel.enabled:
        tel.count("runner.trials")
        tel.count("runner.steps", steps)
        tel.time_add("runner.trial_seconds", wall)
        tel.event(
            "trial",
            trial=spec.trial,
            steps=steps,
            wall_seconds=round(wall, 6),
            steps_per_sec=int(steps / wall) if wall > 0 else 0,
        )
    return TrialOutcome(
        trial=spec.trial,
        steps=steps,
        extras=extras,
        wall_time=wall,
        peak_rss_bytes=peak_rss_bytes(),
    )


def _srw_per_trial(walk: Optional[str], graphs: Sequence[Graph]) -> bool:
    """Whether an SRW fleet batch should step trial by trial.

    Without the fused kernel the numpy SRW fleet on materialized graphs
    runs at or below the speed of per-trial ``ArraySRW``
    (``benchmarks/out/BENCH_engine.json``), so the batch runs each trial
    on that bit-identical twin instead.  Implicit graphs keep the fleet:
    their per-trial twin is ``OracleSRW``, which is slower (2-vCPU host,
    implicit hypercube, 128 trials, numpy only: ``OracleSRW`` 6.8 ms a
    trial against the fleet's 3.3 at n=1024, 150 against 60 at
    n=16384).
    """
    if walk != "srw":
        return False
    from repro.engine import native
    from repro.graphs.implicit import is_implicit

    return not is_implicit(graphs[0]) and not native.available()


def _run_fleet_batch(template: _TrialSpec, trials: Sequence[int]) -> List[TrialOutcome]:
    """Run a batch of trials as one lockstep fleet.

    Fleet eligibility is a property of the *data*, not the request: the
    lanes must share one graph shape and satisfy the walk's structural
    requirements.  An ineligible batch is an explicit :class:`ReproError`
    carrying the fleet's :class:`~repro.engine.fleet.FleetUnsupported`
    reason — which names the offending lane and its trial — never a
    silent change of stepping strategy: the caller asked for fleets and should
    decide (``engine="array"`` gives identical numbers per trial).  The
    one throughput substitution is :func:`_srw_per_trial`'s, counted as
    ``runner.srw_array_batches``.  ``template.walk_factory`` is the
    walk's fleet constructor from :data:`repro.engine.FLEET_ENGINES`;
    constructing the fleet is the batch's one eligibility check, and
    swaps implicit lanes for their ``materialize()`` twins once
    (:func:`repro.engine.fleet.materialized_lanes`).

    The lanes are the trials' walk seeds, not generators: nothing reads a
    trial's generator after its cover, so the fleet seeds each lane's
    state row straight from its seed and writes no generator back
    (:class:`~repro.engine.base.MTStateRows`).
    """
    from repro.engine import NAMED_WALK_FACTORIES
    from repro.engine.fleet import FleetUnsupported

    t0 = time.perf_counter()  # repro: allow[R2] reported wall time, result-inert
    if multiprocessing.parent_process() is not None:
        for trial in trials:
            faults.maybe_kill("worker_kill", trial=trial)
    # The wall-clock budget pools across the batch: K lockstep trials get
    # K trial-timeouts of elapsed time, since they advance together.
    limit = (
        None
        if template.trial_timeout is None
        else template.trial_timeout * len(trials)
    )
    with _wall_clock_limit(limit, f"fleet batch {list(trials)}"):
        for trial in trials:
            faults.maybe_stall("trial_stall", trial=trial)
        graphs: List[Graph] = []
        starts: List[int] = []
        seeds: List[int] = []
        for trial in trials:
            graph, start_vertex, walk_seed = _trial_inputs(template._replace(trial=trial))
            graphs.append(graph)
            starts.append(start_vertex)
            seeds.append(walk_seed)
        walk = template.walk_name
        # Constructing the fleet is the batch's one eligibility check, also
        # for an SRW batch that then steps trial by trial.
        try:
            fleet = template.walk_factory(graphs, starts, seeds, labels=list(trials))
        except FleetUnsupported as exc:
            alternatives = " or ".join(
                f"engine={e!r}" for e in NAMED_WALK_FACTORIES[walk]
            )
            raise ReproError(
                f"engine='fleet': trial batch {list(trials)} of walk {walk!r} "
                f"cannot step as a fleet: {exc.reason}. Use {alternatives} for "
                "identical per-trial results."
            ) from None
        per_trial = _srw_per_trial(walk, graphs)
        if per_trial:
            twin = NAMED_WALK_FACTORIES["srw"]["array"]
            cover = []
            for graph, start_vertex, walk_seed in zip(graphs, starts, seeds):
                one = twin(graph, start_vertex, as_generator(walk_seed))
                if template.target == "vertices":
                    cover.append(one.run_until_vertex_cover(template.max_steps))
                else:
                    cover.append(one.run_until_edge_cover(template.max_steps))
        else:
            cover = fleet.run_until_cover(
                target=template.target, max_steps=template.max_steps
            )
    wall = (time.perf_counter() - t0) / len(trials)  # repro: allow[R2] reported wall time, result-inert
    rss = peak_rss_bytes()
    tel = get_telemetry()
    if tel.enabled:
        total = sum(cover)
        tel.count("runner.trials", len(trials))
        tel.count("runner.steps", total)
        tel.count("runner.fleet_batches")
        if per_trial:
            tel.count("runner.srw_array_batches")
        tel.time_add("runner.trial_seconds", wall * len(trials))
        tel.event(
            "fleet_batch",
            trials=list(trials),
            steps=total,
            wall_seconds=round(wall * len(trials), 6),
        )
    return [
        TrialOutcome(
            trial=trial, steps=steps, extras={}, wall_time=wall, peak_rss_bytes=rss
        )
        for trial, steps in zip(trials, cover)
    ]


#: Per-worker trial template installed by the pool initializer, so the
#: workload (possibly a large Graph) is shipped once per worker process —
#: not once per trial — and each worker's copy keeps its lazy caches
#: (incidence, CSR arrays, composition tables) warm across its trials.
_POOL_SPEC: Optional[_TrialSpec] = None


def _init_pool_worker(spec: _TrialSpec) -> None:
    global _POOL_SPEC
    _POOL_SPEC = spec


def _run_pool_trial(trial: int) -> TrialOutcome:
    return _run_trial(_POOL_SPEC._replace(trial=trial))


def _run_pool_fleet(trials: Tuple[int, ...]) -> List[TrialOutcome]:
    return _run_fleet_batch(_POOL_SPEC, trials)


#: Supervisor backoff: 0.05s doubling per consecutive failure, capped.
_BACKOFF_BASE_SECONDS = 0.05
_BACKOFF_CAP_SECONDS = 2.0


def _backoff_sleep(failures: int) -> None:
    time.sleep(min(_BACKOFF_CAP_SECONDS, _BACKOFF_BASE_SECONDS * (2 ** (failures - 1))))


def _supervised_run(
    template: _TrialSpec,
    items: List,
    pool_fn: Callable,
    inline_fn: Callable,
    policy: ExecutionPolicy,
    consume: Callable,
    describe: Callable[[object], str],
) -> None:
    """Drive work items (trials or fleet batches) to completion, supervised.

    The failure model, and what happens for each failure:

    * **Worker death** (``BrokenProcessPool``: OOM kill, segfault, an
      injected ``worker_kill``).  Items already consumed stay consumed;
      exactly the lost items are requeued into a fresh pool after a
      capped exponential backoff.  ``policy.on_worker_crash`` decides:
      ``"retry"`` rebuilds the pool up to ``policy.retries`` times and
      then degrades to inline execution, ``"inline"`` degrades
      immediately, ``"fail"`` raises :class:`ReproError` at once.
    * **Retryable item failure** (:class:`TrialTimeout` from the
      wall-clock limit, or ``OSError`` — transient I/O).  The item is
      retried up to ``policy.retries`` times, then :class:`ReproError` names it.
    * **Anything else** (validation errors, walk bugs) is deterministic:
      it propagates immediately, exactly as unsupervised execution would.

    Requeued items reproduce the lost results bit-for-bit because every
    trial's randomness is positional in the seed tree — supervision can
    change *when* a trial runs, never what it returns.  ``consume`` is
    invoked in the calling process once per completed item.
    """
    tel = get_telemetry()
    retries = policy.retries
    on_worker_crash = policy.on_worker_crash
    attempts: Dict = {}

    def note_item_failure(item, exc: BaseException) -> None:
        """Account one retryable failure; raise when the budget is spent."""
        count = attempts[item] = attempts.get(item, 0) + 1
        if tel.enabled and isinstance(exc, TrialTimeout):
            tel.count("runner.timeouts")
        if count > retries:
            raise ReproError(
                f"{describe(item)} failed after {retries} retr"
                f"{'y' if retries == 1 else 'ies'}: {exc}"
            ) from exc
        if tel.enabled:
            tel.count("runner.retries")
        logger.warning(
            "%s failed (%s); retry %d/%d", describe(item), exc, count, retries
        )
        _backoff_sleep(count)

    pending = list(items)
    pool_failures = 0
    inline_mode = policy.workers <= 1
    while pending and not inline_mode:
        current, pending = pending, []
        consumed = set()
        pool = ProcessPoolExecutor(
            max_workers=min(policy.workers, len(current)),
            initializer=_init_pool_worker,
            initargs=(template,),
        )
        try:
            future_items = {pool.submit(pool_fn, item): item for item in current}
            for future in as_completed(future_items):
                item = future_items[future]
                try:
                    result = future.result()
                except BrokenProcessPool:
                    raise
                except (TrialTimeout, OSError) as exc:
                    note_item_failure(item, exc)
                    consumed.add(item)  # accounted: requeued, not lost
                    pending.append(item)
                    continue
                consume(result)
                consumed.add(item)
        except BrokenProcessPool as exc:
            lost = [item for item in current if item not in consumed]
            pool_failures += 1
            if tel.enabled:
                tel.count("runner.worker_crashes")
                tel.event(
                    "worker_crash",
                    lost=[describe(i) for i in lost],
                    pool_failures=pool_failures,
                )
            if on_worker_crash == "fail":
                raise ReproError(
                    f"a worker process died while running "
                    f"{', '.join(describe(i) for i in lost[:4])}"
                    f"{' ...' if len(lost) > 4 else ''} "
                    "(on_worker_crash='fail'; 'retry' or 'inline' would "
                    "recover the lost trials bit-identically)"
                ) from exc
            pending = lost + pending
            if on_worker_crash == "inline" or pool_failures > retries:
                if tel.enabled:
                    tel.count("runner.inline_fallbacks")
                logger.warning(
                    "worker pool failed %d time(s); degrading to inline "
                    "single-process execution for %d remaining item(s)",
                    pool_failures,
                    len(pending),
                )
                inline_mode = True
            else:
                logger.warning(
                    "worker pool crash %d/%d: requeueing %d lost item(s) "
                    "into a fresh pool",
                    pool_failures,
                    retries,
                    len(lost),
                )
                _backoff_sleep(pool_failures)
        finally:
            # Never block a failure exit on queued work: cancel what has
            # not started and let running futures finish in the abandoned
            # executor (a broken pool has nothing left to wait for).
            pool.shutdown(wait=False, cancel_futures=True)
    for item in pending:
        while True:
            try:
                consume(inline_fn(item))
                break
            except (TrialTimeout, OSError) as exc:
                note_item_failure(item, exc)


def _resolve_start(start: Union[int, str]) -> Optional[int]:
    """Normalize the ``start`` argument; None means random-per-trial.

    Rejects non-vertex values with :class:`ReproError` up front (range
    checking against the trial's graph happens per trial, since a workload
    factory may produce graphs of varying size).
    """
    if start == "random":
        return None
    try:
        return int(start)
    except (TypeError, ValueError):
        raise ReproError(f"start must be a vertex id or 'random', got {start!r}") from None


def run_trials(
    workload: Union[Graph, GraphFactory],
    walk_factory: Union[str, WalkFactory],
    trial_indices: Sequence[int],
    root_seed: int,
    target: str = "vertices",
    start: Union[int, str] = "random",
    max_steps: Optional[int] = None,
    label: str = "cover",
    extra_metrics: Optional[Callable[[WalkProcess], Dict[str, float]]] = None,
    policy: ExecutionPolicy = ExecutionPolicy(),
    on_result: Optional[Callable[[List[TrialOutcome]], None]] = None,
) -> List[TrialOutcome]:
    """Run an explicit set of trials; the per-trial core of the runner.

    Every trial's graph, start vertex and walk noise derive from
    ``(root_seed, label, kind, trial)``, so running trials ``[3, 7]`` here
    yields outcomes bit-identical to trials 3 and 7 of a full
    :func:`cover_time_trials` run with the same arguments — which is what
    lets the experiment store (:mod:`repro.experiments`) fill in only the
    missing cells of a sweep.

    Parameters are those of :func:`cover_time_trials` except:

    trial_indices:
        The trial numbers to run (each >= 0; duplicates rejected).  The
        returned list follows this order regardless of worker scheduling.
    on_result:
        Optional callback invoked in the calling process once per
        completed work item, with that item's :class:`TrialOutcome` list
        (completion order, not index order, under ``workers > 1``) — the
        hook persistent stores use to checkpoint trials the moment they
        finish.  A work item is one trial (``[outcome]``) for the
        per-trial engines and one whole batch under ``engine="fleet"``.
        Each item's callback fires exactly once even when supervision
        re-runs it (only unconsumed items are requeued after a worker
        crash).

    Under ``policy.engine == "fleet"`` the requested indices are cut into
    batches of ``policy.fleet_size`` and each batch advances as one
    lockstep fleet; with ``workers > 1`` the pool distributes whole
    batches, so every worker drives a fleet.  ``on_result`` then fires
    once per batch, with all of the batch's outcomes as it completes, so
    the store writes each batch as one checkpoint.  SRW batches on
    materialized graphs run trial by trial on ``ArraySRW`` when the fused
    kernel is unavailable, since the numpy SRW fleet is no faster.
    """
    indices = [int(t) for t in trial_indices]
    if any(t < 0 for t in indices):
        raise ReproError(f"trial indices must be >= 0, got {sorted(indices)[0]}")
    if len(set(indices)) != len(indices):
        raise ReproError("duplicate trial indices")
    if target not in ("vertices", "edges"):
        raise ReproError(f"target must be 'vertices' or 'edges', got {target!r}")
    from repro.engine import resolve_walk_factory

    factory = resolve_walk_factory(walk_factory, policy.engine)
    fleet = policy.engine == "fleet"
    if fleet and extra_metrics is not None:
        raise ReproError(
            "engine='fleet' advances trials in lockstep batches and never "
            "materializes per-trial walk objects, so extra_metrics cannot "
            "be computed; use engine='array' (identical numbers)"
        )
    fixed_start = _resolve_start(start)
    template = _TrialSpec(
        workload=workload,
        walk_factory=factory,
        trial=-1,  # filled in per trial
        root_seed=root_seed,
        label=label,
        target=target,
        start=fixed_start,
        max_steps=max_steps,
        extra_metrics=extra_metrics,
        walk_name=walk_factory if isinstance(walk_factory, str) else None,
        trial_timeout=policy.trial_timeout,
    )
    if not indices:
        return []
    workers = policy.workers
    logger.info(
        "run_trials: %d trial(s), walk=%s engine=%s target=%s workers=%d",
        len(indices),
        walk_factory if isinstance(walk_factory, str) else "<custom>",
        policy.engine,
        target,
        workers,
    )
    tel = get_telemetry()
    if tel.enabled and workers > 1:
        # Pool workers inherit the *null* context (telemetry is installed
        # per process, not pickled into specs), so engine counters from
        # their trials stay behind; record that the gap exists.
        tel.count("runner.pool_runs")
        tel.event(
            "note",
            text=(
                f"workers={workers}: engine counters from pool workers "
                "are not aggregated into this run's telemetry"
            ),
        )
    by_trial: Dict[int, TrialOutcome] = {}
    if fleet:
        size = policy.fleet_size
        batches = [
            tuple(indices[i : i + size]) for i in range(0, len(indices), size)
        ]

        def consume_batch(outcomes: List[TrialOutcome]) -> None:
            # Fire on_result the moment a batch lands (not after the whole
            # pool drains): the store-checkpoint contract — an interrupt
            # loses at most the trials in flight — holds per batch.
            if on_result is not None:
                on_result(outcomes)
            for outcome in outcomes:
                by_trial[outcome.trial] = outcome

        _supervised_run(
            template,
            batches,
            pool_fn=_run_pool_fleet,
            inline_fn=lambda batch: _run_fleet_batch(template, batch),
            policy=policy,
            consume=consume_batch,
            describe=lambda batch: f"fleet batch {list(batch)}",
        )
    else:

        def consume_trial(outcome: TrialOutcome) -> None:
            if on_result is not None:
                on_result([outcome])
            by_trial[outcome.trial] = outcome

        _supervised_run(
            template,
            indices,
            pool_fn=_run_pool_trial,
            inline_fn=lambda t: _run_trial(template._replace(trial=t)),
            policy=policy,
            consume=consume_trial,
            describe=lambda t: f"trial {t}",
        )
    unaccounted = [t for t in indices if t not in by_trial]
    if unaccounted:
        # Supervision guarantees every item was consumed or raised; a gap
        # here is an internal scheduling bug — name the trials rather
        # than letting indexing crash with a bare KeyError.
        raise ReproError(
            f"trial(s) {unaccounted} were scheduled but never completed "
            "(internal supervision error; please report)"
        )
    return [by_trial[t] for t in indices]


def cover_time_trials(
    workload: Union[Graph, GraphFactory],
    walk_factory: Union[str, WalkFactory],
    trials: int,
    root_seed: int,
    target: str = "vertices",
    start: Union[int, str] = "random",
    max_steps: Optional[int] = None,
    label: str = "cover",
    extra_metrics: Optional[Callable[[WalkProcess], Dict[str, float]]] = None,
    policy: ExecutionPolicy = ExecutionPolicy(),
) -> CoverRun:
    """Run repeated cover-time trials.

    Parameters
    ----------
    workload:
        A fixed :class:`Graph`, or a factory ``f(rng) -> Graph`` sampling a
        fresh graph per trial (the paper's random-regular setting).
    walk_factory:
        ``f(graph, start, rng) -> WalkProcess``, or the name of a walk
        registered in :data:`repro.engine.NAMED_WALK_FACTORIES` (``"srw"``,
        ``"eprocess"``) — names are required for the ``array`` and
        ``fleet`` engines and recommended for ``workers > 1`` (they
        always pickle).
    trials:
        Number of independent trials (paper: 5 per data point).
    root_seed:
        Root of the derived-seed tree; every trial's graph, start vertex and
        walk noise come from children of it.
    target:
        ``"vertices"`` or ``"edges"`` — which cover time to measure.
    start:
        A fixed start vertex id, or ``"random"`` for a uniform start per
        trial.  Fixed starts are validated against each trial's graph; an
        out-of-range vertex raises :class:`ReproError` naming the trial.
    max_steps:
        Per-trial step budget (default: the walk framework's safety cap).
    label:
        Seed-tree label, so different measurements on the same root seed
        stay independent.
    extra_metrics:
        Optional ``f(finished_walk) -> {name: value}`` collected per trial
        and aggregated.  Must be picklable when ``workers > 1``.
    policy:
        How the trials run (:class:`ExecutionPolicy`: engine, workers,
        fleet size, supervision).  Results are bit-identical under every
        policy, because each trial's randomness depends only on its
        seed-tree path.
    """
    if trials < 1:
        raise ReproError(f"need at least one trial, got {trials}")
    outcomes = run_trials(
        workload=workload,
        walk_factory=walk_factory,
        trial_indices=range(trials),
        root_seed=root_seed,
        target=target,
        start=start,
        max_steps=max_steps,
        label=label,
        extra_metrics=extra_metrics,
        policy=policy,
    )
    return aggregate_outcomes(outcomes)


def sweep(
    xs: Sequence[float],
    run_at: Callable[[float], CoverRun],
) -> List[CoverRun]:
    """Run a measurement at each sweep point (a thin, explicit loop).

    Kept as a function so benchmark code reads declaratively:
    ``runs = sweep(n_grid, lambda n: cover_time_trials(...))``.
    """
    return [run_at(x) for x in xs]
