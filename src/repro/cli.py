"""Command-line interface: ``repro <subcommand>``.

Subcommands mirror the experiment index in DESIGN.md:

* ``figure1``  — the paper's Figure 1 sweep (normalized E-process cover time
  on d-regular graphs) at a configurable scale.
* ``sweep``    — run a declarative experiment sweep against a persistent
  store: only missing trials are computed, interrupted runs resume.
* ``report``   — rebuild a sweep's tables purely from the store (no walks).
* ``store``    — inspect (``ls``) or compact (``gc``) an experiment store.
* ``cover``    — vertex/edge cover time of any walk on any built-in family.
* ``spectral`` — eigenvalue gap and conductance interval of a family member.
* ``goodness`` — exact ℓ-goodness of a small graph.
* ``stars``    — Section 5 isolated-star census on random r-regular graphs.
* ``profile``  — ASCII coverage-vs-time curves (E-process vs SRW).
* ``blanket``  — eq. (4)'s blanket-style visit-count times.

Every command accepts ``--seed`` and prints plain-text tables, so outputs
are reproducible and diff-able.  Progress lines stream to stderr; tables
go to stdout.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro._version import __version__
from repro.core.eprocess import EdgeProcess
from repro.core.components import isolated_blue_stars
from repro.core.goodness import ell_goodness_exact
from repro.core.stars import expected_isolated_stars
from repro.engine import DEFAULT_FLEET_SIZE, resolve_walk_factory
from repro.errors import ReproError
from repro.experiments import (
    ExperimentSpec,
    ResultStore,
    SweepSpec,
    WALK_BUILDERS,
    family_params_from_size,
    family_vertex_count,
    family_workload,
    format_sweep_report,
    print_progress,
    regular_degree_series,
    run_sweep,
    sweep_runs_from_store,
)
from repro.graphs import Graph, random_connected_regular_graph
from repro.graphs.properties import girth
from repro.sim.fitting import fit_normalized_profile, select_growth_model
from repro.sim.policy import ExecutionPolicy
from repro.sim.results import Series, aggregate
from repro.sim.rng import DEFAULT_ROOT_SEED, spawn
from repro.sim.runner import cover_time_trials
from repro.sim.tables import format_kv_block, format_series_table, format_table

__all__ = ["main", "build_parser"]

#: One registry for every command: the declarative experiment layer's walk
#: builders (module-level functions, picklable, array twins where they
#: exist) are the single source of truth for walk names.
WALKS = WALK_BUILDERS


def _family_params(args: argparse.Namespace) -> dict:
    """A family's spec params from the CLI's --family/--n/--degree/--p/--q."""
    if args.family == "lps":
        return {"p": args.p, "q": args.q}
    return family_params_from_size(args.family, args.n, getattr(args, "degree", 4))


def _build_family_graph(args: argparse.Namespace, rng) -> Graph:
    return family_workload(args.family, _family_params(args))(rng)


#: Families the CLI's ``--family`` flags accept — the spec registry's
#: names.  The ``implicit_*`` entries build neighbor-oracle graphs that
#: never materialize their edge lists, so ``--n`` can go to 10^7+.
FAMILY_CHOICES = [
    "regular",
    "cycle",
    "complete",
    "torus",
    "hypercube",
    "lps",
    "implicit_hypercube",
    "implicit_torus",
    "implicit_hashed_regular",
]


def _require_materialized(args: argparse.Namespace, what: str) -> None:
    """Commands that need the full edge list refuse implicit families."""
    if args.family.startswith("implicit_"):
        raise ReproError(
            f"{what} needs the materialized edge list; family "
            f"{args.family!r} is an implicit neighbor-oracle backend — "
            "use the non-implicit family at a small n instead"
        )


def _add_family_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family",
        default="regular",
        choices=FAMILY_CHOICES,
        help="graph family (default: random regular)",
    )
    parser.add_argument("--n", type=int, default=1000, help="target vertex count")
    parser.add_argument("--degree", type=int, default=4, help="degree for --family regular")
    parser.add_argument("--p", type=int, default=5, help="LPS p (degree p+1)")
    parser.add_argument("--q", type=int, default=13, help="LPS q (size ~ q^3)")


def _add_policy_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags :func:`_execution_policy` reads: how trials run, never
    what they return (every value gives identical results)."""
    parser.add_argument(
        "--engine",
        default="reference",
        choices=["reference", "array", "fleet"],
        help="walk engine: reference per-step classes, the chunked "
        "flat-array fast path, or lockstep fleet stepping of whole "
        "trial batches (srw/eprocess/vprocess)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes to spread trials over",
    )
    parser.add_argument(
        "--fleet-size",
        type=int,
        default=DEFAULT_FLEET_SIZE,
        metavar="K",
        help="trials per lockstep fleet under --engine fleet (default: %(default)s)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="transient-failure budget: worker crashes (per pool), trial "
        "timeouts / write errors (per trial), and store checkpoint "
        "OSErrors each retry up to N times before failing (default: 2)",
    )
    parser.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock cap per trial (fleet batches pool it); a trial "
        "over budget is killed and retried under --retries (default: "
        "none; distinct from the walk's step budget)",
    )
    parser.add_argument(
        "--on-worker-crash",
        default="retry",
        choices=["retry", "inline", "fail"],
        help="when a pool worker dies: 'retry' requeues the lost trials "
        "(degrading to in-process execution after --retries consecutive "
        "pool failures), 'inline' degrades immediately, 'fail' aborts "
        "(default: retry)",
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="stream telemetry events to this JSONL file, finishing with "
        "a run manifest (validate with `python -m repro.telemetry.manifest`)",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="SECONDS",
        help="emit a progress line to stderr every SECONDS seconds "
        "(steps, %% covered, steps/sec, ETA, peak RSS)",
    )


@contextmanager
def _telemetry_session(
    args: argparse.Namespace, command: str, walk: Optional[str] = None
) -> Iterator[dict]:
    """Install a telemetry context for one command, when requested.

    Yields a holder dict; commands with a store set ``holder["store"]`` so
    the closing manifest is also saved under the store's ``manifests/``
    directory.  Without ``--telemetry``/``--heartbeat`` this is a no-op
    pass-through (the null context stays installed — zero overhead).
    """
    path = getattr(args, "telemetry", None)
    interval = getattr(args, "heartbeat", None)
    holder: dict = {"store": None}
    if path is None and interval is None:
        yield holder
        return
    from repro.telemetry import (
        HeartbeatReporter,
        Telemetry,
        TelemetryJSONLWriter,
        build_manifest,
        session,
    )

    writer = TelemetryJSONLWriter(path) if path else None
    heartbeat = HeartbeatReporter(interval) if interval is not None else None
    tel = Telemetry(heartbeat=heartbeat, writer=writer)
    status = "ok"
    try:
        with session(tel):
            yield holder
    except BaseException:
        status = "error"
        raise
    finally:
        manifest = build_manifest(
            tel,
            command=command,
            engine=getattr(args, "engine", None),
            walk=walk if walk is not None else getattr(args, "walk", None),
            backend=getattr(args, "family", None),
            status=status,
        )
        if writer is not None:
            writer.finish(manifest)
            print(f"telemetry: {writer.path}", file=sys.stderr, flush=True)
        store = holder.get("store")
        if store is not None:
            saved = store.record_manifest(manifest)
            print(f"manifest: {saved}", file=sys.stderr, flush=True)


def _execution_policy(args: argparse.Namespace, walk: str) -> ExecutionPolicy:
    """The run's :class:`ExecutionPolicy` from its flags, checked up front.

    Commands call this before building any graph or diffing any store, so
    a bad flag — or a walk without the requested engine — exits 2 having
    done no work.
    """
    policy = ExecutionPolicy(
        engine=args.engine,
        workers=args.workers,
        fleet_size=args.fleet_size,
        retries=args.retries,
        trial_timeout=args.trial_timeout,
        on_worker_crash=args.on_worker_crash,
    )
    resolve_walk_factory(walk, policy.engine)
    return policy


def _store_durability(args: argparse.Namespace) -> str:
    return "fsync" if getattr(args, "durable", False) else "standard"


def _cmd_figure1(args: argparse.Namespace) -> int:
    policy = _execution_policy(args, "eprocess")
    degrees = sorted(set(args.degrees))
    sweep_spec = SweepSpec.figure1(
        sizes=args.sizes,
        degrees=degrees,
        trials=args.trials,
        root_seed=args.seed,
    )
    store = (
        ResultStore(args.store, durability=_store_durability(args))
        if args.store
        else None
    )
    with _telemetry_session(args, "figure1", walk="eprocess") as tctx:
        tctx["store"] = store
        result = run_sweep(
            sweep_spec, store=store, policy=policy, progress=print_progress
        )
    runs = [(p.spec, p.run) for p in result.points]
    series: List[Series] = regular_degree_series(runs, normalize_by_n=True)
    print(format_series_table(series, x_header="n", title="Figure 1: normalized cover time C_V/n (E-process, d-regular)"))
    print()
    rows = []
    for s, d in zip(series, degrees):
        ns = s.xs()
        raw = [p.stats.mean * p.x for p in s.points]
        winner, lin, nlogn = select_growth_model(ns, raw)
        profile = fit_normalized_profile(ns, raw)
        rows.append([f"d={d}", winner, lin.constant, nlogn.constant, profile.slope])
    print(
        format_table(
            ["series", "best model", "c (c*n)", "c (c*n*ln n)", "profile slope"],
            rows,
            title="Growth-model fits (paper: d=3,5,7 -> c*n*ln n with c≈0.93/0.41/0.38; d=4,6 -> flat)",
        )
    )
    print()
    print(result.summary())
    return 0


#: Grid defaults when `repro sweep`/`report` get no --sizes / --degrees.
_DEFAULT_SWEEP_SIZES = [1000, 2000, 4000]
_DEFAULT_SWEEP_DEGREES = [4]


def _sweep_spec_from_args(args: argparse.Namespace) -> SweepSpec:
    """Build the declarative sweep a `repro sweep`/`report` invocation names."""
    name = f"{args.family}-{args.walk}-{args.target}"
    degree_families = ("regular", "implicit_hashed_regular")
    if args.family not in degree_families and args.degrees is not None:
        raise ReproError(
            f"--degrees applies only to --family {'/'.join(degree_families)}, "
            f"not {args.family!r}"
        )
    if args.family == "lps" and args.sizes is not None:
        raise ReproError(
            "--family lps points are fixed by --p/--q; --sizes does not apply"
        )
    sizes = args.sizes if args.sizes is not None else _DEFAULT_SWEEP_SIZES
    if args.family == "regular":
        degrees = args.degrees if args.degrees is not None else _DEFAULT_SWEEP_DEGREES
        return SweepSpec.regular_grid(
            name=name,
            sizes=sizes,
            degrees=sorted(set(degrees)),
            walk=args.walk,
            trials=args.trials,
            root_seed=args.seed,
            target=args.target,
        )
    if args.family == "lps":
        params_list = [{"p": args.p, "q": args.q}]
    elif args.family == "implicit_hashed_regular":
        degrees = args.degrees if args.degrees is not None else _DEFAULT_SWEEP_DEGREES
        params_list = [
            family_params_from_size(args.family, n, degree)
            for degree in sorted(set(degrees))
            for n in sizes
        ]
    else:
        params_list = [family_params_from_size(args.family, n) for n in sizes]
    return SweepSpec.deduped(
        name,
        [
            ExperimentSpec(
                family=args.family,
                family_params=params,
                walk=args.walk,
                target=args.target,
                trials=args.trials,
                root_seed=args.seed,
            )
            for params in params_list
        ],
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    policy = _execution_policy(args, args.walk)
    sweep_spec = _sweep_spec_from_args(args)
    store = ResultStore(args.store, durability=_store_durability(args))
    try:
        with _telemetry_session(args, "sweep") as tctx:
            tctx["store"] = store
            result = run_sweep(
                sweep_spec,
                store=store,
                policy=policy,
                use_cache=not args.force,
                progress=print_progress,
            )
    except KeyboardInterrupt:
        print(
            f"interrupted — completed trials are saved in {store.root}; "
            "re-run with --resume to finish the rest",
            file=sys.stderr,
        )
        return 130
    print(result.summary())
    print()
    print(format_sweep_report(result.name, [(p.spec, p.run) for p in result.points]))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    sweep_spec = _sweep_spec_from_args(args)
    store = ResultStore(args.store)
    print(format_sweep_report(sweep_spec.name, sweep_runs_from_store(store, sweep_spec)))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    if args.action == "ls" and getattr(args, "manifests", False):
        rows = []
        for path, manifest in store.manifests():
            counters = manifest.get("counters", {}) or {}
            rss = manifest.get("peak_rss_bytes", 0) or 0
            rows.append(
                [
                    path.name,
                    manifest.get("command", "?"),
                    manifest.get("walk") or "-",
                    manifest.get("engine") or "-",
                    counters.get("runner.steps", "-"),
                    manifest.get("wall_seconds", "-"),
                    round(rss / (1024 * 1024), 1) if rss else "-",
                ]
            )
        print(
            format_table(
                ["manifest", "command", "walk", "engine", "steps", "wall s", "rss MB"],
                rows,
                title=f"run manifests in {store.manifest_dir()}",
            )
        )
        return 0
    if args.action == "ls":
        rows = []
        total_trials = 0
        total_wall = 0.0
        for entry in store.entries():
            rows.append(
                [entry.spec_hash, entry.describe(), entry.trials_cached, entry.total_wall_time]
            )
            total_trials += entry.trials_cached
            total_wall += entry.total_wall_time
        print(
            format_table(
                ["hash", "point", "trials", "wall s"],
                rows,
                title=f"experiment store {store.root}",
            )
        )
        print()
        print(
            format_kv_block(
                "totals",
                [
                    ["specs", len(rows)],
                    ["trials", total_trials],
                    ["wall s", total_wall],
                    ["quarantined lines", store.quarantined_count()],
                ],
            )
        )
        return 0
    if args.action == "gc":
        stats = store.gc()
        print(
            format_kv_block(
                f"gc of {store.root}",
                [
                    ["specs kept", stats.specs_kept],
                    ["records kept", stats.records_kept],
                    ["duplicates dropped", stats.duplicates_dropped],
                    ["quarantined purged", stats.quarantined_purged],
                    ["orphan shards removed", stats.orphan_shards_removed],
                ],
            )
        )
        return 0
    raise ReproError(f"unknown store action {args.action!r}")


def _cmd_cover(args: argparse.Namespace) -> int:
    if args.walk not in WALKS:
        raise ReproError(f"unknown walk {args.walk!r}; choose from {sorted(WALKS)}")
    policy = _execution_policy(args, args.walk)
    start = args.start
    params = _family_params(args)
    if start != "random":
        # Validate analytically, before any graph exists: a bad --start on
        # a 10^7-vertex implicit family must error naming the range, not
        # build (let alone materialize) anything first.
        n_analytic = family_vertex_count(args.family, params)
        if n_analytic is not None and not 0 <= int(start) < n_analytic:
            inner = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
            raise ReproError(
                f"start vertex {start} out of range 0..{n_analytic - 1} "
                f"for {args.family}({inner})"
            )
    with _telemetry_session(args, "cover"):
        # Built inside the session so the manifest counts the graph build.
        graph = _build_family_graph(args, spawn(args.seed, "cli-cover-graph"))
        run = cover_time_trials(
            workload=graph,
            walk_factory=args.walk,
            trials=args.trials,
            root_seed=args.seed,
            target=args.target,
            start=start,
            label=f"cli-cover-{args.walk}",
            policy=policy,
        )
    denom = graph.n if args.target == "vertices" else graph.m
    print(
        format_kv_block(
            f"{args.target} cover time of {args.walk} on {graph.name or args.family}",
            [
                ["n", graph.n],
                ["m", graph.m],
                ["trials", args.trials],
                ["mean steps", run.stats.mean],
                ["std", run.stats.std],
                ["min", run.stats.minimum],
                ["max", run.stats.maximum],
                ["mean / size", run.stats.mean / denom],
                ["mean / (size ln size)", run.stats.mean / (denom * math.log(max(denom, 2)))],
            ],
        )
    )
    return 0


def _cmd_spectral(args: argparse.Namespace) -> int:
    try:
        from repro.spectral.conductance import conductance_interval_from_gap
        from repro.spectral.eigen import extreme_eigenvalues, spectral_gap
    except ModuleNotFoundError as exc:
        if (exc.name or "").partition(".")[0] != "scipy":
            raise
        raise ReproError(
            "`repro spectral` needs scipy; install it with pip install 'repro[spectral]'"
        ) from exc
    _require_materialized(args, "the spectral profile (dense eigensolve)")
    build_rng = spawn(args.seed, "cli-spectral-graph")
    graph = _build_family_graph(args, build_rng)
    lam1, lam2, lamn = extreme_eigenvalues(graph)
    gap = spectral_gap(graph)
    lazy_gap = spectral_gap(graph, lazy=True)
    phi_lo, phi_hi = conductance_interval_from_gap(graph)
    print(
        format_kv_block(
            f"spectral profile of {graph.name or args.family}",
            [
                ["n", graph.n],
                ["m", graph.m],
                ["lambda_1", lam1],
                ["lambda_2", lam2],
                ["lambda_n", lamn],
                ["gap 1-lambda_max", gap],
                ["lazy gap", lazy_gap],
                ["conductance >=", phi_lo],
                ["conductance <=", phi_hi],
            ],
            float_digits=5,
        )
    )
    return 0


def _cmd_goodness(args: argparse.Namespace) -> int:
    _require_materialized(args, "exact ℓ-goodness")
    build_rng = spawn(args.seed, "cli-goodness-graph")
    graph = _build_family_graph(args, build_rng)
    if graph.n > args.limit:
        raise ReproError(
            f"exact goodness on n={graph.n} would be slow; pass --limit to override"
        )
    value = ell_goodness_exact(graph)
    print(
        format_kv_block(
            f"exact ℓ-goodness of {graph.name or args.family}",
            [["n", graph.n], ["m", graph.m], ["girth", girth(graph)], ["ell", value]],
        )
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.engine import NAMED_WALK_FACTORIES
    from repro.sim.plot import ascii_plot
    from repro.sim.profiles import record_profile

    build_rng = spawn(args.seed, "cli-profile-graph")
    graph = _build_family_graph(args, build_rng)
    # Registry factories dispatch per backend (the oracle walks step
    # implicit families) and consume randomness identically to the direct
    # constructors, so materialized-family output is unchanged.
    e_walk = NAMED_WALK_FACTORIES["eprocess"]["reference"](
        graph, 0, spawn(args.seed, "cli-profile-e")
    )
    e_profile = record_profile(e_walk)
    s_walk = NAMED_WALK_FACTORIES["srw"]["reference"](
        graph, 0, spawn(args.seed, "cli-profile-s")
    )
    s_profile = record_profile(s_walk)
    series = [
        (
            "E-process",
            [float(max(p.step, 1)) for p in e_profile.points],
            e_profile.vertex_fractions(graph.n),
        ),
        (
            "SRW",
            [float(max(p.step, 1)) for p in s_profile.points],
            s_profile.vertex_fractions(graph.n),
        ),
    ]
    print(
        ascii_plot(
            series,
            title=f"vertex coverage vs time on {graph.name or args.family} "
            "(log time axis)",
            x_label="steps",
            y_label="fraction visited",
            log_x=True,
        )
    )
    print()
    print(
        format_kv_block(
            "cover landmarks",
            [
                ["E-process cover step", e_profile.vertex_cover_step],
                ["SRW cover step", s_profile.vertex_cover_step],
                ["E tail share (last 1%)", e_profile.tail_fraction(graph.n)],
                ["SRW tail share (last 1%)", s_profile.tail_fraction(graph.n)],
            ],
        )
    )
    return 0


def _cmd_blanket(args: argparse.Namespace) -> int:
    from repro.sim.blanket import blanket_time, time_to_visit_counts
    from repro.walks.srw import SimpleRandomWalk

    _require_materialized(args, "blanket times (per-vertex visit counts)")
    build_rng = spawn(args.seed, "cli-blanket-graph")
    graph = _build_family_graph(args, build_rng)
    t_r_values = []
    cv_values = []
    bl_values = []
    for trial in range(args.trials):
        walk = SimpleRandomWalk(graph, 0, rng=spawn(args.seed, "cli-blanket", trial))
        t_r_values.append(
            time_to_visit_counts(walk, threshold=lambda v: graph.degree(v))
        )
        cover_walk = SimpleRandomWalk(graph, 0, rng=spawn(args.seed, "cli-blanket-cv", trial))
        cv_values.append(cover_walk.run_until_vertex_cover())
        bl_walk = SimpleRandomWalk(graph, 0, rng=spawn(args.seed, "cli-blanket-bl", trial))
        bl_values.append(blanket_time(bl_walk, delta=args.delta))
    from repro.sim.results import aggregate as _agg

    t_r = _agg(t_r_values)
    cv = _agg(cv_values)
    bl = _agg(bl_values)
    print(
        format_kv_block(
            f"blanket-style times on {graph.name or args.family} (eq. 4 route)",
            [
                ["n", graph.n],
                ["m", graph.m],
                ["trials", args.trials],
                ["CV(SRW) mean", cv.mean],
                [f"tau_bl(delta={args.delta:g})", bl.mean],
                [f"tau_bl(delta={args.delta:g}) / CV", bl.mean / cv.mean],
                ["T(d): every v seen d(v) times", t_r.mean],
                ["T(d) / CV  (O(1) by Ding-Lee-Peres)", t_r.mean / cv.mean],
                ["eq.(4) edge-cover envelope m + CV", graph.m + cv.mean],
            ],
        )
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run

    return run(args)


def _cmd_stars(args: argparse.Namespace) -> int:
    counts = []
    for trial in range(args.trials):
        rng = spawn(args.seed, "cli-stars", trial)
        graph = random_connected_regular_graph(args.n, args.r, rng)
        walk = EdgeProcess(graph, rng.randrange(graph.n), rng=rng, record_phases=False)
        budget = args.snapshot_steps if args.snapshot_steps else 2 * graph.m
        for _ in range(budget):
            if walk.num_visited_edges == graph.m:
                break
            walk.step()
        counts.append(len(isolated_blue_stars(walk)))
    stats = aggregate(counts)
    expected = expected_isolated_stars(args.n, args.r) if args.r % 2 == 1 else 0.0
    print(
        format_kv_block(
            f"isolated blue stars on random {args.r}-regular graphs (n={args.n})",
            [
                ["trials", args.trials],
                ["snapshot steps", args.snapshot_steps or 2 * args.n * args.r // 2],
                ["mean stars", stats.mean],
                ["std", stats.std],
                ["heuristic n((r-2)/(r-1))^r", expected],
                ["mean / n", stats.mean / args.n],
            ],
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="E-process experiments (Berenbrink-Cooper-Friedetzky, PODC'12)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more logging on stderr (-v: INFO, -vv: DEBUG)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="less logging on stderr (-q: ERROR, -qq: CRITICAL)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig1 = sub.add_parser("figure1", help="regenerate Figure 1 at a chosen scale")
    fig1.add_argument("--sizes", type=int, nargs="+", default=[1000, 2000, 4000, 8000])
    fig1.add_argument("--degrees", type=int, nargs="+", default=[3, 4, 5, 6, 7])
    fig1.add_argument("--trials", type=int, default=5)
    fig1.add_argument("--seed", type=int, default=DEFAULT_ROOT_SEED)
    _add_policy_arguments(fig1)
    _add_telemetry_arguments(fig1)
    fig1.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="experiment store directory; trials cached there are reused "
        "and fresh ones persisted (default: ephemeral, nothing saved)",
    )
    fig1.add_argument(
        "--durable",
        action="store_true",
        help="fsync every store checkpoint, one per trial or fleet batch "
        "(checkpoints survive power loss, not just process crashes; slower)",
    )
    fig1.set_defaults(fn=_cmd_figure1)

    def _add_sweep_grid_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--family",
            default="regular",
            choices=FAMILY_CHOICES,
            help="graph family (default: random regular)",
        )
        p.add_argument("--sizes", type=int, nargs="+", default=None,
                       help="target vertex counts, one sweep point each "
                       "(default: 1000 2000 4000; not valid for --family lps)")
        p.add_argument("--degrees", type=int, nargs="+", default=None,
                       help="degrees for --family regular, grid with --sizes "
                       "(default: 4; only valid for --family regular)")
        p.add_argument("--p", type=int, default=5, help="LPS p (degree p+1)")
        p.add_argument("--q", type=int, default=13, help="LPS q (size ~ q^3)")
        p.add_argument("--walk", default="eprocess", choices=sorted(WALK_BUILDERS))
        p.add_argument("--target", default="vertices", choices=["vertices", "edges"])
        p.add_argument("--trials", type=int, default=5,
                       help="trials per point; raising it later tops up the store")
        p.add_argument("--seed", type=int, default=DEFAULT_ROOT_SEED)
        p.add_argument("--store", default=".repro-store", metavar="DIR",
                       help="experiment store directory (default: .repro-store)")

    swp = sub.add_parser(
        "sweep",
        help="run a sweep against the experiment store (only missing trials)",
    )
    _add_sweep_grid_arguments(swp)
    _add_policy_arguments(swp)
    _add_telemetry_arguments(swp)
    swp.add_argument(
        "--durable",
        action="store_true",
        help="fsync every store checkpoint, one per trial or fleet batch "
        "(checkpoints survive power loss, not just process crashes; slower)",
    )
    swp.add_argument(
        "--resume",
        action="store_true",
        help="finish an interrupted sweep (this is the default behaviour — "
        "cached trials are always reused; the flag documents intent)",
    )
    swp.add_argument(
        "--force",
        action="store_true",
        help="recompute every trial, ignoring cached results",
    )
    swp.set_defaults(fn=_cmd_sweep)

    rep = sub.add_parser(
        "report",
        help="rebuild a sweep's table purely from the store (runs nothing)",
    )
    _add_sweep_grid_arguments(rep)
    rep.set_defaults(fn=_cmd_report)

    st = sub.add_parser("store", help="inspect or compact an experiment store")
    st.add_argument("action", choices=["ls", "gc"])
    st.add_argument("--store", default=".repro-store", metavar="DIR")
    st.add_argument(
        "--manifests",
        action="store_true",
        help="with ls: list run manifests saved under the store's "
        "manifests/ directory instead of trial records",
    )
    st.set_defaults(fn=_cmd_store)

    cover = sub.add_parser("cover", help="cover time of one walk on one family")
    _add_family_arguments(cover)
    cover.add_argument("--walk", default="eprocess", choices=sorted(WALKS))
    cover.add_argument("--target", default="vertices", choices=["vertices", "edges"])
    cover.add_argument("--trials", type=int, default=5)
    cover.add_argument(
        "--start",
        default="random",
        help="fixed start vertex id, or 'random' for a uniform start per "
        "trial (default: random)",
    )
    cover.add_argument("--seed", type=int, default=DEFAULT_ROOT_SEED)
    _add_policy_arguments(cover)
    _add_telemetry_arguments(cover)
    cover.set_defaults(fn=_cmd_cover)

    spectral = sub.add_parser("spectral", help="eigenvalue gap / conductance")
    _add_family_arguments(spectral)
    spectral.add_argument("--seed", type=int, default=DEFAULT_ROOT_SEED)
    spectral.set_defaults(fn=_cmd_spectral)

    goodness = sub.add_parser("goodness", help="exact ℓ-goodness (small graphs)")
    _add_family_arguments(goodness)
    goodness.add_argument("--limit", type=int, default=64)
    goodness.add_argument("--seed", type=int, default=DEFAULT_ROOT_SEED)
    goodness.set_defaults(fn=_cmd_goodness)

    profile = sub.add_parser("profile", help="coverage-vs-time curves (ASCII)")
    _add_family_arguments(profile)
    profile.add_argument("--seed", type=int, default=DEFAULT_ROOT_SEED)
    profile.set_defaults(fn=_cmd_profile)

    blanket = sub.add_parser("blanket", help="eq.(4) blanket-style times")
    _add_family_arguments(blanket)
    blanket.add_argument("--trials", type=int, default=3)
    blanket.add_argument("--seed", type=int, default=DEFAULT_ROOT_SEED)
    blanket.add_argument(
        "--delta",
        type=float,
        default=0.5,
        help="blanket parameter delta in (0,1) for tau_bl(delta) "
        "(Ding-Lee-Peres [7]; default 0.5)",
    )
    blanket.set_defaults(fn=_cmd_blanket)

    stars = sub.add_parser("stars", help="Section 5 isolated-star census")
    stars.add_argument("--n", type=int, default=3000)
    stars.add_argument("--r", type=int, default=3)
    stars.add_argument("--trials", type=int, default=5)
    stars.add_argument("--snapshot-steps", type=int, default=0, help="0 = 2m steps")
    stars.add_argument("--seed", type=int, default=DEFAULT_ROOT_SEED)
    stars.set_defaults(fn=_cmd_stars)

    lint = sub.add_parser(
        "lint",
        help="AST invariant linter: rng discipline, determinism, telemetry "
        "overhead, error discipline, spec-hash consistency",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(fn=_cmd_lint)

    return parser


def _configure_logging(args: argparse.Namespace) -> None:
    """Map the global -v/-q counts onto the root logger's level.

    WARNING is the silent default; each ``-v`` lowers the threshold one
    notch (INFO, then DEBUG), each ``-q`` raises it (ERROR, CRITICAL).
    Logs share stderr with progress lines, keeping stdout's tables clean.
    """
    level = logging.WARNING - 10 * args.verbose + 10 * args.quiet
    level = max(logging.DEBUG, min(logging.CRITICAL, level))
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
