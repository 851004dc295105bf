"""E12 — engine throughput: steps/second of the walk engines.

Not a paper claim — this is the harness's own scaling sanity check, and the
one benchmark in the suite that uses pytest-benchmark's repeated-rounds
timing the classic way.  It documents how far the engines can be pushed
toward the paper's n = 5·10⁵ grid.

Two modes:

* under pytest (``pytest benchmarks/ --benchmark-only``): the classic
  per-engine chunk benches below;
* standalone (``python benchmarks/bench_engine_throughput.py``): a
  reference-vs-array comparison of every engine pair (srw, eprocess,
  rotor, rwc2) on a 10k-vertex random 4-regular graph, plus per-walk
  fleet sections (srw, eprocess, vprocess on the regular graph, and
  srw_irregular on a mixed-degree graph) comparing each lockstep
  fleet's aggregate cover throughput against the same trials on the
  walk's best per-trial engine.  Fleet sections additionally time the
  *numpy* and *native* (fused C kernel) stepwise paths separately —
  ``native_speedup`` is native-over-numpy for the same fleet, null when
  the extension is not built.  Written to
  ``benchmarks/out/BENCH_engine.json`` and appended
  (one JSON line per run) to ``benchmarks/out/BENCH_engine_history.jsonl``
  so the perf trajectory accumulates across PRs — see
  ``benchmarks/README.md`` for how to read it.

Engine pairs are timed cold: a fresh walk per round, timed over one
vertex-cover run (``run_until_vertex_cover``), the unit of work every
``repro`` command performs.  The headline ``speedup`` is the SRW pair's.

``--smoke`` (used by CI) swaps timing for correctness: on a small graph
it asserts every engine pair — array twins and the srw/eprocess/vprocess
fleets — stays bit-identical to its reference, and exits non-zero on any
mismatch.  No timing assertions, no files written.

A timed run refuses (exit 2, before any measurement) a ``_fused`` build
instrumented by ASan or TSan: their overhead would make every native
number meaningless.  ``--smoke`` checks parity only and still runs on one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

try:
    from conftest import ROOT_SEED
except ImportError:  # standalone: not running under pytest's rootdir
    from repro.sim.rng import DEFAULT_ROOT_SEED as ROOT_SEED

from repro.core.eprocess import EdgeProcess
from repro.engine import (
    ArrayEdgeProcess,
    ArrayRotorRouter,
    ArrayRWC,
    ArraySRW,
    FLEET_ENGINES,
    NAMED_WALK_FACTORIES,
    native,
)
from repro.graphs.random_regular import (
    random_connected_regular_graph,
    random_even_degree_graph,
)
from repro.sim.rng import spawn
from repro.telemetry import Telemetry, build_manifest, session
from repro.walks.choice import RandomWalkWithChoice
from repro.walks.rotor import RotorRouterWalk
from repro.walks.srw import SimpleRandomWalk

N = 20_000
DEGREE = 4
CHUNK = 50_000

#: Standalone-report configuration (the acceptance workload).
JSON_N = 10_000
JSON_ROUNDS = 5
FLEET_SIZES = (32, 64, 128)
#: Fleet sections measured standalone: section -> (walk, graph kind,
#: fleet sizes).  The stepwise kernels keep gaining with width, so the
#: regular-graph sections sweep to the default 128.  ``srw_irregular``
#: runs the same SRW fleet on a mixed-degree graph.
FLEET_SECTIONS = {
    "srw": ("srw", "regular", FLEET_SIZES),
    "eprocess": ("eprocess", "regular", FLEET_SIZES),
    "vprocess": ("vprocess", "regular", FLEET_SIZES),
    "srw_irregular": ("srw", "irregular", (128,)),
}
#: Present in the dynamic symbols of any ASan- or TSan-instrumented build.
SANITIZER_SYMBOLS = (b"__asan_init", b"__tsan_init")
#: Steps per array/reference smoke pair: past one ``run()`` split
#: boundary (:data:`~repro.engine.base.RUN_SPLIT_STEPS` = 65 536).
SMOKE_STEPS = 70_000
OUT_DIR = Path(__file__).parent / "out"
OUTPUT_PATH = OUT_DIR / "BENCH_engine.json"
HISTORY_PATH = OUT_DIR / "BENCH_engine_history.jsonl"


def sanitized_kernel() -> Optional[str]:
    """Why the built ``_fused`` extension must not be timed, or None.

    Reads the file the import system would load, not the loaded kernel:
    a sanitized build fails to load without its runtime preloaded, and a
    run would then time the numpy path under a native heading.
    """
    path = native._find_extension()
    if path is None:
        return None
    data = Path(path).read_bytes()
    for symbol in SANITIZER_SYMBOLS:
        if symbol in data:
            return (
                f"{path} is a sanitized build (it links {symbol.decode()}); "
                "rebuild it without REPRO_SANITIZE before timing"
            )
    return None


def _git_sha() -> Optional[str]:
    """The checked-out commit, or None outside a git checkout."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    return git.stdout.strip() if git.returncode == 0 else None


def _graph():
    return random_connected_regular_graph(N, DEGREE, spawn(ROOT_SEED, "E12"))


def _irregular_graph(n: int, rng):
    """Connected mixed-degree (4/6) graph: the stepwise-SRW workload."""
    from repro.graphs.properties import is_connected

    degrees = [4, 6] * (n // 2)
    for _ in range(50):
        g = random_even_degree_graph(degrees, rng, name=f"EvenDS({n})")
        if is_connected(g):
            return g
    raise RuntimeError(f"no connected even-degree sample for n={n}")


def bench_srw_steps(benchmark):
    graph = _graph()
    walk = SimpleRandomWalk(graph, 0, rng=spawn(ROOT_SEED, "E12-s"))

    def chunk():
        walk.run(CHUNK)

    benchmark.pedantic(chunk, rounds=3, iterations=1)
    benchmark.extra_info["steps_per_round"] = CHUNK


def bench_eprocess_steps(benchmark):
    graph = _graph()
    walk = EdgeProcess(graph, 0, rng=spawn(ROOT_SEED, "E12-e"), record_phases=False)

    def chunk():
        walk.run(CHUNK)

    benchmark.pedantic(chunk, rounds=3, iterations=1)
    benchmark.extra_info["steps_per_round"] = CHUNK


def bench_rotor_steps(benchmark):
    graph = _graph()
    walk = RotorRouterWalk(graph, 0, rng=spawn(ROOT_SEED, "E12-r"))

    def chunk():
        walk.run(CHUNK)

    benchmark.pedantic(chunk, rounds=3, iterations=1)
    benchmark.extra_info["steps_per_round"] = CHUNK


def bench_rwc_steps(benchmark):
    graph = _graph()
    walk = RandomWalkWithChoice(graph, 0, d=2, rng=spawn(ROOT_SEED, "E12-c"))

    def chunk():
        walk.run(CHUNK)

    benchmark.pedantic(chunk, rounds=3, iterations=1)
    benchmark.extra_info["steps_per_round"] = CHUNK


def bench_array_srw_steps(benchmark):
    graph = _graph()
    walk = ArraySRW(graph, 0, rng=spawn(ROOT_SEED, "E12-s"))

    def chunk():
        walk.run(CHUNK)

    benchmark.pedantic(chunk, rounds=3, iterations=1)
    benchmark.extra_info["steps_per_round"] = CHUNK


def bench_array_eprocess_steps(benchmark):
    graph = _graph()
    walk = ArrayEdgeProcess(graph, 0, rng=spawn(ROOT_SEED, "E12-e"), record_phases=False)

    def chunk():
        walk.run(CHUNK)

    benchmark.pedantic(chunk, rounds=3, iterations=1)
    benchmark.extra_info["steps_per_round"] = CHUNK


def bench_array_rotor_steps(benchmark):
    graph = _graph()
    walk = ArrayRotorRouter(graph, 0, rng=spawn(ROOT_SEED, "E12-r"))

    def chunk():
        walk.run(CHUNK)

    benchmark.pedantic(chunk, rounds=3, iterations=1)
    benchmark.extra_info["steps_per_round"] = CHUNK


def bench_array_rwc_steps(benchmark):
    graph = _graph()
    walk = ArrayRWC(graph, 0, d=2, rng=spawn(ROOT_SEED, "E12-c"))

    def chunk():
        walk.run(CHUNK)

    benchmark.pedantic(chunk, rounds=3, iterations=1)
    benchmark.extra_info["steps_per_round"] = CHUNK


# ----------------------------------------------------------------------
# Standalone BENCH_engine.json emitter
# ----------------------------------------------------------------------
def _timed_cover(walk):
    """``(cover steps, steps/s)`` of one vertex-cover run of ``walk``."""
    t0 = time.perf_counter()
    steps = walk.run_until_vertex_cover()
    return steps, steps / (time.perf_counter() - t0)


def _measure_pair(make_reference, make_array, rounds: int) -> dict:
    """Cold cover throughput of a reference/array walk pair on identical seeds.

    Each round constructs **fresh walks** and times one vertex-cover run
    of each, so the timed steps are exactly a cover run's — no stepping
    past the cover instant, which no ``repro`` command performs.  Rounds
    are *interleaved* (reference, then array, per round) so slow
    thermal/load drift hits both sides alike instead of whichever engine
    is measured second; best-of-rounds per side.  The twins are
    bit-identical, so both sides must report the same cover time.
    """
    ref_sps = arr_sps = 0.0
    for _ in range(rounds):
        cover, sps = _timed_cover(make_reference())
        ref_sps = max(ref_sps, sps)
        arr_cover, sps = _timed_cover(make_array())
        arr_sps = max(arr_sps, sps)
        assert arr_cover == cover, "array cover time diverged from reference"
    return {
        "cover_steps": cover,
        "reference_steps_per_sec": round(ref_sps),
        "array_steps_per_sec": round(arr_sps),
        "speedup": round(arr_sps / ref_sps, 2),
    }


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


@contextlib.contextmanager
def _kernel(use_native: bool):
    """Fleets run in this block step on the fused kernel if ``use_native``,
    else on the numpy path.

    ``REPRO_NATIVE=0`` is the one switch between them.  A native block
    first checks that the kernel loads, so a row labelled native is never
    timed on the numpy path.
    """
    previous = os.environ.get("REPRO_NATIVE")
    if use_native:
        os.environ.pop("REPRO_NATIVE", None)
    else:
        os.environ["REPRO_NATIVE"] = "0"
    native._reset_probe_for_testing()
    try:
        if use_native and not native.available():
            raise RuntimeError(
                f"native fleet row, but the fused kernel is unavailable: "
                f"{native.unavailable_reason()}"
            )
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = previous
        native._reset_probe_for_testing()


def _per_trial_twin(walk: str):
    """The per-trial walk each fleet lane is bit-identical to: the array
    twin where one exists, else the reference walk (vprocess)."""
    variants = NAMED_WALK_FACTORIES[walk]
    return variants.get("array", variants["reference"])


def _measure_fleet(graph, walk: str, fleet_size: int, rounds: int) -> dict:
    """Aggregate cover throughput: one lockstep ``walk`` fleet vs. the
    same trials on the walk's best per-trial engine (total vertex-cover
    steps / wall seconds, both sides), with the fleet's numpy and native
    stepwise paths timed separately.

    The per-trial comparator is :func:`_per_trial_twin` — exactly the
    per-trial walk each fleet lane is bit-identical to
    (``ArraySRW``/``ArrayEdgeProcess`` for srw/eprocess, the reference
    walk for vprocess, which has no array twin).

    Reported speedups are *medians of per-round ratios* — each round
    times every side back to back, so slow machine-load drift cancels
    inside a round instead of biasing whichever side a best-of-runs
    comparison happened to favour.  ``speedup`` compares the best fleet
    path (native when built) against per-trial; ``native_speedup``
    compares the native and numpy paths of the *same* fleet (null when
    the extension is missing).
    """
    per_trial = _per_trial_twin(walk)
    use_native = native.available()
    starts = [random.Random(100 + k).randrange(graph.n) for k in range(fleet_size)]

    def timed_fleet(use_native):
        rngs = [random.Random(1000 + k) for k in range(fleet_size)]
        with _kernel(use_native):
            t0 = time.perf_counter()
            fleet = FLEET_ENGINES[walk]([graph] * fleet_size, starts, rngs)
            cover = fleet.run_until_cover("vertices")
            elapsed = time.perf_counter() - t0
        return sum(cover), sum(cover) / elapsed

    numpy_best = native_best = seq_best = 0.0
    ratios, native_ratios = [], []
    total = 0
    for _ in range(rounds):
        total, numpy_sps = timed_fleet(False)
        native_sps = None
        if use_native:
            native_total, native_sps = timed_fleet(True)
            assert native_total == total, f"{walk} native fleet diverged from numpy"
            native_best = max(native_best, native_sps)
        t0 = time.perf_counter()
        seq_total = 0
        for k in range(fleet_size):
            seq = per_trial(graph, starts[k], random.Random(1000 + k))
            seq_total += seq.run_until_vertex_cover()
        seq_sps = seq_total / (time.perf_counter() - t0)
        assert seq_total == total, f"{walk} fleet and sequential cover totals diverged"
        numpy_best = max(numpy_best, numpy_sps)
        seq_best = max(seq_best, seq_sps)
        ratios.append((native_sps if use_native else numpy_sps) / seq_sps)
        if use_native:
            native_ratios.append(native_sps / numpy_sps)
    fleet_best = native_best if use_native else numpy_best
    return {
        "trials": fleet_size,
        "total_cover_steps": total,
        "fleet_steps_per_sec": round(fleet_best),
        "numpy_fleet_steps_per_sec": round(numpy_best),
        "native_fleet_steps_per_sec": round(native_best) if use_native else None,
        "per_trial_steps_per_sec": round(seq_best),
        "speedup": round(_median(ratios), 2),
        "native_speedup": round(_median(native_ratios), 2) if use_native else None,
    }


#: (name, reference seed-suffix) for the four reference/array pairs; the
#: factories come from the engine registry, so the bench measures exactly
#: what `cover_time_trials(policy=ExecutionPolicy(engine=...))` runs.
_PAIRS = ("srw", "eprocess", "rotor", "rwc2")


def _pair_factories(name: str, graph, seed_label: str):
    variants = NAMED_WALK_FACTORIES[name]

    def make_reference():
        return variants["reference"](graph, 0, spawn(ROOT_SEED, seed_label))

    def make_array():
        return variants["array"](graph, 0, spawn(ROOT_SEED, seed_label))

    return make_reference, make_array


def run_smoke(n: int) -> int:
    """Correctness-only pass: every engine pair bit-identical on a small
    graph (array twins: full state; fleet: cover times + RNG end-state).
    Returns a process exit code."""
    graph = random_connected_regular_graph(n, DEGREE, spawn(ROOT_SEED, "E12-smoke"))
    irregular = _irregular_graph(min(n, 200), spawn(ROOT_SEED, "E12-smoke-irr"))
    failures = []

    def state(walk):
        return (
            walk.current,
            walk.steps,
            list(walk.first_visit_time),
            list(walk.first_edge_visit_time),
            walk.rng.getstate(),
        )

    # Every pair on the regular graph, plus rwc2 on the irregular one:
    # there ArrayRWC takes its general per-draw tier, not the RWC(2)
    # regular-graph kernel.
    pairs = [(name, "regular", graph) for name in _PAIRS]
    pairs.append(("rwc2", "irregular", irregular))
    for name, shape, g in pairs:
        variants = NAMED_WALK_FACTORIES[name]
        reference = variants["reference"](g, 0, random.Random(99))
        array = variants["array"](g, 0, random.Random(99))
        reference.run(SMOKE_STEPS)
        array.run(SMOKE_STEPS)
        if state(reference) != state(array):
            failures.append(f"{name} ({shape}): array state diverged from reference")
        else:
            print(f"smoke {name} ({shape}): array == reference over {SMOKE_STEPS} steps")
    # Implicit neighbor-oracle parity: the oracle engines on implicit
    # graphs must replay the reference walks on the materialized twins.
    from repro.graphs import ImplicitHypercube, ImplicitTorus

    for oracle_graph in (ImplicitHypercube(8), ImplicitTorus(12, 16)):
        materialized = oracle_graph.materialize()
        for name in ("srw", "eprocess", "vprocess"):
            variants = NAMED_WALK_FACTORIES[name]
            oracle = variants["reference"](oracle_graph, 0, random.Random(777))
            twin = variants["reference"](materialized, 0, random.Random(777))
            if (
                oracle.run_until_vertex_cover() != twin.run_until_vertex_cover()
                or oracle.rng.getstate() != twin.rng.getstate()
            ):
                failures.append(
                    f"{name}: oracle diverged from materialized reference "
                    f"on {oracle_graph.name}"
                )
            else:
                print(
                    f"smoke {name}: oracle == materialized reference "
                    f"({oracle_graph.name})"
                )
    K = 7
    use_native = native.available()
    print(
        "smoke native kernel: "
        + (native.kernel_path() if use_native else f"unavailable ({native.unavailable_reason()})")
    )
    kernels = [("numpy", False)] + ([("native", True)] if use_native else [])
    for shape, g in (("regular", graph), ("irregular", irregular)):
        starts = [random.Random(100 + k).randrange(g.n) for k in range(K)]
        for walk_name in sorted(FLEET_ENGINES):
            for kernel, use_native in kernels:
                reference = NAMED_WALK_FACTORIES[walk_name]["reference"]
                rngs = [random.Random(1000 + k) for k in range(K)]
                twins = [random.Random(1000 + k) for k in range(K)]
                with _kernel(use_native):
                    fleet = FLEET_ENGINES[walk_name]([g] * K, starts, rngs)
                    cover = fleet.run_until_cover("vertices")
                bad = False
                for k in range(K):
                    walk = reference(g, starts[k], twins[k])
                    if (
                        cover[k] != walk.run_until_vertex_cover()
                        or rngs[k].getstate() != twins[k].getstate()
                    ):
                        failures.append(
                            f"fleet {walk_name} ({shape}, {kernel}) lane {k}: "
                            "diverged from sequential walk"
                        )
                        bad = True
                if not bad:
                    print(
                        f"smoke fleet {walk_name} ({shape}, {kernel}): "
                        f"{K} lanes == sequential walks (covers + RNG state)"
                    )
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=JSON_ROUNDS,
                        help="best-of rounds per measurement")
    parser.add_argument("--n", type=int, default=JSON_N,
                        help="benchmark graph size (4-regular)")
    parser.add_argument("--smoke", action="store_true",
                        help="correctness-only: assert every engine pair "
                        "bit-identical on a small graph; write nothing")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(min(args.n, 600))
    refusal = sanitized_kernel()
    if refusal is not None:
        print(f"error: {refusal}", file=sys.stderr)
        return 2

    git_sha = _git_sha()
    graph = random_connected_regular_graph(args.n, DEGREE, spawn(ROOT_SEED, "E12-json"))
    engines = {}
    for name in _PAIRS:
        make_reference, make_array = _pair_factories(name, graph, f"E12-json-{name}")
        engines[name] = {
            "cold": _measure_pair(make_reference, make_array, args.rounds),
        }
    irregular = _irregular_graph(args.n, spawn(ROOT_SEED, "E12-json-irr"))
    # The fleet sections run under an *enabled* telemetry context so the
    # report carries the engines' own counters (word-bank refills,
    # per-degree rejection rates, block/lane accounting) next to the
    # timings — telemetry reads counts only, so the timed numbers are the
    # same trajectories either way.
    tel = Telemetry()
    with session(tel):
        fleet = {
            section: {
                f"k{K}": _measure_fleet(
                    graph if kind == "regular" else irregular, walk, K, args.rounds
                )
                for K in sizes
            }
            for section, (walk, kind, sizes) in FLEET_SECTIONS.items()
        }
    report = {
        "benchmark": "engine_throughput",
        "n": args.n,
        "degree": DEGREE,
        "rounds": args.rounds,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "engines": engines,
        "fleet": fleet,
        # Telemetry over every fleet round above (numpy + native + the
        # per-trial comparators), with the native kernel's path and ABI
        # and REPRO_NATIVE under "env".
        "metrics": build_manifest(
            tel, command="bench_engine_throughput", extra={"git_sha": git_sha}
        ),
        "speedup": engines["srw"]["cold"]["speedup"],
        "methodology": (
            "best-of-rounds vertex-cover throughput (cover steps / wall) "
            "on one shared graph, each 'cold' round one "
            "run_until_vertex_cover() of a fresh walk; "
            "each 'fleet' section compares aggregate vertex-cover-trial "
            "throughput (total cover steps / wall) of one lockstep fleet "
            "against the same trials on the walk's best per-trial engine "
            "(speedup = median of per-round ratios; fleet side = native "
            "fused kernel when built), and 'native_speedup' compares the "
            "same fleet's native and numpy stepwise paths (null when the "
            "extension is missing)"
        ),
    }
    OUT_DIR.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    # Append the run to the across-PRs trajectory (one JSON line per run).
    summary = {
        "timestamp": report["timestamp"],
        "n": args.n,
        "cold_speedups": {k: v["cold"]["speedup"] for k, v in engines.items()},
        "fleet_speedups": {
            f"{section}_{k}": entry["speedup"]
            for section, sizes in fleet.items()
            for k, entry in sizes.items()
        },
        "native_speedups": {
            f"{section}_{k}": entry["native_speedup"]
            for section, sizes in fleet.items()
            for k, entry in sizes.items()
            if entry["native_speedup"] is not None
        },
    }
    with HISTORY_PATH.open("a") as fh:
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {OUTPUT_PATH} and appended {HISTORY_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
