"""Performance ledger for ``repro``: end-to-end and per-layer metrics.

    python3 perfledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfledger/run.py --smoke
    python3 perfledger/run.py --compare BASE.jsonl NEW.jsonl
    python3 perfledger/run.py --bless full|smoke

A run drives the real CLI (``python -m repro``) on one workload of
``workloads.py`` for about S seconds, checks every command's output
against the golden digests in ``golden.json``, prints each metric with its
unit, and ends with one JSON line: ``correct``, ``attempted``, ``failed``
(trials) and ``metrics``.  It exits 1 when any trial failed, 2 when it
refuses to measure (no sources, or a sanitized kernel).

``--trace 0`` reports the end-to-end metrics of repeated untraced rounds:
the best round for times, the median for set-up time and memory.
``--trace 1`` runs the round once under ``tracer.py`` for the per-layer
split, then alternates untraced rounds with and without the CLI's
``--telemetry`` to price both the tracing and the telemetry.
``--out FILE`` appends each result, with its stamp, for ``--compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import bench
import layers
import metrics
from workloads import WORKLOADS

SETUP_REPEATS = 5
#: Blessed inputs per scale; a run's input is ``--seed`` modulo this.
GOLDEN_POOL = {"full": 16, "smoke": 1}
MIN_ROUNDS = 3
VERSION = ["-m", "repro", "--version"]
median = statistics.median


def _repeat(run: Callable[[int], object], seconds: float, minimum: int) -> list:
    """Call ``run(i)`` at least ``minimum`` times, then while time allows."""
    results: list = []
    start = time.monotonic()
    while True:
        results.append(run(len(results)))
        elapsed = time.monotonic() - start
        if len(results) >= minimum and elapsed * (1 + 1 / len(results)) > seconds:
            return results


def _wall(round_: bench.Round) -> float:
    return sum(c.wall for c in round_.commands)


def _warm_up(work: Path) -> None:
    """Compile bytecode and fill file caches before anything is timed."""
    if bench.run_python(VERSION, work / "warmup").returncode != 0:
        raise bench.BenchError("`python -m repro --version` failed")


def _end_to_end(workload, scale, seed, golden, seconds, work, minimum, setup_repeats):
    """Best round for times, median for set-up and memory.

    Other tenants of a small machine only ever slow a round down, so the
    fastest round is the steadiest estimate of the program's own cost;
    set-up samples are spread over the run, one before each round.
    """
    _warm_up(work)
    setup: List[float] = []

    def sample_setup() -> None:
        setup.append(bench.run_python(VERSION, work / f"setup{len(setup)}").wall)

    def run(i: int) -> bench.Round:
        sample_setup()
        round_ = bench.run_round(workload, scale, seed, golden, "plain", work / f"round{i}")
        shutil.rmtree(work / f"round{i}", ignore_errors=True)
        return round_

    rounds = _repeat(run, seconds, minimum)
    while len(setup) < setup_repeats:
        sample_setup()
    values = {
        "setup_s": median(setup),
        "trials_per_s": max(r.trials / r.cold.wall for r in rounds),
        "steps_per_s": max(r.steps / r.cold.wall for r in rounds),
        "warm_s": min(r.warm_wall for r in rounds),
        "cpu_ms_per_trial": min(1e3 * r.cold.cpu_s / r.trials for r in rounds),
        "peak_rss_mb": median(r.cold.rss_mb for r in rounds),
    }
    return values, rounds


def _per_layer(workload, scale, seed, golden, seconds, work):
    """One traced round, then untraced pairs with and without telemetry."""
    start = time.monotonic()
    _warm_up(work)
    traced = bench.run_round(workload, scale, seed, golden, "traced", work / "traced")

    def pair(i: int) -> Dict[str, bench.Round]:
        modes = ("plain", "telemetry") if i % 2 == 0 else ("telemetry", "plain")
        out = {}
        for mode in modes:
            out[mode] = bench.run_round(workload, scale, seed, golden, mode, work / f"{mode}{i}")
            shutil.rmtree(work / f"{mode}{i}", ignore_errors=True)
        return out

    pairs = _repeat(pair, seconds - (time.monotonic() - start), 1)
    plain = min(_wall(p["plain"]) for p in pairs)
    values = layers.layer_metrics(traced.traced)
    values["trace.overhead_frac"] = _wall(traced) / plain - 1
    values["telemetry.overhead_frac"] = min(_wall(p["telemetry"]) for p in pairs) / plain - 1
    return values, [traced] + [r for p in pairs for r in p.values()]


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale_name: str = "full",
    minimum: int = MIN_ROUNDS,
    setup_repeats: int = SETUP_REPEATS,
) -> Tuple[dict, List[str]]:
    """One ledger run; returns the result object and any problems found."""
    workload = WORKLOADS[name]
    goldens = bench.load_golden(scale_name, name)
    input_seed = seed % len(goldens)
    work = bench.WORK_DIR / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    args = (workload, workload.scale(scale_name), input_seed, goldens[input_seed], seconds, work)
    try:
        if trace:
            values, rounds = _per_layer(*args)
        else:
            values, rounds = _end_to_end(*args, minimum, setup_repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    catalogue = metrics.PER_LAYER if trace else metrics.END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": float(values[m.name]), "unit": m.unit} for m in catalogue},
    }
    return result, [p for r in rounds for p in r.problems]


def prepare() -> dict:
    """Check the sources, build and vet the kernel; returns the run stamp."""
    bench.require_source()
    bench.build_native()
    return bench.stamp(bench.kernel_identity(bench.native_kernel()))


def _print_result(title: str, stamp: dict, result: dict, problems: List[str]) -> None:
    print(title)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':32s} {rate:.6g} ratio ({result['failed']} of {result['attempted']} trials failed)")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps(result))


# -- modes -------------------------------------------------------------------


def _check(result: dict, trace: bool) -> List[str]:
    """Smoke assertions: every named metric with its unit, all trials correct."""
    catalogue = metrics.PER_LAYER if trace else metrics.END_TO_END
    found = {k: v["unit"] for k, v in result["metrics"].items()}
    wanted = {m.name: m.unit for m in catalogue}
    errors = [f"metric {k} missing or wrong unit" for k in wanted if found.get(k) != wanted[k]]
    errors += [f"unexpected metric {k}" for k in found if k not in wanted]
    if not result["correct"] or result["failed"]:
        errors.append(f"{result['failed']} of {result['attempted']} trials failed")
    return errors


def check_sanitized_refused(directory: Path) -> List[str]:
    """A kernel that links a sanitizer runtime must be refused by name."""
    directory.mkdir(parents=True, exist_ok=True)
    fake = directory / "_fused.so"
    fake.write_bytes(b"\x7fELF\0fake\0__asan_init\0")
    try:
        bench.kernel_identity(fake)
    except bench.BenchError as exc:
        return [] if str(fake) in str(exc) else [f"refusal does not name {fake}: {exc}"]
    finally:
        fake.unlink()
    return [f"sanitized kernel {fake} was accepted"]


def smoke() -> int:
    """Every workload at toy size, untraced and traced; no timing assertions."""
    stamp = prepare()
    print("stamp " + json.dumps(stamp, sort_keys=True))
    errors = check_sanitized_refused(bench.WORK_DIR / f"fake-{os.getpid()}")
    for name in WORKLOADS:
        for trace in (False, True):
            result, problems = measure(name, 0, 0, trace, "smoke", minimum=1, setup_repeats=1)
            found = [f"{name} trace={int(trace)}: {e}" for e in _check(result, trace) + problems]
            print(f"{name} trace={int(trace)}: {'ok' if not found else 'FAILED'}")
            errors += found
    for error in errors:
        print(f"  {error}")
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def _records(path: str) -> List[dict]:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return data if isinstance(data, list) else [data]


def compare(base_path: str, new_path: str) -> int:
    """Median of per-pair ratios new/base per workload and end-to-end metric.

    Runs pair up by seed where both files have it, otherwise in file order.
    A metric worse by more than its bound is flagged; this never fails.
    """
    base_all, new_all = _records(base_path), _records(new_path)
    print(f"{'workload':12s} {'metric':18s} {'base median':>14s} {'new/base':>9s}  pairs")
    for name in WORKLOADS:
        base = [r for r in base_all if r["workload"] == name and not r["trace"]]
        new = [r for r in new_all if r["workload"] == name and not r["trace"]]
        by_seed = {r["seed"]: r for r in new}
        pairs = [(r, by_seed[r["seed"]]) for r in base if r["seed"] in by_seed]
        if not pairs:
            pairs = list(zip(base, new))
        if not pairs:
            continue
        for metric in metrics.END_TO_END:
            base_median = median(a["metrics"][metric.name]["value"] for a, _ in pairs)
            ratio = median(
                b["metrics"][metric.name]["value"] / a["metrics"][metric.name]["value"]
                for a, b in pairs
            )
            worse = ratio > 1 + metric.bound if metric.better == "lower" else ratio < 1 - metric.bound
            flag = f"  WORSE by more than {metric.bound:.0%}" if worse else ""
            print(
                f"{name:12s} {metric.name:18s} {base_median:>10.4g} {metric.unit:3s} "
                f"{ratio:>9.3f}  {len(pairs)}{flag}"
            )
    return 0


def bless(scale_name: str) -> int:
    """Recompute the golden digests of one scale: one cold run per input seed."""
    prepare()
    golden = json.loads(bench.GOLDEN_PATH.read_text()) if bench.GOLDEN_PATH.exists() else {}
    digests: Dict[str, List[str]] = {}
    work = bench.WORK_DIR / f"bless-{os.getpid()}"
    try:
        for name, workload in WORKLOADS.items():
            digests[name] = []
            for seed in range(GOLDEN_POOL[scale_name]):
                round_ = bench.run_round(
                    workload, workload.scale(scale_name), seed, None, "plain", work / f"{name}-{seed}"
                )
                if round_.failed:
                    print(f"{name} seed {seed}: {round_.problems}", file=sys.stderr)
                    return 1
                digests[name].append(round_.digest)
                print(f"{name} seed {seed}: {round_.digest}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    golden[scale_name] = digests
    bench.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfledger", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result, with its stamp, to this JSONL file")
    parser.add_argument("--smoke", action="store_true", help="toy sizes, correctness only")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--bless", choices=("full", "smoke"), help="recompute golden digests")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.smoke:
            return smoke()
        if args.bless:
            return bless(args.bless)
        if args.workload is None:
            parser.error("--workload is required")
        stamp = prepare()
        result, problems = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except bench.BenchError as exc:
        print(f"perfledger: {exc}", file=sys.stderr)
        return 2
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "stamp": stamp}
        with open(args.out, "a") as handle:
            handle.write(json.dumps({**record, **result}) + "\n")
    _print_result(
        f"perfledger {args.workload} seed={args.seed} trace={args.trace}", stamp, result, problems
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
