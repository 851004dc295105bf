"""Mechanics of the ledger: build the kernel, identify it, run ``repro``
commands with their resource usage, and check every output.

Correctness: a sweep's digest is the sha256 of its store's per-trial cover
steps; a cover run's digest is that of the printed mean, min and max.
Replay is bit-identical across the native and numpy kernels and across
worker counts, so one golden digest per workload input serves every
environment.  A warm re-run must report zero scheduled trials and print
the cold run's table byte for byte.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from layers import TracedCommand
from workloads import Scale, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NATIVE_DIR = SRC / "repro" / "engine" / "native"
WORK_DIR = ROOT / ".bench_build" / "perfledger"
TRACER = Path(__file__).resolve().parent / "tracer.py"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: Present in the dynamic symbols of any ASan- or TSan-instrumented build.
SANITIZER_SYMBOLS = (b"__asan_init", b"__tsan_init")

#: A hung command is killed well inside the run's 180 s limit.
COMMAND_TIMEOUT_S = 100


class BenchError(Exception):
    """A condition under which the ledger refuses to report numbers."""


def require_source() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no repro sources under {SRC}: run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def native_kernel() -> Optional[Path]:
    """The ``_fused`` extension the import system would load, if built."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = NATIVE_DIR / f"_fused{suffix}"
        if path.is_file():
            return path
    return None


def build_native() -> None:
    """Compile the fused kernel in place, unless one is already there.

    ``setup.py`` never fails over the optional kernel: without a compiler
    the ledger runs, and says it ran, on the numpy path.
    """
    if native_kernel() is not None:
        return
    build = ROOT / ".bench_build" / "native"
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SANITIZE"}
    subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace",
         "--build-temp", str(build / "tmp"), "--build-lib", str(build / "lib")],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=600, check=False,
    )


def kernel_identity(path: Optional[Path]):
    """``"numpy"``, or the kernel's path and sha256.

    A sanitized build is refused even under ``REPRO_NATIVE=0``: the rule is
    that no timing is taken next to one.
    """
    from repro.engine.native import disabled

    if path is None:
        return "numpy"
    data = path.read_bytes()
    for symbol in SANITIZER_SYMBOLS:
        if symbol in data:
            raise BenchError(
                f"{path} is a sanitized build (it links {symbol.decode()}); "
                "rebuild it without REPRO_SANITIZE before timing"
            )
    if disabled():
        return "numpy"
    return {"path": str(path.relative_to(ROOT)), "sha256": hashlib.sha256(data).hexdigest()}


def stamp(kernel) -> dict:
    """What ran where: kernel, code version, CPUs, interpreter and numpy."""
    import numpy

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        sha = None
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c"):
            sources.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "kernel": kernel,
        "git_sha": sha,
        "src_sha256": sources.hexdigest(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- running commands --------------------------------------------------------


@dataclass
class Command:
    """One finished process and what it cost."""

    returncode: int
    stdout: str
    stderr: str
    spawned: float  # monotonic clock
    reaped: float
    cpu_s: float  # user + system, including reaped pool workers
    rss_mb: float  # largest peak RSS of the process and its reaped children

    @property
    def wall(self) -> float:
        return self.reaped - self.spawned


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_python(args: List[str], log_dir: Path) -> Command:
    """Run ``python ARGS`` from the checkout root with ``src`` importable."""
    log_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_dir / "stdout", "w+") as out, open(log_dir / "stderr", "w+") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env, stdout=out, stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.daemon = True
        timer.start()
        try:
            # wait4, not wait: its rusage is this command's alone, never the
            # harness's cumulative RUSAGE_CHILDREN high-water mark.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        reaped = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # stragglers of the command's own process group
        out.seek(0)
        err.seek(0)
        return Command(
            returncode=proc.returncode,
            stdout=out.read(),
            stderr=err.read(),
            spawned=spawned,
            reaped=reaped,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,
        )


# -- checking outputs --------------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def store_digest(store_dir: Path) -> Tuple[str, int, int]:
    """(digest, total cover steps, records) of every trial in a store."""
    from repro.experiments import ResultStore

    store = ResultStore(store_dir)
    lines = []
    steps = 0
    for entry in store.entries():
        for trial, record in sorted(store.trials_for(entry.spec_hash).items()):
            lines.append(f"{entry.spec_hash} {trial} {record.cover_time}")
            steps += record.cover_time
    return _sha("\n".join(lines)), steps, len(lines)


def cover_digest(stdout: str) -> Tuple[str, float]:
    """(digest, mean steps) from a ``repro cover`` table."""
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" : ")
        if sep:
            fields[key.strip()] = value.strip()
    mean, low, high = fields["mean steps"], fields["min"], fields["max"]
    return _sha(f"{mean}|{low}|{high}"), float(mean)


def load_golden(scale: str, workload: str) -> List[str]:
    return json.loads(GOLDEN_PATH.read_text())[scale][workload]


@dataclass
class Round:
    """A cold command and, for store workloads, its warm re-run."""

    commands: List[Command]
    attempted: int
    failed: int
    steps: int
    trials: int
    digest: Optional[str]
    problems: List[str] = field(default_factory=list)
    traced: List[TracedCommand] = field(default_factory=list)

    @property
    def cold(self) -> Command:
        return self.commands[0]

    @property
    def warm_wall(self) -> float:
        """Wall of the identical re-run (a cover run recomputes everything)."""
        return self.commands[-1].wall


def _manifest(path: Path) -> Optional[dict]:
    if not path.is_file():
        return None
    lines = path.read_text().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_round(
    workload: Workload,
    scale: Scale,
    seed: int,
    golden: Optional[str],
    mode: str,
    work: Path,
) -> Round:
    """Run one round in ``mode`` ("plain", "telemetry" or "traced") and check it."""
    store = work / "store"
    argv = workload.argv(scale, seed, str(store))
    trials = workload.trials(scale)
    commands = []
    traced = []
    for label in ("cold", "warm") if workload.uses_store else ("cold",):
        logs = work / label
        args = ["-m", "repro", *argv]
        if mode != "plain":
            args += ["--telemetry", str(logs / "telemetry.jsonl")]
        if mode == "traced":
            spans = logs / "spans"
            spans.mkdir(parents=True)
            args = [str(TRACER), str(spans), *args[2:]]
        command = run_python(args, logs)
        commands.append(command)
        if mode == "traced":
            traced.append(
                TracedCommand(
                    spawned=command.spawned,
                    reaped=command.reaped,
                    spans_dir=spans,
                    manifest=_manifest(logs / "telemetry.jsonl"),
                    fresh_trials=trials if label == "cold" else 0,
                    workers=workload.workers,
                )
            )
    result = Round(
        commands=commands,
        attempted=trials * len(commands),
        failed=0,
        steps=0,
        trials=trials,
        digest=None,
        traced=traced,
    )
    cold = commands[0]
    if cold.returncode != 0:
        result.failed = result.attempted
        result.problems.append(f"cold command exited {cold.returncode}: {cold.stderr[-500:]}")
        return result
    try:
        if workload.uses_store:
            result.digest, result.steps, records = store_digest(store)
            missing = trials - records
        else:
            result.digest, mean = cover_digest(cold.stdout)
            result.steps = round(mean * trials)
            missing = 0
    except (KeyError, ValueError) as exc:
        result.failed = result.attempted
        result.problems.append(f"unreadable output: {exc!r}")
        return result
    if missing:
        result.problems.append(f"{missing} trial records missing from the store")
    if golden is not None and result.digest != golden:
        result.problems.append(f"cover-time digest {result.digest[:12]} != golden {golden[:12]}")
        missing = trials
    result.failed = missing
    if workload.uses_store:
        warm = commands[1]
        same_table = warm.stdout.splitlines()[1:] == cold.stdout.splitlines()[1:]
        served = f"0 scheduled, {trials} cached" in warm.stdout
        if warm.returncode != 0 or not (same_table and served):
            result.failed += trials
            result.problems.append(
                f"warm re-run exited {warm.returncode}, served from store: {served}, "
                f"same table: {same_table}"
            )
    return result
