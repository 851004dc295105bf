"""Per-run manifests: what ran, where, and what the counters said.

A manifest is the provenance record of one instrumented run — engine and
walk identity, native-kernel state, the full counter/gauge/timing
snapshot, wall time, peak RSS, and the environment (python, numpy,
platform, CPU count, repro version, ``REPRO_NATIVE``).  It is written as
the final line of a telemetry JSONL stream
(:class:`~repro.telemetry.jsonl.TelemetryJSONLWriter`) and, for
store-backed commands, saved under the store's ``manifests/`` directory
next to the trial records it describes
(:meth:`~repro.experiments.store.ResultStore.record_manifest`).

``python -m repro.telemetry.manifest FILE`` validates a telemetry file:
every line must parse as JSON and exactly the last manifest line must
satisfy the schema below — the CI check for the ``--telemetry`` path.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy

from repro._version import __version__
from repro.errors import ReproError
from repro.telemetry.core import Telemetry, peak_rss_bytes

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "validate_manifest",
    "validate_manifest_file",
    "main",
]

#: Bump when the manifest layout changes incompatibly; the validator
#: refuses mismatched versions rather than guessing.
MANIFEST_SCHEMA_VERSION = 1

_STATUSES = ("ok", "error")


def _kernel_identity(path: Optional[str]) -> Optional[Dict[str, str]]:
    """The loaded native kernel as ``{"path", "sha256"}``, or None.

    The loader only loads the extension inside this package, so its path
    is given relative to the directory holding ``repro`` and reads the
    same from every checkout and install; the hash tells two builds (say,
    before and after an ABI bump) apart.
    """
    if path is None:
        return None
    so = Path(path).resolve()
    rel = so.relative_to(Path(__file__).resolve().parents[2]).as_posix()
    return {"path": rel, "sha256": hashlib.sha256(so.read_bytes()).hexdigest()}


def build_manifest(
    telemetry: Telemetry,
    *,
    command: str,
    engine: Optional[str] = None,
    walk: Optional[str] = None,
    backend: Optional[str] = None,
    status: str = "ok",
    extra: Optional[Dict] = None,
) -> Dict:
    """Snapshot ``telemetry`` into a schema-versioned manifest dict.

    ``engine``/``walk``/``backend`` identify what the run
    claimed to execute (CLI arguments, benchmark section names); the
    counters record what actually happened — e.g. ``fleet.native_fleets``
    vs ``fleet.numpy_fleets`` says which kernel really ran.
    """
    snap = telemetry.snapshot()
    env: Dict = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "cpu_count": os.cpu_count(),
        "repro_version": __version__,
        "repro_native_env": os.environ.get("REPRO_NATIVE", ""),
    }
    # Native-kernel identity, but only if something already probed for it:
    # forcing the probe here would emit the loader's one-time fallback
    # warning from runs that never wanted the kernel.
    try:
        from repro.engine import native as _native

        if getattr(_native, "_probed", False):
            env["native_available"] = _native.available()
            env["native_kernel"] = _kernel_identity(_native.kernel_path())
            # The loader only accepts a kernel stamped with this ABI.
            env["native_abi"] = (
                _native.ABI_VERSION if env["native_kernel"] is not None else None
            )
    except ImportError:  # pragma: no cover - engine always importable
        pass
    manifest: Dict = {
        "kind": "manifest",
        "schema": MANIFEST_SCHEMA_VERSION,
        "command": str(command),
        "status": str(status),
        "engine": engine,
        "walk": walk,
        "backend": backend,
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "timings": snap["timings"],
        "heartbeats": telemetry.heartbeat.emitted if telemetry.heartbeat else 0,
        "wall_seconds": round(telemetry.wall_seconds(), 6),
        "peak_rss_bytes": peak_rss_bytes(),
        "env": env,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()) + "Z",
    }
    if extra:
        manifest.update(extra)
    return manifest


def _problems(obj) -> List[str]:
    """Schema violations of a would-be manifest (empty list = valid)."""
    if not isinstance(obj, dict):
        return ["manifest is not a JSON object"]
    problems: List[str] = []
    if obj.get("kind") != "manifest":
        problems.append(f"kind is {obj.get('kind')!r}, expected 'manifest'")
    if obj.get("schema") != MANIFEST_SCHEMA_VERSION:
        problems.append(
            f"schema is {obj.get('schema')!r}, expected {MANIFEST_SCHEMA_VERSION}"
        )
    command = obj.get("command")
    if not isinstance(command, str) or not command:
        problems.append(f"command must be a non-empty string, got {command!r}")
    if obj.get("status") not in _STATUSES:
        problems.append(f"status must be one of {_STATUSES}, got {obj.get('status')!r}")
    counters = obj.get("counters")
    if not isinstance(counters, dict):
        problems.append(f"counters must be an object, got {type(counters).__name__}")
    else:
        for key, value in counters.items():
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"counter {key!r} is not an integer: {value!r}")
                break
    for section in ("gauges", "timings"):
        values = obj.get(section)
        if not isinstance(values, dict):
            problems.append(f"{section} must be an object, got {type(values).__name__}")
            continue
        for key, value in values.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                problems.append(f"{section}[{key!r}] is not a number: {value!r}")
                break
    wall = obj.get("wall_seconds")
    if isinstance(wall, bool) or not isinstance(wall, (int, float)) or wall < 0:
        problems.append(f"wall_seconds must be a number >= 0, got {wall!r}")
    rss = obj.get("peak_rss_bytes")
    if not isinstance(rss, int) or isinstance(rss, bool) or rss < 0:
        problems.append(f"peak_rss_bytes must be an integer >= 0, got {rss!r}")
    hb = obj.get("heartbeats")
    if not isinstance(hb, int) or isinstance(hb, bool) or hb < 0:
        problems.append(f"heartbeats must be an integer >= 0, got {hb!r}")
    env = obj.get("env")
    if not isinstance(env, dict):
        problems.append(f"env must be an object, got {type(env).__name__}")
    else:
        for key in ("python", "repro_version"):
            if not isinstance(env.get(key), str) or not env.get(key):
                problems.append(f"env.{key} must be a non-empty string, got {env.get(key)!r}")
    return problems


def validate_manifest(obj: Dict) -> Dict:
    """Validate a manifest dict; returns it, or raises :class:`ReproError`."""
    problems = _problems(obj)
    if problems:
        raise ReproError("invalid manifest: " + "; ".join(problems))
    return obj


def validate_manifest_file(path: Union[str, Path]) -> Dict:
    """Validate a telemetry JSONL file; returns its manifest.

    Every line must parse as JSON; the manifest (``kind == "manifest"``)
    must be present exactly once, as the final line, and satisfy the
    schema.  Raises :class:`ReproError` describing the first defect.
    """
    path = Path(path)
    if not path.exists():
        raise ReproError(f"telemetry file {path} does not exist")
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    if not lines:
        raise ReproError(f"telemetry file {path} is empty")
    found: List[tuple] = []
    for index, line in enumerate(lines):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{path}:{index + 1}: unparseable JSON: {exc}") from None
        if isinstance(obj, dict) and obj.get("kind") == "manifest":
            found.append((index, obj))
    if not found:
        raise ReproError(f"{path}: no manifest line (kind == 'manifest')")
    if len(found) > 1:
        raise ReproError(f"{path}: more than one manifest line")
    index, manifest = found[0]
    if index != len(lines) - 1:
        raise ReproError(f"{path}: manifest at line {index + 1} is not the final line")
    return validate_manifest(manifest)


def main(argv=None) -> int:
    """``python -m repro.telemetry.manifest FILE`` — validate and summarize."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.manifest",
        description="validate a telemetry JSONL file and print its manifest summary",
    )
    parser.add_argument("file", help="telemetry JSONL file written by --telemetry")
    args = parser.parse_args(argv)
    try:
        manifest = validate_manifest_file(args.file)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    counters = manifest.get("counters", {})
    print(
        f"manifest ok: command={manifest['command']} status={manifest['status']} "
        f"engine={manifest.get('engine')} walk={manifest.get('walk')} "
        f"counters={len(counters)} steps={counters.get('runner.steps', '-')} "
        f"wall={manifest['wall_seconds']}s "
        f"rss={round(manifest['peak_rss_bytes'] / (1 << 20), 1)}MB "
        f"heartbeats={manifest['heartbeats']}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    sys.exit(main())
