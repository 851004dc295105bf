"""Persistent per-trial result store (sharded JSONL under one directory).

Layout of a store rooted at ``.repro-store/``::

    .repro-store/
      meta.json                    # store-level schema + code version stamps
      specs/<hash>.json            # identity payload of each known spec
      trials/<hh>/<hash>.jsonl     # one JSON line per completed trial
      quarantine/<hash>.jsonl      # lines that failed validation, with reasons

Records are keyed by ``(spec_hash, trial)``: the hash pins *what* was
measured (family, walk, target, root seed — see
:mod:`repro.experiments.spec`), the trial index pins *which* cell of the
seed tree produced it.  Because trials are seed-deterministic, a record is
valid forever — re-running never changes it — so the store only ever
appends; growth, resumption, and trial top-ups all reduce to "which cells
are missing?" (:meth:`ResultStore.missing_trials`).

Robustness contract: a corrupted or schema-mismatched line never crashes a
read.  It is skipped, and a copy lands in ``quarantine/`` (with the reason
attached, deduplicated by content), so one bad byte costs one trial, not
the store.  A *torn tail* — an unterminated final line, the signature of a
writer killed mid-append — is gentler still: reads tolerate and skip it
(counted in the ``store.truncated_tails`` telemetry counter, never
quarantined, because the bytes may be an append still in flight), and the
next locked append repairs it in place before writing.  Duplicate trials
keep their first record — deterministic, and the first writer is as
correct as any other.

Concurrency: every mutation of a spec's shard — appends, ``gc``/
``clear_trials`` rewrites, spec registration — happens under an advisory
``fcntl.flock`` on a per-spec lock file in ``locks/``, so N processes can
write one store without interleaving partial lines (contended
acquisitions are counted in ``store.lock_waits``).  Reads take no lock:
they never modify shard files (they only append new lines to the
quarantine), so any number of readers can overlap any number of writers
without losing records.  Store-level files (``meta.json``, spec stubs)
are created via atomic tmp + ``os.replace``; when two writers race, the
loser's replace installs equivalent content — a tolerated overwrite, not
a torn file.

Granularity: one :meth:`ResultStore.record` call is one checkpoint — a
whole fleet batch (every trial of a lockstep batch finishes at the same
instant), or one trial for the per-trial engines.  Its lines go out under
one lock hold, one open and one write, so the fixed cost of an append
(lock, spec-stub check, open, torn-tail check, flush) is paid per batch.

Durability: ``ResultStore(..., durability="fsync")`` fsyncs every
checkpoint (and the directory after compaction rewrites), trading
checkpoint latency for power-loss safety; the default flushes to the OS
only, which already survives process crashes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Sequence, Tuple, Union

try:  # advisory file locking is POSIX-only; degrade to lockless elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-posix
    fcntl = None  # type: ignore[assignment]

from repro._version import __version__
from repro.errors import ReproError
from repro.experiments.spec import ExperimentSpec
from repro.sim.runner import TrialOutcome
from repro.telemetry import get_telemetry
from repro.testing import faults

__all__ = ["STORE_SCHEMA_VERSION", "TrialRecord", "StoreEntry", "GcStats", "ResultStore"]

#: Bump when the trial-record layout changes incompatibly; mismatched
#: records are quarantined on read (never silently reinterpreted).
#: v2 added ``peak_rss_bytes`` to every trial record.
STORE_SCHEMA_VERSION = 2

_REQUIRED_FIELDS = ("schema", "spec_hash", "trial", "cover_time")


@dataclass(frozen=True)
class TrialRecord:
    """One stored trial."""

    spec_hash: str
    trial: int
    cover_time: int
    extras: Dict[str, float]
    wall_time: float
    engine: str
    code_version: str
    peak_rss_bytes: int = 0

    def to_outcome(self) -> TrialOutcome:
        """View as a runner outcome (so reports treat cached == fresh)."""
        return TrialOutcome(
            trial=self.trial,
            steps=self.cover_time,
            extras=dict(self.extras),
            wall_time=self.wall_time,
            peak_rss_bytes=self.peak_rss_bytes,
        )


@dataclass(frozen=True)
class StoreEntry:
    """One spec's footprint in the store (`repro store ls` row)."""

    spec_hash: str
    identity: Dict
    trials_cached: int
    total_wall_time: float

    def describe(self) -> str:
        ident = self.identity
        params = ident.get("family_params", {})
        inner = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        return (
            f"{ident.get('family', '?')}({inner}) "
            f"{ident.get('walk', '?')}/{ident.get('target', '?')} "
            f"seed={ident.get('root_seed', '?')}"
        )


@dataclass(frozen=True)
class GcStats:
    """What ``gc`` removed/kept."""

    specs_kept: int
    records_kept: int
    duplicates_dropped: int
    quarantined_purged: int
    orphan_shards_removed: int


def _fsync_directory(path: Path) -> None:
    """Fsync a directory so a just-replaced entry survives power loss.

    Best-effort: some filesystems (and all of Windows) refuse directory
    fsync; durability then degrades to the data fsync already done.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _atomic_write_text(path: Path, text: str, durable: bool = False) -> None:
    """Write a file atomically: unique tmp in the same directory + replace.

    Readers see either the old content or the whole new content, never a
    prefix.  The tmp name embeds the pid so two processes racing to create
    the same file never interleave writes into one tmp; the loser's
    ``os.replace`` harmlessly reinstalls equivalent content.
    """
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "w") as handle:
        handle.write(text)
        if durable:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if durable:
        _fsync_directory(path.parent)


class _FileLock:
    """Advisory exclusive lock on a sidecar file (``fcntl.flock``).

    Reentrant-unsafe and deliberately simple: one ``with`` block per
    critical section.  A contended acquisition is counted in the
    ``store.lock_waits`` telemetry counter before blocking.  On platforms
    without ``fcntl`` the lock degrades to a no-op (single-writer
    behaviour, as before the locking layer existed).
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._fd: Optional[int] = None

    def __enter__(self) -> "_FileLock":
        if fcntl is None:  # pragma: no cover - non-posix
            return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(str(self.path), os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            tel = get_telemetry()
            if tel.enabled:
                tel.count("store.lock_waits")
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None


class ResultStore:
    """Append-only trial store under one directory.

    Reads tolerate a missing/empty directory (fresh store); the directory
    tree is created on first write.

    Parameters
    ----------
    durability:
        ``"standard"`` (default) flushes appends to the OS — safe against
        process crashes; ``"fsync"`` additionally fsyncs every checkpoint
        (one per :meth:`record` call, so one per fleet batch) — safe
        against power loss, at one fsync's latency per checkpoint.
    """

    def __init__(
        self,
        root: Union[str, Path],
        code_version: str = __version__,
        durability: str = "standard",
    ) -> None:
        if durability not in ("standard", "fsync"):
            raise ReproError(
                f"durability must be 'standard' or 'fsync', got {durability!r}"
            )
        self.root = Path(root)
        self.code_version = code_version
        self.durability = durability

    # -- paths --------------------------------------------------------------

    def _shard_path(self, spec_hash: str) -> Path:
        return self.root / "trials" / spec_hash[:2] / f"{spec_hash}.jsonl"

    def _spec_path(self, spec_hash: str) -> Path:
        return self.root / "specs" / f"{spec_hash}.json"

    def _quarantine_path(self, spec_hash: str) -> Path:
        return self.root / "quarantine" / f"{spec_hash}.jsonl"

    def _lock(self, name: str) -> _FileLock:
        """The advisory lock guarding one spec's shard (or ``meta``)."""
        return _FileLock(self.root / "locks" / f"{name}.lock")

    def _ensure_meta(self) -> None:
        meta = self.root / "meta.json"
        if not meta.exists():
            self.root.mkdir(parents=True, exist_ok=True)
            # Under the store-level "meta" lock: the atomic replace alone
            # already tolerated races (the loser reinstalls equivalent
            # content), but holding the lock makes the create serialized
            # like every other store mutation — one discipline, no special
            # cases for the lint to reason about.
            with self._lock("meta"):
                if meta.exists():
                    return
                _atomic_write_text(
                    meta,
                    json.dumps(
                        {
                            "schema": STORE_SCHEMA_VERSION,
                            "code_version": self.code_version,
                            "created_at": time.time(),  # repro: allow[R2] provenance stamp, result-inert
                        },
                        sort_keys=True,
                    )
                    + "\n",
                )

    # -- writes -------------------------------------------------------------

    def _register_spec_locked(self, spec: ExperimentSpec) -> None:
        """Create the spec's identity stub if missing (caller holds the lock).

        The shard lock serializes writers of one spec, and the atomic
        replace stays as belt-and-braces: even a writer that bypassed the
        lock would overwrite with identical identity content (only the
        ``first_recorded_at`` stamp differs), never a torn file.
        """
        spec_path = self._spec_path(spec.spec_hash)
        if spec_path.exists():
            return
        spec_path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(
            spec_path,
            json.dumps(
                {
                    "schema": STORE_SCHEMA_VERSION,
                    "spec_hash": spec.spec_hash,
                    "identity": spec.identity(),
                    "first_recorded_at": time.time(),  # repro: allow[R2] provenance stamp, result-inert
                },
                sort_keys=True,
                indent=2,
            )
            + "\n",
            durable=self.durability == "fsync",
        )

    def _repair_tail_locked(self, handle: IO[str]) -> None:
        """Fix an unterminated final line before appending (lock held).

        A writer killed mid-append leaves bytes without a trailing
        newline; appending after them would weld two records into one
        corrupt line.  Under the shard lock no append is in flight, so
        the tail is definitively torn: terminate it if it parses as a
        complete record, truncate it away (counted in
        ``store.truncated_tails``) if not.
        """
        fd = handle.fileno()
        size = os.fstat(fd).st_size
        if size == 0 or os.pread(fd, 1, size - 1) == b"\n":
            return
        data = os.pread(fd, size, 0)
        tail = data[data.rfind(b"\n") + 1 :]
        try:
            json.loads(tail.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            os.ftruncate(fd, size - len(tail))
            tel = get_telemetry()
            if tel.enabled:
                tel.count("store.truncated_tails")
                tel.event("store_truncated_tail", bytes=len(tail))
        else:
            # A complete record that only lost its newline: keep it.
            os.pwrite(fd, b"\n", size)

    def record(
        self,
        spec: ExperimentSpec,
        outcomes: Sequence[TrialOutcome],
        engine: str = "reference",
    ) -> List[TrialRecord]:
        """Append a batch of finished trials as one checkpoint.

        The batch is one write: the spec is hashed, ``meta.json`` checked
        and the spec registered once, then every line goes out under one
        hold of the spec's advisory file lock, in one write with one flush
        (and one fsync under ``durability="fsync"``).  A fleet batch is
        one call; a per-trial engine records ``[outcome]``.

        ``engine`` is the run's execution-policy engine, stamped on each
        record as provenance; it never changes the bucket (the spec hash
        alone picks the shard).

        The lock means any number of processes can record into one shard
        without interleaving partial lines; a torn tail left by a
        previously killed writer is repaired first.  A batch that fails
        part-way may leave its leading lines written: retrying the whole
        batch is safe, because reads are first-record-wins and a
        re-recorded cell is a no-op until gc.  To supersede stored cells
        (forced recompute), call :meth:`clear_trials` first.
        """
        spec_hash = spec.spec_hash
        self._ensure_meta()
        recorded_at = time.time()  # repro: allow[R2] provenance stamp, result-inert
        records = [
            TrialRecord(
                spec_hash=spec_hash,
                trial=int(outcome.trial),
                cover_time=int(outcome.steps),
                extras={k: float(v) for k, v in outcome.extras.items()},
                wall_time=float(outcome.wall_time),
                engine=engine,
                code_version=self.code_version,
                peak_rss_bytes=int(getattr(outcome, "peak_rss_bytes", 0)),
            )
            for outcome in outcomes
        ]
        lines = [
            json.dumps(
                {
                    "schema": STORE_SCHEMA_VERSION,
                    "spec_hash": record.spec_hash,
                    "trial": record.trial,
                    "cover_time": record.cover_time,
                    "extras": record.extras,
                    "wall_time": record.wall_time,
                    "engine": record.engine,
                    "code_version": record.code_version,
                    "peak_rss_bytes": record.peak_rss_bytes,
                    "recorded_at": recorded_at,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
            for record in records
        ]
        for record in records:
            faults.maybe_ioerror("store_write", trial=record.trial)
        shard = self._shard_path(spec_hash)
        shard.parent.mkdir(parents=True, exist_ok=True)
        with self._lock(spec_hash):
            self._register_spec_locked(spec)
            # "a+" so the tail-repair pass can pread the existing bytes.
            with shard.open("a+") as handle:
                self._repair_tail_locked(handle)
                for i, record in enumerate(records):
                    if faults.should_fire("store_write_torn", trial=record.trial):
                        # A crash mid-write: the lines before this trial
                        # landed whole, this one only half.
                        torn = lines[i][: max(1, (len(lines[i]) - 1) // 2)]
                        handle.write("".join(lines[:i]) + torn)
                        handle.flush()
                        raise faults.injected_ioerror(
                            f"torn write at trial {record.trial}"
                        )
                handle.write("".join(lines))
                handle.flush()
                if self.durability == "fsync":
                    os.fsync(handle.fileno())
        return records

    def clear_trials(
        self, spec: ExperimentSpec, trial_indices: Optional[Sequence[int]] = None
    ) -> int:
        """Drop the given trial cells (default: all of ``0..spec.trials-1``).

        One shard rewrite regardless of how many cells are dropped — the
        forced-recompute preparation: clear once, then plain-append the
        fresh values.  The rewrite holds the spec's shard lock, so a
        concurrent appender is serialized rather than lost.  Returns the
        number of record lines removed.
        """
        shard = self._shard_path(spec.spec_hash)
        if not shard.exists():
            return 0
        drop = set(range(spec.trials) if trial_indices is None else trial_indices)
        with self._lock(spec.spec_hash):
            lines, _torn = self._shard_lines(spec.spec_hash, count_torn=True)
            kept: List[str] = []
            removed = 0
            for existing in lines:
                try:
                    if json.loads(existing).get("trial") in drop:
                        removed += 1
                        continue
                except json.JSONDecodeError:
                    pass  # unreadable lines are the read path's problem
                kept.append(existing)
            if removed:
                self._rewrite_shard_locked(spec.spec_hash, kept)
        return removed

    # -- reads --------------------------------------------------------------

    def _shard_lines(
        self, spec_hash: str, count_torn: bool = False
    ) -> Tuple[List[str], bool]:
        """A shard's record lines, tolerating an unterminated final line.

        A trailing line without ``\\n`` is either a record that lost only
        its newline (promoted into the result — it parses) or the torn
        half-line of a killed writer (dropped; ``torn=True``, counted in
        ``store.truncated_tails`` when ``count_torn``).  Torn tails are
        never quarantined: under a live concurrent writer the same bytes
        may be an append still in flight, completed a millisecond later.
        """
        shard = self._shard_path(spec_hash)
        if not shard.exists():
            return [], False
        data = shard.read_bytes()
        lines = [l for l in data.decode("utf-8", errors="replace").splitlines() if l.strip()]
        if data.endswith(b"\n") or not lines:
            return lines, False
        tail = lines[-1]
        try:
            json.loads(tail)
        except json.JSONDecodeError:
            lines.pop()
            if count_torn:
                tel = get_telemetry()
                if tel.enabled:
                    tel.count("store.truncated_tails")
                    tel.event("store_torn_tail_skipped", bytes=len(tail))
            return lines, True
        return lines, False

    def _parse_line(self, spec_hash: str, line: str) -> TrialRecord:
        """Validate one shard line; raise ReproError describing the defect."""
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"unparseable JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ReproError("record is not a JSON object")
        for key in _REQUIRED_FIELDS:
            if key not in obj:
                raise ReproError(f"missing field {key!r}")
        if obj["schema"] != STORE_SCHEMA_VERSION:
            raise ReproError(
                f"schema version {obj['schema']!r} != {STORE_SCHEMA_VERSION}"
            )
        if obj["spec_hash"] != spec_hash:
            raise ReproError(
                f"spec hash {obj['spec_hash']!r} does not match shard {spec_hash!r}"
            )
        trial = obj["trial"]
        cover_time = obj["cover_time"]
        if not isinstance(trial, int) or isinstance(trial, bool) or trial < 0:
            raise ReproError(f"invalid trial index {trial!r}")
        if not isinstance(cover_time, int) or isinstance(cover_time, bool) or cover_time < 0:
            raise ReproError(f"invalid cover time {cover_time!r}")
        extras = obj.get("extras", {})
        if not isinstance(extras, dict):
            raise ReproError(f"invalid extras {extras!r}")
        try:
            parsed_extras = {str(k): float(v) for k, v in extras.items()}
            wall_time = float(obj.get("wall_time", 0.0))
        except (TypeError, ValueError) as exc:
            raise ReproError(f"non-numeric extras/wall_time: {exc}") from None
        rss = obj.get("peak_rss_bytes", 0)
        if not isinstance(rss, int) or isinstance(rss, bool) or rss < 0:
            raise ReproError(f"invalid peak_rss_bytes {rss!r}")
        return TrialRecord(
            spec_hash=spec_hash,
            trial=trial,
            cover_time=cover_time,
            extras=parsed_extras,
            wall_time=wall_time,
            engine=str(obj.get("engine", "reference")),
            code_version=str(obj.get("code_version", "unknown")),
            peak_rss_bytes=rss,
        )

    def _quarantine_new(self, spec_hash: str, bad: List[Dict[str, str]]) -> None:
        """Append bad lines to the quarantine, deduplicated by content.

        Append-only (never rewrites the shard), so reads that discover bad
        lines are safe against concurrent writers; dedupe keeps repeated
        reads of a still-corrupt shard from growing the quarantine.
        """
        quarantine = self._quarantine_path(spec_hash)
        already = set()
        if quarantine.exists():
            for line in quarantine.read_text().splitlines():
                try:
                    already.add(json.loads(line).get("line"))
                except json.JSONDecodeError:
                    continue
        fresh = [entry for entry in bad if entry["line"] not in already]
        if not fresh:
            return
        from repro.telemetry import get_telemetry

        tel = get_telemetry()
        if tel.enabled:
            tel.count("store.quarantined_lines", len(fresh))
        quarantine.parent.mkdir(parents=True, exist_ok=True)
        with quarantine.open("a") as handle:
            for entry in fresh:
                # Quarantine is append-only and dedup-tolerant: a duplicated
                # entry from an unlocked racing reader costs nothing.
                handle.write(json.dumps(entry, sort_keys=True) + "\n")  # repro: allow[R7] append-only quarantine, race-tolerant

    def _load_shard(self, spec_hash: str) -> Dict[int, TrialRecord]:
        """Read a shard, skipping (and quarantining a copy of) bad lines.

        First record per trial wins.  The shard file itself is never
        touched here — compaction is ``gc``'s job, torn-tail truncation
        the next locked append's — so reads can overlap concurrent
        appends without losing anything.  An unterminated final line is
        skipped without quarantine (see :meth:`_shard_lines`).
        """
        lines, _torn = self._shard_lines(spec_hash, count_torn=True)
        records: Dict[int, TrialRecord] = {}
        bad: List[Dict[str, str]] = []
        for line in lines:
            try:
                record = self._parse_line(spec_hash, line)
            except ReproError as exc:
                bad.append({"reason": str(exc), "line": line})
                continue
            if record.trial not in records:
                records[record.trial] = record
        if bad:
            self._quarantine_new(spec_hash, bad)
        return records

    def _rewrite_shard_locked(self, spec_hash: str, lines: List[str]) -> None:
        """Replace a shard's contents atomically (caller holds the lock).

        Always fsyncs the tmp file before the replace and the directory
        after: a crash mid-compaction must never surface an empty or
        truncated shard where records existed — the replace either
        happened durably or the old file is intact.
        """
        shard = self._shard_path(spec_hash)
        if not lines:
            shard.unlink(missing_ok=True)
            return
        _atomic_write_text(shard, "\n".join(lines) + "\n", durable=True)

    def trials_for(self, spec: Union[ExperimentSpec, str]) -> Dict[int, TrialRecord]:
        """All valid cached trials of a spec (or raw hash), keyed by index."""
        spec_hash = spec if isinstance(spec, str) else spec.spec_hash
        return self._load_shard(spec_hash)

    def missing_trials(self, spec: ExperimentSpec) -> List[int]:
        """Trial indices ``0..spec.trials-1`` with no valid cached record."""
        cached = self.trials_for(spec)
        return [t for t in range(spec.trials) if t not in cached]

    def quarantined_count(self, spec: Union[ExperimentSpec, str, None] = None) -> int:
        """Number of quarantined lines (for one spec, or store-wide)."""
        if spec is not None:
            spec_hash = spec if isinstance(spec, str) else spec.spec_hash
            paths = [self._quarantine_path(spec_hash)]
        else:
            paths = sorted((self.root / "quarantine").glob("*.jsonl"))
        total = 0
        for path in paths:
            if path.exists():
                total += sum(1 for line in path.read_text().splitlines() if line.strip())
        return total

    # -- run manifests ------------------------------------------------------

    def manifest_dir(self) -> Path:
        """Directory holding run manifests (next to the trial shards)."""
        return self.root / "manifests"

    def record_manifest(self, manifest: Dict) -> Path:
        """Save a run manifest (see :mod:`repro.telemetry.manifest`).

        Manifests are provenance, not results: ``gc`` never touches them,
        and nothing is keyed on them — they record which runs produced the
        trial records sitting alongside.  Returns the written path.
        """
        self._ensure_meta()
        directory = self.manifest_dir()
        directory.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())  # repro: allow[R2] manifest filename stamp
        command = str(manifest.get("command", "run")).replace("/", "_") or "run"
        path = directory / f"{stamp}-{command}.json"
        i = 1
        while path.exists():
            path = directory / f"{stamp}-{command}-{i}.json"
            i += 1
        # Fresh unique path chosen above; no other writer can hold it.
        path.write_text(json.dumps(manifest, sort_keys=True, indent=2, default=str) + "\n")  # repro: allow[R7] fresh unique path
        return path

    def manifests(self) -> List[tuple]:
        """All stored run manifests as ``(path, dict)``, oldest first.

        Unparseable files are skipped (same tolerance as shard reads —
        a bad manifest costs itself, not the listing).
        """
        directory = self.manifest_dir()
        if not directory.exists():
            return []
        out: List[tuple] = []
        for path in sorted(directory.glob("*.json")):
            try:
                obj = json.loads(path.read_text())
            except (json.JSONDecodeError, OSError):
                continue
            if isinstance(obj, dict):
                out.append((path, obj))
        return out

    # -- inventory ----------------------------------------------------------

    def _known_hashes(self) -> List[str]:
        hashes = {p.stem for p in (self.root / "specs").glob("*.json")}
        hashes.update(p.stem for p in (self.root / "trials").glob("*/*.jsonl"))
        return sorted(hashes)

    def entries(self) -> Iterator[StoreEntry]:
        """Everything in the store, one entry per known spec hash."""
        for spec_hash in self._known_hashes():
            identity: Dict = {}
            spec_path = self._spec_path(spec_hash)
            if spec_path.exists():
                try:
                    identity = json.loads(spec_path.read_text()).get("identity", {})
                except (json.JSONDecodeError, AttributeError):
                    identity = {}
            records = self._load_shard(spec_hash)
            yield StoreEntry(
                spec_hash=spec_hash,
                identity=identity,
                trials_cached=len(records),
                total_wall_time=sum(r.wall_time for r in records.values()),
            )

    def gc(self) -> GcStats:
        """Compact the store: dedupe shards, drop orphans, purge quarantine."""
        specs_kept = 0
        records_kept = 0
        duplicates_dropped = 0
        orphan_shards_removed = 0
        for spec_hash in self._known_hashes():
            shard = self._shard_path(spec_hash)
            with self._lock(spec_hash):
                raw_lines, torn = self._shard_lines(spec_hash, count_torn=True)
                kept: Dict[int, str] = {}
                bad: List[Dict[str, str]] = []
                for line in raw_lines:
                    try:
                        record = self._parse_line(spec_hash, line)
                    except ReproError as exc:
                        bad.append({"reason": str(exc), "line": line})
                        continue
                    if record.trial in kept:
                        duplicates_dropped += 1
                        continue
                    kept[record.trial] = line
                if bad:
                    self._quarantine_new(spec_hash, bad)
                if not kept:
                    # No valid trials: drop the empty shard and its spec stub.
                    shard.unlink(missing_ok=True)
                    self._spec_path(spec_hash).unlink(missing_ok=True)
                    if raw_lines or torn:
                        orphan_shards_removed += 1
                    continue
                # The rewrite drops any torn tail along with the duplicates.
                self._rewrite_shard_locked(spec_hash, [kept[t] for t in sorted(kept)])
            specs_kept += 1
            records_kept += len(kept)
        # Counted after the shard pass so lines quarantined *during* this gc
        # are included in the purge accounting.
        quarantined_purged = self.quarantined_count()
        quarantine_dir = self.root / "quarantine"
        if quarantine_dir.exists():
            for path in quarantine_dir.glob("*.jsonl"):
                path.unlink()
            try:
                quarantine_dir.rmdir()
            except OSError:
                pass
        # Prune now-empty shard subdirectories.
        trials_dir = self.root / "trials"
        if trials_dir.exists():
            for sub in trials_dir.glob("*"):
                if sub.is_dir():
                    try:
                        sub.rmdir()
                    except OSError:
                        pass
        return GcStats(
            specs_kept=specs_kept,
            records_kept=records_kept,
            duplicates_dropped=duplicates_dropped,
            quarantined_purged=quarantined_purged,
            orphan_shards_removed=orphan_shards_removed,
        )
