"""Deterministic fault injection: the ``REPRO_FAULTS`` plan.

The robustness layer (crash-safe store, supervised worker pools) is only
testable if faults arrive *deterministically*: the same plan must kill
the same worker at the same trial, inject the same ``ENOSPC`` on the
same write, every run.  This module turns a declarative plan string into
no-op-cheap injection points that production code calls at its hazard
sites.

Plan syntax (the ``REPRO_FAULTS`` environment variable)::

    REPRO_FAULTS = "rule[;rule...]"
    rule         = "site[:key=value[,key=value...]]"

Sites wired into the library:

``worker_kill``
    ``os._exit`` inside a pool worker as it starts the matching trial
    (the runner only fires this in child processes, so an inline run is
    never killed — which is what lets degraded-to-inline execution
    complete under a standing kill rule).
``trial_stall``
    ``time.sleep(seconds)`` before the matching trial's walk, to trip
    the per-trial wall-clock timeout.
``store_write``
    ``OSError(ENOSPC)`` raised in
    :meth:`repro.experiments.store.ResultStore.record` before any line
    of the batch holding the matching trial is written.
``store_write_torn``
    The batch's lines before the matching trial are written whole, then
    half of its line (unterminated), then ``OSError(EIO)`` — simulating
    a crash mid-append, to exercise the torn-tail tolerance/repair paths.
``post_checkpoint_kill``
    ``os._exit`` in the *orchestrating* process right after the
    checkpoint holding the matching trial is written to the store — the
    kill-between-checkpoint-and-ack window; a resumed run must neither
    lose nor duplicate that trial.

Keys (all optional):

``trial=K``
    Fire only when the injection point reports trial index ``K``.
``count=N``
    Fire at most ``N`` times *per process* (default 1).  Forked pool
    workers inherit the parent's spent counts but not each other's, so
    a count-limited rule can re-fire in every fresh worker — use a
    token when "once globally" is meant.
``seconds=S``
    Stall duration for ``trial_stall`` (default 1.0).
``token=PATH``
    Cross-process once-latch: the first firing creates ``PATH``
    atomically (``O_CREAT | O_EXCL``); any process that finds it
    refuses to fire.  This is how "kill the worker once, then let the
    retry succeed" is expressed.

The environment variable is the transport on purpose: pool workers and
CLI subprocesses inherit it for free, no plumbing through picklable
specs.  A process reads the variable once, at its first injection
point; :func:`fault_plan` drops that reading when it installs or removes
a plan.  With ``REPRO_FAULTS`` unset every injection point is then one
flag test and a ``None`` check.
"""

from __future__ import annotations

import errno
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ReproError

__all__ = [
    "FAULTS_ENV_VAR",
    "KILL_EXIT_CODE",
    "FaultRule",
    "FaultPlan",
    "parse_plan",
    "active_plan",
    "fault_plan",
    "should_fire",
    "maybe_kill",
    "maybe_stall",
    "maybe_ioerror",
    "injected_ioerror",
]

FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Exit status used by injected kills, distinguishable from real crashes
#: (segfaults report negative codes, Python tracebacks report 1).
KILL_EXIT_CODE = 43

#: Sites the library wires up; unknown sites in a plan are rejected at
#: parse time so a typo fails loudly instead of silently never firing.
KNOWN_SITES = frozenset(
    [
        "worker_kill",
        "trial_stall",
        "store_write",
        "store_write_torn",
        "post_checkpoint_kill",
    ]
)


@dataclass
class FaultRule:
    """One parsed plan rule; ``fired`` counts this process's firings."""

    site: str
    trial: Optional[int] = None
    count: int = 1
    seconds: float = 1.0
    token: Optional[str] = None
    fired: int = field(default=0, compare=False)

    def matches(self, site: str, trial: Optional[int]) -> bool:
        if site != self.site:
            return False
        if self.trial is not None and trial != self.trial:
            return False
        return self.fired < self.count

    def claim(self) -> bool:
        """Consume one firing; False if a token latch says another process won.

        The token file is created atomically, so exactly one process
        across the whole run claims a token-latched rule — even when
        several workers reach the site concurrently.
        """
        if self.token is not None:
            try:
                fd = os.open(self.token, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                self.fired = self.count  # latched elsewhere: never retry here
                return False
            with os.fdopen(fd, "w") as handle:
                handle.write(f"pid={os.getpid()} site={self.site}\n")
        self.fired += 1
        return True


class FaultPlan:
    """An ordered list of :class:`FaultRule`; first matching rule fires."""

    def __init__(self, rules: List[FaultRule]):
        self.rules = rules

    def should_fire(self, site: str, trial: Optional[int] = None) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.matches(site, trial) and rule.claim():
                return rule
        return None


def parse_plan(text: str) -> Optional[FaultPlan]:
    """Parse a plan string; ``None`` for empty/whitespace input."""
    rules: List[FaultRule] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        site, _, tail = chunk.partition(":")
        site = site.strip()
        if site not in KNOWN_SITES:
            raise ReproError(
                f"{FAULTS_ENV_VAR}: unknown fault site {site!r}; "
                f"known sites: {', '.join(sorted(KNOWN_SITES))}"
            )
        rule = FaultRule(site=site)
        for pair in filter(None, (p.strip() for p in tail.split(","))):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ReproError(f"{FAULTS_ENV_VAR}: malformed key=value pair {pair!r}")
            key = key.strip()
            value = value.strip()
            try:
                if key == "trial":
                    rule.trial = int(value)
                elif key == "count":
                    rule.count = int(value)
                elif key == "seconds":
                    rule.seconds = float(value)
                elif key == "token":
                    rule.token = value
                else:
                    raise ReproError(
                        f"{FAULTS_ENV_VAR}: unknown key {key!r} in rule {chunk!r} "
                        "(known: trial, count, seconds, token)"
                    )
            except ValueError:
                raise ReproError(
                    f"{FAULTS_ENV_VAR}: invalid value {value!r} for {key!r} "
                    f"in rule {chunk!r}"
                ) from None
        if rule.count < 1:
            raise ReproError(f"{FAULTS_ENV_VAR}: count must be >= 1 in rule {chunk!r}")
        rules.append(rule)
    return FaultPlan(rules) if rules else None


# The plan parsed at the process's first injection point; every later
# call reuses it (and its fired counts).  Forked pool workers inherit it.
_plan_read = False
_cached_plan: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The process's current plan (parsed from ``REPRO_FAULTS``), if any."""
    global _plan_read, _cached_plan
    if not _plan_read:
        raw = os.environ.get(FAULTS_ENV_VAR)
        _cached_plan = parse_plan(raw) if raw else None
        _plan_read = True
    return _cached_plan


def _forget_plan() -> None:
    """Make the next :func:`active_plan` re-read ``REPRO_FAULTS``."""
    global _plan_read, _cached_plan
    _plan_read = False
    _cached_plan = None


@contextmanager
def fault_plan(text: Optional[str]):
    """Install a plan (via the env var, so subprocesses inherit it) for a block."""
    previous = os.environ.get(FAULTS_ENV_VAR)
    if text is None:
        os.environ.pop(FAULTS_ENV_VAR, None)
    else:
        os.environ[FAULTS_ENV_VAR] = text
    _forget_plan()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(FAULTS_ENV_VAR, None)
        else:
            os.environ[FAULTS_ENV_VAR] = previous
        _forget_plan()


def should_fire(site: str, trial: Optional[int] = None) -> Optional[FaultRule]:
    """The matching rule if the active plan fires at this site, else None."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.should_fire(site, trial)


def maybe_kill(site: str, trial: Optional[int] = None) -> None:
    """Hard-exit the current process (no cleanup, no atexit) if planned.

    ``os._exit`` is the point: a crash takes no finally blocks with it,
    which is exactly the failure the supervisor and store must survive.
    """
    if should_fire(site, trial) is not None:
        os._exit(KILL_EXIT_CODE)


def maybe_stall(site: str, trial: Optional[int] = None) -> None:
    """Sleep the rule's ``seconds`` if planned (wall-clock-timeout bait)."""
    rule = should_fire(site, trial)
    if rule is not None:
        time.sleep(rule.seconds)


def maybe_ioerror(site: str, trial: Optional[int] = None) -> None:
    """Raise ``OSError(ENOSPC)`` if planned (transient-write-failure bait)."""
    if should_fire(site, trial) is not None:
        raise OSError(errno.ENOSPC, f"injected fault at {site!r} ({FAULTS_ENV_VAR})")


def injected_ioerror(detail: str) -> OSError:
    """An ``OSError(EIO)`` for a fault site that must do work mid-raise.

    The torn-write site in the store writes half a line *before* failing,
    so it cannot use :func:`maybe_ioerror`; it builds the exception here
    instead, keeping every impersonated-OS error inside the fault harness.
    """
    return OSError(errno.EIO, f"injected {detail} ({FAULTS_ENV_VAR})")
