"""How trials run: one frozen, validated-once :class:`ExecutionPolicy`.

The runner (:mod:`repro.sim.runner`), the sweep scheduler
(:mod:`repro.experiments.scheduler`) and the CLI all take the same
object, so each execution setting is declared, validated and documented
here and nowhere else.  None of them is part of an experiment's
identity: the replay suites pin that no policy changes a cover time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine import DEFAULT_FLEET_SIZE, ENGINES
from repro.errors import ReproError

__all__ = ["ExecutionPolicy"]

_CRASH_MODES = ("retry", "inline", "fail")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How trials run — never what they return.

    Every field is a throughput or robustness choice; the replay suites
    pin that no value of any of them changes a cover time.  Validated
    once, at construction, so a bad setting fails before any graph is
    built or any store is read.

    Attributes
    ----------
    engine:
        ``"reference"`` (the pluggable per-step classes), ``"array"``
        (the chunked flat-array twins from :mod:`repro.engine`), or
        ``"fleet"`` (lockstep many-trial stepping for the walks in
        :data:`repro.engine.FLEET_ENGINES`).  All engines consume
        randomness identically.  A fleet batch whose lanes cannot fleet
        (mismatched graph shapes, self-loops under the E-process, non-MT
        generators …) raises :class:`ReproError` naming the offending
        lane and trial.
    workers:
        Processes to spread trials over (1 = in-process, no pool); under
        ``engine="fleet"`` each worker drives whole fleets.
    fleet_size:
        Trials advanced together per fleet under ``engine="fleet"``.
    retries:
        Retry budget for supervised execution: per-trial transient
        failures (``OSError``, wall-clock timeouts), consecutive
        worker-pool crashes and store checkpoint writes each get this
        many retries before the run fails (or degrades — see
        ``on_worker_crash``).
    trial_timeout:
        Per-trial wall-clock ceiling in seconds (None: unlimited);
        distinct from ``max_steps``, which caps *steps* deterministically.
        A fleet batch pools the budget (``fleet_size`` trials advance in
        lockstep, so the batch gets ``fleet_size`` timeouts together).
    on_worker_crash:
        What to do when a pool worker dies: ``"retry"`` requeues the lost
        trials into a fresh pool, degrading to inline execution after
        ``retries`` consecutive pool failures; ``"inline"`` degrades
        immediately; ``"fail"`` raises.
    """

    engine: str = "reference"
    workers: int = 1
    fleet_size: int = DEFAULT_FLEET_SIZE
    retries: int = 2
    trial_timeout: Optional[float] = None
    on_worker_crash: str = "retry"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ReproError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.workers < 1:
            raise ReproError(f"workers must be >= 1, got {self.workers}")
        if self.fleet_size < 1:
            raise ReproError(f"fleet_size must be >= 1, got {self.fleet_size}")
        if self.retries < 0:
            raise ReproError(f"retries must be >= 0, got {self.retries}")
        if self.trial_timeout is not None and self.trial_timeout <= 0:
            raise ReproError(
                f"trial_timeout must be > 0 seconds, got {self.trial_timeout}"
            )
        if self.on_worker_crash not in _CRASH_MODES:
            raise ReproError(
                f"on_worker_crash must be one of {_CRASH_MODES}, "
                f"got {self.on_worker_crash!r}"
            )
