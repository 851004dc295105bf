"""The ledger's workloads: which ``repro`` commands each one runs, and why.

Every workload is a real CLI invocation.  Store workloads (``repro sweep``)
run cold into an empty store and then warm, the identical command served
from the store.  Cover workloads (``repro cover``) have no store, so each
repetition recomputes everything.

Two scales exist: ``full`` is what the timed runs measure, ``smoke`` is a
toy size that finishes in seconds and only checks that everything is
reported and correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Scale:
    """How big one command of a workload is."""

    trials: int  # trials per sweep point, or per cover run
    sizes: Tuple[int, ...]  # sweep --sizes, or the single cover --n
    fleet_size: Optional[int] = None  # --fleet-size; None keeps the CLI default


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "sweep" or "cover"
    flags: Tuple[str, ...]
    workers: int
    full: Scale
    smoke: Scale

    @property
    def uses_store(self) -> bool:
        return self.command == "sweep"

    def scale(self, name: str) -> Scale:
        return {"full": self.full, "smoke": self.smoke}[name]

    def trials(self, scale: Scale) -> int:
        """Trials one command runs (or serves from the store)."""
        return scale.trials * (len(scale.sizes) if self.uses_store else 1)

    def argv(self, scale: Scale, seed: int, store: str) -> List[str]:
        """The CLI arguments (after ``python -m repro``) of one command."""
        args = [self.command, *self.flags, "--workers", str(self.workers)]
        if self.uses_store:
            args += ["--sizes", *map(str, scale.sizes), "--store", store]
        else:
            (n,) = scale.sizes
            args += ["--n", str(n)]
        args += ["--trials", str(scale.trials), "--seed", str(seed)]
        if scale.fleet_size is not None:
            args += ["--fleet-size", str(scale.fleet_size)]
        return args


_REGULAR = ("--family", "regular", "--engine", "fleet")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig1-fresh",
            why="paper's Figure 1 sweep, fresh random 4-regular graph per trial: graph "
            "builds dominate, distinct-lane fleet kernel, store written cold then read warm",
            command="sweep",
            flags=_REGULAR + ("--degrees", "4", "--walk", "eprocess"),
            # One worker: on a 2-vCPU host two pool workers slow each other
            # by a third per trial, by an amount that drifts with the
            # neighbours' load, and their runs spread past the bounds.
            workers=1,
            full=Scale(trials=32, sizes=(2000, 8000), fleet_size=16),
            smoke=Scale(trials=8, sizes=(200, 400), fleet_size=4),
        ),
        Workload(
            name="eproc-fixed",
            why="one n=50000 graph, 4+ fleet batches: the E-process stepwise kernel on "
            "shared tiles does nearly all the work; bypasses the store and most graph code",
            command="cover",
            flags=_REGULAR + ("--walk", "eprocess"),
            workers=2,
            full=Scale(trials=256, sizes=(50000,), fleet_size=64),
            smoke=Scale(trials=16, sizes=(2000,), fleet_size=4),
        ),
        Workload(
            name="srw-fixed",
            why="same shape with SRW at n=32000: the regular-graph prefiltered block "
            "kernel, not the stepwise driver; the E-process workloads are its control",
            command="cover",
            flags=_REGULAR + ("--walk", "srw"),
            workers=2,
            full=Scale(trials=128, sizes=(32000,), fleet_size=32),
            smoke=Scale(trials=16, sizes=(1000,), fleet_size=4),
        ),
        Workload(
            name="tiny-many",
            why="tiny implicit hypercubes, 512 trials per point, one worker: fixed "
            "per-trial costs (lane RNG setup, store appends, scheduling) and a large warm read",
            command="sweep",
            flags=("--family", "implicit_hypercube", "--walk", "srw", "--engine", "fleet"),
            workers=1,
            full=Scale(trials=512, sizes=(16, 32, 64)),
            smoke=Scale(trials=64, sizes=(16, 32, 64)),
        ),
    )
}


#: The workloads ``BENCHMARK.json`` names.  The two fixed-graph cover
#: workloads stay runnable by hand but are left out of the ledger: on a
#: 2-vCPU host whose neighbours slow it for 30-60 s at a time, a run must
#: last about 50 s to be steady, and four workloads at that length make a
#: full ledger pass too long.  ``fig1-fresh`` (E-process, graph-bound) and
#: ``tiny-many`` (oracle SRW fleets, store-bound) between them still time
#: every layer; only the cover workloads start a process pool.
LEDGER = ("fig1-fresh", "tiny-many")
