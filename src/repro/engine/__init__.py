"""Fast array-backed simulation engines.

The reference walk classes optimize for clarity and pluggability; the
engines here optimize for throughput.  Both expose the same stepping and
cover-time surface and draw the same Mersenne-Twister stream, so for a
given seed an array engine reproduces its reference twin's trajectory and
cover time bit for bit — the parity tests in ``tests/test_engine.py``
(and ``tests/test_engine_rotor_rwc.py``, ``tests/test_fleet.py``) assert
exactly that.

Three engines exist:

* ``"reference"`` — the per-step walk classes; every walk has one.
* ``"array"``     — chunked flat-array twins (:class:`ArraySRW`,
  :class:`ArrayEdgeProcess`, :class:`ArrayRotorRouter`,
  :class:`ArrayRWC`).
* ``"fleet"``     — lockstep many-trial stepping
  (:class:`~repro.engine.fleet.FleetSRW`,
  :class:`~repro.engine.fleet_unvisited.FleetEdgeProcess`,
  :class:`~repro.engine.fleet_unvisited.FleetVProcess`): the runner
  batches trials through the walk's entry in :data:`FLEET_ENGINES`; a
  batch the class cannot step raises
  :class:`~repro.engine.fleet.FleetUnsupported` at construction, naming
  the offending lane.  A walk can fleet exactly when it has an entry
  there.

The registries at the bottom are the single source of truth for every
walk the CLI and experiment specs can name: :data:`NAMED_WALK_FACTORIES`
maps each walk's per-trial engines to module-level factories (picklable
for the multiprocessing runner), :data:`FLEET_ENGINES` its lockstep
fleet constructor.  Walks without a fast twin simply have only the
``"reference"`` entry; asking for a missing engine is an explicit
:class:`~repro.errors.ReproError`, never a silent reference fallback.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro._lazy import lazy_exports
from repro.errors import ReproError
from repro.graphs.implicit import is_implicit

# The engine classes load on first use, so resolving or validating a walk
# name (``repro sweep`` flags, a fully cached sweep) imports no engine.
_LAZY_ALL, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": ("ArrayWalkEngine", "MTWordStream", "DEFAULT_CHUNK_SIZE"),
        "srw": ("ArraySRW",),
        "eprocess": ("ArrayEdgeProcess",),
        "rotor": ("ArrayRotorRouter",),
        "rwc": ("ArrayRWC",),
        "oracle": ("OracleSRW", "OracleEdgeProcess", "OracleVProcess"),
        "fleet": ("FleetSRW",),
        "fleet_unvisited": ("FleetEdgeProcess", "FleetVProcess"),
    },
)

__all__ = _LAZY_ALL + [
    "DEFAULT_FLEET_SIZE",
    "ENGINES",
    "FLEET_ENGINES",
    "NAMED_WALK_FACTORIES",
    "resolve_walk_factory",
]

ENGINES = ("reference", "array", "fleet")

#: Trials advanced together per fleet; the runner's batch size for
#: ``engine="fleet"``.  A fleet step costs roughly a fixed number of numpy
#: dispatches however many lanes ride it, so wider fleets amortize better.
#: The stepwise kernels pay their dispatches *per lockstep step* and keep
#: gaining well past 64 lanes (fleet E-process vs per-trial
#: ``ArrayEdgeProcess``, 10k-vertex benchmark graph: ~2.1x at 64, ~3x at
#: 128 on vertex cover) while one batch's lane state stays a few tens of
#: MB.
DEFAULT_FLEET_SIZE = 128


def _refuse_implicit(walk_name: str, graph, state: str) -> None:
    """Walks needing dense per-edge state have no oracle twin — refuse
    loudly rather than materialize O(m) state behind the caller's back."""
    if is_implicit(graph):
        raise ReproError(
            f"walk {walk_name!r} needs {state} — per-edge state the implicit "
            f"neighbor-oracle backend cannot provide for {graph!r}; call "
            "materialize() on the graph (small n) or use "
            "srw/eprocess/vprocess, which have oracle engines"
        )


# Each factory imports its class when called: the registries below
# name every walk without loading any engine module.


def _srw_reference(graph, start, rng):
    if is_implicit(graph):
        from repro.engine.oracle import OracleSRW

        return OracleSRW(graph, start, rng=rng, track_edges=True)
    from repro.walks.srw import SimpleRandomWalk

    return SimpleRandomWalk(graph, start, rng=rng, track_edges=True)


def _srw_array(graph, start, rng):
    if is_implicit(graph):
        # One oracle engine serves both names: its chunk tiers already
        # batch draws, and bit-identity makes the distinction unobservable.
        from repro.engine.oracle import OracleSRW

        return OracleSRW(graph, start, rng=rng, track_edges=True)
    from repro.engine.srw import ArraySRW

    return ArraySRW(graph, start, rng=rng, track_edges=True)


def _eprocess_reference(graph, start, rng):
    if is_implicit(graph):
        from repro.engine.oracle import OracleEdgeProcess

        return OracleEdgeProcess(graph, start, rng=rng, record_phases=False)
    from repro.core.eprocess import EdgeProcess

    return EdgeProcess(graph, start, rng=rng, record_phases=False)


def _eprocess_array(graph, start, rng):
    if is_implicit(graph):
        from repro.engine.oracle import OracleEdgeProcess

        return OracleEdgeProcess(graph, start, rng=rng, record_phases=False)
    from repro.engine.eprocess import ArrayEdgeProcess

    return ArrayEdgeProcess(graph, start, rng=rng, record_phases=False)


def _rotor_reference(graph, start, rng):
    _refuse_implicit("rotor", graph, "a per-vertex rotor table")
    from repro.walks.rotor import RotorRouterWalk

    return RotorRouterWalk(graph, start, rng=rng, randomize_rotors=True, track_edges=True)


def _rotor_array(graph, start, rng):
    _refuse_implicit("rotor", graph, "a per-vertex rotor table")
    from repro.engine.rotor import ArrayRotorRouter

    return ArrayRotorRouter(graph, start, rng=rng, randomize_rotors=True, track_edges=True)


def _rwc2_reference(graph, start, rng):
    _refuse_implicit("rwc2", graph, "per-vertex visit counts")
    from repro.walks.choice import RandomWalkWithChoice

    return RandomWalkWithChoice(graph, start, d=2, rng=rng, track_edges=True)


def _rwc2_array(graph, start, rng):
    _refuse_implicit("rwc2", graph, "per-vertex visit counts")
    from repro.engine.rwc import ArrayRWC

    return ArrayRWC(graph, start, d=2, rng=rng, track_edges=True)


def _vprocess_reference(graph, start, rng):
    if is_implicit(graph):
        from repro.engine.oracle import OracleVProcess

        return OracleVProcess(graph, start, rng=rng, track_edges=True)
    from repro.walks.choice import UnvisitedVertexWalk

    return UnvisitedVertexWalk(graph, start, rng=rng, track_edges=True)


def _least_used_reference(graph, start, rng):
    _refuse_implicit("least-used", graph, "per-edge traversal counts")
    from repro.walks.fair import LeastUsedFirstWalk

    return LeastUsedFirstWalk(graph, start, rng=rng, track_edges=True)


def _oldest_first_reference(graph, start, rng):
    _refuse_implicit("oldest-first", graph, "per-edge last-use ages")
    from repro.walks.fair import OldestFirstWalk

    return OldestFirstWalk(graph, start, rng=rng, track_edges=True)


def _fleet_srw(graphs, starts, rngs, **options):
    from repro.engine.fleet import FleetSRW

    return FleetSRW(graphs, starts, rngs, **options)


def _fleet_eprocess(graphs, starts, rngs, **options):
    from repro.engine.fleet_unvisited import FleetEdgeProcess

    return FleetEdgeProcess(graphs, starts, rngs, **options)


def _fleet_vprocess(graphs, starts, rngs, **options):
    from repro.engine.fleet_unvisited import FleetVProcess

    return FleetVProcess(graphs, starts, rngs, **options)


#: Every nameable walk, mapping each per-trial engine to its factory.
#: All variants of a name take ``(graph, start, rng)``, track edges (so
#: either cover target works), and consume randomness identically —
#: switching engines changes throughput, never numbers.
NAMED_WALK_FACTORIES: Dict[str, Dict[str, Callable]] = {
    "srw": {"reference": _srw_reference, "array": _srw_array},
    "eprocess": {"reference": _eprocess_reference, "array": _eprocess_array},
    "rotor": {"reference": _rotor_reference, "array": _rotor_array},
    "rwc2": {"reference": _rwc2_reference, "array": _rwc2_array},
    "vprocess": {"reference": _vprocess_reference},
    "least-used": {"reference": _least_used_reference},
    "oldest-first": {"reference": _oldest_first_reference},
}


#: Lockstep fleet constructors by walk name — what the runner's
#: ``engine="fleet"`` batches step, and the only record of which walks
#: can fleet.  Each takes ``(graphs, starts, rngs, labels=None)`` like the
#: fleet class it builds, which runs the fused C kernel when it is
#: built (``REPRO_NATIVE=0`` switches it off); construction checks the
#: batch's eligibility once, raising
#: :class:`repro.engine.fleet.FleetUnsupported`.  The runner looks entries
#: up at call time, so a wrapped entry (a profiler's) is the one it runs.
FLEET_ENGINES: Dict[str, Callable] = {
    "srw": _fleet_srw,
    "eprocess": _fleet_eprocess,
    "vprocess": _fleet_vprocess,
}


def _engines_of(walk: str) -> List[str]:
    """The engines a named walk runs on, sorted."""
    return sorted(
        list(NAMED_WALK_FACTORIES[walk]) + (["fleet"] if walk in FLEET_ENGINES else [])
    )


def resolve_walk_factory(walk: Union[str, Callable], engine: str = "reference") -> Callable:
    """Resolve a walk name or factory to what ``engine`` constructs.

    ``walk`` may be a name from :data:`NAMED_WALK_FACTORIES` (resolved for
    the requested engine) or an explicit ``f(graph, start, rng)`` factory
    (allowed only with ``engine="reference"`` — a callable already commits
    to a concrete walk class, so asking for a fast engine on top of it
    would be silently ignored at best).  Under ``engine="fleet"`` the
    result is the walk's fleet constructor from :data:`FLEET_ENGINES`,
    ``make(graphs, starts, rngs, labels=None)``.

    Requesting an engine a walk does not implement raises
    :class:`~repro.errors.ReproError` naming the walk, its available
    engines, and the walks that do implement the requested engine — the
    reference path is never substituted silently.
    """
    if engine not in ENGINES:
        raise ReproError(f"engine must be one of {ENGINES}, got {engine!r}")
    if callable(walk):
        if engine != "reference":
            raise ReproError(
                f"engine={engine!r} needs a named walk "
                f"({sorted(NAMED_WALK_FACTORIES)}); got a callable factory — "
                "construct the fast walk inside the factory instead"
            )
        return walk
    variants = NAMED_WALK_FACTORIES.get(walk)
    if variants is None:
        raise ReproError(
            f"unknown walk {walk!r}; named walks: {sorted(NAMED_WALK_FACTORIES)}"
        )
    factory = FLEET_ENGINES.get(walk) if engine == "fleet" else variants.get(engine)
    if factory is None:
        capable = sorted(n for n in NAMED_WALK_FACTORIES if engine in _engines_of(n))
        raise ReproError(
            f"walk {walk!r} has no {engine!r} engine (available: "
            f"{_engines_of(walk)}); walks with a {engine!r} engine: {capable}. "
            "Use engine='reference' for this walk."
        )
    return factory
