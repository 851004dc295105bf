"""Declarative experiment specifications with stable content hashes.

An :class:`ExperimentSpec` names one data point of a paper-style sweep —
*which* graph family member, *which* walk, *which* cover target, how many
trials, under which root seed — without any code objects, so it can be
hashed, stored next to its results, and rebuilt in a later session.

The hash (:attr:`ExperimentSpec.spec_hash`) covers exactly the fields that
determine the measured numbers: family + params, walk, target, root seed,
start policy, and step budget.  It deliberately excludes ``trials``:
results are stored per trial, so raising ``trials=5`` to ``trials=20``
later must land in the same bucket (a top-up, not a rerun).  How trials
run — engine, workers, fleet size — is not part of a spec at all: it is
the runner's :class:`~repro.sim.policy.ExecutionPolicy`, which changes
throughput and never numbers, so every engine shares one store bucket.

Trial seeds derive from ``(root_seed, spec.seed_label, kind, trial)``
through the same seed tree :func:`repro.sim.runner.cover_time_trials`
uses, and ``seed_label`` is itself derived from the hash — so any two
sessions that construct the same spec replay the same trials bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.engine import NAMED_WALK_FACTORIES
from repro.errors import ReproError
from repro.graphs import (
    Graph,
    ImplicitGraph,
    ImplicitHashedRegular,
    ImplicitHypercube,
    ImplicitTorus,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    lps_graph,
    random_connected_regular_graph,
    torus_grid,
)
from repro.sim.rng import DEFAULT_ROOT_SEED

__all__ = [
    "FAMILY_BUILDERS",
    "WALK_BUILDERS",
    "ExperimentSpec",
    "SweepSpec",
    "family_vertex_count",
    "family_workload",
]


# --------------------------------------------------------------------------
# Graph family registry: name -> (required params, builder(params, rng))
# --------------------------------------------------------------------------

def _build_regular(params: Mapping[str, Any], rng: random.Random) -> Graph:
    return random_connected_regular_graph(params["n"], params["degree"], rng)


def _build_cycle(params: Mapping[str, Any], rng: random.Random) -> Graph:
    return cycle_graph(params["n"])


def _build_complete(params: Mapping[str, Any], rng: random.Random) -> Graph:
    return complete_graph(params["n"])


def _build_torus(params: Mapping[str, Any], rng: random.Random) -> Graph:
    return torus_grid(params["rows"], params["cols"])


def _build_hypercube(params: Mapping[str, Any], rng: random.Random) -> Graph:
    return hypercube_graph(params["r"])


def _build_lps(params: Mapping[str, Any], rng: random.Random) -> Graph:
    return lps_graph(params["p"], params["q"])


def _build_implicit_hypercube(params: Mapping[str, Any], rng: random.Random) -> ImplicitHypercube:
    return ImplicitHypercube(params["r"])


def _build_implicit_torus(params: Mapping[str, Any], rng: random.Random) -> ImplicitTorus:
    return ImplicitTorus(params["rows"], params["cols"])


def _build_implicit_hashed(params: Mapping[str, Any], rng: random.Random) -> ImplicitHashedRegular:
    # The wiring key comes off the trial's graph stream — a fresh random
    # d-regular-ish multigraph per trial, the implicit counterpart of the
    # "regular" family's per-trial Steger–Wormald draw.
    return ImplicitHashedRegular(params["n"], params["degree"], key=rng.getrandbits(64))


#: Families an :class:`ExperimentSpec` can name.  Each entry pins the exact
#: parameter set so specs with stray/missing params fail at construction,
#: not at run time inside a worker.  The ``implicit_*`` families build
#: neighbor-oracle graphs (:mod:`repro.graphs.implicit`) — O(1) memory at
#: any size, stepped by the per-trial oracle engines (fleets step on the
#: graph's ``materialize()`` twin, up to ``n·d = 2^22`` darts); walks that
#: need per-edge state refuse them by name (see :mod:`repro.engine`).
FAMILY_BUILDERS: Dict[
    str,
    Tuple[
        Tuple[str, ...],
        Callable[[Mapping[str, Any], random.Random], Union[Graph, ImplicitGraph]],
    ],
] = {
    "regular": (("n", "degree"), _build_regular),
    "cycle": (("n",), _build_cycle),
    "complete": (("n",), _build_complete),
    "torus": (("rows", "cols"), _build_torus),
    "hypercube": (("r",), _build_hypercube),
    "lps": (("p", "q"), _build_lps),
    "implicit_hypercube": (("r",), _build_implicit_hypercube),
    "implicit_torus": (("cols", "rows"), _build_implicit_torus),
    "implicit_hashed_regular": (("degree", "n"), _build_implicit_hashed),
}


def family_vertex_count(family: str, params: Mapping[str, Any]) -> Optional[int]:
    """Vertex count of a family member, derived from params alone.

    Analytic — never builds the graph, so a giant implicit spec can
    validate its start vertex without materializing anything.  ``None``
    for families whose size needs the actual build (currently ``lps``,
    whose vertex count depends on Legendre-symbol arithmetic).
    """
    if family in ("regular", "cycle", "complete", "implicit_hashed_regular"):
        return int(params["n"])
    if family in ("torus", "implicit_torus"):
        return int(params["rows"]) * int(params["cols"])
    if family in ("hypercube", "implicit_hypercube"):
        return 1 << int(params["r"])
    return None


class _FamilyWorkload:
    """Picklable ``f(rng) -> Graph`` built from a (family, params) pair.

    Module-level class (not a lambda/closure) so the multiprocessing runner
    can ship it to pool workers, and so a spec read back from the store can
    rebuild the identical workload.
    """

    def __init__(self, family: str, params: Mapping[str, Any]) -> None:
        if family not in FAMILY_BUILDERS:
            raise ReproError(
                f"unknown graph family {family!r}; known: {sorted(FAMILY_BUILDERS)}"
            )
        self.family = family
        self.params = dict(params)

    def __call__(self, rng: random.Random) -> Union[Graph, ImplicitGraph]:
        return FAMILY_BUILDERS[self.family][1](self.params, rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"


def family_workload(family: str, params: Mapping[str, Any]) -> _FamilyWorkload:
    """The runner workload for a family member (validates family name)."""
    return _FamilyWorkload(family, params)


# --------------------------------------------------------------------------
# Walk registry: one source of truth lives in repro.engine — every nameable
# walk with its per-engine factories (module-level functions, picklable).
# Specs address walks by name; the reference views below exist for callers
# that want a concrete factory.
# --------------------------------------------------------------------------

WALK_BUILDERS: Dict[str, Callable] = {
    name: variants["reference"] for name, variants in NAMED_WALK_FACTORIES.items()
}


def _normalize_params(params: Union[Mapping[str, Any], Sequence[Tuple[str, Any]]]) -> Tuple[Tuple[str, Any], ...]:
    items = sorted(dict(params).items())
    for key, value in items:
        if not isinstance(key, str):
            raise ReproError(f"family param names must be strings, got {key!r}")
        if not isinstance(value, (int, float, str, bool)):
            raise ReproError(
                f"family param {key!r} must be a JSON scalar, got {type(value).__name__}"
            )
    return tuple(items)


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative data point: family member x walk x target x seeds.

    ``family_params`` accepts a mapping at construction and is normalized
    to a sorted item tuple (hashable, canonical).  ``trials`` rides
    along in the spec but is excluded from :attr:`spec_hash` (see module
    docstring).
    """

    family: str
    family_params: Tuple[Tuple[str, Any], ...]
    walk: str
    target: str = "vertices"
    trials: int = 5
    root_seed: int = DEFAULT_ROOT_SEED
    start: Union[int, str] = "random"
    max_steps: Optional[int] = None

    #: Fields excluded from :attr:`spec_hash`: a trial top-up must land in
    #: the same store bucket.  Every other field is hashed by
    #: :meth:`identity`; the ``R5`` lint rule keeps the three-way partition
    #: (fields / identity / this list) consistent.
    HASH_EXCLUDED_FIELDS: ClassVar[FrozenSet[str]] = frozenset({"trials"})

    def __post_init__(self) -> None:
        object.__setattr__(self, "family_params", _normalize_params(self.family_params))
        if self.family not in FAMILY_BUILDERS:
            raise ReproError(
                f"unknown graph family {self.family!r}; known: {sorted(FAMILY_BUILDERS)}"
            )
        required, _ = FAMILY_BUILDERS[self.family]
        got = tuple(k for k, _ in self.family_params)
        if got != tuple(sorted(required)):
            raise ReproError(
                f"family {self.family!r} takes params {sorted(required)}, got {list(got)}"
            )
        if self.walk not in WALK_BUILDERS:
            raise ReproError(
                f"unknown walk {self.walk!r}; known: {sorted(WALK_BUILDERS)}"
            )
        if self.target not in ("vertices", "edges"):
            raise ReproError(f"target must be 'vertices' or 'edges', got {self.target!r}")
        if self.trials < 1:
            raise ReproError(f"need at least one trial, got {self.trials}")
        if self.start != "random":
            try:
                object.__setattr__(self, "start", int(self.start))
            except (TypeError, ValueError):
                raise ReproError(
                    f"start must be a vertex id or 'random', got {self.start!r}"
                ) from None
            # Families with param-derived sizes validate the start range
            # here, analytically — a bad --start on a 10^7-vertex implicit
            # spec errors at construction, not after building anything.
            n = family_vertex_count(self.family, self.params)
            if n is not None and not 0 <= self.start < n:
                inner = ",".join(f"{k}={v}" for k, v in self.family_params)
                raise ReproError(
                    f"start vertex {self.start} out of range 0..{n - 1} "
                    f"for {self.family}({inner})"
                )
        if self.max_steps is not None and self.max_steps < 1:
            raise ReproError(f"max_steps must be >= 1, got {self.max_steps}")

    # -- canonical forms ----------------------------------------------------

    @property
    def params(self) -> Dict[str, Any]:
        """Family params as a plain dict."""
        return dict(self.family_params)

    def identity(self) -> Dict[str, Any]:
        """The result-determining fields, as a JSON-safe dict.

        This is the hashed payload: everything that changes the measured
        cover times is in here, and nothing else (``trials`` is out — see
        the module docstring).
        """
        return {
            "family": self.family,
            "family_params": self.params,
            "walk": self.walk,
            "target": self.target,
            "root_seed": self.root_seed,
            "start": self.start,
            "max_steps": self.max_steps,
        }

    def canonical_json(self) -> str:
        """Stable JSON of the full spec (identity + trial count)."""
        payload = dict(self.identity(), trials=self.trials)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def spec_hash(self) -> str:
        """16-hex-digit content hash of :meth:`identity` — the store key."""
        payload = json.dumps(self.identity(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @property
    def seed_label(self) -> str:
        """The runner seed-tree label; hash-derived, so identity => seeds."""
        return f"exp:{self.spec_hash}"

    def describe(self) -> str:
        """Compact human-readable one-liner for progress lines and `store ls`."""
        inner = ",".join(f"{k}={v}" for k, v in self.family_params)
        bits = f"{self.family}({inner})"
        if self.family.startswith("implicit_"):
            # Implicit members never materialize, so surface the derived
            # size — the number a reader wants — next to the raw params.
            n = family_vertex_count(self.family, self.params)
            if n is not None:
                bits += f"[n={n}]"
        bits += f" {self.walk}/{self.target}"
        if self.start != "random":
            bits += f" start={self.start}"
        return f"{bits} seed={self.root_seed} trials={self.trials}"

    # -- derived runner inputs ---------------------------------------------

    def workload(self) -> _FamilyWorkload:
        """The picklable graph workload for :func:`repro.sim.runner.run_trials`."""
        return _FamilyWorkload(self.family, self.params)

    def runner_walk(self) -> Union[str, Callable]:
        """What to hand the runner as ``walk_factory``.

        Always the walk *name*: every spec walk lives in the engine
        registry, so the runner resolves the policy's engine itself (and
        names always pickle for the worker pool).
        """
        return self.walk

    def with_trials(self, trials: int) -> "ExperimentSpec":
        """Same point, different trial count (same store bucket)."""
        return replace(self, trials=trials)


def _adjust_regular_n(n: int, degree: int) -> int:
    """Round n up to make n*d even (a d-regular graph needs an even sum)."""
    return n if (n * degree) % 2 == 0 else n + 1


@dataclass(frozen=True)
class SweepSpec:
    """A named collection of experiment points — one figure or table."""

    name: str
    specs: Tuple[ExperimentSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        if not self.specs:
            raise ReproError(f"sweep {self.name!r} has no experiment points")
        seen: Dict[str, ExperimentSpec] = {}
        for spec in self.specs:
            other = seen.get(spec.spec_hash)
            if other is not None:
                raise ReproError(
                    f"sweep {self.name!r} lists the same point twice: "
                    f"{spec.describe()!r}"
                )
            seen[spec.spec_hash] = spec

    @property
    def total_trials(self) -> int:
        """Trial cells across every point of the sweep."""
        return sum(spec.trials for spec in self.specs)

    @classmethod
    def deduped(cls, name: str, specs: Sequence[ExperimentSpec]) -> "SweepSpec":
        """Build a sweep keeping the first spec per content hash.

        The collision policy for generated grids, where distinct requested
        sizes can land on the same point (parity adjustment at odd n*d,
        hypercube's power-of-two rounding); explicit hand-written sweeps
        should use the plain constructor, which treats duplicates as an
        error.
        """
        seen = set()
        kept = []
        for spec in specs:
            if spec.spec_hash not in seen:
                seen.add(spec.spec_hash)
                kept.append(spec)
        return cls(name=name, specs=tuple(kept))

    @classmethod
    def regular_grid(
        cls,
        name: str,
        sizes: Sequence[int],
        degrees: Sequence[int],
        walk: str = "eprocess",
        trials: int = 5,
        root_seed: int = DEFAULT_ROOT_SEED,
        target: str = "vertices",
        max_steps: Optional[int] = None,
    ) -> "SweepSpec":
        """The paper's grid: random d-regular graphs over degrees x sizes.

        Sizes are parity-adjusted per degree (``n*d`` must be even), the
        same adjustment Figure 1 applies; sizes that collide after
        adjustment (e.g. 99 and 100 at d=3) collapse to one point.
        """
        specs = [
            ExperimentSpec(
                family="regular",
                family_params={"n": _adjust_regular_n(n, degree), "degree": degree},
                walk=walk,
                target=target,
                trials=trials,
                root_seed=root_seed,
                max_steps=max_steps,
            )
            for degree in degrees
            for n in sizes
        ]
        return cls.deduped(name, specs)

    @classmethod
    def figure1(
        cls,
        sizes: Sequence[int],
        degrees: Sequence[int],
        trials: int = 5,
        root_seed: int = DEFAULT_ROOT_SEED,
    ) -> "SweepSpec":
        """The Figure 1 sweep: E-process vertex cover on d-regular graphs."""
        return cls.regular_grid(
            name="figure1",
            sizes=sizes,
            degrees=degrees,
            walk="eprocess",
            trials=trials,
            root_seed=root_seed,
            target="vertices",
        )


def family_params_from_size(family: str, n: int, degree: int = 4) -> Dict[str, Any]:
    """Derive a family's param dict from a target size (the CLI convention).

    Mirrors the ad-hoc derivations the CLI's ``--family/--n`` flags always
    used: torus takes the nearest square side, hypercube the nearest
    power-of-two dimension, regular graphs parity-adjust n.
    """
    if family == "regular":
        return {"n": _adjust_regular_n(n, degree), "degree": degree}
    if family in ("cycle", "complete"):
        return {"n": n}
    if family in ("torus", "implicit_torus"):
        side = max(3, int(math.isqrt(n)))
        return {"rows": side, "cols": side}
    if family in ("hypercube", "implicit_hypercube"):
        return {"r": max(1, int(round(math.log2(n))))}
    if family == "implicit_hashed_regular":
        return {"n": _adjust_regular_n(n, degree), "degree": degree}
    raise ReproError(
        f"family {family!r} has no size-derived params; sizeable families: "
        f"['complete', 'cycle', 'hypercube', 'implicit_hashed_regular', "
        f"'implicit_hypercube', 'implicit_torus', 'regular', 'torus']"
    )


__all__.append("family_params_from_size")
