"""repro — Random walks which prefer unvisited edges (the E-process).

A full reproduction of Berenbrink, Cooper & Friedetzky, *"Random walks which
prefer unvisited edges: exploring high girth even degree expanders in linear
time"* (PODC 2012 / RS&A 2015): the E-process walk engine with pluggable
edge-selection rules, every substrate the paper's analysis touches (graph
generators including LPS Ramanujan expanders, spectral gap/hitting/mixing
machinery, phase and blue-component structure, ℓ-goodness), the baseline
walks it compares against, and a benchmark harness regenerating Figure 1 and
each in-text quantitative claim.

Quickstart
----------
>>> import random
>>> from repro import EdgeProcess, random_connected_regular_graph
>>> rng = random.Random(1)
>>> g = random_connected_regular_graph(200, 4, rng)
>>> walk = EdgeProcess(g, start=0, rng=rng)
>>> cover = walk.run_until_vertex_cover()
>>> cover < 10 * g.n   # Θ(n) on even-degree random regular graphs
True
"""

from repro._version import __version__
from repro.core import (
    ALL_RULE_FACTORIES,
    BLUE,
    RED,
    AdversarialHomingRule,
    BlueComponent,
    CallableRule,
    EdgeProcess,
    EdgeRule,
    FarthestFirstRule,
    HighestLabelRule,
    LowestLabelRule,
    Phase,
    PhaseMark,
    PhaseViolation,
    RoundRobinRule,
    UniformEdgeRule,
    blue_components,
    blue_phases,
    corollary2_ell,
    edge_cover_sandwich,
    ell_goodness_exact,
    ell_value_at,
    eprocess_speedup,
    eq1_expander_vertex_cover_bound,
    expected_isolated_stars,
    feige_lower_bound,
    grw_edge_cover_bound,
    isolated_blue_stars,
    isolated_star_probability,
    maximal_blue_subgraph_at,
    phase_decomposition,
    radzik_lower_bound,
    red_phases,
    theorem1_vertex_cover_bound,
    theorem3_edge_cover_bound,
    verify_observation_10,
    verify_observation_11,
    verify_observation_12,
)
from repro.engine import ArrayEdgeProcess, ArraySRW
from repro.errors import (
    CoverTimeout,
    EvenDegreeError,
    GenerationError,
    GoodnessError,
    GraphError,
    NotConnectedError,
    ReproError,
    RuleError,
    SpectralError,
)
from repro.graphs import (
    Graph,
    GraphBuilder,
    complete_graph,
    cycle_graph,
    from_edges,
    girth,
    hypercube_graph,
    lps_graph,
    random_connected_regular_graph,
    random_regular_graph,
    stationary_distribution,
    torus_grid,
)
from repro.sim import (
    DEFAULT_ROOT_SEED,
    Aggregate,
    ExecutionPolicy,
    aggregate,
    cover_time_trials,
    fit_linear,
    fit_nlogn,
    fit_normalized_profile,
    select_growth_model,
    spawn,
)
from repro.walks import (
    GreedyRandomWalk,
    LazyRandomWalk,
    LeastUsedFirstWalk,
    OldestFirstWalk,
    RandomWalkWithChoice,
    RotorRouterWalk,
    SimpleRandomWalk,
    UnvisitedVertexWalk,
    WalkProcess,
    WeightedRandomWalk,
)

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphError",
    "NotConnectedError",
    "EvenDegreeError",
    "GenerationError",
    "SpectralError",
    "CoverTimeout",
    "RuleError",
    "GoodnessError",
    # graphs
    "Graph",
    "GraphBuilder",
    "from_edges",
    "cycle_graph",
    "complete_graph",
    "hypercube_graph",
    "torus_grid",
    "girth",
    "random_regular_graph",
    "random_connected_regular_graph",
    "lps_graph",
    "stationary_distribution",
    # walks
    "WalkProcess",
    "SimpleRandomWalk",
    "LazyRandomWalk",
    "WeightedRandomWalk",
    "RotorRouterWalk",
    "RandomWalkWithChoice",
    "UnvisitedVertexWalk",
    "LeastUsedFirstWalk",
    "OldestFirstWalk",
    "GreedyRandomWalk",
    # array engines
    "ArraySRW",
    "ArrayEdgeProcess",
    # E-process core
    "EdgeProcess",
    "BLUE",
    "RED",
    "PhaseMark",
    "Phase",
    "PhaseViolation",
    "EdgeRule",
    "UniformEdgeRule",
    "LowestLabelRule",
    "HighestLabelRule",
    "RoundRobinRule",
    "AdversarialHomingRule",
    "FarthestFirstRule",
    "CallableRule",
    "ALL_RULE_FACTORIES",
    "BlueComponent",
    "blue_components",
    "maximal_blue_subgraph_at",
    "isolated_blue_stars",
    "phase_decomposition",
    "blue_phases",
    "red_phases",
    "verify_observation_10",
    "verify_observation_11",
    "verify_observation_12",
    # goodness & bounds
    "ell_value_at",
    "ell_goodness_exact",
    "corollary2_ell",
    "theorem1_vertex_cover_bound",
    "theorem3_edge_cover_bound",
    "eq1_expander_vertex_cover_bound",
    "grw_edge_cover_bound",
    "edge_cover_sandwich",
    "radzik_lower_bound",
    "feige_lower_bound",
    "eprocess_speedup",
    "isolated_star_probability",
    "expected_isolated_stars",
    # sim
    "DEFAULT_ROOT_SEED",
    "Aggregate",
    "aggregate",
    "spawn",
    "ExecutionPolicy",
    "cover_time_trials",
    "fit_linear",
    "fit_nlogn",
    "fit_normalized_profile",
    "select_growth_model",
]
