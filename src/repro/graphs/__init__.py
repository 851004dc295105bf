"""Graph substrate: multigraphs, generators, transforms, and structure.

Everything the walk processes and spectral machinery run on.  See
:class:`repro.graphs.Graph` for the core data structure.
"""

from repro.graphs.builders import from_adjacency, from_edges
from repro.graphs.cycle_space import (
    cycle_space_basis,
    cycle_space_dimension,
    is_even_edge_set,
    minimum_even_subgraph,
)
from repro.graphs.geometric import connectivity_radius, random_geometric_graph
from repro.graphs.generators import (
    barbell_graph,
    bowtie_graph,
    circulant_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    double_cycle,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    petersen_graph,
    star_graph,
    theta_graph,
    torus_grid,
)
from repro.graphs.graph import Graph, GraphBuilder
from repro.graphs.implicit import (
    ImplicitGraph,
    ImplicitHashedRegular,
    ImplicitHypercube,
    ImplicitTorus,
    is_implicit,
)
from repro.graphs.properties import (
    bfs_distances,
    connected_components,
    degree_histogram,
    degree_vector,
    diameter,
    girth,
    is_bipartite,
    is_connected,
    require_connected,
    shortest_cycle_through,
    stationary_distribution,
)
from repro.graphs.ramanujan import (
    lps_girth_lower_bound,
    lps_graph,
    lps_is_bipartite,
    lps_vertex_count,
    valid_lps_q_values,
)
from repro.graphs.random_regular import (
    configuration_model,
    random_connected_regular_graph,
    random_even_degree_graph,
    random_regular_graph,
)
from repro.graphs.transform import (
    ContractionResult,
    SubdivisionResult,
    SubgraphResult,
    contract,
    disjoint_union,
    double_edges,
    induced_subgraph,
    subdivide,
)

__all__ = [
    "Graph",
    "GraphBuilder",
    # implicit neighbor-oracle backend
    "ImplicitGraph",
    "ImplicitHashedRegular",
    "ImplicitHypercube",
    "ImplicitTorus",
    "is_implicit",
    # builders
    "from_adjacency",
    "from_edges",
    # generators
    "barbell_graph",
    "bowtie_graph",
    "circulant_graph",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "double_cycle",
    "hypercube_graph",
    "lollipop_graph",
    "path_graph",
    "petersen_graph",
    "star_graph",
    "theta_graph",
    "torus_grid",
    # random graphs
    "connectivity_radius",
    "random_geometric_graph",
    "configuration_model",
    "random_connected_regular_graph",
    "random_even_degree_graph",
    "random_regular_graph",
    # LPS Ramanujan
    "lps_girth_lower_bound",
    "lps_graph",
    "lps_is_bipartite",
    "lps_vertex_count",
    "valid_lps_q_values",
    # properties
    "bfs_distances",
    "connected_components",
    "degree_histogram",
    "degree_vector",
    "diameter",
    "girth",
    "is_bipartite",
    "is_connected",
    "require_connected",
    "shortest_cycle_through",
    "stationary_distribution",
    # transforms
    "ContractionResult",
    "SubdivisionResult",
    "SubgraphResult",
    "contract",
    "disjoint_union",
    "double_edges",
    "induced_subgraph",
    "subdivide",
    # cycle space
    "cycle_space_basis",
    "cycle_space_dimension",
    "is_even_edge_set",
    "minimum_even_subgraph",
]
