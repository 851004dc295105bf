"""Graph substrate: multigraphs, generators, transforms, and structure.

Everything the walk processes and spectral machinery run on.  See
:class:`repro.graphs.Graph` for the core data structure.  Names load their
defining module on first use (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "graph": ("Graph", "GraphBuilder"),
        # implicit neighbor-oracle backend
        "implicit": (
            "ImplicitGraph",
            "ImplicitHashedRegular",
            "ImplicitHypercube",
            "ImplicitTorus",
            "is_implicit",
        ),
        "builders": ("from_adjacency", "from_edges"),
        "generators": (
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
        ),
        # random graphs
        "geometric": ("connectivity_radius", "random_geometric_graph"),
        "random_regular": (
            "configuration_model",
            "random_connected_regular_graph",
            "random_even_degree_graph",
            "random_regular_graph",
        ),
        # LPS Ramanujan
        "ramanujan": (
            "lps_girth_lower_bound",
            "lps_graph",
            "lps_is_bipartite",
            "lps_vertex_count",
            "valid_lps_q_values",
        ),
        "properties": (
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
        ),
        "transform": (
            "ContractionResult",
            "SubdivisionResult",
            "SubgraphResult",
            "contract",
            "disjoint_union",
            "double_edges",
            "induced_subgraph",
            "subdivide",
        ),
        "cycle_space": (
            "cycle_space_basis",
            "cycle_space_dimension",
            "is_even_edge_set",
            "minimum_even_subgraph",
        ),
    },
)
