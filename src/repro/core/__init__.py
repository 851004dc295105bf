"""The paper's contribution: the E-process and its structural analysis.

Names load their defining module on first use (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "eprocess": ("BLUE", "RED", "EdgeProcess", "PhaseMark"),
        "rules": (
            "ALL_RULE_FACTORIES",
            "AdversarialHomingRule",
            "CallableRule",
            "EdgeRule",
            "FarthestFirstRule",
            "HighestLabelRule",
            "LowestLabelRule",
            "RoundRobinRule",
            "UniformEdgeRule",
        ),
        "phases": (
            "Phase",
            "PhaseViolation",
            "blue_phases",
            "phase_decomposition",
            "red_phases",
            "verify_observation_10",
            "verify_observation_12",
            "verify_step_accounting",
        ),
        "phasestats": ("PhaseStats", "phase_statistics"),
        "components": (
            "BlueComponent",
            "blue_component_order_distribution",
            "blue_components",
            "blue_degree_map",
            "isolated_blue_stars",
            "maximal_blue_subgraph_at",
            "verify_observation_11",
        ),
        "goodness": (
            "corollary2_ell",
            "ell_goodness_exact",
            "ell_lower_bound_girth",
            "ell_value_at",
            "is_ell_good",
            "p2_max_density_ratio",
            "p2_violation_search",
        ),
        "bounds": (
            "edge_cover_sandwich",
            "eprocess_speedup",
            "eq1_expander_vertex_cover_bound",
            "eq4_blanket_edge_cover_bound",
            "feige_lower_bound",
            "grw_edge_cover_bound",
            "lemma14_subgraph_count_bound",
            "lemma15_tau_star",
            "radzik_lower_bound",
            "rotor_router_cover_bound",
            "theorem1_vertex_cover_bound",
            "theorem3_edge_cover_bound",
        ),
        "stars": (
            "StarCensusResult",
            "coupon_collector_time",
            "cumulative_star_census",
            "expected_isolated_stars",
            "isolated_star_probability",
            "passed_over_vertices",
            "star_collection_lower_bound",
            "turn_away_probability",
        ),
    },
)
