"""Graph substrate: topologies, generators, conductance, mixing times, ports.

The numpy-backed analysis names (conductance, mixing times, spectra) load
on first use, so building and simulating graphs never imports numpy.
"""

from .._lazy import lazy_exports
from .generators import (
    FAMILIES,
    GraphFamily,
    barbell_graph,
    binary_tree_graph,
    complete_bipartite_graph,
    complete_graph,
    connected_erdos_renyi_graph,
    cycle_graph,
    erdos_renyi_graph,
    expander_graph,
    get_family,
    gilbert_connectivity_radius,
    gilbert_graph,
    grid_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
)
from .ports import PortNumberedGraph
from .topology import Graph

__all__ = [
    "Graph",
    "PortNumberedGraph",
    "GraphFamily",
    "FAMILIES",
    "get_family",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "grid_graph",
    "torus_graph",
    "hypercube_graph",
    "complete_bipartite_graph",
    "binary_tree_graph",
    "barbell_graph",
    "lollipop_graph",
    "random_regular_graph",
    "erdos_renyi_graph",
    "connected_erdos_renyi_graph",
    "expander_graph",
    "gilbert_graph",
    "gilbert_connectivity_radius",
    "ConductanceEstimate",
    "cut_conductance",
    "exact_conductance",
    "sweep_cut_conductance",
    "cheeger_bounds",
    "estimate_conductance",
    "MixingProfile",
    "lazy_transition_matrix",
    "stationary_distribution",
    "walk_distribution",
    "linf_distance_to_stationary",
    "mixing_time",
    "cached_mixing_time",
    "spectral_mixing_time_estimate",
    "mixing_profile",
    "normalized_laplacian",
    "normalized_laplacian_spectrum",
    "normalized_laplacian_second_eigenvalue",
    "lazy_walk_second_eigenvalue",
    "spectral_gap",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".conductance": (
            "ConductanceEstimate",
            "cheeger_bounds",
            "cut_conductance",
            "estimate_conductance",
            "exact_conductance",
            "sweep_cut_conductance",
        ),
        ".mixing": (
            "MixingProfile",
            "cached_mixing_time",
            "lazy_transition_matrix",
            "linf_distance_to_stationary",
            "mixing_profile",
            "mixing_time",
            "spectral_mixing_time_estimate",
            "stationary_distribution",
            "walk_distribution",
        ),
        ".spectra": (
            "lazy_walk_second_eigenvalue",
            "normalized_laplacian",
            "normalized_laplacian_second_eigenvalue",
            "normalized_laplacian_spectrum",
            "spectral_gap",
        ),
    },
)
