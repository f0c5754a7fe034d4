"""Graph substrate: similarity matrices, Laplacians, connectivity, spectra."""

from repro.graph.components import (
    connected_components,
    is_connected,
    labeled_reachability,
    require_labeled_reachability,
)
from repro.graph.laplacian import (
    degree_vector,
    grounded_system,
    laplacian,
    normalized_laplacian,
    random_walk_laplacian,
    soft_system,
)
from repro.graph.approx import approx_knn_graph, knn_recall, rp_tree_knn
from repro.graph.similarity import (
    SimilarityGraph,
    build_similarity_graph,
    epsilon_graph,
    full_kernel_graph,
    knn_graph,
    local_scaling_graph,
)
from repro.graph.diagnostics import GraphDiagnostics, diagnose_graph
from repro.graph.random_walk import (
    absorption_probabilities,
    effective_resistance,
    expected_hitting_times,
)
from repro.graph.spectral import fiedler_value, laplacian_spectrum, spectral_embedding

__all__ = [
    "SimilarityGraph",
    "build_similarity_graph",
    "full_kernel_graph",
    "knn_graph",
    "epsilon_graph",
    "local_scaling_graph",
    "approx_knn_graph",
    "knn_recall",
    "rp_tree_knn",
    "degree_vector",
    "laplacian",
    "normalized_laplacian",
    "random_walk_laplacian",
    "grounded_system",
    "soft_system",
    "connected_components",
    "is_connected",
    "labeled_reachability",
    "require_labeled_reachability",
    "fiedler_value",
    "laplacian_spectrum",
    "spectral_embedding",
    "absorption_probabilities",
    "expected_hitting_times",
    "effective_resistance",
    "GraphDiagnostics",
    "diagnose_graph",
]
