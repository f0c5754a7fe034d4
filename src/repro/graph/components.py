"""Connectivity analysis of similarity graphs.

The hard criterion is well posed only when every connected component that
contains an unlabeled vertex also contains at least one labeled vertex —
otherwise the block system ``(D22 - W22) f_u = W21 y`` is singular and
that component's scores are undetermined.  :func:`labeled_reachability`
diagnoses this and :func:`require_labeled_reachability` raises
:class:`~repro.exceptions.DisconnectedGraphError` with the offending
component.  A caller that checks many labeled masks on one graph (the
solve workspace) computes the components once with
:func:`validated_components` and reports each mask in O(N) with
:func:`reachability_report`.

Proposition II.2 additionally assumes the whole graph is connected
(:func:`is_connected`), which is what makes the ``lambda = inf`` solution
globally constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components as _cc

from repro.exceptions import DataValidationError, DisconnectedGraphError
from repro.utils.validation import check_weight_matrix

__all__ = [
    "connected_components",
    "validated_components",
    "is_connected",
    "labeled_reachability",
    "reachability_report",
    "raise_if_unreachable",
    "require_labeled_reachability",
    "ReachabilityReport",
]


def validated_components(weights) -> tuple[int, np.ndarray]:
    """:func:`connected_components` of a matrix that is already validated.

    ``weights`` must be what :func:`~repro.utils.validation.check_weight_matrix`
    returned; it is not checked again.  Stored zeros are not edges, and
    the matrix is copied only when it stores zeros.

    On a symmetric pattern the strongly connected components of the
    directed graph are its components, and finding them needs no
    transpose, where scipy's undirected search builds one.  Strong
    components are renumbered by their smallest vertex, the numbering of
    the undirected search.  A one-sided entry within the symmetry
    tolerance can join two strong components; when a stored edge does,
    the undirected search runs instead.
    """
    if sparse.issparse(weights):
        graph = weights
        if graph.nnz and not np.all(graph.data):
            graph = graph.copy()
            graph.eliminate_zeros()
    else:
        graph = sparse.csr_matrix(weights)
    count, labels = _cc(graph, directed=True, connection="strong")
    if count > 1:
        labels = _numbered_by_smallest_vertex(count, labels)
        row_labels = np.repeat(labels, np.diff(graph.indptr))
        if not np.array_equal(row_labels, labels[graph.indices]):
            count, labels = _cc(graph, directed=False)
    return int(count), labels


def _numbered_by_smallest_vertex(count: int, labels: np.ndarray) -> np.ndarray:
    """Component ``labels`` renumbered in order of each component's
    smallest vertex, the numbering of scipy's undirected search."""
    if count < 2:
        return labels
    _, first_vertex = np.unique(labels, return_index=True)
    rank = np.empty(count, dtype=labels.dtype)
    rank[np.argsort(first_vertex)] = np.arange(count, dtype=labels.dtype)
    return rank[labels]


def connected_components(weights) -> tuple[int, np.ndarray]:
    """Number of components and per-vertex component labels.

    Edges are pairs with strictly positive weight; weights equal to zero
    are treated as absent edges.
    """
    return validated_components(check_weight_matrix(weights))


def is_connected(weights) -> bool:
    """True when the positive-weight graph has a single component."""
    count, _ = connected_components(weights)
    return count <= 1


@dataclass(frozen=True)
class ReachabilityReport:
    """Outcome of the labeled-reachability check.

    Attributes
    ----------
    ok:
        True when every unlabeled vertex shares a component with at least
        one labeled vertex.
    n_components:
        Total number of connected components.
    orphan_components:
        Component labels containing unlabeled vertices but no labeled ones.
    orphan_vertices:
        Indices (into the full vertex set) of unlabeled vertices in orphan
        components.
    """

    ok: bool
    n_components: int
    orphan_components: tuple[int, ...]
    orphan_vertices: tuple[int, ...]


def labeled_reachability(weights, n_labeled: int) -> ReachabilityReport:
    """Check that every unlabeled vertex can reach a labeled vertex.

    Parameters
    ----------
    weights:
        Full ``(n+m, n+m)`` weight matrix with labeled vertices first.
    n_labeled:
        Number of labeled vertices ``n`` (the first ``n`` rows).
    """
    weights = check_weight_matrix(weights)
    total = weights.shape[0]
    if not 0 <= n_labeled <= total:
        raise DataValidationError(
            f"n_labeled must be in [0, {total}], got {n_labeled}"
        )
    return reachability_report(*validated_components(weights), n_labeled)


def reachability_report(
    n_components: int, labels: np.ndarray, n_labeled: int
) -> ReachabilityReport:
    """The :class:`ReachabilityReport` of component ``labels``, in O(N).

    ``n_components`` and ``labels`` are what :func:`connected_components`
    returns; the first ``n_labeled`` vertices are the labeled ones.
    """
    has_label = np.zeros(n_components, dtype=bool)
    has_label[labels[:n_labeled]] = True
    unlabeled = labels[n_labeled:]
    orphaned = ~has_label[unlabeled]
    orphans = np.unique(unlabeled[orphaned])
    return ReachabilityReport(
        ok=orphans.size == 0,
        n_components=n_components,
        orphan_components=tuple(orphans.tolist()),
        orphan_vertices=tuple((n_labeled + np.flatnonzero(orphaned)).tolist()),
    )


def raise_if_unreachable(report: ReachabilityReport) -> None:
    """Raise :class:`DisconnectedGraphError` for a report that is not ok.

    The error message names the first few orphaned vertices so callers can
    identify the offending region of input space (typically a bandwidth
    that is too small for the sample density).
    """
    if report.ok:
        return
    preview = report.orphan_vertices[:10]
    raise DisconnectedGraphError(
        f"{len(report.orphan_vertices)} unlabeled vertices cannot reach any "
        f"labeled vertex (first few: {list(preview)}); the hard criterion's "
        f"linear system is singular. Increase the bandwidth or add edges.",
        component_indices=report.orphan_vertices,
    )


def require_labeled_reachability(weights, n_labeled: int) -> None:
    """Raise :class:`DisconnectedGraphError` when the hard system is singular."""
    raise_if_unreachable(labeled_reachability(weights, n_labeled))
