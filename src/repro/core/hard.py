"""The hard criterion (Zhu-Ghahramani-Lafferty harmonic functions).

Solves Eq. (1) of the paper:

    min_f  sum_ij w_ij (f_i - f_j)^2   subject to  f_i = Y_i, i <= n,

whose unlabeled-block closed form is Eq. (5):

    f_u = (D22 - W22)^{-1} W21 Y_n,

where ``D`` is the full degree matrix (degrees include edges to labeled
vertices and any self-weights) and subscript 2 denotes the unlabeled
block.  The matrix ``D22 - W22`` is a *grounded Laplacian*: symmetric, and
positive definite exactly when every unlabeled vertex can reach a labeled
vertex through positive-weight edges — checked up front so singular
systems fail with an actionable :class:`DisconnectedGraphError` instead of
a numerics error.

Solver backends: ``"direct"`` (dense Cholesky), ``"cg"``, ``"jacobi"``,
``"gauss_seidel"``, ``"sparse"`` (symmetric-mode sparse LU), all verified
to agree in the test suite.  Sparse weight matrices are never densified:
the grounded system is assembled in CSR and ``method="direct"`` is
rerouted to the sparse factorization, whose input nnz and factor fill-in
are reported through :class:`~repro.linalg.solvers.SolveInfo`.  The cost
is ``O(m^3)`` for the dense direct backend — the paper's Section II
complexity claim, benchmarked in ``bench_complexity``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro import obs
from repro.core.result import FitResult
from repro.exceptions import DataValidationError
from repro.graph.components import require_labeled_reachability
from repro.graph.laplacian import grounded_system
from repro.graph.similarity import SimilarityGraph
from repro.linalg.solvers import solve_spd
from repro.obs import probes
from repro.utils.validation import check_labels, check_weight_matrix

__all__ = ["solve_hard_criterion", "hard_criterion_objective"]


def _coerce_weights(weights):
    """Accept a SimilarityGraph, dense ndarray or scipy sparse matrix."""
    if isinstance(weights, SimilarityGraph):
        return weights.weights
    return weights


def _labeled_first_inputs(weights, y_labeled):
    """Validate a labeled-first problem; returns ``(weights, y, n, m)``.

    Unwraps a SimilarityGraph, validates the weights and the labels, and
    rejects more labels than vertices.  ``n`` counts the labeled
    vertices (the first ``n``) and ``m`` the unlabeled ones.
    """
    weights = check_weight_matrix(_coerce_weights(weights))
    y = check_labels(y_labeled, name="y_labeled")
    total = weights.shape[0]
    n = y.shape[0]
    if n > total:
        raise DataValidationError(
            f"y_labeled has length {n} but the graph has only {total} vertices"
        )
    return weights, y, n, total - n


def solve_hard_criterion(
    weights,
    y_labeled,
    *,
    method: str = "direct",
    tol: float = 1e-10,
    max_iter: int | None = None,
    check_reachability: bool = True,
) -> FitResult:
    """Solve the hard criterion on a full similarity graph.

    This is the per-point reference solve; repeated solves on one graph
    reuse the grounded factorization through
    :meth:`~repro.linalg.workspace.SolveWorkspace.solve_hard` instead.

    Parameters
    ----------
    weights:
        ``(n+m, n+m)`` symmetric non-negative weight matrix (dense, scipy
        sparse, or a :class:`~repro.graph.similarity.SimilarityGraph`),
        with the ``n`` labeled vertices first.
    y_labeled:
        Observed responses ``Y_1..Y_n``; its length determines ``n``.
    method:
        Linear-solver backend (see module docstring).
    tol, max_iter:
        Tolerances for the iterative backends.
    check_reachability:
        When true (default), validate that every unlabeled vertex reaches
        a labeled one before solving; disable only if already checked.

    Returns
    -------
    FitResult
        With ``scores[:n] == y_labeled`` exactly and ``scores[n:]`` equal
        to Eq. (5)'s solution.
    """
    weights, y_labeled, n, m = _labeled_first_inputs(weights, y_labeled)

    if m == 0:
        scores = y_labeled.copy()
        return FitResult(
            scores=scores, n_labeled=n, lam=0.0, method=method,
            criterion="hard", details={"m": 0},
        )

    if check_reachability:
        require_labeled_reachability(weights, n)

    with obs.span("repro.solve_hard", n=n, m=m, method=method) as span:
        system, w21 = grounded_system(weights, n)
        rhs = np.asarray(w21 @ y_labeled).ravel()
        if method == "direct" and sparse.issparse(weights):
            method = "sparse"

        if span.recording:
            probes.record_graph_stats(span, weights, n)
            probes.record_spd_system(span, system)

        f_unlabeled, info = solve_spd(
            system, rhs, method=method, tol=tol, max_iter=max_iter, return_info=True
        )
        probes.record_solve_info(span, info)
        registry = obs.get_registry()
        registry.counter("solves.hard").inc()
        registry.log_histogram("solves.hard.system_size").observe(m)
        scores = np.concatenate([y_labeled, f_unlabeled])
        return FitResult(
            scores=scores,
            n_labeled=n,
            lam=0.0,
            method=method,
            criterion="hard",
            details={"m": m, "system_size": m},
            solve_info=info,
        )


def hard_criterion_objective(weights, scores) -> float:
    """The hard criterion's objective ``sum_ij w_ij (f_i - f_j)^2``.

    Equal to ``2 f^T L f`` for the unnormalized Laplacian ``L``; used by
    tests to confirm the closed-form solution actually minimizes Eq. (1)
    over perturbations that keep the labeled scores fixed.
    """
    weights = check_weight_matrix(_coerce_weights(weights))
    scores = check_labels(scores, weights.shape[0], name="scores")
    if sparse.issparse(weights):
        coo = weights.tocoo()
        diffs = scores[coo.row] - scores[coo.col]
        return float(np.sum(coo.data * diffs * diffs))
    diffs = scores[:, None] - scores[None, :]
    return float(np.sum(weights * diffs * diffs))
