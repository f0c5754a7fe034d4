"""Transductive cross-validation over criterion hyper-parameters.

In the transductive setting, cross-validating lambda means: split the
*labeled* set into folds; for each fold, treat it as unlabeled (its
labels hidden), solve the criterion on the full graph, and score the
hidden fold against its true labels.  The true unlabeled points remain
in the graph throughout — they contribute structure but never labels —
which is how a practitioner would actually tune a transductive method.

Two amortizations keep grid searches off the historical
recompute-everything path:

* :func:`cross_validate_lambda` accepts a whole lambda *grid*: folds are
  drawn once and each fold's permuted weight matrix is built once, then
  every lambda is scored against it (the permutation, not the solve, was
  the dominant per-(fold, lambda) cost on dense graphs).  Each fold gets
  one :class:`~repro.linalg.workspace.SolveWorkspace`, so the solves
  themselves share factorizations along the grid, sparse graphs stay
  sparse, and a fold whose labeled mask leaves a component unreachable
  fails with :class:`~repro.exceptions.DisconnectedGraphError`.  On
  sparse graphs above
  :data:`~repro.linalg.workspace.FACTORIZE_MAX_VERTICES` vertices every
  fold's workspace is the previous fold's reordered
  (:meth:`~repro.linalg.workspace.SolveWorkspace.permuted`), so the
  folds share one V-cycle hierarchy per call.
* :func:`select_bandwidth` computes the pairwise distance matrix once
  and rescales it per candidate bandwidth instead of rebuilding kernels
  from raw points (bit-identical weights: ``profile(sqrt(sq)/h)`` either
  way).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.datasets.splits import kfold_indices
from repro.exceptions import ConfigurationError, DataValidationError, ReproError
from repro.linalg.workspace import SolveWorkspace
from repro.metrics.regression import mean_squared_error
from repro.utils.rng import as_rng
from repro.utils.validation import check_labels, check_weight_matrix

__all__ = [
    "GridSearchResult",
    "cross_validate_lambda",
    "select_lambda",
    "select_bandwidth",
]

def _score_or_inf(evaluate) -> float:
    """Run one CV evaluation; degenerate candidates score ``inf``.

    A candidate can fail legitimately — e.g. a tiny bandwidth whose
    kernel weights underflow and disconnect the graph.  Grid search
    should skip such candidates, not crash.
    """
    try:
        return float(evaluate())
    except ReproError:
        return float("inf")


@dataclass(frozen=True)
class GridSearchResult:
    """Outcome of a 1-d hyper-parameter grid search.

    Attributes
    ----------
    grid:
        The candidate values, in evaluation order.
    scores:
        Mean CV loss (lower is better) per candidate.
    best_value:
        The grid value with the lowest loss (ties: first).
    best_score:
        Its loss.
    """

    grid: tuple[float, ...]
    scores: tuple[float, ...]
    best_value: float
    best_score: float

    def to_rows(self) -> list[list]:
        return [[value, score] for value, score in zip(self.grid, self.scores)]


def cross_validate_lambda(
    weights,
    y_labeled,
    lam,
    *,
    n_folds: int = 5,
    seed=None,
):
    """Mean held-out MSE of the soft criterion at one lambda or a grid.

    Parameters
    ----------
    weights:
        Full ``(n+m, n+m)`` weight matrix, labeled vertices first.
    y_labeled:
        Labels of the first ``n`` vertices.
    lam:
        Tuning parameter to evaluate (0 evaluates the hard criterion), or
        a sequence of them.  A sequence is scored against *one* set of
        folds with each fold's permuted graph built once and reused
        across the grid; candidates whose solve fails score ``inf``
        instead of aborting the grid (a scalar still raises, as before).
    n_folds:
        Folds over the labeled set.
    seed:
        Fold-shuffle seed.

    Each fold's :class:`~repro.linalg.workspace.SolveWorkspace` picks its
    own backend from the graph.

    Returns
    -------
    float, or a tuple of floats when ``lam`` is a sequence (one mean
    loss per candidate, in grid order).
    """
    scalar = np.ndim(lam) == 0
    grid = (lam,) if scalar else tuple(lam)
    if not grid:
        raise ConfigurationError("lam grid must contain at least one value")
    weights = check_weight_matrix(weights)
    y_labeled = check_labels(y_labeled, name="y_labeled")
    n = y_labeled.shape[0]
    total = weights.shape[0]
    if n > total:
        raise DataValidationError(
            f"y_labeled has length {n} but the graph has only {total} vertices"
        )
    if n < n_folds:
        raise DataValidationError(
            f"need at least n_folds={n_folds} labeled points, got {n}"
        )

    losses: list[list[float]] = [[] for _ in grid]
    failed = [False] * len(grid)
    rng = as_rng(seed)
    workspace = position = None
    for fold in kfold_indices(n, n_folds, seed=rng):
        keep = np.setdiff1d(np.arange(n), fold)
        # Reorder: kept-labeled first, then [held-out fold + true unlabeled].
        order = np.concatenate([keep, fold, np.arange(n, total)])
        if workspace is None:
            if sparse.issparse(weights):
                w_perm = weights[order][:, order].tocsr()
            else:
                w_perm = weights[np.ix_(order, order)]
            workspace = SolveWorkspace(w_perm)
        else:
            # the previous fold's graph reordered, sharing its hierarchy
            workspace = workspace.permuted(position[order])
        position = np.argsort(order)
        for j, lam_j in enumerate(grid):
            if failed[j]:
                continue
            try:
                fit = workspace.solve_soft(y_labeled[keep], lam_j)
            except ReproError:
                if scalar:
                    raise
                failed[j] = True
                continue
            held_out_scores = fit.scores[len(keep) : len(keep) + len(fold)]
            losses[j].append(
                mean_squared_error(y_labeled[fold], held_out_scores)
            )
    scores = tuple(
        float("inf") if failed[j] else float(np.mean(losses[j]))
        for j in range(len(grid))
    )
    return scores[0] if scalar else scores


def select_lambda(
    weights,
    y_labeled,
    *,
    grid: tuple[float, ...] = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
    n_folds: int = 5,
    seed=None,
) -> GridSearchResult:
    """Pick lambda by transductive cross-validation over ``grid``.

    The grid deliberately includes 0 (the hard criterion) so the search
    can *choose not to regularize* — which, per the paper's theory, it
    usually should.  The whole grid is scored in one
    :func:`cross_validate_lambda` call, so folds and each fold's permuted
    graph and workspace are shared across candidates.
    """
    if not grid:
        raise ConfigurationError("grid must contain at least one lambda")
    if any(lam < 0 for lam in grid):
        raise ConfigurationError("lambda grid values must be >= 0")
    try:
        scores = cross_validate_lambda(
            weights,
            y_labeled,
            tuple(grid),
            n_folds=n_folds,
            seed=seed,
        )
    except ReproError:
        # Validation failures (degenerate graph, too few labels) score
        # every candidate inf, matching the historical per-candidate
        # _score_or_inf behavior.
        scores = tuple(float("inf") for _ in grid)
    if not np.isfinite(min(scores)):
        raise ConfigurationError(
            "every lambda candidate failed cross-validation (degenerate graph?)"
        )
    best = int(np.argmin(scores))
    return GridSearchResult(
        grid=tuple(float(g) for g in grid),
        scores=scores,
        best_value=float(grid[best]),
        best_score=scores[best],
    )


def select_bandwidth(
    x_labeled,
    y_labeled,
    x_unlabeled,
    *,
    grid: tuple[float, ...],
    lam: float = 0.0,
    n_folds: int = 5,
    kernel=None,
    seed=None,
    graph: str = "full",
    graph_params: dict | None = None,
) -> GridSearchResult:
    """Pick the kernel bandwidth by transductive cross-validation.

    With ``graph="full"`` (the default, bit-identical to previous
    releases) the pairwise distance matrix is computed once — chunked
    past ~4M entries so no 3x-sized temporaries spike the peak memory —
    and rescaled per candidate bandwidth: the same weights as rebuilding
    the full kernel graph per candidate (``profile(sqrt(sq)/h)`` either
    way) without the repeated ``O(N^2 d)`` distance computations.

    With ``graph="knn"`` the ``(N, N)`` matrix is never materialised:
    the k-nearest-neighbour lists are computed once and reweighted per
    candidate into a sparse CSR graph
    (:func:`~repro.graph.similarity.knn_weights_by_bandwidth`) — this is
    the large-N route.  ``graph_params`` accepts ``k`` (default 10),
    ``mode`` (``"union"``/``"intersection"``, default ``"union"``) and
    ``construction``, the route: ``"neighbors"`` (the exact kd-tree,
    default) or ``"approx"`` (the RP-tree at its default knobs).  Each
    candidate's weights are those ``knn_graph`` builds on that route at
    that bandwidth.  The sparse graphs stay sparse through every CV fold.

    Each candidate is scored with :func:`cross_validate_lambda` at a
    fixed ``lam``.
    """
    from repro.graph.similarity import knn_weights_by_bandwidth
    from repro.kernels.base import pairwise_sq_distances
    from repro.kernels.library import GaussianKernel
    from repro.utils.validation import check_matrix_2d

    if not grid:
        raise ConfigurationError("grid must contain at least one bandwidth")
    if any(h <= 0 for h in grid):
        raise ConfigurationError("bandwidth grid values must be > 0")
    if graph not in ("full", "knn"):
        raise ConfigurationError(
            f"graph must be 'full' or 'knn', got {graph!r}"
        )
    if graph_params is not None and graph == "full":
        raise ConfigurationError("graph_params requires graph='knn'")
    x_labeled = check_matrix_2d(x_labeled, "x_labeled")
    x_unlabeled = check_matrix_2d(x_unlabeled, "x_unlabeled")
    kernel = kernel or GaussianKernel()
    x_all = np.vstack([x_labeled, x_unlabeled])

    if graph == "knn":
        params = {"k": 10, **(graph_params or {})}
        unknown = sorted(set(params) - {"k", "mode", "construction"})
        if unknown:
            raise ConfigurationError(f"unknown graph_params keys: {unknown}")
        candidate_weights = knn_weights_by_bandwidth(x_all, kernel=kernel, **params)
    else:
        base_radii = np.sqrt(pairwise_sq_distances(x_all))

        def candidate_weights(bandwidth):
            return kernel.profile(base_radii / bandwidth)

    scores = []
    for bandwidth in grid:
        # Construction inside the guard: a degenerate candidate (e.g. a
        # tiny bandwidth underflowing every knn weight to zero) scores
        # inf instead of crashing the whole search.
        scores.append(
            _score_or_inf(
                lambda bandwidth=bandwidth: cross_validate_lambda(
                    candidate_weights(bandwidth),
                    y_labeled,
                    lam,
                    n_folds=n_folds,
                    seed=seed,
                )
            )
        )
    if not np.isfinite(min(scores)):
        raise ConfigurationError(
            "every bandwidth candidate failed cross-validation "
            "(all graphs degenerate?)"
        )
    best = int(np.argmin(scores))
    return GridSearchResult(
        grid=tuple(float(g) for g in grid),
        scores=tuple(scores),
        best_value=float(grid[best]),
        best_score=scores[best],
    )
