"""Laplacian-eigenbasis regression (Belkin & Niyogi's family).

A different route to semi-supervised learning on the same graph:
instead of penalizing roughness, *restrict* the hypothesis space to the
span of the first ``p`` Laplacian eigenvectors — the graph's smoothest
functions — and least-squares fit their coefficients on the labeled
vertices:

    f = U_p a,    a = argmin ||y - (U_p)_labeled a||^2.

This is the regularization-by-dimension method of Belkin, Matveeva &
Niyogi (2004), the paper's reference [13], and serves as a third
baseline family alongside the hard/soft criteria: it also uses the
unlabeled data (through the eigenvectors) but controls capacity by
truncation rather than a penalty weight.

The method's premise is that the graph's low eigenvectors are
*informative* — true for clustered/manifold data (it solves two moons
from a dozen labels) but false for the paper's nearly-flat synthetic
kernel graphs, where all non-constant eigenvectors are interchangeable
noise and the method degrades sharply.  The baseline is included with
that caveat; the tests exercise both regimes.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.hard import _labeled_first_inputs
from repro.core.result import FitResult
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.graph.laplacian import _unchecked_laplacian
from repro.graph.similarity import build_similarity_graph
from repro.kernels.base import RadialKernel
from repro.kernels.library import GaussianKernel
from repro.utils.validation import check_matrix_2d

__all__ = ["solve_eigenbasis", "EigenbasisRegressor"]


def solve_eigenbasis(
    weights,
    y_labeled,
    *,
    n_components: int,
    ridge: float = 1e-6,
) -> FitResult:
    """Least-squares fit in the span of the smoothest eigenvectors.

    Parameters
    ----------
    weights:
        Full ``(n+m, n+m)`` weight matrix, labeled vertices first.
    y_labeled:
        Observed responses of the first ``n`` vertices.
    n_components:
        Basis size ``p``; must satisfy ``1 <= p <= min(n, n+m)`` (more
        components than labels would make the fit underdetermined).
    ridge:
        Tikhonov regularization on the coefficients.  Eigenvectors can
        be almost orthogonal to the labeled rows (localized on the
        unlabeled region), in which case plain least squares explodes
        their coefficients; a small ridge keeps such directions muted.
    """
    weights, y_labeled, n, _ = _labeled_first_inputs(weights, y_labeled)
    if not 1 <= n_components <= n:
        raise ConfigurationError(
            f"n_components must be in [1, {n}], got {n_components}"
        )
    if ridge < 0:
        raise ConfigurationError(f"ridge must be >= 0, got {ridge}")
    lap = _unchecked_laplacian(weights)
    dense = np.asarray(lap.todense()) if sparse.issparse(lap) else lap
    _, vectors = np.linalg.eigh(dense)
    basis = vectors[:, :n_components]  # smoothest first (ascending eigenvalues)
    design = basis[:n]
    gram = design.T @ design + ridge * np.eye(n_components)
    coefficients = np.linalg.solve(gram, design.T @ y_labeled)
    scores = basis @ coefficients
    return FitResult(
        scores=scores,
        n_labeled=n,
        lam=float(n_components),
        method="eigenbasis",
        criterion="eigenbasis",
        details={"n_components": n_components},
    )


class EigenbasisRegressor:
    """Estimator wrapper over :func:`solve_eigenbasis`.

    Mirrors :class:`~repro.core.estimators.GraphSSLRegressor`: ``fit``
    builds the graph over labeled + unlabeled inputs and fits the
    truncated eigenbasis; ``predict`` returns the unlabeled scores.
    """

    def __init__(
        self,
        n_components: int = 10,
        *,
        ridge: float = 1e-6,
        kernel: RadialKernel | None = None,
        bandwidth="median",
        graph: str = "full",
        graph_params: dict | None = None,
    ):
        if n_components < 1:
            raise ConfigurationError(
                f"n_components must be >= 1, got {n_components}"
            )
        self.n_components = n_components
        self.ridge = ridge
        self.kernel = kernel or GaussianKernel()
        self.bandwidth = bandwidth
        self.graph = graph
        self.graph_params = dict(graph_params or {})
        self.result_: FitResult | None = None
        self.bandwidth_: float | None = None

    def fit(self, x_labeled, y_labeled, x_unlabeled) -> "EigenbasisRegressor":
        from repro.core.estimators import _resolve_bandwidth

        x_labeled = check_matrix_2d(x_labeled, "x_labeled")
        x_unlabeled = check_matrix_2d(x_unlabeled, "x_unlabeled")
        if x_unlabeled.shape[1] != x_labeled.shape[1]:
            raise DataValidationError(
                f"x_labeled has {x_labeled.shape[1]} columns but x_unlabeled "
                f"has {x_unlabeled.shape[1]}"
            )
        x_all = np.vstack([x_labeled, x_unlabeled])
        self.bandwidth_ = _resolve_bandwidth(self.bandwidth, x_all, x_labeled.shape[0])
        graph = build_similarity_graph(
            x_all,
            graph=self.graph,
            kernel=self.kernel,
            bandwidth=self.bandwidth_,
            **self.graph_params,
        )
        self.result_ = solve_eigenbasis(
            graph.weights, y_labeled,
            n_components=self.n_components, ridge=self.ridge,
        )
        return self

    def predict(self) -> np.ndarray:
        if self.result_ is None:
            raise NotFittedError("EigenbasisRegressor.predict called before fit")
        return self.result_.unlabeled_scores.copy()

    def fit_predict(self, x_labeled, y_labeled, x_unlabeled) -> np.ndarray:
        return self.fit(x_labeled, y_labeled, x_unlabeled).predict()
