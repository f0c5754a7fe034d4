"""Estimator-style wrappers over the criterion solvers.

These provide a familiar ``fit`` / ``predict`` workflow around the
functional core.  Graph-based SSL is *transductive*: ``fit`` receives both
the labeled data and the unlabeled inputs whose scores are wanted, builds
the similarity graph over their union, and solves the chosen criterion;
``predict`` then simply returns the unlabeled scores.

    >>> model = HardLabelPropagation(bandwidth="paper")
    >>> scores = model.fit(x_labeled, y, x_unlabeled).predict()

Bandwidths may be a positive float or one of the named rules:
``"paper"`` (``(log n / n)^{1/d}``, the synthetic-experiment rule),
``"median"`` (median pairwise distance, the COIL rule), ``"scott"``,
``"silverman"``, ``"knn"``.
"""

from __future__ import annotations

import numpy as np

from repro.core.hard import solve_hard_criterion
from repro.core.nadaraya_watson import nadaraya_watson
from repro.core.result import FitResult
from repro.core.soft import solve_soft_criterion
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.graph.similarity import SimilarityGraph, build_similarity_graph
from repro.kernels.bandwidth import (
    knn_distance_rule,
    median_heuristic,
    paper_bandwidth_rule,
    scott_rule,
    silverman_rule,
)
from repro.kernels.base import RadialKernel
from repro.kernels.library import GaussianKernel
from repro.utils.validation import check_labels, check_matrix_2d, check_positive_scalar

__all__ = [
    "GraphSSLRegressor",
    "GraphSSLClassifier",
    "HardLabelPropagation",
    "SoftLabelPropagation",
    "NadarayaWatsonRegressor",
    "NadarayaWatsonClassifier",
]

_BANDWIDTH_RULES = ("paper", "median", "scott", "silverman", "knn")


def _resolve_bandwidth(rule, x_all: np.ndarray, n_labeled: int) -> float:
    """Turn a bandwidth spec (float or rule name) into a number."""
    if isinstance(rule, str):
        if rule == "paper":
            return paper_bandwidth_rule(n_labeled, x_all.shape[1])
        if rule == "median":
            return median_heuristic(x_all)
        if rule == "scott":
            return scott_rule(x_all)
        if rule == "silverman":
            return silverman_rule(x_all)
        if rule == "knn":
            return knn_distance_rule(x_all)
        raise ConfigurationError(
            f"unknown bandwidth rule {rule!r}; known rules: {_BANDWIDTH_RULES} "
            f"(or pass a positive float)"
        )
    return check_positive_scalar(rule, "bandwidth")


class GraphSSLRegressor:
    """Transductive graph-SSL regression with a tunable criterion.

    Parameters
    ----------
    lam:
        Tuning parameter ``lambda >= 0``; 0 is the hard criterion.
    kernel:
        Radial kernel (Gaussian RBF by default, as in the paper).
    bandwidth:
        Positive float or a rule name (see module docstring).
    graph:
        Graph construction: ``"full"`` (the paper's), ``"knn"`` or
        ``"epsilon"``.
    graph_params:
        Extra parameters for the construction (e.g. ``{"k": 10}``).
    solver:
        Linear-solver backend for the criterion.
    soft_method:
        ``"schur"`` (Eq. 4) or ``"full"`` (Eq. 3) for ``lam > 0``.
    """

    def __init__(
        self,
        lam: float = 0.0,
        *,
        kernel: RadialKernel | None = None,
        bandwidth="paper",
        graph: str = "full",
        graph_params: dict | None = None,
        solver: str = "direct",
        soft_method: str = "schur",
    ):
        self.lam = check_positive_scalar(lam, "lam", allow_zero=True)
        self.kernel = kernel or GaussianKernel()
        self.bandwidth = bandwidth
        self.graph = graph
        self.graph_params = dict(graph_params or {})
        self.solver = solver
        self.soft_method = soft_method
        self.result_: FitResult | None = None
        self.graph_: SimilarityGraph | None = None
        self.bandwidth_: float | None = None
        self._x_all: np.ndarray | None = None

    def fit(self, x_labeled, y_labeled, x_unlabeled) -> "GraphSSLRegressor":
        """Build the graph over labeled + unlabeled inputs and solve.

        ``x_unlabeled`` may have zero rows, in which case ``predict``
        returns an empty array.
        """
        x_labeled = check_matrix_2d(x_labeled, "x_labeled")
        x_unlabeled = check_matrix_2d(x_unlabeled, "x_unlabeled")
        if x_unlabeled.shape[1] != x_labeled.shape[1]:
            raise DataValidationError(
                f"x_labeled has {x_labeled.shape[1]} columns but x_unlabeled "
                f"has {x_unlabeled.shape[1]}"
            )
        y_labeled = check_labels(y_labeled, x_labeled.shape[0], name="y_labeled")

        x_all = np.vstack([x_labeled, x_unlabeled])
        self._x_all = x_all
        self.bandwidth_ = _resolve_bandwidth(self.bandwidth, x_all, x_labeled.shape[0])
        self.graph_ = build_similarity_graph(
            x_all,
            graph=self.graph,
            kernel=self.kernel,
            bandwidth=self.bandwidth_,
            **self.graph_params,
        )
        if self.lam == 0.0:
            self.result_ = solve_hard_criterion(
                self.graph_.weights, y_labeled, method=self.solver
            )
        else:
            self.result_ = solve_soft_criterion(
                self.graph_.weights,
                y_labeled,
                self.lam,
                method=self.soft_method,
                solver=self.solver,
            )
        return self

    def predict(self) -> np.ndarray:
        """Scores on the unlabeled inputs passed to ``fit``."""
        if self.result_ is None:
            raise NotFittedError(f"{type(self).__name__}.predict called before fit")
        return self.result_.unlabeled_scores.copy()

    def fit_predict(self, x_labeled, y_labeled, x_unlabeled) -> np.ndarray:
        """Convenience: ``fit`` then ``predict``."""
        return self.fit(x_labeled, y_labeled, x_unlabeled).predict()

    def induce(self, x_new) -> np.ndarray:
        """Out-of-sample extension (Delalleau et al. 2005's induction).

        Transductive solutions are defined only on the fitted vertices;
        the standard induction formula extends them to a new point as
        the kernel-weighted average of *all* fitted scores:

            f(x) = sum_j K((x - x_j)/h) f_j / sum_j K((x - x_j)/h),

        which is the minimizer of the criterion when the new point is
        appended with every existing score held fixed.  Raises
        :class:`DataValidationError` for points with no support overlap
        (all kernel weights zero).
        """
        if self.result_ is None or self.bandwidth_ is None:
            raise NotFittedError(f"{type(self).__name__}.induce called before fit")
        x_new = check_matrix_2d(x_new, "x_new")
        if x_new.shape[1] != self._x_all.shape[1]:
            raise DataValidationError(
                f"x_new has {x_new.shape[1]} columns but the model was fit "
                f"on {self._x_all.shape[1]}"
            )
        cross = self.kernel.gram(x_new, self._x_all, bandwidth=self.bandwidth_)
        denominators = cross.sum(axis=1)
        zero = np.flatnonzero(denominators <= 0)
        if zero.size:
            raise DataValidationError(
                f"induction undefined at points {zero[:10].tolist()}: no "
                f"fitted point within the kernel support; increase the "
                f"bandwidth or refit including these points"
            )
        return (cross @ self.result_.scores) / denominators

    @property
    def scores_(self) -> np.ndarray:
        """Full fitted score vector (labeled first)."""
        if self.result_ is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        return self.result_.scores


class HardLabelPropagation(GraphSSLRegressor):
    """The hard criterion (Eq. 1/5): ``lambda`` fixed to zero.

    The paper's recommended method — consistent under Theorem II.1 and
    free of tuning-parameter selection.
    """

    def __init__(self, **kwargs):
        if "lam" in kwargs:
            raise ConfigurationError(
                "HardLabelPropagation fixes lam=0; use SoftLabelPropagation "
                "or GraphSSLRegressor to set lam"
            )
        super().__init__(lam=0.0, **kwargs)


class SoftLabelPropagation(GraphSSLRegressor):
    """The soft criterion (Eq. 2/4) with explicit ``lam > 0``.

    Shown inconsistent for large ``lam`` by Proposition II.2; provided for
    the paper's comparisons.
    """

    def __init__(self, lam: float, **kwargs):
        lam = check_positive_scalar(lam, "lam")
        super().__init__(lam=lam, **kwargs)


class GraphSSLClassifier(GraphSSLRegressor):
    """Binary transductive classification on 0/1 labels.

    Fits the regression scores, interprets them as estimates of
    ``P(Y=1|X)`` (clipped to [0, 1] for ``predict_proba``), and
    thresholds at 0.5 for hard labels.  Scores are kept unclipped
    internally so AUC computations see the raw ranking.
    """

    def fit(self, x_labeled, y_labeled, x_unlabeled) -> "GraphSSLClassifier":
        y_arr = check_labels(y_labeled, name="y_labeled")
        unique = np.unique(y_arr)
        if not np.all(np.isin(unique, (0.0, 1.0))):
            raise DataValidationError(
                f"GraphSSLClassifier requires binary 0/1 labels, got {unique[:5]}"
            )
        super().fit(x_labeled, y_arr, x_unlabeled)
        return self

    def decision_scores(self) -> np.ndarray:
        """Raw unlabeled scores (unclipped; suitable for ROC/AUC)."""
        return super().predict()

    def predict_proba(self) -> np.ndarray:
        """Scores clipped to [0, 1] as probability estimates."""
        return np.clip(super().predict(), 0.0, 1.0)

    def predict(self) -> np.ndarray:
        """Hard 0/1 labels at the 0.5 threshold."""
        return (self.decision_scores() >= 0.5).astype(np.float64)

    def induce_proba(self, x_new) -> np.ndarray:
        """Out-of-sample class probabilities via the induction formula."""
        return np.clip(self.induce(x_new), 0.0, 1.0)

    def induce_labels(self, x_new) -> np.ndarray:
        """Out-of-sample hard labels at the 0.5 threshold."""
        return (self.induce(x_new) >= 0.5).astype(np.float64)


class NadarayaWatsonRegressor:
    """Inductive Nadaraya-Watson kernel regression (Eq. 6).

    Unlike the graph criteria this is inductive: ``fit`` stores the
    labeled data only and ``predict`` takes arbitrary query points.  The
    consistency proof shows the hard criterion converges to this
    estimator; tests verify their numerical agreement on shared graphs.
    """

    def __init__(self, *, kernel: RadialKernel | None = None, bandwidth="paper"):
        self.kernel = kernel or GaussianKernel()
        self.bandwidth = bandwidth
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self.bandwidth_: float | None = None

    def fit(self, x_labeled, y_labeled) -> "NadarayaWatsonRegressor":
        x_labeled = check_matrix_2d(x_labeled, "x_labeled")
        self._y = check_labels(y_labeled, x_labeled.shape[0], name="y_labeled")
        self._x = x_labeled
        self.bandwidth_ = _resolve_bandwidth(self.bandwidth, x_labeled, x_labeled.shape[0])
        return self

    def predict(self, x_query) -> np.ndarray:
        if self._x is None or self._y is None or self.bandwidth_ is None:
            raise NotFittedError("NadarayaWatsonRegressor.predict called before fit")
        return nadaraya_watson(
            self._x, self._y, x_query, kernel=self.kernel, bandwidth=self.bandwidth_
        )

    def fit_predict(self, x_labeled, y_labeled, x_query) -> np.ndarray:
        return self.fit(x_labeled, y_labeled).predict(x_query)


class NadarayaWatsonClassifier(NadarayaWatsonRegressor):
    """Nadaraya-Watson on 0/1 labels with probability and label outputs."""

    def fit(self, x_labeled, y_labeled) -> "NadarayaWatsonClassifier":
        y_arr = check_labels(y_labeled, name="y_labeled")
        unique = np.unique(y_arr)
        if not np.all(np.isin(unique, (0.0, 1.0))):
            raise DataValidationError(
                f"NadarayaWatsonClassifier requires binary 0/1 labels, got {unique[:5]}"
            )
        super().fit(x_labeled, y_arr)
        return self

    def predict_proba(self, x_query) -> np.ndarray:
        """NW scores are convex label combinations, hence already in [0, 1]."""
        return super().predict(x_query)

    def predict(self, x_query) -> np.ndarray:
        return (self.predict_proba(x_query) >= 0.5).astype(np.float64)
