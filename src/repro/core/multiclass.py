"""Multiclass graph-based SSL via one-vs-rest score columns.

The paper binarizes the 6-class COIL data, but the criteria extend to K
classes in the standard way: encode labels as a one-hot matrix
``Y in {0,1}^{n x K}``, solve the (hard or soft) criterion once per
column — a single factorization serves all K right-hand sides — and
predict the argmax column.  For the hard criterion each score column is
the probability of the random walk absorbing in that class, so rows sum
to one and the scores form a proper class-posterior estimate (Zhu et
al. 2003's multiclass harmonic solution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.hard import _coerce_weights
from repro.exceptions import DataValidationError, NotFittedError
from repro.graph.components import require_labeled_reachability
from repro.graph.laplacian import grounded_system
from repro.graph.similarity import build_similarity_graph
from repro.kernels.base import RadialKernel
from repro.kernels.library import GaussianKernel
from repro.linalg.solvers import factorize_spd
from repro.utils.validation import check_matrix_2d, check_weight_matrix

__all__ = ["MulticlassFit", "solve_multiclass_hard", "MulticlassLabelPropagation"]


def _encode_labels(y_labeled) -> tuple[np.ndarray, np.ndarray]:
    """One-hot encode integer-like class labels; returns (onehot, classes)."""
    y = np.asarray(y_labeled)
    if y.ndim != 1 or y.shape[0] == 0:
        raise DataValidationError("y_labeled must be a non-empty 1-d array")
    classes = np.unique(y)
    if classes.shape[0] < 2:
        raise DataValidationError(
            f"multiclass propagation needs >= 2 classes, got {classes.shape[0]}"
        )
    onehot = (y[:, None] == classes[None, :]).astype(np.float64)
    return onehot, classes


def class_mass_normalize(scores: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """Zhu et al.'s class mass normalization (CMN).

    Rescales column ``k`` so that the total predicted mass of class ``k``
    matches its labeled prior: ``scores[:, k] * priors[k] / mass_k`` with
    ``mass_k = mean(scores[:, k])``.  On weak graphs the raw harmonic
    columns track small label-count imbalances; CMN removes that bias
    while preserving each column's ranking.
    """
    scores = np.asarray(scores, dtype=np.float64)
    priors = np.asarray(priors, dtype=np.float64)
    if scores.ndim != 2 or priors.shape != (scores.shape[1],):
        raise DataValidationError(
            f"scores must be (m, K) and priors length K; got {scores.shape} "
            f"and {priors.shape}"
        )
    if np.any(priors <= 0):
        raise DataValidationError("priors must be strictly positive")
    masses = scores.mean(axis=0)
    if np.any(masses <= 0):
        raise DataValidationError(
            "every class column needs positive total score mass for CMN"
        )
    return scores * (priors / masses)[None, :]


@dataclass(frozen=True)
class MulticlassFit:
    """Multiclass hard-criterion solution.

    Attributes
    ----------
    scores:
        ``(m, K)`` class scores on the unlabeled block; rows sum to 1.
    classes:
        The class values, in score-column order.
    priors:
        Labeled class proportions (used by class mass normalization).
    """

    scores: np.ndarray
    classes: np.ndarray
    priors: np.ndarray

    def predict(self, *, class_mass_normalization: bool = True) -> np.ndarray:
        """Argmax class per unlabeled vertex.

        ``class_mass_normalization`` (default on, as Zhu et al.
        recommend) rebalances columns to the labeled priors before the
        argmax; set it False for the raw harmonic decision.
        """
        scores = self.scores
        if class_mass_normalization:
            scores = class_mass_normalize(scores, self.priors)
        return self.classes[np.argmax(scores, axis=1)]

    def predict_proba(self, *, class_mass_normalization: bool = True) -> np.ndarray:
        """Row-normalized class probabilities."""
        scores = self.scores
        if class_mass_normalization:
            scores = class_mass_normalize(scores, self.priors)
        clipped = np.clip(scores, 0.0, None)
        row_sums = clipped.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0] = 1.0
        return clipped / row_sums


def solve_multiclass_hard(weights, y_labeled, *, check_reachability: bool = True) -> MulticlassFit:
    """Hard criterion with K one-vs-rest columns, one factorization.

    Parameters
    ----------
    weights:
        Full ``(n+m, n+m)`` weight matrix, labeled vertices first.
    y_labeled:
        Class labels (any hashable numeric values) of the first n
        vertices.
    """
    weights = check_weight_matrix(_coerce_weights(weights))
    onehot, classes = _encode_labels(y_labeled)
    n = onehot.shape[0]
    total = weights.shape[0]
    if n >= total:
        raise DataValidationError(
            f"need at least one unlabeled vertex; graph has {total} vertices "
            f"and {n} labels"
        )
    if check_reachability:
        require_labeled_reachability(weights, n)
    grounded, w21 = grounded_system(weights, n)
    rhs = np.asarray(w21 @ onehot)  # (m, K): one rhs per class
    if sparse.issparse(weights):
        # Sparse graphs stay sparse: the grounded Laplacian is CSR and
        # factored once; the K one-vs-rest columns share the single
        # factorization through a (m, K) block back-substitution.
        scores = factorize_spd(grounded).solve(rhs)
    else:
        scores = np.linalg.solve(grounded, rhs)
    priors = onehot.mean(axis=0)
    return MulticlassFit(scores=scores, classes=classes, priors=priors)


class MulticlassLabelPropagation:
    """Estimator-style multiclass transduction with the hard criterion.

    Mirrors :class:`~repro.core.estimators.GraphSSLClassifier` but for K
    classes: ``fit(x_labeled, y_labeled, x_unlabeled)`` builds the graph
    and solves all one-vs-rest columns; ``predict`` returns argmax
    classes, ``predict_proba`` the row-normalized scores.
    """

    def __init__(
        self,
        *,
        kernel: RadialKernel | None = None,
        bandwidth="median",
        graph: str = "full",
        graph_params: dict | None = None,
    ):
        self.kernel = kernel or GaussianKernel()
        self.bandwidth = bandwidth
        self.graph = graph
        self.graph_params = dict(graph_params or {})
        self.fit_: MulticlassFit | None = None
        self.bandwidth_: float | None = None

    def fit(self, x_labeled, y_labeled, x_unlabeled) -> "MulticlassLabelPropagation":
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
        self.fit_ = solve_multiclass_hard(graph.weights, y_labeled)
        return self

    def _require_fit(self) -> MulticlassFit:
        if self.fit_ is None:
            raise NotFittedError(
                "MulticlassLabelPropagation.predict called before fit"
            )
        return self.fit_

    def predict(self, *, class_mass_normalization: bool = True) -> np.ndarray:
        return self._require_fit().predict(
            class_mass_normalization=class_mass_normalization
        )

    def predict_proba(self, *, class_mass_normalization: bool = True) -> np.ndarray:
        return self._require_fit().predict_proba(
            class_mass_normalization=class_mass_normalization
        )

    @property
    def classes_(self) -> np.ndarray:
        return self._require_fit().classes
