"""Uncertainty quantification for the hard criterion.

Zhu et al. (2003) derive the hard criterion as the posterior mean of a
*Gaussian random field* over the graph: scores have the prior
``p(f) ∝ exp(-f^T L f / (2 sigma^2))``; conditioning on the labeled
scores gives a Gaussian posterior on the unlabeled block with

    mean        f_u   = (D22 - W22)^{-1} W21 y        (Eq. 5)
    covariance  Sigma = sigma^2 (D22 - W22)^{-1}.

The posterior variance ``diag(Sigma)`` is therefore a principled
confidence score for each transductive prediction: small variance means
the vertex is strongly tied (in the effective-resistance sense) to the
labeled set.  This powers the variance-based query strategy in
:mod:`repro.active`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.hard import _coerce_weights
from repro.exceptions import DataValidationError
from repro.graph.components import require_labeled_reachability
from repro.graph.laplacian import grounded_system
from repro.linalg.solvers import factorize_spd
from repro.utils.validation import check_labels, check_positive_scalar, check_weight_matrix

__all__ = ["GaussianFieldPosterior", "gaussian_field_posterior"]


@dataclass(frozen=True)
class GaussianFieldPosterior:
    """Posterior of the Gaussian-random-field view of the hard criterion.

    Attributes
    ----------
    mean:
        Posterior mean on the unlabeled block — identical to Eq. (5)'s
        hard-criterion scores.
    covariance:
        Posterior covariance ``sigma^2 (D22 - W22)^{-1}`` (m x m).
    n_labeled:
        Number of labeled (conditioned-on) vertices.
    field_scale:
        The field scale ``sigma``.
    """

    mean: np.ndarray
    covariance: np.ndarray
    n_labeled: int
    field_scale: float

    @property
    def variance(self) -> np.ndarray:
        """Per-vertex posterior variances (the confidence scores)."""
        return np.diagonal(self.covariance).copy()

    def standard_deviation(self) -> np.ndarray:
        return np.sqrt(self.variance)

    def credible_interval(self, z: float = 1.96) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric ``mean ± z * sd`` interval per unlabeled vertex."""
        if z <= 0:
            raise DataValidationError(f"z must be > 0, got {z}")
        sd = self.standard_deviation()
        return self.mean - z * sd, self.mean + z * sd

    def most_uncertain(self, count: int = 1) -> np.ndarray:
        """Indices (into the unlabeled block) of the largest variances."""
        if not 1 <= count <= self.mean.shape[0]:
            raise DataValidationError(
                f"count must be in [1, {self.mean.shape[0]}], got {count}"
            )
        order = np.argsort(-self.variance, kind="stable")
        return order[:count]


def gaussian_field_posterior(
    weights,
    y_labeled,
    *,
    field_scale: float = 1.0,
    check_reachability: bool = True,
) -> GaussianFieldPosterior:
    """Compute the Gaussian-field posterior on the unlabeled block.

    Parameters
    ----------
    weights:
        Full ``(n+m, n+m)`` weight matrix, labeled vertices first.
    y_labeled:
        Observed scores on the labeled vertices.
    field_scale:
        The field's sigma; scales the covariance only (the mean — and
        hence the hard criterion — is invariant to it).
    check_reachability:
        Verify the grounded Laplacian is non-singular first.
    """
    weights = check_weight_matrix(_coerce_weights(weights))
    y_labeled = check_labels(y_labeled, name="y_labeled")
    field_scale = check_positive_scalar(field_scale, "field_scale")
    n = y_labeled.shape[0]
    total = weights.shape[0]
    if n >= total:
        raise DataValidationError(
            f"need at least one unlabeled vertex; graph has {total} vertices "
            f"and {n} labels"
        )
    if check_reachability:
        require_labeled_reachability(weights, n)
    m = total - n
    grounded, w21 = grounded_system(weights, n)
    if sparse.issparse(weights):
        # Keep the graph sparse: factor the grounded Laplacian once and
        # back-substitute the identity columns for the inverse.  The
        # posterior covariance itself is inherently dense (it is the
        # requested m x m output), but the (n+m)^2 weights never are.
        factor = factorize_spd(grounded)
        mean = factor.solve(np.asarray(w21 @ y_labeled).ravel())
        inverse = factor.solve(np.eye(m))
    else:
        inverse = np.linalg.inv(grounded)
        mean = inverse @ (w21 @ y_labeled)
    covariance = field_scale**2 * inverse
    return GaussianFieldPosterior(
        mean=mean,
        covariance=covariance,
        n_labeled=n,
        field_scale=field_scale,
    )
