"""Iterative label propagation and the local-global-consistency baseline.

:func:`propagate_labels` is Zhu et al. (2003)'s fixed-point form of the
hard criterion:

    f_u <- D22^{-1} (W22 f_u + W21 Y_n),   f_l clamped to Y_n,

whose fixed point solves ``(D22 - W22) f_u = W21 Y_n`` — i.e. exactly
Eq. (5) — whenever the spectral radius of ``D22^{-1} W22`` is below one
(guaranteed by labeled reachability; this is the quantity the proof's
"tiny elements" argument bounds).

:func:`local_global_consistency` is Zhou et al. (2004)'s variant,
``f = (1 - alpha) (I - alpha S)^{-1} y0`` with the symmetric-normalized
similarity ``S = D^{-1/2} W D^{-1/2}``, included as the extra baseline
the paper cites as reference [12].
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro import obs
from repro.core.hard import _labeled_first_inputs
from repro.core.result import FitResult, PropagationResult
from repro.exceptions import ConfigurationError, ConvergenceError, DataValidationError
from repro.graph.components import require_labeled_reachability
from repro.graph.laplacian import _row_sums
from repro.linalg.solvers import solve_square

__all__ = ["propagate_labels", "propagate_soft", "local_global_consistency"]


def propagate_labels(
    weights,
    y_labeled,
    *,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    check_reachability: bool = True,
) -> PropagationResult:
    """Run Zhu et al.'s label-propagation iteration to its fixed point.

    Parameters
    ----------
    weights:
        Full ``(n+m, n+m)`` weight matrix, labeled vertices first.
    y_labeled:
        Observed responses (length ``n``).
    tol:
        Stop when the max-norm update falls below ``tol``.
    max_iter:
        Iteration cap; exceeding it raises
        :class:`~repro.exceptions.ConvergenceError`.
    check_reachability:
        Verify labeled reachability first (the iteration diverges or
        stalls on orphan components).

    Returns
    -------
    PropagationResult
        Fixed-point scores plus the per-iteration update-norm trace.
    """
    weights, y_labeled, n, m = _labeled_first_inputs(weights, y_labeled)
    if check_reachability:
        require_labeled_reachability(weights, n)

    if m == 0:
        fit = FitResult(
            scores=y_labeled.copy(), n_labeled=n, lam=0.0,
            method="propagation", criterion="hard", details={"m": 0},
        )
        return PropagationResult(fit=fit, iterations=0, delta_norms=(), converged=True)

    w21 = weights[n:, :n]
    w22 = weights[n:, n:]
    degrees = _row_sums(weights)[n:]
    if np.any(degrees <= 0):
        raise DataValidationError(
            "label propagation requires every unlabeled vertex to have "
            "positive degree"
        )

    with obs.span("repro.propagate_labels", n=n, m=m) as span:
        source = np.asarray(w21 @ y_labeled).ravel() / degrees
        f_unlabeled = source.copy()  # start from the one-step NW-like guess
        deltas: list[float] = []
        for iteration in range(1, max_iter + 1):
            updated = np.asarray(w22 @ f_unlabeled).ravel() / degrees + source
            delta = float(np.max(np.abs(updated - f_unlabeled)))
            deltas.append(delta)
            f_unlabeled = updated
            if delta <= tol:
                if span.recording:
                    span.set_attribute("iterations", iteration)
                    span.set_attribute("final_delta", delta)
                registry = obs.get_registry()
                registry.counter("propagation.hard.runs").inc()
                registry.log_histogram("propagation.hard.iterations").observe(iteration)
                fit = FitResult(
                    scores=np.concatenate([y_labeled, f_unlabeled]),
                    n_labeled=n, lam=0.0, method="propagation",
                    criterion="hard", details={"iterations": iteration},
                )
                return PropagationResult(
                    fit=fit, iterations=iteration, delta_norms=tuple(deltas), converged=True
                )
        raise ConvergenceError(
            f"label propagation did not converge in {max_iter} iterations "
            f"(last update {deltas[-1]:.3e} > tol {tol:.1e})",
            iterations=max_iter,
            residual=deltas[-1],
        )


def propagate_soft(
    weights,
    y_labeled,
    lam: float,
    *,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    check_reachability: bool = True,
) -> PropagationResult:
    """Jacobi fixed-point iteration for the *soft* criterion.

    Delalleau et al. (2005) solve Eq. (3)'s stationarity system
    ``(V + lam L) f = (y; 0)`` by the Jacobi sweep

        f_i <- ( y_i [i <= n] + lam sum_j w_ij f_j )
               / ( [i <= n] + lam d_i ),

    which needs only matrix-vector products — ``O((n+m)^2)`` per sweep
    instead of the ``O((n+m)^3)`` direct solve.  The fixed point is the
    soft solution; the test suite verifies agreement with the
    closed-form Eq. (4).

    Parameters
    ----------
    weights, y_labeled:
        As in :func:`propagate_labels`.
    lam:
        Tuning parameter; must be > 0 (use :func:`propagate_labels` for
        the hard criterion's fixed point).
    """
    weights, y_labeled, n, m = _labeled_first_inputs(weights, y_labeled)
    if lam <= 0:
        raise DataValidationError(
            f"propagate_soft requires lam > 0 (got {lam}); "
            f"use propagate_labels for the hard criterion"
        )
    if check_reachability:
        require_labeled_reachability(weights, n)

    total = n + m
    degrees = _row_sums(weights)
    indicator = np.zeros(total)
    indicator[:n] = 1.0
    denominator = indicator + lam * degrees
    if np.any(denominator <= 0):
        raise DataValidationError(
            "soft propagation requires every unlabeled vertex to have "
            "positive degree"
        )
    rhs = np.zeros(total)
    rhs[:n] = y_labeled

    with obs.span("repro.propagate_soft", n=n, m=total - n, lam=lam) as span:
        scores = rhs / denominator  # one-sweep warm start
        deltas: list[float] = []
        for iteration in range(1, max_iter + 1):
            updated = (rhs + lam * np.asarray(weights @ scores).ravel()) / denominator
            delta = float(np.max(np.abs(updated - scores)))
            deltas.append(delta)
            scores = updated
            if delta <= tol:
                if span.recording:
                    span.set_attribute("iterations", iteration)
                    span.set_attribute("final_delta", delta)
                registry = obs.get_registry()
                registry.counter("propagation.soft.runs").inc()
                registry.log_histogram("propagation.soft.iterations").observe(iteration)
                fit = FitResult(
                    scores=scores, n_labeled=n, lam=lam,
                    method="propagation", criterion="soft",
                    details={"iterations": iteration},
                )
                return PropagationResult(
                    fit=fit, iterations=iteration, delta_norms=tuple(deltas),
                    converged=True,
                )
        raise ConvergenceError(
            f"soft propagation did not converge in {max_iter} iterations "
            f"(last update {deltas[-1]:.3e} > tol {tol:.1e})",
            iterations=max_iter,
            residual=deltas[-1],
        )


def local_global_consistency(
    weights,
    y_labeled,
    *,
    alpha: float = 0.99,
) -> FitResult:
    """Zhou et al. (2004) learning with local and global consistency.

    Solves ``f = (1 - alpha) (I - alpha S)^{-1} y0`` where
    ``S = D^{-1/2} W D^{-1/2}`` and ``y0`` extends the labels by zeros on
    unlabeled vertices.  ``alpha`` in ``(0, 1)`` trades initial labels
    against graph smoothness.

    Returned scores are *not* clamped on labeled vertices — like the soft
    criterion, this method smooths the labeled responses too.
    """
    weights, y_labeled, n, m = _labeled_first_inputs(weights, y_labeled)
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    total = n + m

    degrees = _row_sums(weights)
    if np.any(degrees <= 0):
        raise DataValidationError(
            "local-global consistency requires strictly positive degrees"
        )
    inv_sqrt = 1.0 / np.sqrt(degrees)
    y0 = np.zeros(total)
    y0[:n] = y_labeled
    if sparse.issparse(weights):
        # S = D^{-1/2} W D^{-1/2} built by diagonal scaling keeps the
        # graph's sparsity pattern; I - alpha S is solved sparsely.
        scale = sparse.diags(inv_sqrt, format="csr")
        sym = scale @ weights.tocsr() @ scale
        system = (sparse.identity(total, format="csr") - alpha * sym).tocsr()
    else:
        sym = (inv_sqrt[:, None] * weights) * inv_sqrt[None, :]
        system = np.eye(total) - alpha * sym
    scores = (1.0 - alpha) * solve_square(system, y0)
    return FitResult(
        scores=scores,
        n_labeled=n,
        lam=alpha,
        method="lgc",
        criterion="lgc",
        details={"alpha": alpha},
    )
