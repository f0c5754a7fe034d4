"""The soft criterion (Laplacian-regularized least squares).

Solves Eq. (2)/(3) of the paper:

    min_f  sum_{i<=n} (Y_i - f_i)^2 + (lambda/2) sum_ij w_ij (f_i - f_j)^2
         = (f - Y)^T V (f - Y) + lambda f^T L f,

with ``V = diag(1,...,1,0,...,0)`` (ones on the ``n`` labeled positions)
and ``L = D - W`` the unnormalized Laplacian.  Two backends:

* ``method="full"`` — solve the ``(n+m)``-dimensional stationarity system
  ``(V + lambda L) f = (Y_n; 0)`` directly; this is the paper's
  ``O((n+m)^3)`` form and requires ``lambda > 0``.
* ``method="schur"`` — the paper's Eq. (4), obtained from the 2x2 block
  inverse:

      f_u = (D22 - W22 - lambda W21 (I_n + lambda D11 - lambda W11)^{-1} W12)^{-1}
            W21 (I_n + lambda D11 - lambda W11)^{-1} Y_n,

  which at ``lambda = 0`` reduces *exactly* to the hard criterion's
  Eq. (5) — Proposition II.1.  The labeled block is then recovered from
  the first block row.

Sparse weight matrices stay sparse end to end: the stationarity system
``V + lambda L`` is assembled in CSR and handed to the sparse
factorization in :func:`repro.linalg.solvers.solve_spd` — the weights
are never densified.  Because the Schur route's intermediate
``(I + lam D11 - lam W11)^{-1} W12`` block is inherently dense, sparse
inputs requesting ``method="schur"`` are answered through the (equal, by
the 2x2 block-inverse identity) sparse full system instead; the
``FitResult.method`` records that rerouting as ``"schur->sparse_full"``.

Proposition II.2's ``lambda -> inf`` limit (the constant labeled-mean
prediction that makes the soft criterion inconsistent) is exposed as
:func:`soft_lambda_infinity_limit`.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

import math

from repro import obs
from repro.core.hard import _coerce_weights, solve_hard_criterion
from repro.core.result import FitResult
from repro.exceptions import ConfigurationError, DataValidationError
from repro.graph.components import require_labeled_reachability
from repro.linalg.solvers import SolveInfo, solve_spd, solve_square
from repro.obs import probes
from repro.utils.validation import check_labels, check_positive_scalar, check_weight_matrix

__all__ = ["solve_soft_criterion", "soft_lambda_infinity_limit", "soft_criterion_objective"]


def solve_soft_criterion(
    weights,
    y_labeled,
    lam: float,
    *,
    method: str = "schur",
    solver: str = "direct",
    check_reachability: bool = True,
    workspace=None,
) -> FitResult:
    """Solve the soft criterion for tuning parameter ``lam``.

    Parameters
    ----------
    weights:
        ``(n+m, n+m)`` symmetric non-negative weight matrix, labeled
        vertices first (dense, sparse, or ``SimilarityGraph``).
    y_labeled:
        Observed responses ``Y_1..Y_n``.
    lam:
        Tuning parameter ``lambda >= 0``.  ``lam = 0`` delegates to the
        hard criterion (Proposition II.1).
    method:
        ``"schur"`` (Eq. 4, an ``m x m`` solve after an ``n x n`` solve)
        or ``"full"`` (Eq. 3's ``(n+m) x (n+m)`` stationarity system;
        requires ``lam > 0``).
    solver:
        Backend for the SPD solves (``"direct"``, ``"cg"``, ...).
    check_reachability:
        Validate labeled reachability first (needed for well-posedness at
        small ``lam``; at ``lam > 0`` a disconnected unlabeled component
        also makes ``V + lam L`` singular).
    workspace:
        Optional :class:`~repro.linalg.workspace.SolveWorkspace` built on
        this graph.  When given, the solve is routed through the
        workspace's cached factorizations / eigenbasis / continuation
        state (``method`` and ``solver`` are ignored; the workspace's
        backend decides), amortizing repeated solves across a sweep.
    """
    if workspace is not None:
        y_labeled = check_labels(y_labeled, name="y_labeled")
        if check_reachability:
            require_labeled_reachability(workspace.weights, y_labeled.shape[0])
        return workspace.solve_soft(y_labeled, lam)
    weights = check_weight_matrix(_coerce_weights(weights))
    y_labeled = check_labels(y_labeled, name="y_labeled")
    lam = check_positive_scalar(lam, "lam", allow_zero=True)
    total = weights.shape[0]
    n = y_labeled.shape[0]
    if n > total:
        raise DataValidationError(
            f"y_labeled has length {n} but the graph has only {total} vertices"
        )
    m = total - n

    if lam == 0.0:
        hard = solve_hard_criterion(
            weights, y_labeled, method=solver, check_reachability=check_reachability
        )
        return FitResult(
            scores=hard.scores,
            n_labeled=n,
            lam=0.0,
            method=f"{method}->hard",
            criterion="soft",
            details=dict(hard.details),
            solve_info=hard.solve_info,
        )

    if check_reachability:
        require_labeled_reachability(weights, n)

    if method not in ("full", "schur"):
        raise ConfigurationError(f"method must be 'full' or 'schur', got {method!r}")

    if sparse.issparse(weights):
        return _solve_full_sparse(weights, y_labeled, lam, n, m, solver, method)
    if method == "full":
        return _solve_full(weights, y_labeled, lam, n, m, solver)
    return _solve_schur(weights, y_labeled, lam, n, m)


def _solve_full(weights: np.ndarray, y: np.ndarray, lam: float, n: int, m: int, solver: str) -> FitResult:
    """Solve ``(V + lam L) f = (y; 0)`` over all n+m vertices."""
    total = n + m
    with obs.span("repro.solve_soft", n=n, m=m, lam=lam, method="full") as span:
        degrees = weights.sum(axis=1)
        laplacian = np.diag(degrees) - weights
        system = lam * laplacian
        system[np.arange(n), np.arange(n)] += 1.0
        rhs = np.zeros(total)
        rhs[:n] = y
        if span.recording:
            probes.record_graph_stats(span, weights, n)
            probes.record_spd_system(span, system)
        scores, info = solve_spd(system, rhs, method=solver, return_info=True)
        probes.record_solve_info(span, info)
        registry = obs.get_registry()
        registry.counter("solves.soft").inc()
        registry.log_histogram("solves.soft.system_size").observe(total)
        return FitResult(
            scores=scores,
            n_labeled=n,
            lam=lam,
            method="full",
            criterion="soft",
            details={"system_size": total},
            solve_info=info,
        )


def _solve_full_sparse(
    weights, y: np.ndarray, lam: float, n: int, m: int, solver: str, requested: str
) -> FitResult:
    """Solve ``(V + lam L) f = (y; 0)`` without densifying the weights.

    The system is assembled as ``lam * (D - W) + diag(V)`` in CSR and
    solved by the sparse factorization (or an iterative backend).  Used
    for both ``method="full"`` and — because its intermediates densify —
    ``method="schur"`` on sparse inputs; the two are algebraically equal.
    """
    total = n + m
    with obs.span(
        "repro.solve_soft", n=n, m=m, lam=lam, method=f"{requested}:sparse"
    ) as span:
        degrees = np.asarray(weights.sum(axis=1)).ravel()
        laplacian = sparse.diags(degrees, format="csr") - weights.tocsr()
        labeled_indicator = np.zeros(total)
        labeled_indicator[:n] = 1.0
        system = (
            lam * laplacian + sparse.diags(labeled_indicator, format="csr")
        ).tocsr()
        rhs = np.zeros(total)
        rhs[:n] = y
        if span.recording:
            probes.record_graph_stats(span, weights, n)
            probes.record_spd_system(span, system)
        scores, info = solve_spd(system, rhs, method=solver, return_info=True)
        probes.record_solve_info(span, info)
        registry = obs.get_registry()
        registry.counter("solves.soft").inc()
        registry.log_histogram("solves.soft.system_size").observe(total)
        method = "full" if requested == "full" else "schur->sparse_full"
        return FitResult(
            scores=scores,
            n_labeled=n,
            lam=lam,
            method=method,
            criterion="soft",
            details={"system_size": total, "nnz": int(system.nnz)},
            solve_info=info,
        )


def _solve_schur(weights: np.ndarray, y: np.ndarray, lam: float, n: int, m: int) -> FitResult:
    """The paper's Eq. (4): Schur-complement form on the unlabeled block."""
    with obs.span("repro.solve_soft", n=n, m=m, lam=lam, method="schur") as span:
        probes.record_schur_blocks(span, n, m)
        w11 = weights[:n, :n]
        w12 = weights[:n, n:]
        w21 = weights[n:, :n]
        w22 = weights[n:, n:]
        degrees = weights.sum(axis=1)
        d11 = degrees[:n]
        d22 = degrees[n:]

        # inner = I_n + lam*D11 - lam*W11 (n x n, SPD for lam >= 0).
        inner = -lam * w11
        inner[np.arange(n), np.arange(n)] += 1.0 + lam * d11
        inner_inv_y = solve_square(inner, y)  # (I + lam D11 - lam W11)^{-1} Y_n

        if m == 0:
            # No unlabeled block: Eq. (3) reduces to the labeled stationarity
            # system (I + lam L11) f_l = y with L11 = D11 - W11.
            return FitResult(
                scores=inner_inv_y, n_labeled=n, lam=lam, method="schur",
                criterion="soft", details={"system_size": n},
                solve_info=SolveInfo(method="lu", size=n),
            )

        inner_inv_w12 = np.linalg.solve(inner, w12)  # n x m
        grounded = np.diag(d22) - w22  # D22 - W22, m x m
        system = grounded - lam * (w21 @ inner_inv_w12)
        schur_rhs = w21 @ inner_inv_y
        if span.recording:
            probes.record_graph_stats(span, weights, n)
            probes.record_spd_system(span, system)
        f_unlabeled = solve_square(system, schur_rhs)
        residual = (
            float(np.linalg.norm(schur_rhs - system @ f_unlabeled))
            if span.recording
            else math.nan
        )
        info = SolveInfo(method="lu", size=m, final_residual=residual)
        probes.record_solve_info(span, info)
        registry = obs.get_registry()
        registry.counter("solves.soft").inc()
        registry.log_histogram("solves.soft.system_size").observe(m)

        # Recover the labeled block from the first stationarity row:
        # (I + lam D11 - lam W11) f_l = y + lam W12 f_u.
        f_labeled = solve_square(inner, y + lam * (w12 @ f_unlabeled))
        scores = np.concatenate([f_labeled, f_unlabeled])
        return FitResult(
            scores=scores,
            n_labeled=n,
            lam=lam,
            method="schur",
            criterion="soft",
            details={"system_size": m},
            solve_info=info,
        )


def soft_lambda_infinity_limit(y_labeled, n_total: int) -> np.ndarray:
    """Proposition II.2's ``lambda = inf`` solution on a connected graph.

    Every vertex is forced to the common value ``mean(Y_n)`` — a constant
    prediction that cannot converge to the random variable
    ``q(X_{n+a})``, which is the paper's inconsistency counterexample.
    """
    y_labeled = check_labels(y_labeled, name="y_labeled")
    if n_total < y_labeled.shape[0]:
        raise DataValidationError(
            f"n_total={n_total} is smaller than the number of labels "
            f"{y_labeled.shape[0]}"
        )
    return np.full(n_total, float(np.mean(y_labeled)))


def soft_criterion_objective(weights, y_labeled, scores, lam: float) -> float:
    """Eq. (2)'s objective value for a candidate score vector.

    Used by tests to confirm the closed-form solutions are stationary
    minima: any perturbation must not decrease this value.
    """
    weights = check_weight_matrix(_coerce_weights(weights))
    scores = check_labels(scores, weights.shape[0], name="scores")
    y_labeled = check_labels(y_labeled, name="y_labeled")
    lam = check_positive_scalar(lam, "lam", allow_zero=True)
    n = y_labeled.shape[0]
    loss = float(np.sum((y_labeled - scores[:n]) ** 2))
    if sparse.issparse(weights):
        coo = weights.tocoo()
        diffs = scores[coo.row] - scores[coo.col]
        penalty = float(np.sum(coo.data * diffs * diffs))
    else:
        diffs = scores[:, None] - scores[None, :]
        penalty = float(np.sum(weights * diffs * diffs))
    return loss + 0.5 * lam * penalty
