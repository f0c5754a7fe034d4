"""Iterative linear-system solvers written from scratch.

Classical methods for ``A x = b``, built on one stationary loop and one
Krylov loop:

* :func:`jacobi` — simultaneous-displacement splitting; its iteration on
  the hard criterion's system *is* Zhu et al.'s label-propagation update
  ``f_u <- D22^{-1}(W22 f_u + W21 y)``.
* :func:`sor` — successive over-relaxation, one triangular solve per
  forward sweep; for SPD systems it converges for any ``omega`` in
  (0, 2), and an informed ``omega`` accelerates convergence on the
  near-singular grounded Laplacians of small-bandwidth graphs.
  :func:`gauss_seidel` is its ``omega = 1`` case, which converges faster
  than Jacobi on the same diagonally-dominant systems.  Sparse systems
  are swept through their CSR triangles and never densified.
* :func:`preconditioned_conjugate_gradient` — Krylov method for SPD
  systems with an SPD preconditioner.  The Jacobi (diagonal)
  preconditioner is the default and is particularly effective on the
  hard criterion's ``D22 - W22``, whose diagonal carries each vertex's
  degree and hence most of the conditioning spread.
  :func:`conjugate_gradient` is its ``M = I`` case (the Hestenes-Stiefel
  recurrence), the default iterative backend of
  :func:`~repro.linalg.solvers.solve_spd`.

Each returns an :class:`IterativeResult` carrying the solution, iteration
count, and residual history, and raises
:class:`~repro.exceptions.ConvergenceError` when tolerance is not met.
:func:`jacobi`, :func:`gauss_seidel` and :func:`conjugate_gradient`
also record a ``repro.linalg.*`` span and ``linalg.*`` metrics.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import spsolve_triangular

from repro.exceptions import ConfigurationError, ConvergenceError, DataValidationError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.validation import check_vector

__all__ = [
    "IterativeResult",
    "jacobi",
    "gauss_seidel",
    "sor",
    "conjugate_gradient",
    "preconditioned_conjugate_gradient",
    "jacobi_preconditioner",
]


@dataclass(frozen=True)
class IterativeResult:
    """Solution of an iterative solve plus convergence evidence.

    Attributes
    ----------
    x:
        Approximate solution vector.
    iterations:
        Iterations actually performed.
    residual_norms:
        2-norm of the residual ``b - A x`` after each iteration.
    converged:
        True when the final relative residual is below tolerance.
    """

    x: np.ndarray
    iterations: int
    residual_norms: tuple[float, ...]
    converged: bool

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else float("nan")


def _prepare(matrix, rhs, x0, *, diagonal_of: str | None = None):
    """The one input check of every solver here.

    ``matrix`` is a dense array, a scipy sparse matrix (used as CSR) or,
    when ``diagonal_of`` is ``None``, a callable ``v -> A v`` whose size
    is read from ``rhs``.  Returns ``(mat, matvec, rhs, x, diag)``: the
    matrix as CSR or a float64 array (``None`` for a callable), its
    product, the checked right-hand side, a copy of ``x0`` (zeros by
    default) and the diagonal.  The diagonal is read only when
    ``diagonal_of`` names a solver that divides by it, which raises on a
    zero there; otherwise ``diag`` is ``None``.
    """
    if sparse.issparse(matrix):
        mat = matrix.tocsr()
    elif callable(matrix) and diagonal_of is None:
        mat = None
    else:
        mat = np.asarray(matrix, dtype=np.float64)
    if mat is not None and (mat.ndim != 2 or mat.shape[0] != mat.shape[1]):
        raise DataValidationError(f"matrix must be square 2-d, got shape {mat.shape}")
    rhs = check_vector(rhs, "rhs", min_length=0)
    n = rhs.shape[0] if mat is None else mat.shape[0]
    if rhs.shape[0] != n:
        raise DataValidationError(f"rhs length {rhs.shape[0]} does not match matrix size {n}")
    matvec = matrix if mat is None else (lambda v: mat @ v)
    if x0 is None:
        x = np.zeros(n)
    else:
        x = check_vector(x0, "x0", min_length=0).copy()
        if x.shape[0] != n:
            raise DataValidationError(f"x0 length {x.shape[0]} does not match matrix size {n}")
    diag = None
    if diagonal_of is not None:
        diag = mat.diagonal() if sparse.issparse(mat) else np.diagonal(mat).copy()
        if n and np.any(diag == 0):
            raise DataValidationError(f"{diagonal_of} requires a zero-free diagonal")
    return mat, matvec, rhs, x, diag


def _tolerance_scale(rhs: np.ndarray) -> float:
    norm = float(np.linalg.norm(rhs))
    return norm if norm > 0 else 1.0


def _observe_iterative(solver: str, span, result: IterativeResult) -> IterativeResult:
    """Record one iterative solve into the active span and metrics."""
    if span.recording:
        span.set_attribute("size", int(result.x.shape[0]))
        span.set_attribute("iterations", int(result.iterations))
        span.set_attribute("final_residual", result.final_residual)
        span.set_attribute("converged", result.converged)
    registry = obs_metrics.get_registry()
    registry.counter(f"linalg.{solver}.solves").inc()
    registry.log_histogram(f"linalg.{solver}.iterations").observe(result.iterations)
    return result


def _stationary(name: str, matvec, rhs, x, update, *, tol: float, max_iter: int) -> IterativeResult:
    """Iterate ``x <- update(x, b - A x)`` until ``‖b - A x‖ <= tol ‖b‖``."""
    scale = _tolerance_scale(rhs)
    residuals: list[float] = []
    for iteration in range(1, max_iter + 1):
        residual = rhs - matvec(x)
        res_norm = float(np.linalg.norm(residual))
        residuals.append(res_norm)
        if res_norm <= tol * scale:
            return IterativeResult(x, iteration - 1, tuple(residuals), True)
        x = update(x, residual)
    residual = rhs - matvec(x)
    res_norm = float(np.linalg.norm(residual))
    residuals.append(res_norm)
    if res_norm <= tol * scale:
        return IterativeResult(x, max_iter, tuple(residuals), True)
    raise ConvergenceError(
        f"{name} did not converge in {max_iter} iterations "
        f"(relative residual {res_norm / scale:.3e} > tol {tol:.1e})",
        iterations=max_iter,
        residual=res_norm,
    )


def jacobi(matrix, rhs, *, x0=None, tol: float = 1e-10, max_iter: int = 10_000) -> IterativeResult:
    """Jacobi iteration ``x <- D^{-1} (b - (A - D) x)``.

    Converges when the spectral radius of ``D^{-1}(A - D)`` is below one —
    guaranteed for strictly diagonally dominant systems such as the hard
    criterion's ``D22 - W22`` on graphs where every unlabeled vertex has
    positive weight to the labeled set.
    """
    with obs_trace.span("repro.linalg.jacobi") as span:
        _, matvec, rhs, x, diag = _prepare(matrix, rhs, x0, diagonal_of="jacobi")
        result = _stationary(
            "jacobi",
            matvec,
            rhs,
            x,
            lambda x, residual: x + residual / diag,
            tol=tol,
            max_iter=max_iter,
        )
        return _observe_iterative("jacobi", span, result)


def sor(
    matrix,
    rhs,
    *,
    omega: float = 1.5,
    x0=None,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> IterativeResult:
    """Successive over-relaxation.

    Performs forward sweeps ``x_i <- (1 - omega) x_i + omega * gs_i``
    where ``gs_i`` is the Gauss-Seidel update, as one triangular solve
    ``x <- (D + omega L)^{-1} (omega b - (omega U + (omega - 1) D) x)``
    per sweep (``L``/``U`` the strict triangles of ``A``).  ``omega = 1``
    is Gauss-Seidel exactly; ``omega`` must lie in (0, 2) for
    convergence on SPD systems.  A sparse system is swept through its
    CSR triangles (``spsolve_triangular``) and never densified; a dense
    one through LAPACK's triangular solve; its matrix is checked finite
    once, before the first sweep, so the sweeps skip LAPACK's scan.
    """
    if not 0.0 < omega < 2.0:
        raise ConfigurationError(f"omega must be in (0, 2), got {omega}")
    mat, matvec, rhs, x, diag = _prepare(matrix, rhs, x0, diagonal_of="sor")
    if sparse.issparse(mat):
        d = sparse.diags(diag, format="csr", dtype=np.float64)
        lower = (d + omega * sparse.tril(mat, k=-1, format="csr")).tocsr()
        upper = (omega * sparse.triu(mat, k=1, format="csr") + (omega - 1.0) * d).tocsr()
        solve_lower = lambda b: spsolve_triangular(lower, b, lower=True)
    else:
        if not np.isfinite(mat).all():
            raise DataValidationError("sor requires a finite matrix")
        d = np.diag(diag)
        lower = d + omega * np.tril(mat, k=-1)
        upper = omega * np.triu(mat, k=1) + (omega - 1.0) * d
        solve_lower = lambda b: solve_triangular(lower, b, lower=True, check_finite=False)
    target = omega * rhs
    return _stationary(
        f"sor(omega={omega})",
        matvec,
        rhs,
        x,
        lambda x, _: solve_lower(target - upper @ x),
        tol=tol,
        max_iter=max_iter,
    )


def gauss_seidel(matrix, rhs, *, x0=None, tol: float = 1e-10, max_iter: int = 10_000) -> IterativeResult:
    """Gauss-Seidel iteration (forward sweeps): :func:`sor` at ``omega = 1``.

    Uses the latest components within each sweep; converges for symmetric
    positive-definite and for strictly diagonally dominant systems.
    """
    with obs_trace.span("repro.linalg.gauss_seidel") as span:
        result = sor(matrix, rhs, omega=1.0, x0=x0, tol=tol, max_iter=max_iter)
        return _observe_iterative("gauss_seidel", span, result)


def jacobi_preconditioner(matrix) -> Callable[[np.ndarray], np.ndarray]:
    """The diagonal (Jacobi) preconditioner ``M^{-1} v = v / diag(A)``."""
    if sparse.issparse(matrix):
        diag = matrix.diagonal().astype(np.float64)
    else:
        diag = np.diagonal(np.asarray(matrix, dtype=np.float64)).copy()
    if diag.size and np.any(diag <= 0):
        raise DataValidationError(
            "jacobi preconditioner requires a strictly positive diagonal"
        )
    return lambda v: v / diag


def preconditioned_conjugate_gradient(
    matrix,
    rhs,
    *,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
    x0=None,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> IterativeResult:
    """Conjugate gradients with an SPD preconditioner.

    ``matrix`` is a dense array, a scipy sparse matrix, or a callable
    ``v -> A v`` for operators never worth materializing (the system size
    is then read from ``rhs``).  ``preconditioner`` maps a residual ``r``
    to ``M^{-1} r``; it defaults to the Jacobi preconditioner built from
    the matrix diagonal, so a callable operator needs an explicit one.
    ``max_iter`` defaults to ``10 n`` (CG terminates in at most ``n``
    exact-arithmetic steps; the slack absorbs floating-point drift).

    The iterate, residual and search direction are updated in place
    through one scratch vector, with the bits of the out-of-place
    recurrence.  Each product and each preconditioned residual is read
    before the operator or the preconditioner is called again, so
    either may return a buffer that it overwrites on its next call.
    The caller's ``rhs`` and ``x0`` are not written.
    """
    if preconditioner is None and callable(matrix):
        raise ConfigurationError(
            "a callable operator needs an explicit preconditioner; the "
            "Jacobi default reads the diagonal of an assembled matrix"
        )
    mat, matvec, rhs, x, _ = _prepare(matrix, rhs, x0)
    if preconditioner is None:
        preconditioner = jacobi_preconditioner(mat)
    n = rhs.shape[0]
    if max_iter is None:
        max_iter = max(10 * n, 50)

    scale = _tolerance_scale(rhs)
    residual = rhs - matvec(x)
    residuals = [float(np.linalg.norm(residual))]
    if residuals[-1] <= tol * scale:
        return IterativeResult(x, 0, tuple(residuals), True)
    z = preconditioner(residual)
    direction = z.copy()
    rz = float(residual @ z)
    scratch = np.empty_like(x)
    for iteration in range(1, max_iter + 1):
        a_direction = matvec(direction)
        curvature = float(direction @ a_direction)
        if curvature <= 0:
            raise ConvergenceError(
                "CG encountered non-positive curvature; "
                "the matrix is not positive definite",
                iterations=iteration,
                residual=residuals[-1],
            )
        step = rz / curvature
        x += np.multiply(direction, step, out=scratch)
        residual -= np.multiply(a_direction, step, out=scratch)
        residuals.append(float(np.linalg.norm(residual)))
        if residuals[-1] <= tol * scale:
            return IterativeResult(x, iteration, tuple(residuals), True)
        z = preconditioner(residual)
        new_rz = float(residual @ z)
        direction *= new_rz / rz
        direction += z
        rz = new_rz
    raise ConvergenceError(
        f"CG did not converge in {max_iter} iterations "
        f"(relative residual {residuals[-1] / scale:.3e} > tol {tol:.1e})",
        iterations=max_iter,
        residual=residuals[-1],
    )


def _identity(v: np.ndarray) -> np.ndarray:
    return v


def conjugate_gradient(matrix, rhs, *, x0=None, tol: float = 1e-10, max_iter: int | None = None) -> IterativeResult:
    """Conjugate gradients for symmetric positive-definite systems.

    :func:`preconditioned_conjugate_gradient` with ``M = I``, which is
    the classic Hestenes-Stiefel recurrence with residual-norm tracking.
    """
    with obs_trace.span("repro.linalg.cg") as span:
        result = preconditioned_conjugate_gradient(
            matrix, rhs, preconditioner=_identity, x0=x0, tol=tol, max_iter=max_iter
        )
        return _observe_iterative("cg", span, result)
