"""Neumann-series inversion and diagnostics.

The consistency proof (Section IV) expands

    (I - D22^{-1} W22)^{-1} = I + S,   S = lim_l  sum_{k=1..l} (D22^{-1} W22)^k,

and shows every partial sum ``S_l`` has "tiny elements": its max-norm is
bounded by ``M/(n h^d) * (1 + r + ... + r^{l-1})`` with ``r = mM/(n h^d)``.
:func:`neumann_partial_sums` computes the partial sums together with their
max-norms, so the bound can be checked term by term, and
:func:`neumann_inverse` uses the series as an actual solver (valid
whenever the spectral radius of ``D22^{-1} W22`` is < 1).
:mod:`repro.validation.proof_constructs` checks the limit ``S`` itself,
inverting ``I - D22^{-1} W22`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConvergenceError, DataValidationError
from repro.utils.validation import check_square_matrix

__all__ = ["NeumannDiagnostics", "neumann_partial_sums", "neumann_inverse"]


@dataclass(frozen=True)
class NeumannDiagnostics:
    """Convergence record of a Neumann-series run.

    Attributes
    ----------
    terms:
        Number of series terms accumulated (the final ``l``).
    max_norms:
        ``max_norms[k]`` is ``||S_{k+1}||_max`` — the proof's tracked
        quantity — for each partial sum computed.
    spectral_radius:
        Spectral radius of the iterated matrix (series converges iff < 1).
    converged:
        Whether successive partial sums reached the requested tolerance.
    """

    terms: int
    max_norms: tuple[float, ...]
    spectral_radius: float
    converged: bool


def neumann_partial_sums(matrix: np.ndarray, n_terms: int) -> tuple[np.ndarray, NeumannDiagnostics]:
    """Partial sum ``S_l = sum_{k=1..l} matrix^k`` with per-term max-norms.

    Returns the final partial sum and diagnostics; does not require
    convergence (callers studying the proof may want divergent regimes).
    """
    matrix = check_square_matrix(matrix, "matrix")
    if n_terms < 1:
        raise DataValidationError(f"n_terms must be >= 1, got {n_terms}")
    power = matrix.copy()
    total = matrix.copy()
    max_norms = [float(np.max(np.abs(total)))] if total.size else [0.0]
    for _ in range(1, n_terms):
        power = power @ matrix
        total = total + power
        max_norms.append(float(np.max(np.abs(total))) if total.size else 0.0)
    radius = float(np.max(np.abs(np.linalg.eigvals(matrix)))) if matrix.size else 0.0
    diagnostics = NeumannDiagnostics(
        terms=n_terms,
        max_norms=tuple(max_norms),
        spectral_radius=radius,
        converged=radius < 1.0,
    )
    return total, diagnostics


def neumann_inverse(
    matrix: np.ndarray,
    *,
    tol: float = 1e-12,
    max_terms: int = 10_000,
) -> tuple[np.ndarray, NeumannDiagnostics]:
    """Approximate ``(I - matrix)^{-1} = I + S`` by the Neumann series.

    Raises :class:`~repro.exceptions.ConvergenceError` when the series has
    not stabilized to ``tol`` (in max-norm increments) within
    ``max_terms`` terms, which happens exactly when the spectral radius of
    ``matrix`` is >= 1.
    """
    matrix = check_square_matrix(matrix, "matrix")
    n = matrix.shape[0]
    if n == 0:
        diagnostics = NeumannDiagnostics(0, (), 0.0, True)
        return np.zeros((0, 0)), diagnostics
    power = matrix.copy()
    total = np.eye(n) + matrix
    max_norms = [float(np.max(np.abs(total - np.eye(n))))]
    terms = 1
    while terms < max_terms:
        power = power @ matrix
        increment = float(np.max(np.abs(power)))
        total = total + power
        terms += 1
        max_norms.append(float(np.max(np.abs(total - np.eye(n)))))
        if increment < tol:
            radius = float(np.max(np.abs(np.linalg.eigvals(matrix))))
            return total, NeumannDiagnostics(terms, tuple(max_norms), radius, True)
    radius = float(np.max(np.abs(np.linalg.eigvals(matrix))))
    raise ConvergenceError(
        f"Neumann series did not converge in {max_terms} terms "
        f"(spectral radius = {radius:.4f}); the series converges only for "
        f"spectral radius < 1",
        iterations=terms,
        residual=max_norms[-1],
    )
