"""Input validation helpers.

Each checker raises :class:`repro.exceptions.DataValidationError` (or
:class:`repro.exceptions.GraphStructureError` for weight matrices) with a
message naming the offending argument, and returns the validated array as a
C-contiguous ``float64`` ndarray so downstream numeric code can rely on a
uniform dtype.

Nothing is copied that is already in that form: a float64 ndarray comes
back as the same object, and so does a canonical float64 CSR weight matrix
(:func:`check_weight_matrix`).  Code that keeps a validated matrix
therefore aliases the caller's; whoever edits it in place edits both.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import DataValidationError, GraphStructureError

__all__ = [
    "check_finite_array",
    "check_labels",
    "check_matrix_2d",
    "check_positive_scalar",
    "check_square_matrix",
    "check_symmetric",
    "check_vector",
    "check_weight_matrix",
]


def check_finite_array(array, name: str = "array") -> np.ndarray:
    """Convert to a float64 ndarray and reject NaN/inf entries."""
    try:
        out = np.asarray(array, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"{name} is not numeric: {exc}") from exc
    if not np.all(np.isfinite(out)):
        bad = int(np.sum(~np.isfinite(out)))
        raise DataValidationError(
            f"{name} contains {bad} non-finite (NaN/inf) entries"
        )
    return out


def check_vector(array, name: str = "vector", min_length: int = 1) -> np.ndarray:
    """Validate a 1-d finite vector of length at least ``min_length``."""
    out = check_finite_array(array, name)
    if out.ndim != 1:
        raise DataValidationError(f"{name} must be 1-d, got shape {out.shape}")
    if out.shape[0] < min_length:
        raise DataValidationError(
            f"{name} must have length >= {min_length}, got {out.shape[0]}"
        )
    return out


def check_matrix_2d(array, name: str = "matrix") -> np.ndarray:
    """Validate a 2-d finite matrix."""
    out = check_finite_array(array, name)
    if out.ndim != 2:
        raise DataValidationError(f"{name} must be 2-d, got shape {out.shape}")
    return out


def check_square_matrix(array, name: str = "matrix") -> np.ndarray:
    """Validate a square 2-d finite matrix."""
    out = check_matrix_2d(array, name)
    if out.shape[0] != out.shape[1]:
        raise DataValidationError(f"{name} must be square, got shape {out.shape}")
    return out


def check_symmetric(matrix: np.ndarray, name: str = "matrix", tol: float = 1e-10) -> np.ndarray:
    """Reject matrices that are not symmetric to within ``tol``."""
    asym = float(np.max(np.abs(matrix - matrix.T))) if matrix.size else 0.0
    if asym > tol:
        raise GraphStructureError(
            f"{name} must be symmetric; max |A - A.T| = {asym:.3e} > tol={tol:.1e}"
        )
    return matrix


def _sparse_asymmetry(mat) -> float:
    """``max |W - Wᵀ|`` of a canonical CSR matrix, with one transpose.

    The CSC arrays of ``W`` are the CSR arrays of ``Wᵀ``, sorted, so when
    the two share a sparsity pattern the data arrays line up entry for
    entry; only matrices whose patterns differ pay for ``|W - Wᵀ|``.
    """
    transposed = mat.tocsc()
    if np.array_equal(mat.indptr, transposed.indptr) and np.array_equal(
        mat.indices, transposed.indices
    ):
        return float(np.max(np.abs(mat.data - transposed.data), initial=0.0))
    asym = abs(mat - mat.T)
    return float(asym.data.max()) if asym.nnz else 0.0


def check_weight_matrix(weights, name: str = "weights", *, allow_sparse: bool = True):
    """Validate a similarity/weight matrix.

    Requirements: square, symmetric, finite, non-negative entries.  Sparse
    CSR/CSC matrices are accepted (and returned as CSR) when
    ``allow_sparse`` is true.  Like dense input, a float64 CSR matrix in
    canonical form (sorted indices, no duplicates) is returned as is, not
    copied; other sparse input is converted, and duplicate or unsorted
    entries are canonicalized in a copy, so the caller's arrays are never
    modified.
    """
    if sparse.issparse(weights):
        if not allow_sparse:
            raise DataValidationError(f"{name} must be dense for this operation")
        if weights.shape[0] != weights.shape[1]:
            raise DataValidationError(
                f"{name} must be square, got shape {weights.shape}"
            )
        mat = weights.tocsr().astype(np.float64, copy=False)
        if not mat.has_canonical_format:
            if mat is weights:
                mat = mat.copy()
            mat.sum_duplicates()
        if mat.nnz and not np.all(np.isfinite(mat.data)):
            raise DataValidationError(f"{name} contains non-finite entries")
        if mat.nnz and mat.data.min() < 0:
            raise GraphStructureError(f"{name} contains negative weights")
        if _sparse_asymmetry(mat) > 1e-10:
            raise GraphStructureError(f"{name} must be symmetric")
        return mat
    mat = check_square_matrix(weights, name)
    check_symmetric(mat, name)
    if mat.size and mat.min() < 0:
        raise GraphStructureError(
            f"{name} contains negative weights (min = {mat.min():.3e})"
        )
    return mat


def check_labels(labels, n_labeled: int | None = None, name: str = "labels") -> np.ndarray:
    """Validate a 1-d response vector, optionally of exact length."""
    out = check_vector(labels, name)
    if n_labeled is not None and out.shape[0] != n_labeled:
        raise DataValidationError(
            f"{name} must have length {n_labeled}, got {out.shape[0]}"
        )
    return out


def check_positive_scalar(value, name: str = "value", *, allow_zero: bool = False) -> float:
    """Validate a finite positive (or non-negative) scalar."""
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"{name} must be a number: {exc}") from exc
    if not np.isfinite(out):
        raise DataValidationError(f"{name} must be finite, got {out}")
    if allow_zero:
        if out < 0:
            raise DataValidationError(f"{name} must be >= 0, got {out}")
    elif out <= 0:
        raise DataValidationError(f"{name} must be > 0, got {out}")
    return out
