"""Graph Laplacians, degrees, and the two labeled-first linear systems.

The paper uses the *unnormalized* Laplacian ``L = D - W`` (Section II).
The symmetric-normalized and random-walk variants are provided for the
local-global-consistency baseline (Zhou et al. 2004) and for spectral
diagnostics.  All functions accept dense ndarrays or scipy sparse
matrices and preserve sparsity.

The paper's two criteria solve two linear systems on a graph whose
first ``n`` vertices are labeled, and both are assembled here:

* :func:`soft_system` — Eq. (3)'s stationarity matrix ``V + λL``, with
  ``V`` the indicator of the labeled vertices;
* :func:`grounded_system` — Eq. (5)'s grounded Laplacian ``D22 - W22``
  and the coupling block ``W21``.

They take weights that are already validated and keep the input's
format: a CSR input gives CSR systems (the indicator is added as a
diagonal matrix, never assigned into CSR), a dense input dense ones.
The per-point solves in :mod:`repro.core` assemble through them.  The
operators of :class:`~repro.linalg.workspace.SolveWorkspace`, which the
exact serving path borders, keep their bits without calling them: the
grounded system comes from the same helper as :func:`grounded_system`,
and each ``V + λL`` is written into the Laplacian's own pattern
(:class:`~repro.linalg.coarsen.SystemPattern`) with the bits of
:func:`soft_system`.  So the cached paths reproduce the reference solves
bit for bit.
"""

from __future__ import annotations

from typing import Literal

import numpy as np
from scipy import sparse

from repro.exceptions import GraphStructureError
from repro.utils.validation import check_weight_matrix

__all__ = [
    "degree_vector",
    "laplacian",
    "normalized_laplacian",
    "random_walk_laplacian",
    "grounded_system",
    "soft_system",
]


def _row_sums(weights) -> np.ndarray:
    """Row sums of already-validated weights, self-weights included."""
    if sparse.issparse(weights):
        return np.asarray(weights.sum(axis=1)).ravel()
    return weights.sum(axis=1)


def _unchecked_laplacian(weights, degrees=None):
    """``diag(degrees) - weights`` on already-validated weights.

    ``degrees`` default to the row sums, which gives ``L = D - W``; the
    unlabeled block's weights with the full degrees give ``D22 - W22``.
    A sparse result stores every diagonal entry.  The sparse difference
    drops the entries that come out exactly zero, which on the diagonal
    happens to a vertex whose only edge is its self-loop (an aggregate
    with no edge out of it, say); such a row gets an explicit zero, so
    the systems written into a Laplacian's own pattern
    (:class:`~repro.linalg.coarsen.SystemPattern`) find every row's
    diagonal in it.
    """
    if degrees is None:
        degrees = _row_sums(weights)
    if sparse.issparse(weights):
        return _with_full_diagonal(sparse.diags(degrees, format="csr") - weights)
    return np.diag(degrees) - weights


def _with_full_diagonal(matrix):
    """Canonical CSR ``matrix`` with an explicit zero on each diagonal
    entry it does not store; ``matrix`` itself when it stores them all."""
    n = matrix.shape[0]
    rows = np.repeat(np.arange(n, dtype=matrix.indices.dtype), np.diff(matrix.indptr))
    missing = np.ones(n, dtype=bool)
    missing[rows[matrix.indices == rows]] = False
    if not missing.any():
        return matrix
    # a row's diagonal goes after its entries left of the diagonal
    left = np.bincount(rows[matrix.indices < rows], minlength=n)
    rows_missing = np.flatnonzero(missing)
    at = matrix.indptr[rows_missing] + left[rows_missing]
    return sparse.csr_matrix(
        (
            np.insert(matrix.data, at, 0.0),
            np.insert(matrix.indices, at, rows_missing.astype(matrix.indices.dtype)),
            matrix.indptr + np.concatenate(([0], np.cumsum(missing))).astype(matrix.indptr.dtype),
        ),
        shape=matrix.shape,
    )


def degree_vector(weights) -> np.ndarray:
    """Degrees ``d_i = sum_j w_ij`` of a validated weight matrix."""
    return _row_sums(check_weight_matrix(weights))


def laplacian(weights):
    """Unnormalized Laplacian ``L = D - W``.

    ``L`` is symmetric positive semidefinite with zero row sums; its null
    space is spanned by the indicators of connected components.
    """
    return _unchecked_laplacian(check_weight_matrix(weights))


def grounded_system(weights, n: int, degrees=None):
    """Eq. (5)'s grounded system: ``(D22 - W22, W21)``.

    ``weights`` are already-validated, labeled-first weights and ``n``
    the number of labeled vertices.  ``D22`` is the unlabeled block of
    the *full* degree matrix — edges to labeled vertices and self-weights
    count — so pass ``degrees`` when the full row sums are already at
    hand.  Both blocks keep the format of ``weights``.
    """
    return _grounded_laplacian(weights, n, degrees)[0], weights[n:, :n]


def _grounded_laplacian(weights, n: int, degrees=None):
    """``(D22 - W22, W22)``: :func:`grounded_system`'s first block and the
    ``W22`` slice it was assembled from, for a caller that also coarsens
    ``W22`` and so slices it only once."""
    if degrees is None:
        degrees = _row_sums(weights)
    unlabeled = weights[n:, n:]
    return _unchecked_laplacian(unlabeled, degrees[n:]), unlabeled


def soft_system(laplacian, n: int, lam: float):
    """Eq. (3)'s stationarity matrix ``V + λL``.

    ``V`` is the indicator of the first ``n`` vertices.  A sparse
    ``laplacian`` gives a CSR system, a dense one a new dense array.
    """
    if sparse.issparse(laplacian):
        indicator = np.zeros(laplacian.shape[0])
        indicator[:n] = 1.0
        return (lam * laplacian + sparse.diags(indicator, format="csr")).tocsr()
    system = lam * laplacian
    system[np.arange(n), np.arange(n)] += 1.0
    return system


def _checked_positive_degrees(weights, variant: str) -> np.ndarray:
    degrees = _row_sums(weights)
    zero = np.flatnonzero(degrees <= 0)
    if zero.size:
        raise GraphStructureError(
            f"{variant} Laplacian requires strictly positive degrees; "
            f"vertices {zero[:10].tolist()} are isolated"
        )
    return degrees


def normalized_laplacian(weights):
    """Symmetric-normalized Laplacian ``L_sym = I - D^{-1/2} W D^{-1/2}``.

    Requires all degrees strictly positive; raises
    :class:`~repro.exceptions.GraphStructureError` otherwise.
    """
    weights = check_weight_matrix(weights)
    degrees = _checked_positive_degrees(weights, "symmetric-normalized")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    n = weights.shape[0]
    if sparse.issparse(weights):
        scale = sparse.diags(inv_sqrt, format="csr")
        return sparse.identity(n, format="csr") - scale @ weights @ scale
    return np.eye(n) - (inv_sqrt[:, None] * weights) * inv_sqrt[None, :]


def random_walk_laplacian(weights):
    """Random-walk Laplacian ``L_rw = I - D^{-1} W``.

    ``D^{-1} W`` is the transition matrix of the natural random walk on the
    graph; the hard criterion's solution is its harmonic extension.
    """
    weights = check_weight_matrix(weights)
    degrees = _checked_positive_degrees(weights, "random-walk")
    n = weights.shape[0]
    if sparse.issparse(weights):
        scale = sparse.diags(1.0 / degrees, format="csr")
        return sparse.identity(n, format="csr") - scale @ weights
    return np.eye(n) - weights / degrees[:, None]


def laplacian_by_name(
    weights, variant: Literal["unnormalized", "symmetric", "random_walk"] = "unnormalized"
):
    """Dispatch to a Laplacian variant by name."""
    builders = {
        "unnormalized": laplacian,
        "symmetric": normalized_laplacian,
        "random_walk": random_walk_laplacian,
    }
    if variant not in builders:
        known = ", ".join(sorted(builders))
        raise GraphStructureError(f"unknown Laplacian variant {variant!r}; known: {known}")
    return builders[variant](weights)
