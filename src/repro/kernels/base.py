"""Radial kernel base class and pairwise-distance helpers."""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataValidationError
from repro.utils.validation import check_matrix_2d, check_positive_scalar

__all__ = [
    "RadialKernel",
    "KernelConditionReport",
    "pairwise_sq_distances",
    "CHUNK_AUTO_ELEMENTS",
]

#: ``pairwise_sq_distances`` switches from the one-shot expression to
#: row-blocked computation once the output exceeds this many float64
#: elements (4M doubles = 32 MB): beyond it the one-shot path's
#: *temporaries* (``x @ y.T``, the broadcast sum) would triple the peak
#: footprint.  Below it the historical expression runs unchanged
#: (bit-identical).
CHUNK_AUTO_ELEMENTS = 2**22


def _fill_sq_blocked(x, y, x_norms, y_norms, out, block_rows: int) -> None:
    """Row-blocked ``||x_i - y_j||^2`` into ``out``, no (n, m) temporaries.

    One scratch buffer of ``(block_rows, m)`` is reused across blocks;
    each block costs a GEMM plus three in-place element passes.
    """
    n, m = out.shape
    y_t = y.T
    scratch = np.empty((min(block_rows, n), m), dtype=out.dtype)
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        block = scratch[: stop - start]
        np.matmul(x[start:stop], y_t, out=block)
        block *= -2.0
        block += x_norms[start:stop, None]
        block += y_norms[None, :]
        np.maximum(block, 0.0, out=block)
        out[start:stop] = block


def pairwise_sq_distances(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between rows of ``x`` and rows of ``y``.

    Parameters
    ----------
    x:
        Array of shape ``(n, d)``.
    y:
        Optional array of shape ``(m, d)``; defaults to ``x``.

    Returns
    -------
    float64 ndarray of shape ``(n, m)`` with entries ``||x_i - y_j||^2``,
    clipped at zero to remove tiny negative values from floating-point
    cancellation.  Outputs up to :data:`CHUNK_AUTO_ELEMENTS` elements
    come from the one-shot expression; larger ones are computed in row
    blocks of about that many elements, so no temporary besides the
    output grows to ``n·m``.
    """
    x = check_matrix_2d(x, "x")
    if y is None:
        y = x
    else:
        y = check_matrix_2d(y, "y")
        if y.shape[1] != x.shape[1]:
            raise DataValidationError(
                f"x and y must have the same number of columns; "
                f"got {x.shape[1]} and {y.shape[1]}"
            )
    n, m = x.shape[0], y.shape[0]
    x_norms = np.einsum("ij,ij->i", x, x)
    y_norms = np.einsum("ij,ij->i", y, y)
    if n * m <= CHUNK_AUTO_ELEMENTS:
        sq = x_norms[:, None] + y_norms[None, :] - 2.0 * (x @ y.T)
        np.maximum(sq, 0.0, out=sq)
    else:
        sq = np.empty((n, m))
        block_rows = max(1, CHUNK_AUTO_ELEMENTS // m)
        _fill_sq_blocked(x, y, x_norms, y_norms, sq, block_rows)
    if y is x:
        np.fill_diagonal(sq, 0.0)
    return sq


@dataclass(frozen=True)
class KernelConditionReport:
    """Which of Theorem II.1's kernel conditions (i)-(iii) a kernel meets.

    Attributes
    ----------
    bounded:
        Condition (i): ``K <= k* < inf``.
    compact_support:
        Condition (ii): ``K(u) = 0`` outside a bounded set.
    lower_bounded_on_ball:
        Condition (iii): ``K >= beta`` on a ball of radius ``delta > 0``.
    """

    bounded: bool
    compact_support: bool
    lower_bounded_on_ball: bool

    @property
    def all_satisfied(self) -> bool:
        return self.bounded and self.compact_support and self.lower_bounded_on_ball

    def summary(self) -> str:
        """One-line human-readable report."""
        marks = {True: "yes", False: "NO"}
        return (
            f"(i) bounded: {marks[self.bounded]}; "
            f"(ii) compact support: {marks[self.compact_support]}; "
            f"(iii) >= beta on a ball: {marks[self.lower_bounded_on_ball]}"
        )


class RadialKernel(abc.ABC):
    """A radial kernel ``K(u) = profile(||u||)``.

    Subclasses implement :meth:`profile` on non-negative radii and declare
    the theorem constants via properties.  The kernel is evaluated on
    *scaled* differences: the similarity between inputs is
    ``K((X_i - X_j) / h) = profile(||X_i - X_j|| / h)``.
    """

    #: Short registry name, set by subclasses.
    name: str = "radial"

    @abc.abstractmethod
    def profile(self, radii: np.ndarray) -> np.ndarray:
        """Evaluate the radial profile on an array of non-negative radii."""

    @property
    @abc.abstractmethod
    def upper_bound(self) -> float:
        """Condition (i) constant ``k*``: a finite upper bound of ``K``."""

    @property
    @abc.abstractmethod
    def support_radius(self) -> float:
        """Radius beyond which ``K`` vanishes; ``inf`` for full support."""

    @property
    @abc.abstractmethod
    def ball_lower_bound(self) -> tuple[float, float]:
        """A valid condition-(iii) pair ``(beta, delta)``.

        ``K(u) >= beta`` whenever ``||u|| <= delta``.  Every kernel in this
        library is positive and non-increasing near the origin, so such a
        pair always exists; the theorem's constants ``M`` and ``s`` are
        built from it in :mod:`repro.core.theory`.
        """

    # ------------------------------------------------------------------
    # Concrete API
    # ------------------------------------------------------------------

    def __call__(self, diffs: np.ndarray) -> np.ndarray:
        """Evaluate ``K`` on an array of difference vectors ``(..., d)``."""
        diffs = np.asarray(diffs, dtype=np.float64)
        radii = np.sqrt(np.einsum("...j,...j->...", diffs, diffs))
        return self.evaluate_radii(radii)

    def evaluate_radii(self, radii) -> np.ndarray:
        """Evaluate the profile, validating non-negative radii."""
        radii = np.asarray(radii, dtype=np.float64)
        if radii.size and radii.min() < 0:
            raise DataValidationError("radii must be non-negative")
        return self.profile(radii)

    def gram(
        self,
        x: np.ndarray,
        y: np.ndarray | None = None,
        *,
        bandwidth: float,
    ) -> np.ndarray:
        """Kernel matrix ``W[i, j] = K((x_i - y_j) / bandwidth)``.

        When ``y`` is ``None`` the matrix is the symmetric Gram matrix of
        ``x`` with unit diagonal (for kernels with ``profile(0) = 1``).
        """
        bandwidth = check_positive_scalar(bandwidth, "bandwidth")
        sq = pairwise_sq_distances(x, y)
        radii = np.sqrt(sq) / bandwidth
        return self.profile(radii)

    def theorem_conditions(self) -> KernelConditionReport:
        """Report conditions (i)-(iii) of Theorem II.1 for this kernel."""
        beta, delta = self.ball_lower_bound
        return KernelConditionReport(
            bounded=math.isfinite(self.upper_bound),
            compact_support=math.isfinite(self.support_radius),
            lower_bounded_on_ball=(beta > 0 and delta > 0),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
