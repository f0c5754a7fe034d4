"""2x2 block-matrix utilities.

Section II of the paper derives the unlabeled-block solution (Eq. 4) from
the block-inverse formula

    A = [[A11, A12], [A21, A22]],
    A^{-1} = [[ S22^{-1},            -S22^{-1} A12 A22^{-1}],
              [-S11^{-1} A21 A11^{-1},  S11^{-1}           ]],

where ``S22 = A11 - A12 A22^{-1} A21`` and ``S11 = A22 - A21 A11^{-1} A12``
are the two Schur complements.  :func:`block_inverse` implements exactly
this formula (it is tested against ``np.linalg.inv``), and
:class:`BlockMatrix` names the paper's labeled/unlabeled partition.
The solvers in :mod:`repro.core` slice their blocks directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataValidationError, SingularSystemError
from repro.utils.validation import check_square_matrix

__all__ = ["BlockMatrix", "schur_complement", "block_inverse"]


@dataclass(frozen=True)
class BlockMatrix:
    """A square matrix partitioned after its first ``n_first`` rows/columns.

    The paper partitions every ``(n+m) x (n+m)`` matrix into labeled
    (first ``n``) and unlabeled (last ``m``) blocks; this class names them
    ``a11`` (labeled-labeled), ``a12``, ``a21``, ``a22``
    (unlabeled-unlabeled).
    """

    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray

    @classmethod
    def partition(cls, matrix: np.ndarray, n_first: int) -> "BlockMatrix":
        """Partition ``matrix`` after row/column ``n_first``."""
        matrix = check_square_matrix(matrix, "matrix")
        total = matrix.shape[0]
        if not 0 <= n_first <= total:
            raise DataValidationError(
                f"n_first must be in [0, {total}], got {n_first}"
            )
        return cls(
            a11=matrix[:n_first, :n_first],
            a12=matrix[:n_first, n_first:],
            a21=matrix[n_first:, :n_first],
            a22=matrix[n_first:, n_first:],
        )

    def assemble(self) -> np.ndarray:
        """Reassemble the full matrix from its blocks."""
        top = np.hstack([self.a11, self.a12])
        bottom = np.hstack([self.a21, self.a22])
        return np.vstack([top, bottom])

    @property
    def shape(self) -> tuple[int, int]:
        n = self.a11.shape[0] + self.a21.shape[0]
        return (n, n)


def _solve_or_raise(matrix: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{what} is singular: {exc}") from exc


def schur_complement(blocks: BlockMatrix, eliminate: str = "a22") -> np.ndarray:
    """Schur complement after eliminating one diagonal block.

    ``eliminate="a22"`` returns ``A11 - A12 A22^{-1} A21``;
    ``eliminate="a11"`` returns ``A22 - A21 A11^{-1} A12``.
    """
    if eliminate == "a22":
        if blocks.a22.size == 0:
            return blocks.a11.copy()
        return blocks.a11 - blocks.a12 @ _solve_or_raise(blocks.a22, blocks.a21, "A22")
    if eliminate == "a11":
        if blocks.a11.size == 0:
            return blocks.a22.copy()
        return blocks.a22 - blocks.a21 @ _solve_or_raise(blocks.a11, blocks.a12, "A11")
    raise DataValidationError(f"eliminate must be 'a11' or 'a22', got {eliminate!r}")


def block_inverse(blocks: BlockMatrix) -> BlockMatrix:
    """Invert a 2x2 block matrix via the paper's Schur-complement formula.

    Requires both diagonal blocks and both Schur complements to be
    non-singular (sufficient, not necessary, for invertibility of the full
    matrix — matching the formula quoted in the paper).
    """
    s22 = schur_complement(blocks, "a22")  # A11 - A12 A22^{-1} A21
    s11 = schur_complement(blocks, "a11")  # A22 - A21 A11^{-1} A12
    n1 = blocks.a11.shape[0]
    n2 = blocks.a22.shape[0]

    inv_s22 = _solve_or_raise(s22, np.eye(n1), "Schur complement A11 - A12 A22^-1 A21")
    inv_s11 = _solve_or_raise(s11, np.eye(n2), "Schur complement A22 - A21 A11^-1 A12")

    if n2:
        upper_right = -inv_s22 @ blocks.a12 @ _solve_or_raise(blocks.a22, np.eye(n2), "A22")
    else:
        upper_right = np.zeros((n1, 0))
    if n1:
        lower_left = -inv_s11 @ blocks.a21 @ _solve_or_raise(blocks.a11, np.eye(n1), "A11")
    else:
        lower_left = np.zeros((n2, 0))

    return BlockMatrix(a11=inv_s22, a12=upper_right, a21=lower_left, a22=inv_s11)
