"""Out-of-sample extension of the fitted scores to a new query.

:func:`nw_extend` is the Nadaraya-Watson / harmonic one-step rule
``f(x) = sum_j w(x, x_j) f_j / sum_j w(x, x_j)`` over the *fitted*
scores, consuming one frozen-graph query row from
:mod:`repro.serving.queries` in O(row).  It is exactly the minimizer of
the extended hard criterion when every reference score is held fixed,
and the paper's Theorem II.1 proof device (the hard criterion converges
to this estimator).

It raises :class:`~repro.exceptions.DataValidationError` for queries
with zero coupling mass (no reference point inside the kernel/graph
support): there is no graph information about such a point, and a
silent 0/0 would serve NaNs.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError
from repro.serving.queries import QueryRow

__all__ = ["nw_extend"]


def nw_extend(row: QueryRow, scores: np.ndarray) -> float:
    """Nadaraya-Watson extension of the fitted ``scores`` to one query.

    The self-weight never enters: holding reference scores fixed, the
    extended hard criterion minimizes ``sum_j w_j (f - f_j)^2`` and the
    query's diagonal term contributes ``(f - f)^2 = 0``.
    """
    total = row.total
    if not total > 0.0:
        raise DataValidationError(
            "nw_extend: query has no reference point within kernel support "
            "(coupling mass is zero); cannot extend the fitted scores to it"
        )
    return float(np.dot(row.weights, scores[row.indices]) / total)
