"""Criterion variants with normalized graph Laplacians.

The paper's criteria use the unnormalized Laplacian ``L = D - W``.  A
common variant (Zhou et al. 2004's regularizer) penalizes with the
symmetric-normalized Laplacian ``L_sym = I - D^{-1/2} W D^{-1/2}``
instead, which reweights the smoothness penalty by vertex degrees:

    min_f  sum_{i<=n} (Y_i - f_i)^2 + lam * f^T L_sym f.

:func:`solve_soft_criterion_normalized` solves its stationarity system
``(V + lam L_sym) f = (y; 0)``.  The degree normalization changes which
functions count as "smooth" — high-degree hubs are allowed larger score
differences — and the ablation bench compares both penalties on the
paper's workload.
"""

from __future__ import annotations

import numpy as np

from repro.core.hard import _labeled_first_inputs
from repro.core.result import FitResult
from repro.graph.components import require_labeled_reachability
from repro.graph.laplacian import normalized_laplacian, soft_system
from repro.linalg.solvers import solve_square
from repro.utils.validation import check_positive_scalar

__all__ = ["solve_soft_criterion_normalized"]


def solve_soft_criterion_normalized(
    weights,
    y_labeled,
    lam: float,
    *,
    check_reachability: bool = True,
) -> FitResult:
    """Soft criterion with the symmetric-normalized Laplacian penalty.

    Parameters
    ----------
    weights:
        Full ``(n+m, n+m)`` weight matrix, labeled vertices first; every
        vertex needs positive degree.
    y_labeled:
        Observed responses on the first ``n`` vertices.
    lam:
        Penalty weight; must be > 0 (at 0 the unlabeled block is
        unconstrained — use the hard criterion for the clamped limit).
    """
    weights, y_labeled, n, m = _labeled_first_inputs(weights, y_labeled)
    lam = check_positive_scalar(lam, "lam")
    if check_reachability:
        require_labeled_reachability(weights, n)

    system = soft_system(normalized_laplacian(weights), n, lam)
    rhs = np.zeros(n + m)
    rhs[:n] = y_labeled
    scores = solve_square(system, rhs)
    return FitResult(
        scores=scores,
        n_labeled=n,
        lam=lam,
        method="normalized",
        criterion="soft-normalized",
        details={"laplacian": "symmetric"},
    )
