"""Exact incremental vertex insertion: the ground-truth slow serving path.

Inserting a query vertex ``q`` with edge row ``c`` into a fitted graph
and re-minimizing the hard criterion yields the bordered grounded system

    [[ A + diag(c_u),  -c_u ],   [ f_u ]     [ W21 y    ]
     [ -c_u^T,          s   ]] @ [ f_q ]  =  [ c_l^T y  ]

where ``A = D22 - W22`` is the reference grounded Laplacian (the system
the model's :class:`~repro.linalg.workspace.SolveWorkspace` solved at
fit time), ``c_l``/``c_u`` split the query's edges by labeled/unlabeled
endpoint and ``s = sum(c)`` (the query's self-weight cancels between its
degree and diagonal).  The border alone would be a rank-1 update of the cached
system — the same Gaussian-conditioning algebra as
:mod:`repro.core.incremental` — but the insertion also adds ``diag(c_u)``
to every touched vertex's degree, so no finite low-rank shortcut is
exact.  This module therefore solves the bordered system with
preconditioned CG (:func:`~repro.linalg.iterative.preconditioned_conjugate_gradient`
on a callable operator), preconditioned block-diagonally by the
workspace's cached ``r ↦ M⁻¹r`` for ``A`` and
started from the fitted field: the reference vertices at their fitted
scores and the query at the weighted mean of its neighbours' fitted
scores and labels.  At the extended minimizer the query's score is
exactly such a mean (the harmonic property), so this start zeroes the
query's row of the residual and leaves the rest nonzero only on the
query's neighbours.  When the workspace factorizes ``A`` (``M = A``),
the preconditioned operator is ``I`` plus the ``diag(c_u)`` perturbation
and a handful of back-substitutions converge — typically 2-10
iterations.  When it runs the ``multigrid`` backend, ``M⁻¹`` is one
cached V-cycle and a query takes about 14 iterations, each far cheaper
than a back-substitution through a high-fill LU factor.  Either way the
solve stops at :data:`INSERTION_TOL`, so the prediction does not depend
on the preconditioner beyond that tolerance.  Beyond ``A``'s own
product, the bordered product and the block preconditioner work on the
query's neighbours alone and write into buffers allocated once per
query (:func:`_bordered_operators`).  Each insertion is stateless:
nothing carries over from one query to the next.

The soft criterion (``lam > 0``) inserts through the analogous bordered
system on ``V + lam (L + diag(c))``: the same matrix shape with ``A = V +
lam L``, the border ``c`` over all vertices scaled by ``lam``, a zero
tail and the right-hand side ``(y; 0)``.  Both criteria therefore share
one bordered solve; :meth:`ExactInserter.insert` only picks its inputs.
The inserter takes ``A``, its right-hand side and ``M⁻¹`` from one
:meth:`~repro.linalg.workspace.SolveWorkspace.operator` call at the
model's λ: the operator the fit solved with, so no second system or
V-cycle is built.  It forms that right-hand side once.

Credible intervals come from the Gaussian-field view (the same model as
:mod:`repro.core.uncertainty`): the query's posterior variance is
``sigma^2`` over the extended system's Schur complement,

    Var(f_q) = sigma^2 / (s - c_u^T (A + diag(c_u))^{-1} c_u),

computed exactly with one more preconditioned solve, or approximated to
first order by ``sigma^2 / (s - c_u^T A^{-1} c_u)`` (an over-estimate,
since ``A + diag(c_u) >= A``; the exact route kicks in automatically if
the approximation degenerates).  ``A^{-1} c_u`` is itself a PCG solve to
:data:`INSERTION_TOL` with the cached preconditioner — one iteration
when that is a factorization — so the first-order interval means the
same thing on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConvergenceError, DataValidationError
from repro.linalg.iterative import preconditioned_conjugate_gradient
from repro.serving.queries import QueryRow

__all__ = ["InsertionResult", "ExactInserter"]

#: Relative residual tolerance of the bordered solves.  Tight enough
#: that predictions match a from-scratch rebuild-and-resolve to well
#: under the parity suite's 1e-8 bar.
INSERTION_TOL = 1e-12

#: Iteration cap for the bordered solves; the preconditioned operator is
#: a small perturbation of the identity, so hitting this means the
#: system (not the budget) is the problem.
INSERTION_MAX_ITER = 500


@dataclass(frozen=True)
class InsertionResult:
    """One exact insertion: the prediction and the solve effort."""

    prediction: float
    iterations: int


def _require_support(row: QueryRow) -> float:
    total = row.total
    if not total > 0.0:
        raise DataValidationError(
            "exact insertion: query has no reference point within kernel "
            "support; the extended graph would leave it disconnected"
        )
    return total


def _bordered_operators(system, inverse, c, scale: float, s: float):
    """The product and block preconditioner of one query's bordered system.

    ``v ↦ [[A + scale·diag(c), -scale·c], [-scale·cᵀ, scale·s]] v`` with
    ``A = system``, and ``r ↦ (inverse(r_top); r_q / (scale·s))``.  The
    border touches only the query's neighbours (``c``'s nonzeros), so
    beyond ``A``'s product each call works on those entries alone.  Each
    writes into its own buffer of length ``len(c) + 1`` and overwrites
    it on its next call; PCG reads every product and preconditioned
    residual before its next call.
    """
    k = c.shape[0]
    touched = np.flatnonzero(c)
    weights = c[touched]
    border = scale * weights
    product = np.empty(k + 1)
    preconditioned = np.empty(k + 1)

    def matvec(v):
        vu, t = v[:k], v[k]
        near = vu[touched]
        top = system @ vu
        top[touched] += scale * (weights * near)
        top[touched] -= border * t
        product[:k] = top
        product[k] = scale * (s * t - float(weights @ near))
        return product

    def precondition(r):
        preconditioned[:k] = inverse(r[:k])
        preconditioned[k] = r[k] / (scale * s)
        return preconditioned

    return matvec, precondition


class ExactInserter:
    """Per-model machinery for exact insertions against a cached preconditioner.

    Parameters
    ----------
    workspace:
        The model's :class:`~repro.linalg.workspace.SolveWorkspace` over
        the fitted reference graph; its
        :meth:`~repro.linalg.workspace.SolveWorkspace.operator` at
        ``(lam, n)`` gives the system every insertion borders, its
        right-hand side and the cached factorization or V-cycle that
        preconditions every solve.
    y_labeled:
        Observed labels (length ``n``; labeled vertices first).
    scores:
        The fitted scores over all ``N`` reference vertices.
    lam:
        ``0.0`` for the hard criterion, else the soft criterion's
        tuning parameter.
    """

    def __init__(self, workspace, y_labeled, scores, *, lam: float):
        self.lam = float(lam)
        self.y = np.asarray(y_labeled, dtype=np.float64)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.n = int(self.y.shape[0])
        self.n_total = workspace.n_total
        self.m = self.n_total - self.n
        self.workspace = workspace
        operator = workspace.operator(self.lam, self.n)
        self.system, self.precondition = operator.system, operator.precondition
        self.rhs = operator.rhs(self.y)

    def _split(self, row: QueryRow):
        """Split a query row into labeled mass and a dense unlabeled vector."""
        labeled = row.indices < self.n
        rq = float(np.dot(row.weights[labeled], self.y[row.indices[labeled]]))
        cu = np.zeros(self.m)
        unlabeled = ~labeled
        cu[row.indices[unlabeled] - self.n] = row.weights[unlabeled]
        return rq, cu

    def _bordered_solve(self, row: QueryRow, c, scale: float, tail: float, warm):
        """Solve the bordered system of one query by PCG from the fitted field.

        The system is ``[[A + scale·diag(c), -scale·c], [-scale·cᵀ,
        scale·s]]`` with right-hand side ``(self.rhs; tail)``: ``A`` is
        the cached ``self.system``, ``c`` the query's edge weights into
        the vertices ``A`` covers and ``s > 0`` its total edge weight.
        The hard criterion passes ``scale = 1``, the soft one ``scale =
        lam``.  The cached ``M⁻¹ ≈ A⁻¹`` preconditions.  PCG starts at
        ``(warm, t₀)``: the fitted scores, and the query at the value
        ``t₀ = (tail + scale·cᵀwarm) / (scale·s)`` that zeroes the
        bottom row of the starting residual — the weighted mean of its
        neighbours' fitted scores and labels, where the extended
        minimizer is harmonic.  The top block of that residual is the
        fit's own residual plus ``scale·c·(t₀ − warm)``, nonzero only on
        the query's neighbours.
        """
        s = row.total
        border = scale * c
        f_q0 = (tail + float(border @ warm)) / (scale * s)
        x0 = np.concatenate([warm, [f_q0]])
        rhs = np.concatenate([self.rhs, [tail]])
        matvec, precondition = _bordered_operators(
            self.system, self.precondition, c, scale, s
        )
        result = preconditioned_conjugate_gradient(
            matvec,
            rhs,
            preconditioner=precondition,
            x0=x0,
            tol=INSERTION_TOL,
            max_iter=INSERTION_MAX_ITER,
        )
        return InsertionResult(float(result.x[-1]), result.iterations)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def insert(self, row: QueryRow) -> InsertionResult:
        """Exactly insert one query; returns its re-solved prediction."""
        s = _require_support(row)
        if self.lam != 0.0:
            c = np.zeros(self.n_total)
            c[row.indices] = row.weights
            return self._bordered_solve(row, c, self.lam, 0.0, self.scores)
        if self.m == 0:
            # No unlabeled block: the extended grounded system is the
            # 1x1 scalar ``s * f_q = c_l^T y``.
            labeled_mass = float(np.dot(row.weights, self.y[row.indices]))
            return InsertionResult(labeled_mass / s, 0)
        rq, cu = self._split(row)
        return self._bordered_solve(row, cu, 1.0, rq, self.scores[self.n :])

    def variance(self, row: QueryRow, *, field_scale: float = 1.0, exact: bool = True) -> float:
        """Posterior variance of the query under the Gaussian-field view.

        Only defined for hard-criterion models (``lam = 0``), matching
        :mod:`repro.core.uncertainty`.  ``exact=False`` uses the
        first-order approximation described in the module docstring and
        silently upgrades to the exact solve when that approximation
        degenerates (non-positive Schur estimate).
        """
        if self.lam != 0.0:
            raise DataValidationError(
                "credible intervals are defined for hard-criterion models "
                "only (lam = 0); the soft criterion's Gaussian-field view "
                "has a different covariance"
            )
        s = _require_support(row)
        sigma_sq = float(field_scale) ** 2
        if self.m == 0:
            return sigma_sq / s
        _, cu = self._split(row)
        system, precondition = self.system, self.precondition
        g = preconditioned_conjugate_gradient(
            system,
            cu,
            preconditioner=precondition,
            tol=INSERTION_TOL,
            max_iter=INSERTION_MAX_ITER,
        ).x
        if not exact:
            denom = s - float(cu @ g)
            if denom > 0:
                return sigma_sq / denom

        def matvec(v):
            return system @ v + cu * v

        v = preconditioned_conjugate_gradient(
            matvec,
            cu,
            preconditioner=precondition,
            x0=g,
            tol=INSERTION_TOL,
            max_iter=INSERTION_MAX_ITER,
        ).x
        denom = s - float(cu @ v)
        if denom <= 0:
            raise ConvergenceError(
                "insertion variance denominator is non-positive; the "
                "extended grounded system is numerically singular",
                iterations=0,
                residual=float("nan"),
            )
        return sigma_sq / denom
