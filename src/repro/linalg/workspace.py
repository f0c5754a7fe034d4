"""Cross-solve amortization: shared workspaces for λ- and bandwidth-sweeps.

Every λ-curve, CV grid and consistency sweep in this library solves the
same family of systems ``(V + λL) f = (y; 0)`` over one *fixed*
similarity graph, where a per-point solve through :mod:`repro.core`
reassembles and refactorizes at every grid point.  :class:`SolveWorkspace`
owns a graph's Laplacian blocks once and amortizes everything that is
shared across the sweep.  It is the only way a λ-sweep is solved; its
one knob is the backend, one of :data:`SWEEP_BACKENDS`, each the fastest
on some measured grid (docs/SCALING.md):

* **exact** (default) — an LRU cache of true SPD factorizations keyed
  by ``(kind, λ, n_labeled)``; a cache hit returns bit-identical
  solutions to refactorizing, so strict/golden paths can reuse safely.
  Its systems come from :func:`~repro.graph.laplacian.soft_system` and
  :func:`~repro.graph.laplacian.grounded_system`, the same assembly the
  per-point reference solves in :mod:`repro.core` use, so on sparse
  graphs (and dense ``method="full"`` / hard solves) its scores equal
  theirs bit for bit.  It is the default: a one-off solve such as a
  model fit costs one factorization and one back-substitution, where
  ``factored`` would first build its continuation basis.
* **factored** — one *anchor* factorization serves the whole
  λ grid.  When the labeled block is small (``n_labeled ≤ min(512,
  N/4)``) this is *direct*: ``A(λ) = (λ/λ₀)A(λ₀) + (1-λ/λ₀)EEᵀ`` is a
  rank-``n_labeled`` update of the anchor, so Sherman–Morrison–Woodbury
  turns every further grid point into one back-substitution plus an
  ``n_labeled``-sized capacitance solve — no iterations, refined
  against the assembled operator until the relative residual is at
  most :data:`PCG_TOL`.  Otherwise each new λ is solved by preconditioned
  CG with the anchor as preconditioner, warm-started from the previous
  grid point's solution (continuation).  The generalized Rayleigh quotient of ``(V + λL)``
  against ``(V + λ₀L)`` lies in ``[min(1, λ/λ₀), max(1, λ/λ₀)]``, so
  nearby grid points converge in a handful of back-substitutions; when
  the iteration budget is exceeded the workspace refactorizes at the
  current λ and re-anchors.
* **multigrid** — no large factorization at any point: a λ-independent
  graph-coarsening hierarchy (:mod:`repro.linalg.coarsen`, heavy-edge
  matching) is built once per workspace, and each λ is solved by
  warm-started PCG preconditioned with a damped-Jacobi V-cycle whose
  level systems ``diag(v_l) + λ L_l`` re-assemble in O(nnz) per grid
  point (the Galerkin coarse operator of a graph Laplacian is the
  Laplacian of the coarsened graph, and aggregation keeps ``V``
  diagonal).  The hard criterion's ``D22 - W22 = L(W22) + diag(W21·1)``
  has the same form: its V-cycle coarsens the unlabeled subgraph ``W22``
  with the same hierarchy builder and assembles each level as ``L_l +
  diag(Pᵀ…Pᵀ W21·1)`` through the same constructor
  (:meth:`~repro.linalg.coarsen.MultigridPreconditioner.from_hierarchy`),
  once per ``n_labeled``, and each hard solve runs cold-started PCG on
  it.  This is the backend that scales past the splu fill-in wall
  (N ≈ 10⁴ in d ≥ 3) to N = 10⁶, with an exact-factorization fallback
  if the V-cycle ever stalls.

The library's own sweeps, CV folds and model fits take their backend
from the graph through :func:`choose_backend`: ``multigrid`` for a
sparse graph above :data:`FACTORIZE_MAX_VERTICES` vertices, ``exact``
otherwise.  ``backend=`` pins one.

:meth:`SolveWorkspace.preconditioner` hands out the cached ``r ↦ M⁻¹r``
of either system — the factorization's back-substitution on ``exact``
and ``factored``, the V-cycle on ``multigrid`` — so callers that solve a
perturbed system (exact serving's bordered insertion) never branch on
the backend.

Accuracy contract of the two approximate backends: every solve stops at
relative residual ``‖b - A f‖ / ‖b‖ ≤`` :data:`PCG_TOL` (``1e-10``), and
its :class:`~repro.linalg.solvers.SolveInfo` reports the true residual
``‖b - A f‖``, recomputed with one matvec after PCG returns.
That bounds the residual, not the score error, which the conditioning
of ``V + λL`` can amplify: multigrid scores were measured within 3e-8 of
``exact`` at N=2·10⁴ (d=3) and 8.6e-9 at N=4·10³ (d=2); the parity suite
checks every backend against per-point reference solves at
``atol=1e-8`` on its small graphs.

Well-posedness: the construction also computes the graph's connected
components (one O(nnz) pass on the weights it has just validated), and
every solve checks its labeled mask against them in O(N), cached per
``n_labeled``.  A mask that leaves an unlabeled component without a
label raises :class:`~repro.exceptions.DisconnectedGraphError` before
any factorization, hierarchy build or PCG solve: ``D22 - W22`` and
``V + λL`` are singular there.

A workspace fingerprints its weight matrix at construction and re-checks
the fingerprint before serving any cached artifact: mutating the graph
after caching raises :class:`~repro.exceptions.WorkspaceInvalidatedError`.
The workspace keeps the caller's matrix, not a copy, whenever validation
returns it unchanged (a float64 ndarray or canonical float64 CSR), so an
edit made through the caller's handle raises too.
:meth:`SolveWorkspace.invalidate` adopts edited weights explicitly.  A
stale factorization is never served.

Everything is observable: ``workspace.*`` spans and cache hit / miss /
eviction counters flow through :mod:`repro.obs`, and
:meth:`SolveWorkspace.stats` returns a :class:`WorkspaceStats` snapshot.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import NamedTuple

import numpy as np
from scipy import sparse

from repro import obs
from repro.exceptions import (
    ConfigurationError,
    ConvergenceError,
    DataValidationError,
    WorkspaceInvalidatedError,
)
from repro.graph.components import (
    ReachabilityReport,
    raise_if_unreachable,
    reachability_report,
    validated_components,
)
from repro.graph.laplacian import _row_sums, _unchecked_laplacian, grounded_system
from repro.graph.laplacian import soft_system as assemble_soft_system
from repro.linalg.advanced import preconditioned_conjugate_gradient
from repro.linalg.coarsen import (
    CoarseningHierarchy,
    MultigridPreconditioner,
    build_hierarchy,
)
from repro.linalg.solvers import (
    SolveInfo,
    SPDFactorization,
    _residual_norm,
    factorize_spd,
)
from repro.utils.validation import (
    check_labels,
    check_positive_scalar,
    check_weight_matrix,
)

__all__ = [
    "SolveWorkspace",
    "WorkspaceStats",
    "SWEEP_BACKENDS",
    "FACTORIZE_MAX_VERTICES",
    "choose_backend",
]

#: Sweep backends a workspace can solve through (its ``backend=``).
SWEEP_BACKENDS = ("exact", "factored", "multigrid")

#: Sparse graphs with more vertices than this solve on the ``multigrid``
#: backend; smaller ones, and every dense graph, on ``exact``.  The
#: measured crossover of one fit solve plus 100 exact insertions on 5-d
#: kNN data, k = 10: sparse LU wins up to 1000 vertices, the V-cycle from
#: 1500 on (docs/SCALING.md).
FACTORIZE_MAX_VERTICES = 1000

#: Dense matrices up to this many elements get a full-content fingerprint;
#: larger ones fall back to a strided sample plus the matrix sum (still
#: deterministic, but detection of a single-entry mutation becomes
#: probabilistic — documented in docs/SCALING.md).
FULL_FINGERPRINT_MAX_ELEMENTS = 1_000_000

#: The factored backend switches from anchored PCG to the rank-n_labeled
#: Woodbury continuation when the labeled block is small enough that the
#: capacitance solve (O(n_labeled^3) per λ) and the ``N x n_labeled``
#: basis stay cheap: n_labeled at most this cap AND at most N/4.
WOODBURY_MAX_LABELED = 512

#: V-cycle-preconditioned PCG budget per grid point.  A healthy V-cycle
#: converges in tens of iterations even at λ = 10²; exceeding this
#: budget falls back to an exact factorization (counted as a reanchor).
MULTIGRID_MAX_ITER = 300

#: LRU capacity of the factorization cache.
MAX_FACTORIZATIONS = 8

#: Relative-residual tolerance every factored and multigrid solve stops at.
PCG_TOL = 1e-10

#: Anchored-PCG iteration budget on the factored path; exceeding it
#: refactorizes at the current λ and re-anchors.
REANCHOR_BUDGET = 15

#: The multigrid hierarchy coarsens until a level is at most this large
#: (but never below 512 vertices) — small enough that the coarsest
#: factorization is trivial, large enough that the coarse grid still
#: resolves the graph's cluster structure.
MULTIGRID_COARSE_DIVISOR = 64


def _min_coarse_size(size: int) -> int:
    """Coarsest-level bound for a V-cycle over a ``size``-vertex system."""
    return max(512, size // MULTIGRID_COARSE_DIVISOR)


def choose_backend(weights) -> str:
    """The backend a workspace over ``weights`` solves on.

    ``"multigrid"`` for a sparse graph with more than
    :data:`FACTORIZE_MAX_VERTICES` vertices, whose sparse LU fills in
    past the point where it pays; ``"exact"`` otherwise.
    """
    if sparse.issparse(weights) and weights.shape[0] > FACTORIZE_MAX_VERTICES:
        return "multigrid"
    return "exact"


class WorkspaceStats(NamedTuple):
    """Cache and solver health counters for one :class:`SolveWorkspace`.

    Attributes
    ----------
    factor_hits / factor_misses / factor_evictions:
        Factorization-cache traffic: hits serve a previously computed
        factorization, misses factorize, evictions drop the least
        recently used entry when the cache is full.
    pcg_solves / pcg_iterations:
        Anchored-PCG solves on the factored path, and the total PCG
        iteration count of the factored and multigrid paths.
    reanchors:
        Times the factored path refactorized because the iteration
        budget was exceeded (each also counts as a factor miss).
    warm_starts:
        Solves that started from a previous solution.
    woodbury_solves:
        Direct low-rank continuation solves on the factored path (each
        λ after the anchor costs one capacitance solve, no iterations).
    coarsen_builds:
        Coarsenings built on the multigrid path: the soft criterion's
        hierarchy (at most one per workspace until invalidation) plus
        one hard-criterion V-cycle per ``n_labeled``.
    multigrid_solves:
        V-cycle-preconditioned PCG solves on the multigrid path, soft
        and hard (their iteration counts accumulate into
        ``pcg_iterations``).
    hierarchy_mode:
        The multigrid hierarchy representation.  Always ``"assembled"``:
        per-level Galerkin CSR matrices are the only representation.
        The field stays because existing readers of :meth:`stats`
        report it.
    """

    factor_hits: int = 0
    factor_misses: int = 0
    factor_evictions: int = 0
    pcg_solves: int = 0
    pcg_iterations: int = 0
    reanchors: int = 0
    warm_starts: int = 0
    woodbury_solves: int = 0
    coarsen_builds: int = 0
    multigrid_solves: int = 0
    hierarchy_mode: str = "assembled"


def _fingerprint(weights):
    """A cheap, deterministic content fingerprint of a weight matrix.

    Sparse matrices hash their full data/indices arrays (O(nnz)); dense
    matrices hash full content up to
    :data:`FULL_FINGERPRINT_MAX_ELEMENTS` elements and a strided sample
    plus the matrix sum beyond it.
    """
    if sparse.issparse(weights):
        mat = weights
        return (
            "sparse",
            mat.shape,
            int(mat.nnz),
            zlib.crc32(np.ascontiguousarray(mat.data).tobytes()),
            zlib.crc32(np.ascontiguousarray(mat.indices).tobytes()),
        )
    arr = np.ascontiguousarray(weights)
    if arr.size <= FULL_FINGERPRINT_MAX_ELEMENTS:
        return ("dense", arr.shape, zlib.crc32(arr.tobytes()))
    flat = arr.reshape(-1)
    idx = np.linspace(0, flat.size - 1, 4096).astype(np.intp)
    return (
        "dense-sampled",
        arr.shape,
        zlib.crc32(np.ascontiguousarray(flat[idx]).tobytes()),
        float(flat.sum()),
    )


def _fit_result(**kwargs):
    """Construct a FitResult lazily (avoids a linalg <-> core import cycle)."""
    from repro.core.result import FitResult

    return FitResult(**kwargs)


class _Continuation:
    """Warm-start / anchor state for one labeled-mask (one sweep)."""

    __slots__ = ("anchor", "anchor_lam", "last_solution")

    def __init__(self):
        self.anchor: SPDFactorization | None = None
        self.anchor_lam: float | None = None
        self.last_solution: np.ndarray | None = None


class _WoodburyState:
    """Low-rank continuation state for one labeled-mask.

    ``basis`` is ``Z = A(λ₀)⁻¹ E`` (``E`` the labeled-column selector)
    and ``gram`` its labeled block ``S = Eᵀ Z``; both are built once per
    sweep from the anchor factorization (held here so LRU eviction
    cannot orphan the continuation).
    """

    __slots__ = ("anchor_lam", "factor", "basis", "gram")

    def __init__(self, anchor_lam, factor, basis, gram):
        self.anchor_lam: float = anchor_lam
        self.factor: SPDFactorization = factor
        self.basis: np.ndarray = basis
        self.gram: np.ndarray = gram


class SolveWorkspace:
    """Amortized solves of the hard/soft criteria over one fixed graph.

    Parameters
    ----------
    weights:
        ``(N, N)`` symmetric non-negative weight matrix (dense, scipy
        sparse, or a :class:`~repro.graph.similarity.SimilarityGraph`),
        labeled vertices first.  Validated once, here, instead of per
        grid point; its connected components are computed here too.
        ``self.weights`` is the caller's matrix itself when it is a
        float64 ndarray or a canonical float64 CSR matrix (other input is
        converted once): editing it in place after a solve raises
        :class:`~repro.exceptions.WorkspaceInvalidatedError` at the next
        solve.
    backend:
        The solve backend, one of :data:`SWEEP_BACKENDS`: ``"exact"``
        (default; cached true factorizations, bit-compatible with
        per-point solves), ``"factored"`` (one anchor factorization
        continued along a λ grid), or ``"multigrid"`` (coarsening
        V-cycle preconditioned PCG — no large factorization, the large-N
        backend).  :func:`choose_backend` picks one from the graph.
    """

    def __init__(self, weights, *, backend: str = "exact"):
        from repro.graph.similarity import SimilarityGraph

        if isinstance(weights, SimilarityGraph):
            weights = weights.weights
        if backend not in SWEEP_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {SWEEP_BACKENDS}, got {backend!r}"
            )
        self.backend = backend
        self.weights = check_weight_matrix(weights)
        self.n_total = int(self.weights.shape[0])

        self._fingerprint = _fingerprint(self.weights)
        self._components = validated_components(self.weights)
        self._reachability: dict[int, ReachabilityReport] = {}
        self._degrees: np.ndarray | None = None
        self._laplacian = None
        self._factors: OrderedDict[tuple, SPDFactorization] = OrderedDict()
        self._continuations: dict[tuple, _Continuation] = {}
        self._woodbury: dict[int, _WoodburyState] = {}
        self._hierarchy: CoarseningHierarchy | None = None
        self._coarse_masks: dict[int, list[np.ndarray]] = {}
        self._hard_vcycles: dict[int, MultigridPreconditioner] = {}
        self._counters = {
            field: 0 for field in WorkspaceStats._fields if field != "hierarchy_mode"
        }

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def check_current(self) -> None:
        """Verify the weights still match the construction-time fingerprint.

        Called before any cached artifact is served.  On mismatch, raises
        :class:`WorkspaceInvalidatedError`.
        """
        if _fingerprint(self.weights) == self._fingerprint:
            return
        raise WorkspaceInvalidatedError(
            "the workspace's weight matrix was mutated after caching; "
            "rebuild the workspace (or call invalidate() to adopt the "
            "edited weights) instead of reusing stale factorizations"
        )

    def invalidate(self) -> None:
        """Drop every cached artifact and adopt the current weights.

        Re-fingerprints the weights and recomputes their connected
        components.
        """
        self._fingerprint = _fingerprint(self.weights)
        self._components = validated_components(self.weights)
        self._reachability.clear()
        self._degrees = None
        self._laplacian = None
        self._factors.clear()
        self._continuations.clear()
        self._woodbury.clear()
        self._hierarchy = None
        self._coarse_masks.clear()
        self._hard_vcycles.clear()

    # ------------------------------------------------------------------
    # Shared assembly
    # ------------------------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        """Row sums of the weights, self-weights included (computed once)."""
        if self._degrees is None:
            self._degrees = _row_sums(self.weights)
        return self._degrees

    @property
    def laplacian(self):
        """The unnormalized Laplacian ``L = D - W``, assembled once."""
        if self._laplacian is None:
            self._laplacian = _unchecked_laplacian(self.weights, self.degrees)
        return self._laplacian

    def soft_system(self, lam: float, n: int):
        """``V + λL``, assembled as the per-point solve does (bit-compatible)."""
        return assemble_soft_system(self.laplacian, n, lam)

    def hard_system(self, n: int):
        """The grounded system ``D22 - W22``, assembled as the per-point solve does."""
        return grounded_system(self.weights, n, self.degrees)[0]

    def _rhs_soft(self, y: np.ndarray) -> np.ndarray:
        rhs = np.zeros(self.n_total)
        rhs[: y.shape[0]] = y
        return rhs

    # ------------------------------------------------------------------
    # Factorization cache
    # ------------------------------------------------------------------

    def factorization(self, kind: str, lam: float, n: int) -> SPDFactorization:
        """A cached SPD factorization of the requested system (LRU)."""
        self.check_current()
        key = (kind, float(lam), int(n))
        cached = self._factors.get(key)
        registry = obs.get_registry()
        if cached is not None:
            self._factors.move_to_end(key)
            self._counters["factor_hits"] += 1
            registry.counter("workspace.factor.hits").inc()
            return cached
        self._counters["factor_misses"] += 1
        registry.counter("workspace.factor.misses").inc()
        system = (
            self.hard_system(n) if kind == "hard" else self.soft_system(lam, n)
        )
        with obs.span(
            "repro.workspace.factorize", kind=kind, lam=float(lam), n=n
        ) as span:
            factor = factorize_spd(system)
            if span.recording:
                span.set_attribute("method", factor.method)
                if factor.nnz is not None:
                    span.set_attribute("nnz", factor.nnz)
                    span.set_attribute("fill_nnz", factor.fill_nnz)
        self._factors[key] = factor
        while len(self._factors) > MAX_FACTORIZATIONS:
            self._factors.popitem(last=False)
            self._counters["factor_evictions"] += 1
            registry.counter("workspace.factor.evictions").inc()
        return factor

    def preconditioner(self, kind: str, lam: float, n: int):
        """The cached ``r ↦ M⁻¹r`` for the ``(kind, λ, n)`` system.

        ``kind`` is ``"hard"`` (``D22 - W22``; ``lam`` is ignored) or
        ``"soft"`` (``V + λL``).  On ``exact`` and ``factored`` this is
        the cached factorization's back-substitution, so ``M = A``; on
        ``multigrid`` it is a V-cycle — the hard one cached per ``n``,
        the soft one assembled over the cached hierarchy.  Both are
        symmetric positive definite, so either preconditions CG on the
        system or on an SPD perturbation of it.  Raises
        :class:`~repro.exceptions.DisconnectedGraphError` before building
        anything when the labeled mask leaves a component unreachable.
        """
        self.check_current()
        self._require_reachable(n)
        if self.backend != "multigrid":
            return self.factorization(kind, lam, n).solve
        if kind == "hard":
            return self._hard_vcycle(n)
        return self._multigrid_preconditioner(self.soft_system(lam, n), lam, n)

    # ------------------------------------------------------------------
    # Factored (anchored PCG continuation)
    # ------------------------------------------------------------------

    def _continuation(self, kind: str, n: int) -> _Continuation:
        return self._continuations.setdefault((kind, n), _Continuation())

    def _woodbury_applicable(self, n: int) -> bool:
        return 0 < n <= WOODBURY_MAX_LABELED and 4 * n <= self.n_total

    def _woodbury_state(self, lam: float, n: int) -> _WoodburyState:
        state = self._woodbury.get(n)
        if state is None:
            factor = self.factorization("soft", lam, n)
            selector = np.zeros((self.n_total, n))
            selector[:n, :n] = np.eye(n)
            with obs.span(
                "repro.workspace.woodbury_basis", lam=float(lam), n=n
            ):
                basis = factor.solve(selector)
            state = _WoodburyState(
                float(lam), factor, basis, np.ascontiguousarray(basis[:n])
            )
            self._woodbury[n] = state
        return state

    def _woodbury_apply(self, state: _WoodburyState, lam: float, rhs):
        """Apply ``A(λ)⁻¹`` via the anchor's rank-n update.

        ``A(λ) = t·A(λ₀) + (1-t)·EEᵀ`` with ``t = λ/λ₀``, so by
        Sherman–Morrison–Woodbury with ``c = (1-t)/t``::

            A(λ)⁻¹ r = (1/t) [z - c·Z (I + cS)⁻¹ z_labeled],  z = A(λ₀)⁻¹ r

        ``I + cS`` is nonsingular for every λ > 0: the eigenvalues of
        ``S = Eᵀ A(λ₀)⁻¹ E`` lie in (0, 1) and ``c > -1``.
        """
        t = lam / state.anchor_lam
        c = (1.0 - t) / t
        z = state.factor.solve(rhs)
        capacitance = np.eye(state.gram.shape[0]) + c * state.gram
        u = np.linalg.solve(capacitance, z[: state.gram.shape[0]])
        return (z - c * (state.basis @ u)) / t

    def _solve_woodbury(self, y: np.ndarray, lam: float, n: int):
        state = self._woodbury_state(lam, n)
        rhs = self._rhs_soft(y)
        if lam == state.anchor_lam:
            scores = state.factor.solve(rhs)
            return scores, state.factor.info(), {"anchored": True}

        scores = self._woodbury_apply(state, lam, rhs)
        # Refine against the assembled operator: the capacitance solve
        # loses digits when c approaches -1 (λ >> λ₀) and 1 - s_max is
        # tiny; residuals measured with the true system restore them.
        system = self.soft_system(lam, n)
        best_norm = float(np.linalg.norm(rhs - system @ scores))
        rhs_norm = float(np.linalg.norm(rhs))
        tol = PCG_TOL * max(rhs_norm, 1.0)
        for _ in range(2):
            if best_norm <= tol:
                break
            delta = self._woodbury_apply(state, lam, rhs - system @ scores)
            candidate = scores + delta
            candidate_norm = float(np.linalg.norm(rhs - system @ candidate))
            if candidate_norm >= best_norm:
                break
            scores, best_norm = candidate, candidate_norm
        if best_norm > tol:
            # Continuation too far gone — refactorize at this λ exactly
            # like a PCG re-anchor would.
            self._counters["reanchors"] += 1
            obs.get_registry().counter("workspace.reanchors").inc()
            factor = self.factorization("soft", lam, n)
            return factor.solve(rhs), factor.info(), {"anchored": True}
        self._counters["woodbury_solves"] += 1
        obs.get_registry().counter("workspace.woodbury_solves").inc()
        info = SolveInfo(
            method="woodbury",
            size=self.n_total,
            final_residual=best_norm,
        )
        return scores, info, {"anchor_lam": state.anchor_lam, "rank": n}

    def _solve_factored(self, y: np.ndarray, lam: float, n: int):
        if self._woodbury_applicable(n):
            return self._solve_woodbury(y, lam, n)
        state = self._continuation("soft", n)
        rhs = self._rhs_soft(y)
        registry = obs.get_registry()

        def anchor_here():
            factor = self.factorization("soft", lam, n)
            state.anchor = factor
            state.anchor_lam = float(lam)
            scores = factor.solve(rhs)
            return scores, factor.info(), {"anchored": True}

        if state.anchor is None:
            return anchor_here()

        system = self.soft_system(lam, n)
        x0 = state.last_solution
        warm = x0 is not None
        try:
            result = preconditioned_conjugate_gradient(
                system,
                rhs,
                preconditioner=state.anchor.solve,
                x0=x0,
                tol=PCG_TOL,
                max_iter=REANCHOR_BUDGET,
            )
        except ConvergenceError:
            self._counters["reanchors"] += 1
            registry.counter("workspace.reanchors").inc()
            return anchor_here()
        self._counters["pcg_solves"] += 1
        self._counters["pcg_iterations"] += result.iterations
        if warm:
            self._counters["warm_starts"] += 1
            registry.counter("workspace.warm_starts").inc()
        registry.log_histogram("workspace.pcg.iterations").observe(result.iterations)
        info = SolveInfo(
            method="pcg",
            size=self.n_total,
            iterations=result.iterations,
            final_residual=_residual_norm(system, result.x, rhs),
            converged=result.converged,
            warm_started=warm,
        )
        return result.x, info, {"anchor_lam": state.anchor_lam}

    # ------------------------------------------------------------------
    # Multigrid (coarsening V-cycle preconditioned PCG)
    # ------------------------------------------------------------------

    def _count_coarsening(self) -> None:
        self._counters["coarsen_builds"] += 1
        obs.get_registry().counter("workspace.coarsen.builds").inc()

    def hierarchy(self) -> CoarseningHierarchy:
        """The graph's coarsening hierarchy, built once per workspace.

        λ- and mask-independent: the Galerkin coarse operator of a graph
        Laplacian is the Laplacian of the coarsened graph, so the
        hierarchy caches what one λ-sweep shares across its grid.
        """
        self.check_current()
        if self._hierarchy is None:
            self._hierarchy = build_hierarchy(
                self.weights, min_coarse_size=_min_coarse_size(self.n_total)
            )
            self._count_coarsening()
        return self._hierarchy

    def _coarse_mask_diagonals(self, n: int) -> list[np.ndarray]:
        """Per-level Galerkin diagonals of the labeled-mask ``V`` (cached)."""
        cached = self._coarse_masks.get(n)
        if cached is None:
            indicator = np.zeros(self.n_total)
            indicator[:n] = 1.0
            cached = self.hierarchy().coarsen_diagonal(indicator)
            self._coarse_masks[n] = cached
        return cached

    def _multigrid_preconditioner(self, system, lam: float, n: int):
        """V-cycle over ``system`` (the assembled ``soft_system(lam, n)``)."""
        return MultigridPreconditioner.from_hierarchy(
            system, self.hierarchy(), lam, self._coarse_mask_diagonals(n)
        )

    def _hard_vcycle(self, n: int) -> MultigridPreconditioner:
        """Galerkin V-cycle over ``hard_system(n)``, built once per ``n``.

        ``D22 - W22 = L(W22) + diag(W21·1)`` is λ-independent and has the
        soft system's form, so it coarsens the same way: one hierarchy of
        the unlabeled subgraph ``W22``, with the grounding ``W21·1``
        aggregated into each level's diagonal.  It serves every hard
        solve and insertion.
        """
        vcycle = self._hard_vcycles.get(n)
        if vcycle is None:
            system, w21 = grounded_system(self.weights, n, self.degrees)
            hierarchy = build_hierarchy(
                self.weights[n:, n:],
                min_coarse_size=_min_coarse_size(self.n_total - n),
            )
            vcycle = MultigridPreconditioner.from_hierarchy(
                system, hierarchy, 1.0, hierarchy.coarsen_diagonal(_row_sums(w21))
            )
            self._hard_vcycles[n] = vcycle
            self._count_coarsening()
        return vcycle

    def _multigrid_pcg(self, kind, lam, n, system, rhs, preconditioner, x0=None):
        """PCG on ``system`` with a V-cycle, to :data:`PCG_TOL`.

        A stalled V-cycle (pathological graph) falls back to an exact
        factorization of the ``(kind, lam, n)`` system, like a factored
        re-anchor.
        """
        registry = obs.get_registry()
        try:
            result = preconditioned_conjugate_gradient(
                system,
                rhs,
                preconditioner=preconditioner,
                x0=x0,
                tol=PCG_TOL,
                max_iter=MULTIGRID_MAX_ITER,
            )
        except ConvergenceError:
            self._counters["reanchors"] += 1
            registry.counter("workspace.reanchors").inc()
            factor = self.factorization(kind, lam, n)
            return factor.solve(rhs), factor.info(), {"fallback": "exact"}
        self._counters["multigrid_solves"] += 1
        self._counters["pcg_iterations"] += result.iterations
        registry.counter("workspace.multigrid_solves").inc()
        warm = x0 is not None
        if warm:
            self._counters["warm_starts"] += 1
            registry.counter("workspace.warm_starts").inc()
        registry.log_histogram("workspace.pcg.iterations").observe(result.iterations)
        info = SolveInfo(
            method="multigrid_pcg",
            size=rhs.shape[0],
            iterations=result.iterations,
            final_residual=_residual_norm(system, result.x, rhs),
            converged=result.converged,
            warm_started=warm,
        )
        return result.x, info, {"n_levels": preconditioner.n_levels}

    def _solve_soft_multigrid(self, y: np.ndarray, lam: float, n: int):
        system = self.soft_system(lam, n)
        return self._multigrid_pcg(
            "soft",
            lam,
            n,
            system,
            self._rhs_soft(y),
            self._multigrid_preconditioner(system, lam, n),
            x0=self._continuation("soft", n).last_solution,
        )

    # ------------------------------------------------------------------
    # Public solves
    # ------------------------------------------------------------------

    def _check_labels(self, y) -> np.ndarray:
        y = check_labels(y, name="y_labeled")
        if y.shape[0] > self.n_total:
            raise DataValidationError(
                f"y_labeled has length {y.shape[0]} but the graph has only "
                f"{self.n_total} vertices"
            )
        return y

    def _require_reachable(self, n: int) -> None:
        """Raise :class:`DisconnectedGraphError` when some unlabeled
        component holds none of the first ``n`` vertices (O(N), cached
        per ``n``)."""
        report = self._reachability.get(n)
        if report is None:
            report = reachability_report(*self._components, n)
            self._reachability[n] = report
        raise_if_unreachable(report)

    def solve_soft(self, y_labeled, lam: float):
        """Solve the soft criterion at one λ through the workspace.

        ``lam = 0`` delegates to :meth:`solve_hard` (Proposition II.1),
        exactly as the per-point solve does.  Returns a
        :class:`~repro.core.result.FitResult`.  Raises
        :class:`~repro.exceptions.DisconnectedGraphError` when the
        labeled mask leaves a component unreachable.
        """
        y = self._check_labels(y_labeled)
        lam = check_positive_scalar(lam, "lam", allow_zero=True)
        n = y.shape[0]
        m = self.n_total - n
        if lam == 0.0:
            hard = self.solve_hard(y)
            return _fit_result(
                scores=hard.scores,
                n_labeled=n,
                lam=0.0,
                method=f"workspace[{self.backend}]->hard",
                criterion="soft",
                details=dict(hard.details),
                solve_info=hard.solve_info,
            )
        self.check_current()
        self._require_reachable(n)
        with obs.span(
            "repro.workspace.solve",
            kind="soft",
            backend=self.backend,
            lam=float(lam),
            n=n,
            m=m,
        ) as span:
            if self.backend == "exact":
                factor = self.factorization("soft", lam, n)
                scores = factor.solve(self._rhs_soft(y))
                info, details = factor.info(), {}
            elif self.backend == "factored":
                scores, info, details = self._solve_factored(y, lam, n)
            else:
                scores, info, details = self._solve_soft_multigrid(y, lam, n)
            self._continuation("soft", n).last_solution = scores
            if span.recording:
                span.set_attribute("solve_method", info.method)
                span.set_attribute("iterations", info.iterations)
            registry = obs.get_registry()
            registry.counter("workspace.solves").inc()
            details = {
                "system_size": self.n_total,
                "backend": self.backend,
                **details,
            }
            return _fit_result(
                scores=scores,
                n_labeled=n,
                lam=float(lam),
                method=f"workspace[{self.backend}]",
                criterion="soft",
                details=details,
                solve_info=info,
            )

    def solve_hard(self, y_labeled):
        """Solve the hard criterion ``(D22 - W22) f_u = W21 y`` once.

        ``D22 - W22`` is λ-independent.  On ``exact`` and ``factored`` the
        first solve factorizes it and every later one is a
        back-substitution; on ``multigrid`` the first solve builds its
        V-cycle and every solve runs cold-started PCG to
        :data:`PCG_TOL`, so repeated solves return the same floats.
        Raises :class:`~repro.exceptions.DisconnectedGraphError` when the
        labeled mask leaves a component unreachable.
        """
        y = self._check_labels(y_labeled)
        n = y.shape[0]
        m = self.n_total - n
        if m == 0:
            return _fit_result(
                scores=y.copy(), n_labeled=n, lam=0.0,
                method=f"workspace[{self.backend}]", criterion="hard",
                details={"m": 0},
            )
        self.check_current()
        self._require_reachable(n)
        with obs.span(
            "repro.workspace.solve", kind="hard", backend=self.backend, n=n, m=m
        ) as span:
            rhs = np.asarray(self.weights[n:, :n] @ y).ravel()
            if self.backend == "multigrid":
                f_unlabeled, info, details = self._multigrid_pcg(
                    "hard", 0.0, n, self.hard_system(n), rhs, self._hard_vcycle(n)
                )
            else:
                factor = self.factorization("hard", 0.0, n)
                f_unlabeled, info, details = factor.solve(rhs), factor.info(), {}
            if span.recording:
                span.set_attribute("solve_method", info.method)
                span.set_attribute("iterations", info.iterations)
            obs.get_registry().counter("workspace.solves").inc()
            return _fit_result(
                scores=np.concatenate([y, f_unlabeled]),
                n_labeled=n,
                lam=0.0,
                method=f"workspace[{self.backend}]",
                criterion="hard",
                details={"m": m, "system_size": m, "backend": self.backend, **details},
                solve_info=info,
            )

    def sweep_soft(self, y_labeled, lambdas) -> list:
        """Solve the soft criterion along a λ grid with continuation.

        Grid points are solved in the given order so warm starts and the
        anchored preconditioner track the continuation path; pass an
        increasing grid for the best amortization.
        """
        grid = tuple(lambdas)
        with obs.span(
            "repro.workspace.sweep",
            backend=self.backend,
            n_points=len(grid),
        ) as span:
            fits = [self.solve_soft(y_labeled, lam) for lam in grid]
            if span.recording:
                from repro.obs.probes import record_workspace_stats

                record_workspace_stats(span, self.stats())
            return fits

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def stats(self) -> WorkspaceStats:
        """A snapshot of the workspace's cache/solver counters."""
        return WorkspaceStats(**self._counters)

    def __repr__(self) -> str:
        kind = "sparse" if sparse.issparse(self.weights) else "dense"
        return (
            f"SolveWorkspace(n_total={self.n_total}, {kind}, "
            f"backend={self.backend!r}, "
            f"cached_factors={len(self._factors)})"
        )
