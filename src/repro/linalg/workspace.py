"""Cross-solve amortization: shared workspaces for λ- and bandwidth-sweeps.

Every λ-curve, CV grid and consistency sweep in this library solves the
same family of systems ``(V + λL) f = (y; 0)`` over one *fixed*
similarity graph, yet the historical hot path reassembled and
refactorized from scratch at every grid point.  :class:`SolveWorkspace`
owns a graph's Laplacian blocks once and amortizes everything that is
shared across the sweep.  Three sweep backends (:data:`SWEEP_BACKENDS`)
remain, each the fastest on some measured grid (docs/SCALING.md):

* **exact** — an LRU cache of true SPD factorizations keyed by
  ``(kind, λ, n_labeled)``; a cache hit returns bit-identical solutions
  to refactorizing, so strict/golden paths can reuse safely.
* **factored** (default) — one *anchor* factorization serves the whole
  λ grid.  When the labeled block is small (``n_labeled ≤ min(512,
  N/4)``) this is *direct*: ``A(λ) = (λ/λ₀)A(λ₀) + (1-λ/λ₀)EEᵀ`` is a
  rank-``n_labeled`` update of the anchor, so Sherman–Morrison–Woodbury
  turns every further grid point into one back-substitution plus an
  ``n_labeled``-sized capacitance solve — no iterations, refined
  against the assembled operator until the relative residual is at
  most ``pcg_tol``.  Otherwise each new λ is solved by preconditioned
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
  diagonal).  This is the backend that scales past the splu fill-in
  wall (N ≈ 10⁴ in d ≥ 3) to N = 10⁶, with an exact-factorization
  fallback if the V-cycle ever stalls.

Accuracy contract of the two approximate backends: every solve stops at
relative residual ``‖b - A f‖ / ‖b‖ ≤ pcg_tol`` (default ``1e-10``).
That bounds the residual, not the score error, which the conditioning
of ``V + λL`` can amplify: multigrid scores were measured within 3e-8 of
``exact`` at N=2·10⁴ (d=3) and 8.6e-9 at N=4·10³ (d=2); the parity suite
checks every backend against per-point direct solves at ``atol=1e-8``
on its small graphs.

Iterative backends (``"cg"``, ``"jacobi"``, ``"gauss_seidel"``) are also
supported and warm-started from the previous solution in the sweep, with
the iterations saved relative to the sweep's cold first solve reported in
:class:`~repro.linalg.solvers.SolveInfo`.

A workspace fingerprints its weight matrix at construction and re-checks
the fingerprint before serving any cached artifact: mutating the graph
after caching raises :class:`~repro.exceptions.WorkspaceInvalidatedError`
(or, with ``on_mutation="recompute"``, drops every cache and rebuilds).
A stale factorization is never served.

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
from repro.linalg.advanced import preconditioned_conjugate_gradient
from repro.linalg.coarsen import (
    CoarseningHierarchy,
    MultigridPreconditioner,
    build_hierarchy,
)
from repro.linalg.solvers import SolveInfo, SPDFactorization, factorize_spd, solve_spd
from repro.utils.validation import (
    check_labels,
    check_positive_scalar,
    check_weight_matrix,
)

__all__ = [
    "SolveWorkspace",
    "WorkspaceStats",
    "SWEEP_BACKENDS",
    "SWEEP_BACKEND_CHOICES",
    "check_sweep_backend",
]

#: Sweep backends a workspace can solve through.
SWEEP_BACKENDS = ("exact", "factored", "multigrid")

#: What every ``sweep_backend=`` parameter and ``--sweep-backend`` flag
#: accepts: ``"direct"`` means "no workspace" (per-point solves through
#: :mod:`repro.core`, the bit-identical reference path) and is handled by
#: the callers; the rest select a workspace backend.
SWEEP_BACKEND_CHOICES = ("direct",) + SWEEP_BACKENDS

_ITERATIVE_BACKENDS = ("cg", "jacobi", "gauss_seidel")

#: Dense matrices up to this many elements get a full-content fingerprint;
#: larger ones fall back to a strided sample plus the matrix sum (still
#: deterministic, but detection of a single-entry mutation becomes
#: probabilistic — documented in docs/SCALING.md).
FULL_FINGERPRINT_MAX_ELEMENTS = 1_000_000

#: Default :meth:`SolveWorkspace.eigenbasis` size for sparse graphs
#: (dense graphs default to the full basis).
DEFAULT_SPARSE_COMPONENTS = 256

#: The factored backend switches from anchored PCG to the rank-n_labeled
#: Woodbury continuation when the labeled block is small enough that the
#: capacitance solve (O(n_labeled^3) per λ) and the ``N x n_labeled``
#: basis stay cheap: n_labeled at most this cap AND at most N/4.
WOODBURY_MAX_LABELED = 512

#: V-cycle-preconditioned PCG budget per grid point.  A healthy V-cycle
#: converges in tens of iterations even at λ = 10²; exceeding this
#: budget falls back to an exact factorization (counted as a reanchor).
MULTIGRID_MAX_ITER = 300

#: The multigrid hierarchy coarsens until a level is at most this large
#: (but never below 512 vertices) — small enough that the coarsest
#: factorization is trivial, large enough that the coarse grid still
#: resolves the graph's cluster structure.
MULTIGRID_COARSE_DIVISOR = 64


def check_sweep_backend(sweep_backend: str) -> str:
    """Validate a ``sweep_backend`` name against :data:`SWEEP_BACKEND_CHOICES`."""
    if sweep_backend not in SWEEP_BACKEND_CHOICES:
        raise ConfigurationError(
            f"sweep_backend must be one of {SWEEP_BACKEND_CHOICES}, "
            f"got {sweep_backend!r}"
        )
    return sweep_backend


class WorkspaceStats(NamedTuple):
    """Cache and solver health counters for one :class:`SolveWorkspace`.

    Attributes
    ----------
    factor_hits / factor_misses / factor_evictions:
        Factorization-cache traffic: hits serve a previously computed
        factorization, misses factorize, evictions drop the least
        recently used entry when the cache is full.
    spectral_builds:
        :meth:`SolveWorkspace.eigenbasis` decompositions computed (at
        most one per basis size).
    pcg_solves / pcg_iterations:
        Anchored-PCG solves on the factored path and their total
        iteration count.
    reanchors:
        Times the factored path refactorized because the iteration
        budget was exceeded (each also counts as a factor miss).
    warm_starts:
        Solves that started from a previous solution.
    iterations_saved:
        Total iterations saved by warm-started iterative backends
        relative to each sweep's cold first solve.
    woodbury_solves:
        Direct low-rank continuation solves on the factored path (each
        λ after the anchor costs one capacitance solve, no iterations).
    coarsen_builds:
        Coarsening hierarchies built (at most one per workspace until
        invalidation).
    multigrid_solves:
        V-cycle-preconditioned PCG solves on the multigrid path (their
        iteration counts accumulate into ``pcg_iterations``).
    hierarchy_mode:
        The multigrid hierarchy representation.  Always ``"assembled"``:
        per-level Galerkin CSR matrices are the only representation.
        The field stays because existing readers of :meth:`stats`
        report it.
    """

    factor_hits: int = 0
    factor_misses: int = 0
    factor_evictions: int = 0
    spectral_builds: int = 0
    pcg_solves: int = 0
    pcg_iterations: int = 0
    reanchors: int = 0
    warm_starts: int = 0
    iterations_saved: int = 0
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

    __slots__ = ("anchor", "anchor_lam", "last_solution", "cold_iterations")

    def __init__(self):
        self.anchor: SPDFactorization | None = None
        self.anchor_lam: float | None = None
        self.last_solution: np.ndarray | None = None
        self.cold_iterations: int | None = None


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
        grid point.
    backend:
        Default solve backend, one of :data:`SWEEP_BACKENDS`:
        ``"factored"`` (anchored PCG continuation), ``"exact"`` (cached
        true factorizations, bit-compatible with direct solves), or
        ``"multigrid"`` (coarsening V-cycle preconditioned PCG — no
        large factorization, the large-N backend).
    max_factorizations:
        LRU capacity of the factorization cache.
    pcg_tol / reanchor_budget:
        Factored and multigrid paths: the relative-residual tolerance
        every solve stops at, and (factored) the iteration budget after
        which the workspace refactorizes at the current λ and
        re-anchors.
    n_components:
        Default :meth:`eigenbasis` size; ``None`` means the full basis
        for dense graphs and :data:`DEFAULT_SPARSE_COMPONENTS` for
        sparse graphs.
    on_mutation:
        ``"raise"`` (default): serving from a workspace whose weights
        changed raises :class:`WorkspaceInvalidatedError`.
        ``"recompute"``: drop all caches and re-fingerprint instead.
    """

    def __init__(
        self,
        weights,
        *,
        backend: str = "factored",
        max_factorizations: int = 8,
        pcg_tol: float = 1e-10,
        reanchor_budget: int = 15,
        n_components: int | None = None,
        on_mutation: str = "raise",
    ):
        from repro.graph.similarity import SimilarityGraph

        if isinstance(weights, SimilarityGraph):
            weights = weights.weights
        if backend not in SWEEP_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {SWEEP_BACKENDS}, got {backend!r}"
            )
        if on_mutation not in ("raise", "recompute"):
            raise ConfigurationError(
                f"on_mutation must be 'raise' or 'recompute', got {on_mutation!r}"
            )
        if max_factorizations < 1:
            raise ConfigurationError(
                f"max_factorizations must be >= 1, got {max_factorizations}"
            )
        if reanchor_budget < 1:
            raise ConfigurationError(
                f"reanchor_budget must be >= 1, got {reanchor_budget}"
            )
        self.weights = check_weight_matrix(weights)
        self.n_total = int(self.weights.shape[0])
        self.backend = backend
        self.max_factorizations = int(max_factorizations)
        self.pcg_tol = float(check_positive_scalar(pcg_tol, "pcg_tol"))
        self.reanchor_budget = int(reanchor_budget)
        self.n_components = n_components
        self.on_mutation = on_mutation

        self._is_sparse = sparse.issparse(self.weights)
        self._fingerprint = _fingerprint(self.weights)
        self._degrees: np.ndarray | None = None
        self._laplacian = None
        self._factors: OrderedDict[tuple, SPDFactorization] = OrderedDict()
        self._eigencache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._continuations: dict[tuple, _Continuation] = {}
        self._woodbury: dict[int, _WoodburyState] = {}
        self._hierarchy: CoarseningHierarchy | None = None
        self._coarse_masks: dict[int, list[np.ndarray]] = {}
        self._counters = {
            field: 0 for field in WorkspaceStats._fields if field != "hierarchy_mode"
        }

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def check_current(self) -> None:
        """Verify the weights still match the construction-time fingerprint.

        Called before any cached artifact is served.  On mismatch,
        either raises :class:`WorkspaceInvalidatedError` or (with
        ``on_mutation="recompute"``) drops every cache and adopts the
        mutated weights as the new ground truth.
        """
        if _fingerprint(self.weights) == self._fingerprint:
            return
        if self.on_mutation == "recompute":
            self.invalidate()
            return
        raise WorkspaceInvalidatedError(
            "the workspace's weight matrix was mutated after caching; "
            "rebuild the workspace (or construct it with "
            "on_mutation='recompute') instead of reusing stale factorizations"
        )

    def invalidate(self) -> None:
        """Drop every cached artifact and re-fingerprint the weights."""
        self._fingerprint = _fingerprint(self.weights)
        self._degrees = None
        self._laplacian = None
        self._factors.clear()
        self._eigencache.clear()
        self._continuations.clear()
        self._woodbury.clear()
        self._hierarchy = None
        self._coarse_masks.clear()

    # ------------------------------------------------------------------
    # Shared assembly
    # ------------------------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            if self._is_sparse:
                self._degrees = np.asarray(self.weights.sum(axis=1)).ravel()
            else:
                self._degrees = self.weights.sum(axis=1)
        return self._degrees

    @property
    def laplacian(self):
        """The unnormalized Laplacian ``L = D - W``, assembled once."""
        if self._laplacian is None:
            if self._is_sparse:
                self._laplacian = (
                    sparse.diags(self.degrees, format="csr") - self.weights.tocsr()
                )
            else:
                self._laplacian = np.diag(self.degrees) - self.weights
        return self._laplacian

    def soft_system(self, lam: float, n: int):
        """Assemble ``V + λL`` exactly as the direct path does (bit-compatible)."""
        if self._is_sparse:
            indicator = np.zeros(self.n_total)
            indicator[:n] = 1.0
            return (
                lam * self.laplacian + sparse.diags(indicator, format="csr")
            ).tocsr()
        system = lam * self.laplacian
        system[np.arange(n), np.arange(n)] += 1.0
        return system

    def hard_system(self, n: int):
        """The grounded system ``D22 - W22`` (assembled as the direct path does)."""
        if self._is_sparse:
            w22 = self.weights[n:, n:]
            return sparse.diags(self.degrees[n:], format="csr") - w22
        w22 = self.weights[n:, n:]
        return np.diag(self.degrees[n:]) - w22

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
        while len(self._factors) > self.max_factorizations:
            self._factors.popitem(last=False)
            self._counters["factor_evictions"] += 1
            registry.counter("workspace.factor.evictions").inc()
        return factor

    # ------------------------------------------------------------------
    # Laplacian eigenbasis (serving's Nyström extension reads it)
    # ------------------------------------------------------------------

    def _resolve_components(self, n_components: int | None) -> int:
        k = n_components if n_components is not None else self.n_components
        if k is None:
            k = (
                min(DEFAULT_SPARSE_COMPONENTS, self.n_total - 1)
                if self._is_sparse
                else self.n_total
            )
        k = int(k)
        if not 1 <= k <= self.n_total:
            raise ConfigurationError(
                f"n_components must be in [1, {self.n_total}], got {k}"
            )
        if self._is_sparse and k >= self.n_total:
            raise ConfigurationError(
                "a full eigenbasis of a sparse graph requires densification; "
                f"request n_components < {self.n_total} or pass a dense graph"
            )
        return k

    def eigenbasis(self, n_components: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``(eigenvalues, eigenvectors)`` of ``L``, smoothest first (cached).

        Dense graphs use a full ``eigh`` truncated to the requested size;
        sparse graphs use shift-inverted Lanczos (``eigsh``) for the
        ``k`` smallest eigenpairs without densifying.
        """
        self.check_current()
        k = self._resolve_components(n_components)
        cached = self._eigencache.get(k)
        if cached is not None:
            return cached
        with obs.span(
            "repro.workspace.eigenbasis", n_components=k, n_total=self.n_total
        ):
            if self._is_sparse:
                from scipy.sparse.linalg import eigsh

                values, vectors = eigsh(
                    self.laplacian.tocsc(), k=k, sigma=-1e-5, which="LM"
                )
                order = np.argsort(values)
                values, vectors = values[order], vectors[:, order]
            else:
                values, vectors = np.linalg.eigh(self.laplacian)
                values, vectors = values[:k], vectors[:, :k]
        self._counters["spectral_builds"] += 1
        obs.get_registry().counter("workspace.spectral.builds").inc()
        self._eigencache[k] = (values, vectors)
        return values, vectors

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
        tol = self.pcg_tol * max(rhs_norm, 1.0)
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
                tol=self.pcg_tol,
                max_iter=self.reanchor_budget,
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
            final_residual=result.final_residual,
            converged=result.converged,
            warm_started=warm,
        )
        return result.x, info, {"anchor_lam": state.anchor_lam}

    # ------------------------------------------------------------------
    # Multigrid (coarsening V-cycle preconditioned PCG)
    # ------------------------------------------------------------------

    def hierarchy(self) -> CoarseningHierarchy:
        """The graph's coarsening hierarchy, built once per workspace.

        λ- and mask-independent: the Galerkin coarse operator of a graph
        Laplacian is the Laplacian of the coarsened graph, so the
        hierarchy caches what one λ-sweep shares across its grid.
        """
        self.check_current()
        if self._hierarchy is None:
            min_coarse = max(512, self.n_total // MULTIGRID_COARSE_DIVISOR)
            self._hierarchy = build_hierarchy(
                self.weights, min_coarse_size=min_coarse
            )
            self._counters["coarsen_builds"] += 1
            obs.get_registry().counter("workspace.coarsen.builds").inc()
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

    def _multigrid_preconditioner(self, lam: float, n: int):
        hierarchy = self.hierarchy()
        systems = [self.soft_system(lam, n)]
        for level, mask in zip(hierarchy.levels, self._coarse_mask_diagonals(n)):
            systems.append(
                (lam * level.laplacian + sparse.diags(mask, format="csr")).tocsr()
            )
        prolongations = [level.prolongation for level in hierarchy.levels]
        return MultigridPreconditioner(systems, prolongations)

    def _solve_multigrid(self, y: np.ndarray, lam: float, n: int):
        state = self._continuation("soft", n)
        system = self.soft_system(lam, n)
        rhs = self._rhs_soft(y)
        registry = obs.get_registry()
        preconditioner = self._multigrid_preconditioner(lam, n)
        x0 = state.last_solution
        warm = x0 is not None
        try:
            result = preconditioned_conjugate_gradient(
                system,
                rhs,
                preconditioner=preconditioner,
                x0=x0,
                tol=self.pcg_tol,
                max_iter=MULTIGRID_MAX_ITER,
            )
        except ConvergenceError:
            # A stalled V-cycle (pathological graph) falls back to an
            # exact factorization at this λ, like a factored re-anchor.
            self._counters["reanchors"] += 1
            registry.counter("workspace.reanchors").inc()
            factor = self.factorization("soft", lam, n)
            return factor.solve(rhs), factor.info(), {"fallback": "exact"}
        self._counters["multigrid_solves"] += 1
        self._counters["pcg_iterations"] += result.iterations
        registry.counter("workspace.multigrid_solves").inc()
        if warm:
            self._counters["warm_starts"] += 1
            registry.counter("workspace.warm_starts").inc()
        registry.log_histogram("workspace.pcg.iterations").observe(result.iterations)
        info = SolveInfo(
            method="multigrid_pcg",
            size=self.n_total,
            iterations=result.iterations,
            final_residual=result.final_residual,
            converged=result.converged,
            warm_started=warm,
        )
        return result.x, info, {"n_levels": preconditioner.n_levels}

    # ------------------------------------------------------------------
    # Warm-started classic iterative backends
    # ------------------------------------------------------------------

    def _solve_iterative(self, y: np.ndarray, lam: float, n: int, method: str):
        state = self._continuation("soft", n)
        system = self.soft_system(lam, n)
        rhs = self._rhs_soft(y)
        x0 = state.last_solution
        scores, info = solve_spd(
            system, rhs, method=method, x0=x0, return_info=True
        )
        if x0 is not None:
            self._counters["warm_starts"] += 1
            obs.get_registry().counter("workspace.warm_starts").inc()
            if state.cold_iterations is not None:
                saved = max(0, state.cold_iterations - info.iterations)
                self._counters["iterations_saved"] += saved
                info = info._replace(iterations_saved=saved)
        else:
            state.cold_iterations = info.iterations
        return scores, info, {}

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

    def _resolve_backend(self, backend: str | None) -> str:
        resolved = backend or self.backend
        if resolved not in SWEEP_BACKENDS + _ITERATIVE_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {SWEEP_BACKENDS + _ITERATIVE_BACKENDS}, "
                f"got {resolved!r}"
            )
        return resolved

    def solve_soft(self, y_labeled, lam: float, *, backend: str | None = None):
        """Solve the soft criterion at one λ through the workspace.

        ``lam = 0`` delegates to :meth:`solve_hard` (Proposition II.1),
        exactly as the direct path does.  Returns a
        :class:`~repro.core.result.FitResult`.
        """
        y = self._check_labels(y_labeled)
        lam = check_positive_scalar(lam, "lam", allow_zero=True)
        resolved = self._resolve_backend(backend)
        n = y.shape[0]
        m = self.n_total - n
        if lam == 0.0:
            hard = self.solve_hard(y)
            return _fit_result(
                scores=hard.scores,
                n_labeled=n,
                lam=0.0,
                method=f"workspace[{resolved}]->hard",
                criterion="soft",
                details=dict(hard.details),
                solve_info=hard.solve_info,
            )
        self.check_current()
        with obs.span(
            "repro.workspace.solve",
            kind="soft",
            backend=resolved,
            lam=float(lam),
            n=n,
            m=m,
        ) as span:
            if resolved == "exact":
                factor = self.factorization("soft", lam, n)
                scores = factor.solve(self._rhs_soft(y))
                info, details = factor.info(), {}
            elif resolved == "factored":
                scores, info, details = self._solve_factored(y, lam, n)
            elif resolved == "multigrid":
                scores, info, details = self._solve_multigrid(y, lam, n)
            else:
                scores, info, details = self._solve_iterative(y, lam, n, resolved)
            self._continuation("soft", n).last_solution = scores
            if span.recording:
                span.set_attribute("solve_method", info.method)
                span.set_attribute("iterations", info.iterations)
            registry = obs.get_registry()
            registry.counter("workspace.solves").inc()
            details = {
                "system_size": self.n_total,
                "backend": resolved,
                **details,
            }
            return _fit_result(
                scores=scores,
                n_labeled=n,
                lam=float(lam),
                method=f"workspace[{resolved}]",
                criterion="soft",
                details=details,
                solve_info=info,
            )

    def solve_hard(self, y_labeled):
        """Solve the hard criterion through the cached grounded factorization.

        The grounded system is λ-independent, so the first solve
        factorizes and every later one is a back-substitution.  The
        factored/multigrid backends route here too: the factorization is
        already amortized across the sweep.
        """
        y = self._check_labels(y_labeled)
        n = y.shape[0]
        m = self.n_total - n
        if m == 0:
            return _fit_result(
                scores=y.copy(), n_labeled=n, lam=0.0,
                method="workspace[exact]", criterion="hard", details={"m": 0},
            )
        self.check_current()
        with obs.span(
            "repro.workspace.solve", kind="hard", backend="exact", n=n, m=m
        ):
            factor = self.factorization("hard", 0.0, n)
            if self._is_sparse:
                rhs = np.asarray(self.weights[n:, :n] @ y).ravel()
            else:
                rhs = self.weights[n:, :n] @ y
            f_unlabeled = factor.solve(rhs)
            obs.get_registry().counter("workspace.solves").inc()
            return _fit_result(
                scores=np.concatenate([y, f_unlabeled]),
                n_labeled=n,
                lam=0.0,
                method="workspace[exact]",
                criterion="hard",
                details={"m": m, "system_size": m},
                solve_info=factor.info(),
            )

    def sweep_soft(
        self, y_labeled, lambdas, *, backend: str | None = None
    ) -> list:
        """Solve the soft criterion along a λ grid with continuation.

        Grid points are solved in the given order so warm starts and the
        anchored preconditioner track the continuation path; pass an
        increasing grid for the best amortization.
        """
        grid = tuple(lambdas)
        with obs.span(
            "repro.workspace.sweep",
            backend=self._resolve_backend(backend),
            n_points=len(grid),
        ) as span:
            fits = [
                self.solve_soft(y_labeled, lam, backend=backend)
                for lam in grid
            ]
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
        kind = "sparse" if self._is_sparse else "dense"
        return (
            f"SolveWorkspace(n_total={self.n_total}, {kind}, "
            f"backend={self.backend!r}, "
            f"cached_factors={len(self._factors)})"
        )
