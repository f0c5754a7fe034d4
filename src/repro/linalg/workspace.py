"""Cross-solve amortization: shared workspaces for λ- and bandwidth-sweeps.

Every λ-curve, CV grid and consistency sweep in this library solves the
same family of systems ``(V + λL) f = (y; 0)`` over one *fixed*
similarity graph, where a per-point solve through :mod:`repro.core`
reassembles and refactorizes at every grid point.  :class:`SolveWorkspace`
owns a graph's Laplacian blocks once and amortizes everything that is
shared across the sweep.  It is the only way a λ-sweep is solved; its
one knob is the backend, one of :data:`SWEEP_BACKENDS`, each the fastest
on some measured grid (docs/SCALING.md):

* **exact** — true SPD factorizations: a solve factorizes its
  ``(λ, n_labeled)`` system and back-substitutes, and an operator the
  workspace keeps holds its factorization, so a repeated solve there is
  one back-substitution, bit-identical to refactorizing.
  Its systems have the bits of :func:`~repro.graph.laplacian.soft_system`
  and :func:`~repro.graph.laplacian.grounded_system`, the assembly the
  per-point reference solves in :mod:`repro.core` use, so on sparse
  graphs (and dense ``method="full"`` / hard solves) its scores equal
  theirs bit for bit.  A one-off solve such as a model fit costs one
  factorization and one back-substitution.
* **multigrid** — no large factorization at any point: a λ-independent
  graph-coarsening hierarchy (:mod:`repro.linalg.coarsen`, heavy-edge
  matching) is built once per workspace, and each λ is solved by
  preconditioned CG
  (:func:`~repro.linalg.iterative.preconditioned_conjugate_gradient`,
  the library's one CG loop), warm-started from the previous grid
  point's solution and preconditioned with a damped-Jacobi V-cycle whose
  level systems ``diag(v_l) + λ L_l`` re-assemble in O(nnz) per grid
  point (the Galerkin coarse operator of a graph Laplacian is the
  Laplacian of the coarsened graph, and aggregation keeps ``V``
  diagonal).  The hard criterion's ``D22 - W22 = L(W22) + diag(W21·1)``
  has the same form: its V-cycle coarsens the unlabeled subgraph ``W22``
  with the same hierarchy builder and assembles each level as ``L_l +
  diag(Pᵀ…Pᵀ W21·1)`` through the same constructor
  (:class:`~repro.linalg.coarsen.MultigridPreconditioner`), once per
  ``n_labeled``, and each hard solve runs cold-started PCG on it.  This
  is the backend that scales past the splu fill-in wall
  (N ≈ 10⁴ in d ≥ 3) to N = 10⁶, with an exact-factorization fallback
  if the V-cycle ever stalls.

A workspace built without ``backend=`` picks its own through
:func:`choose_backend`: ``multigrid`` for a sparse graph above
:data:`FACTORIZE_MAX_VERTICES` vertices, ``exact`` otherwise.  Every
sweep, CV fold and model fit in the library takes that choice;
``backend=`` pins one.

One operator per ``(λ, n_labeled)``, λ = 0 being the hard criterion
(Proposition II.1 makes it the λ → 0 end of the soft one):
:meth:`SolveWorkspace.operator` returns a :class:`CriterionOperator` —
the assembled system (``D22 - W22`` or ``V + λL``), its right-hand side
(``W21 y`` or ``(y; 0)``) and its own ``r ↦ M⁻¹r`` (its factorization
on ``exact``, its V-cycle on ``multigrid``) — so callers
that solve a perturbed system (exact serving's bordered insertion) never
branch on the criterion or the backend.  Kept operators are the
workspace's one per-``(λ, n_labeled)`` store.  The hard operator is
built once per ``n_labeled``, from one slice each of ``W22`` and ``W21``,
and kept; a soft one is kept only once :meth:`SolveWorkspace.operator`
has asked for it.  A kept operator's factorization is made by the first
solve or ``operator`` call that needs it (``hard_system`` and
``soft_system`` never factorize).  Any other solve builds its system and
factorization or V-cycle for itself alone, so a λ-sweep holds one soft
system at a time.

Accuracy contract of the approximate backend: every ``multigrid`` solve
stops at relative residual ``‖b - A f‖ / ‖b‖ ≤`` :data:`PCG_TOL`
(``1e-10``), and its :class:`~repro.linalg.solvers.SolveInfo` reports
the true residual ``‖b - A f‖``, recomputed with one matvec after PCG
returns.
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
the fingerprint once at the start of every public call that serves a
cached artifact; the helpers such a call runs read the caches without
checking again.  Mutating the graph after caching therefore raises
:class:`~repro.exceptions.WorkspaceInvalidatedError` at the next call.
The workspace keeps the caller's matrix, not a copy, whenever validation
returns it unchanged (a float64 ndarray or canonical float64 CSR), so an
edit made through the caller's handle raises too.
:meth:`SolveWorkspace.invalidate` adopts edited weights explicitly.  A
stale factorization is never served.

Threads: every public solve (:meth:`SolveWorkspace.solve_soft`,
:meth:`~SolveWorkspace.solve_hard`, :meth:`~SolveWorkspace.sweep_soft`)
runs with numpy's and SciPy's OpenBLAS pools at one thread
(:func:`~repro.linalg.threads.one_blas_thread`), so the PCG dot
products wake no BLAS thread to compete for the cores.  Each soft system
is written into the Laplacian's own pattern
(:class:`~repro.linalg.coarsen.SystemPattern`), and the products of the
fine PCG, its initial and true residuals and every V-cycle level with
at least :data:`~repro.linalg.threads.BLOCKED_MIN_NNZ` stored entries
are row-blocked over the host's CPUs, with the bits of the plain
product, so scores do not depend on the CPU count.

Everything is observable: ``workspace.*`` spans and counters (solves,
factorizations, fallbacks, …) flow through :mod:`repro.obs`, and
:meth:`SolveWorkspace.stats` returns a :class:`WorkspaceStats` snapshot.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
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
    _numbered_by_smallest_vertex,
    raise_if_unreachable,
    reachability_report,
    validated_components,
)
from repro.graph.laplacian import _grounded_laplacian, _row_sums, _unchecked_laplacian
from repro.linalg.coarsen import (
    CoarseningHierarchy,
    MultigridPreconditioner,
    SystemPattern,
    build_hierarchy,
)
from repro.linalg.iterative import preconditioned_conjugate_gradient
from repro.linalg.solvers import (
    SolveInfo,
    SPDFactorization,
    factorize_spd,
)
from repro.linalg.threads import one_blas_thread
from repro.utils.validation import (
    check_labels,
    check_positive_scalar,
    check_weight_matrix,
)

__all__ = [
    "SolveWorkspace",
    "CriterionOperator",
    "WorkspaceStats",
    "SWEEP_BACKENDS",
    "FACTORIZE_MAX_VERTICES",
    "choose_backend",
]

#: Sweep backends a workspace can solve through (its ``backend=``).
SWEEP_BACKENDS = ("exact", "multigrid")

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

#: V-cycle-preconditioned PCG budget per grid point.  A healthy V-cycle
#: converges in tens of iterations even at λ = 10²; exceeding this
#: budget falls back to an exact factorization (counted as a fallback).
MULTIGRID_MAX_ITER = 300

#: Relative-residual tolerance every multigrid solve stops at.
PCG_TOL = 1e-10


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
    """Solver health counters for one :class:`SolveWorkspace`.

    Attributes
    ----------
    factorizations:
        SPD factorizations made, each traced as a
        ``repro.workspace.factorize`` span.
    pcg_iterations:
        The total PCG iteration count of the multigrid path.
    fallbacks:
        Times a stalled V-cycle fell back to a factorization (the
        solve's ``details["fallback"]``).
    warm_starts:
        Solves that started from a previous solution.
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
        each level's coarse Laplacian is an assembled CSR matrix, kept
        with the level's aggregate map.
        The field stays because existing readers of :meth:`stats`
        report it.
    """

    factorizations: int = 0
    pcg_iterations: int = 0
    fallbacks: int = 0
    warm_starts: int = 0
    coarsen_builds: int = 0
    multigrid_solves: int = 0
    hierarchy_mode: str = "assembled"


def _fingerprint(weights):
    """A cheap, deterministic content fingerprint of a weight matrix.

    Sparse matrices hash their full data/indices arrays (O(nnz)); dense
    matrices hash full content up to
    :data:`FULL_FINGERPRINT_MAX_ELEMENTS` elements and a strided sample
    plus the matrix sum beyond it.  ``zlib.crc32`` reads a contiguous
    array's buffer in place, so no array is copied to bytes first.
    """
    if sparse.issparse(weights):
        mat = weights
        return (
            "sparse",
            mat.shape,
            int(mat.nnz),
            zlib.crc32(np.ascontiguousarray(mat.data)),
            zlib.crc32(np.ascontiguousarray(mat.indices)),
        )
    arr = np.ascontiguousarray(weights)
    if arr.size <= FULL_FINGERPRINT_MAX_ELEMENTS:
        return ("dense", arr.shape, zlib.crc32(arr))
    flat = arr.reshape(-1)
    idx = np.linspace(0, flat.size - 1, 4096).astype(np.intp)
    return (
        "dense-sampled",
        arr.shape,
        zlib.crc32(flat[idx]),
        float(flat.sum()),
    )


def _fit_result(**kwargs):
    """Construct a FitResult lazily (avoids a linalg <-> core import cycle)."""
    from repro.core.result import FitResult

    return FitResult(**kwargs)


def _soft_rhs(y: np.ndarray, size: int) -> np.ndarray:
    """The soft criterion's right-hand side ``(y; 0)`` of length ``size``."""
    rhs = np.zeros(size)
    rhs[: y.shape[0]] = y
    return rhs


class CriterionOperator(NamedTuple):
    """One criterion's operator on a workspace, for one labeled count.

    :meth:`SolveWorkspace.operator` returns it; λ = 0 is the hard
    criterion (Eq. 5), λ > 0 the soft one (Eq. 3).

    Attributes
    ----------
    system:
        The assembled system: ``D22 - W22`` (``m × m``) at λ = 0,
        ``V + λL`` (``N × N``) at λ > 0.
    precondition:
        The operator's own ``r ↦ M⁻¹r`` for ``system``: its
        :class:`~repro.linalg.solvers.SPDFactorization` on ``exact``
        (``M = A``), its V-cycle on ``multigrid``.  Either is symmetric
        positive definite, so it preconditions CG on ``system`` or on an
        SPD perturbation of it.  ``None`` when every vertex is labeled
        (λ = 0, ``m = 0``): there is nothing to solve.
    coupling:
        ``W21`` at λ = 0, which :meth:`rhs` multiplies; ``None`` at λ > 0.
    """

    system: object
    precondition: object
    coupling: object

    def rhs(self, y: np.ndarray) -> np.ndarray:
        """The right-hand side for labels ``y``: ``W21 y`` or ``(y; 0)``."""
        if self.coupling is None:
            return _soft_rhs(y, self.system.shape[0])
        return np.asarray(self.coupling @ y).ravel()


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
        (true factorizations, bit-compatible with per-point solves) or
        ``"multigrid"`` (coarsening V-cycle preconditioned PCG — no
        large factorization, the large-N backend).  Left out,
        :func:`choose_backend` picks one from the validated graph.
    """

    def __init__(self, weights, *, backend: str | None = None):
        from repro.graph.similarity import SimilarityGraph

        if isinstance(weights, SimilarityGraph):
            weights = weights.weights
        if backend is not None and backend not in SWEEP_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {SWEEP_BACKENDS}, got {backend!r}"
            )
        self._counters = {
            field: 0 for field in WorkspaceStats._fields if field != "hierarchy_mode"
        }
        self._adopt(check_weight_matrix(weights))
        self.backend = choose_backend(self.weights) if backend is None else backend

    def _adopt(self, weights, components=None) -> None:
        """Take validated ``weights`` as the graph, with no cached artifact.

        Fingerprints them, and computes their components unless
        ``components`` already gives them.
        """
        self.weights = weights
        self.n_total = int(weights.shape[0])
        self._fingerprint = _fingerprint(weights)
        self._components = (
            validated_components(weights) if components is None else components
        )
        self._reachability: dict[int, ReachabilityReport] = {}
        self._degrees: np.ndarray | None = None
        self._laplacian = None
        self._pattern: SystemPattern | None = None
        self._last_solutions: dict[int, np.ndarray] = {}  # warm starts, per n
        self._hierarchy: CoarseningHierarchy | None = None
        self._coarse_masks: dict[int, list[np.ndarray]] = {}
        self._operators: dict[tuple[float, int], CriterionOperator] = {}

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
        self._adopt(self.weights)

    # ------------------------------------------------------------------
    # Shared assembly
    # ------------------------------------------------------------------

    @property
    def degrees(self) -> np.ndarray:
        """Row sums of the weights, self-weights included (computed once)."""
        self.check_current()
        return self._degree_vector()

    def _degree_vector(self) -> np.ndarray:
        if self._degrees is None:
            self._degrees = _row_sums(self.weights)
        return self._degrees

    @property
    def laplacian(self):
        """The unnormalized Laplacian ``L = D - W``, assembled once."""
        self.check_current()
        return self._laplacian_matrix()

    def _laplacian_matrix(self):
        if self._laplacian is None:
            self._laplacian = _unchecked_laplacian(self.weights, self._degree_vector())
        return self._laplacian

    def _laplacian_pattern(self) -> SystemPattern:
        """The Laplacian's :class:`~repro.linalg.coarsen.SystemPattern`,
        which every soft system of every λ and ``n`` is written into."""
        if self._pattern is None:
            self._pattern = SystemPattern(self._laplacian_matrix())
        return self._pattern

    def _assemble_soft(self, lam: float, n: int):
        """``V + λL`` written into the Laplacian's pattern, with the bits
        of :func:`~repro.graph.laplacian.soft_system`."""
        indicator = np.zeros(self.n_total)
        indicator[:n] = 1.0
        return self._laplacian_pattern().system(lam, indicator)

    def soft_system(self, lam: float, n: int):
        """``V + λL`` (λ > 0), assembled as the per-point solve does
        (bit-compatible): the kept operator's system once
        :meth:`operator` has been asked for ``(λ, n)``, else assembled
        afresh and not kept.  Never factorizes.  Raises
        :class:`~repro.exceptions.DisconnectedGraphError` when the
        labeled mask leaves a component unreachable."""
        lam = check_positive_scalar(lam, "lam")
        n = self._check_count(n)
        self.check_current()
        self._require_reachable(n)
        kept = self._operators.get((lam, n))
        return kept.system if kept is not None else self._assemble_soft(lam, n)

    def hard_system(self, n: int):
        """The grounded system ``D22 - W22``, assembled as the per-point
        solve does, once per ``n``: the hard operator's system, which
        every hard solve, factorization, V-cycle and exact insertion on
        this workspace uses.  Never factorizes.  Raises
        :class:`~repro.exceptions.DisconnectedGraphError` when the
        labeled mask leaves a component unreachable."""
        n = self._check_count(n)
        self.check_current()
        self._require_reachable(n)
        return self._kept_operator(0.0, n).system

    def operator(self, lam: float, n: int) -> CriterionOperator:
        """The ``(λ, n)`` criterion's :class:`CriterionOperator`, kept.

        λ = 0 is the hard criterion ``D22 - W22``, λ > 0 the soft ``V +
        λL``.  The operator is built once and kept until
        :meth:`invalidate`: later solves at ``(λ, n)`` and later calls
        read it instead of assembling again.  Its ``precondition`` is
        its own factorization on ``exact`` (``M = A``) and its own
        V-cycle on ``multigrid``.  Raises
        :class:`~repro.exceptions.DataValidationError` unless ``n`` is an
        integer in ``[0, N]``, and
        :class:`~repro.exceptions.DisconnectedGraphError` when the
        labeled mask leaves a component unreachable, before building
        anything.
        """
        lam = check_positive_scalar(lam, "lam", allow_zero=True)
        n = self._check_count(n)
        self.check_current()
        self._require_reachable(n)
        return self._operator(lam, n, keep=True)

    def _kept_operator(self, lam: float, n: int) -> CriterionOperator:
        """The kept ``(λ, n)`` operator, built on first use."""
        key = (lam, n)
        kept = self._operators.get(key)
        if kept is None:
            kept = self._operators[key] = self._build_operator(lam, n)
        return kept

    def _operator(self, lam: float, n: int, *, keep: bool) -> CriterionOperator:
        """The ``(λ, n)`` operator with its ``precondition``.

        A kept operator is read, and on ``exact`` its factorization is
        made once and kept with it.  Otherwise the operator is built, and
        kept only when ``keep``; else it and its factorization live as
        long as the caller holds them.
        """
        keep = keep or (lam, n) in self._operators
        operator = self._kept_operator(lam, n) if keep else self._build_operator(lam, n)
        if operator.precondition is None and operator.system.shape[0]:  # exact
            operator = operator._replace(precondition=self._factorize(operator.system, lam, n))
            if keep:
                self._operators[(lam, n)] = operator
        return operator

    def _build_operator(self, lam: float, n: int) -> CriterionOperator:
        """Assemble the ``(λ, n)`` system and, on ``multigrid``, its V-cycle.

        At λ = 0, ``W22`` and ``W21`` are sliced once each.  ``D22 - W22``
        is assembled from the ``W22`` slice, which then feeds the hard
        hierarchy and is dropped before ``W21`` is sliced, so the
        hierarchy build, where the first hard solve peaks, holds no more
        than it did with a slice of its own.  ``W21`` stays for the
        right-hand side; its row sums ground every level of ``D22 - W22
        = L(W22) + diag(W21·1)``.  On ``exact`` the ``precondition`` is
        left ``None`` for :meth:`_operator` to factorize when a solve
        needs it.
        """
        multigrid = self.backend == "multigrid"
        kind = "hard" if lam == 0.0 else "soft"
        with obs.span(
            "repro.workspace.operator", kind=kind, backend=self.backend, lam=float(lam), n=n
        ):
            if lam != 0.0:
                system = self._assemble_soft(lam, n)
                vcycle = None
                if multigrid:
                    vcycle = MultigridPreconditioner(
                        system,
                        self._laplacian_pattern(),
                        self._soft_hierarchy(),
                        lam,
                        self._coarse_mask_diagonals(n),
                    )
                return CriterionOperator(system, vcycle, None)
            system, unlabeled = _grounded_laplacian(self.weights, n, self._degree_vector())
            hierarchy = build_hierarchy(unlabeled) if multigrid and system.shape[0] else None
            del unlabeled
            coupling = self.weights[n:, :n]
            vcycle = None
            if hierarchy is not None:
                vcycle = MultigridPreconditioner(
                    system,
                    SystemPattern(system),
                    hierarchy,
                    1.0,
                    hierarchy.coarsen_diagonal(_row_sums(coupling)),
                )
                self._count_coarsening()
            return CriterionOperator(system, vcycle, coupling)

    def _factorize(self, system, lam: float, n: int) -> SPDFactorization:
        """Factorize the ``(λ, n)`` ``system``, counted and traced; the
        caller keeps the result or drops it."""
        self._counters["factorizations"] += 1
        obs.get_registry().counter("workspace.factorizations").inc()
        kind = "hard" if lam == 0.0 else "soft"
        with obs.span(
            "repro.workspace.factorize", kind=kind, lam=float(lam), n=n
        ) as span:
            factor = factorize_spd(system)
            if span.recording:
                span.set_attribute("method", factor.method)
                if factor.nnz is not None:
                    span.set_attribute("nnz", factor.nnz)
                    span.set_attribute("fill_nnz", factor.fill_nnz)
        return factor

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
        return self._soft_hierarchy()

    def _soft_hierarchy(self) -> CoarseningHierarchy:
        if self._hierarchy is None:
            self._hierarchy = build_hierarchy(self.weights)
            self._count_coarsening()
        return self._hierarchy

    def permuted(self, order) -> "SolveWorkspace":
        """A workspace on the same backend over this graph, vertices reordered.

        Vertex ``i`` of the returned workspace is vertex ``order[i]`` of
        this one.  A permutation keeps the weights symmetric, finite and
        non-negative, so they are not validated again, and it keeps the
        components: vertex ``i``'s is this workspace's ``order[i]``'s,
        renumbered by smallest vertex as a fresh computation numbers
        them.  The reordered weights are fingerprinted.

        A hierarchy this workspace has built is shared, not rebuilt:
        with ``Q`` the permutation, ``(QP₀)ᵀ(QWQᵀ)(QP₀) = P₀ᵀWP₀``, so
        only the first aggregate map is reordered and every coarse level
        is reused as is.  Cross-validation folds, each one reordering of
        the same graph, thereby build one hierarchy between them.
        """
        self.check_current()
        order = np.asarray(order, dtype=np.intp)
        if not np.array_equal(np.sort(order), np.arange(self.n_total)):
            raise DataValidationError(
                f"order must be a permutation of the {self.n_total} vertices"
            )
        if sparse.issparse(self.weights):
            weights = self.weights[order][:, order].tocsr()
            weights.sum_duplicates()  # sorts the indices: the canonical CSR
        else:
            weights = self.weights[np.ix_(order, order)]
        count, labels = self._components
        workspace = object.__new__(type(self))
        workspace.backend = self.backend
        workspace._counters = dict.fromkeys(self._counters, 0)
        workspace._adopt(
            weights, (count, _numbered_by_smallest_vertex(count, labels[order]))
        )
        if self._hierarchy is not None:
            levels = list(self._hierarchy.levels)
            if levels:
                levels[0] = replace(levels[0], aggregates=levels[0].aggregates[order])
            workspace._hierarchy = CoarseningHierarchy(self.n_total, tuple(levels))
        return workspace

    def _coarse_mask_diagonals(self, n: int) -> list[np.ndarray]:
        """Per-level Galerkin diagonals of the labeled-mask ``V`` (cached)."""
        cached = self._coarse_masks.get(n)
        if cached is None:
            indicator = np.zeros(self.n_total)
            indicator[:n] = 1.0
            cached = self._soft_hierarchy().coarsen_diagonal(indicator)
            self._coarse_masks[n] = cached
        return cached

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

    def _check_count(self, n) -> int:
        """``n`` as a labeled count: an integer in ``[0, N]``."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n <= self.n_total:
            raise DataValidationError(f"n must be an integer in [0, {self.n_total}], got {n!r}")
        return int(n)

    def _require_reachable(self, n: int) -> None:
        """Raise :class:`DisconnectedGraphError` when some unlabeled
        component holds none of the first ``n`` vertices (O(N), cached
        per ``n``)."""
        report = self._reachability.get(n)
        if report is None:
            report = reachability_report(*self._components, n)
            self._reachability[n] = report
        raise_if_unreachable(report)

    def _solve(self, y: np.ndarray, lam: float, n: int, x0=None):
        """The one solve body of both criteria, at ``(λ, n)`` for labels ``y``.

        Reads the operator (kept at λ = 0 or once :meth:`operator` asked
        for it, else built for this solve alone), forms ``rhs(y)``, then
        back-substitutes through its factorization or runs PCG on its
        V-cycle from ``x0`` to :data:`PCG_TOL`.  The PCG solve's
        :class:`~repro.linalg.solvers.SolveInfo` reports the true
        residual ``‖b - A f‖``, through the V-cycle's fine product.  A
        stalled V-cycle (pathological graph) falls back to a
        factorization of the same system, which is not kept.  Returns the
        solution, its :class:`~repro.linalg.solvers.SolveInfo` and the
        ``details`` it adds.
        """
        operator = self._operator(lam, n, keep=lam == 0.0)
        rhs = operator.rhs(y)
        inverse = operator.precondition
        if isinstance(inverse, SPDFactorization):
            return inverse.solve(rhs), inverse.info(), {}
        registry = obs.get_registry()
        try:
            result = preconditioned_conjugate_gradient(
                inverse.product,
                rhs,
                preconditioner=inverse,
                x0=x0,
                tol=PCG_TOL,
                max_iter=MULTIGRID_MAX_ITER,
            )
        except ConvergenceError:
            self._counters["fallbacks"] += 1
            registry.counter("workspace.fallbacks").inc()
            factor = self._factorize(operator.system, lam, n)
            return factor.solve(rhs), factor.info(), {"fallback": "exact"}
        self._counters["pcg_iterations"] += result.iterations
        warm = x0 is not None
        if warm:
            self._counters["warm_starts"] += 1
            registry.counter("workspace.warm_starts").inc()
        registry.log_histogram("workspace.pcg.iterations").observe(result.iterations)
        self._counters["multigrid_solves"] += 1
        registry.counter("workspace.multigrid_solves").inc()
        info = SolveInfo(
            method="multigrid_pcg",
            size=rhs.shape[0],
            iterations=result.iterations,
            final_residual=float(np.linalg.norm(rhs - inverse.product(result.x))),
            converged=result.converged,
            warm_started=warm,
        )
        return result.x, info, {"n_levels": inverse.n_levels}

    @one_blas_thread()
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
            scores, info, details = self._solve(y, lam, n, self._last_solutions.get(n))
            self._last_solutions[n] = scores
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

    @one_blas_thread()
    def solve_hard(self, y_labeled):
        """Solve the hard criterion ``(D22 - W22) f_u = W21 y`` once.

        ``D22 - W22`` is λ-independent.  On ``exact`` the first solve
        factorizes it and every later one is a back-substitution; on
        ``multigrid`` the first solve builds its V-cycle and every solve
        runs cold-started PCG to :data:`PCG_TOL`, so repeated solves
        return the same floats.
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
            f_unlabeled, info, details = self._solve(y, 0.0, n)
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

    @one_blas_thread()
    def sweep_soft(self, y_labeled, lambdas) -> list:
        """Solve the soft criterion along a λ grid with continuation.

        Grid points are solved in the given order; on ``multigrid`` each
        PCG solve starts from the previous grid point's solution, so a
        sorted grid amortizes best.
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
        """A snapshot of the workspace's solver counters."""
        return WorkspaceStats(**self._counters)

    def __repr__(self) -> str:
        kind = "sparse" if sparse.issparse(self.weights) else "dense"
        return (
            f"SolveWorkspace(n_total={self.n_total}, {kind}, "
            f"backend={self.backend!r}, "
            f"kept_operators={len(self._operators)})"
        )
