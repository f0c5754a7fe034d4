"""Graph-coarsening multigrid preconditioner for large-N solves.

The soft/hard criteria solve ``(V + λL) f = (y; 0)`` where ``L`` is the
Laplacian of a similarity graph.  Exact sparse factorization tops out
around N ≈ 10⁴ in dimension ≥ 3 (splu fill-in grows super-linearly), and
plain Jacobi-preconditioned CG degrades as λ grows.  This module builds
the standard algebraic-multigrid remedy from the *graph itself*:

1. **Heavy-edge matching** (:func:`heavy_edge_matching`) pairs vertices
   along heavy edges — the classic coarsening of Karypis & Kumar's
   METIS and of aggregation AMG — in whole-array rounds over the CSR
   arrays instead of a per-vertex loop: every unmatched vertex proposes
   its heaviest unmatched neighbour (a segment max over its row, equal
   weights broken by a symmetric hash of the edge) and mutual proposals
   match.  Rounds stop when one matches nothing or after
   :data:`MATCHING_ROUNDS`; kNN graphs settle in 6–8.  A chain of
   monotonically increasing weights matches one pair per round, so its
   pass stalls (:data:`STALL_RATIO`) and the hierarchy ends there,
   leaving that graph to the exact coarsest solve.
2. A matching defines a piecewise-constant **aggregation operator**
   ``P`` (one nonzero per row); the coarse graph is the Galerkin product
   ``W_c = PᵀWP`` (:func:`coarsen_weights`), which is again a similarity
   graph, and — the identity everything below relies on —
   ``PᵀL(W)P = L(W_c)``: *the Galerkin coarse operator of a graph
   Laplacian is the Laplacian of the coarsened graph*.  Each level of
   :func:`build_hierarchy` composes two matching passes — the second
   matches the first's coarse graph — so its aggregates hold at most 4
   vertices (Notay's double pairwise aggregation, as in AGMG) and a kNN
   graph shrinks about 4× per level.  On a 10⁵-vertex d=3 kNN graph
   that takes the operator complexity (Σ level nnz ÷ fine nnz) from
   2.01 with pairwise levels to 1.36, so the coarse levels cost a V-cycle
   about a third of what they did.
3. Repeating until the graph is small yields a
   :class:`CoarseningHierarchy` (:func:`build_hierarchy`).  A level
   keeps two things: its aggregate map (``P``'s one column index per
   row) and its coarse Laplacian ``L(W_c)``.  A coarse graph ``W_c`` is
   kept only until the next level has been matched on it.  The
   hierarchy depends only on the graph — **not** on λ or the labeled
   mask — so one hierarchy serves a whole λ-sweep: at each level,
   ``Pᵀ(V + λL)P = diag(PᵀvV) + λ L(W_c)`` re-assembles in O(nnz) from
   cached parts.
4. A **V-cycle** with one damped-Jacobi pre-sweep and one post-sweep
   (weight :data:`OMEGA`), each coarse correction scaled by
   :data:`COARSE_FACTOR` on its way back up, and an exact factorization
   at the coarsest level (:class:`MultigridPreconditioner`) is a
   symmetric positive-definite operator, hence a valid CG
   preconditioner.  Both constants were read off a measured table
   (docs/SCALING.md): at ω = 0.95 and factor 1.2 the ``pipeline-lowd``
   sweep takes 72 PCG iterations where ω = 0.7 without the factor took
   97.  Its one constructor
   assembles each coarse level as ``scale·L_l + diag(d_l)`` from a
   hierarchy's Laplacians and a coarsened diagonal, the Galerkin
   product of a fine system ``scale·L + diag(d)``.  Both criteria have
   that form — the soft ``V + λL`` (Eq. 3) and the hard ``D₂₂ − W₂₂ =
   L(W₂₂) + diag(W₂₁·1)`` (Eq. 5).  Each level system is written into
   its Laplacian's own pattern (:class:`SystemPattern`): a new data
   array on the Laplacian's indices and indptr, whose diagonal
   positions and row blocks are worked out once per Laplacian, so a λ
   step re-assembles no sparse sum.  The cycle transfers through the
   aggregate maps alone: restriction ``Pᵀr`` is a ``bincount`` over a
   map and prolongation ``Pe`` a gather, so the cycle stores no ``P``
   and multiplies by none.  A cycle allocates per level only its
   output and its two products ``A_l x``; the residual, the prolongated
   correction and the post-sweep's update overwrite the product before
   them.

The coarse Laplacians ``L(W_c)`` come from the same assembly as every
fine-level system (:mod:`repro.graph.laplacian`).  The coarse level
systems do not go through :func:`~repro.graph.laplacian.soft_system`:
the aggregated mask ``v_l`` counts labeled vertices per aggregate and is
no 0/1 indicator of the first ``n`` vertices.

The continuum-limit literature (Dunlop et al., *Large Data and Zero
Noise Limits of Graph-Based Semi-Supervised Learning*; Calder,
*Consistency of Lipschitz Learning*) is precisely the theory that coarse
graphs approximate fine ones — the coarse-grid correction is solving the
same SSL problem on a subsampled point cloud.

:class:`~repro.linalg.workspace.SolveWorkspace` exposes this as the
``"multigrid"`` sweep backend: soft and hard solves, and the
preconditioner of exact serving.  Measured at N=10⁵, d=3, k=10 on a
2-CPU host: the hierarchy builds once in 0.3–0.4 s (4 coarse levels)
and each grid point solves in a few tens of V-cycles, where a single
exact splu factorization costs ~80 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from repro import obs
from repro.exceptions import ConfigurationError, DataValidationError
from repro.graph.laplacian import _unchecked_laplacian
from repro.linalg.solvers import SPDFactorization, factorize_spd
from repro.linalg.threads import RowBlocks, row_blocks

__all__ = [
    "heavy_edge_matching",
    "aggregation_operator",
    "coarsen_weights",
    "CoarseLevel",
    "CoarseningHierarchy",
    "build_hierarchy",
    "MultigridPreconditioner",
    "SystemPattern",
    "OMEGA",
    "COARSE_FACTOR",
]

#: By default coarsening stops once a level has at most ``size //
#: MULTIGRID_COARSE_DIVISOR`` vertices, but never below 512, where
#: ``size`` is the fine graph's vertex count — small enough that the
#: coarsest factorization is trivial, large enough that the coarse grid
#: still resolves the graph's cluster structure.
MULTIGRID_COARSE_DIVISOR = 64

#: Damped-Jacobi smoothing weight.  Every level system is weakly
#: diagonally dominant, so ``2D/ω − A`` is positive definite for any
#: ω < 1 and the smoother contracts in the ``A``-norm.  At ω = 1 that
#: bound is only semidefinite on bipartite graphs such as lattices.
#: At every measured coarse factor, 0.95 took the fewest soft-sweep and
#: insertion iterations of the weights below 1 (docs/SCALING.md,
#: "Tuning the V-cycle").
OMEGA = 0.95

#: Factor on each prolongated coarse-grid correction.  A piecewise-
#: constant prolongation under-corrects; scaling its correction by 1.2
#: is the over-correction used with unsmoothed aggregation (Braess;
#: Notay's AGMG), and any factor > 0 keeps the cycle symmetric positive
#: definite.  At :data:`OMEGA`, 1.2 took the fewest soft-sweep, hard and
#: fit iterations summed, tied with 1.3, which takes more per insertion
#: (docs/SCALING.md, "Tuning the V-cycle").
COARSE_FACTOR = 1.2

#: Coarsening stalls (stop adding levels) when a matching pass removes
#: fewer than ``1 - STALL_RATIO`` of the vertices — star-like graphs can
#: defeat matching, and a level that barely shrinks only adds cost.
STALL_RATIO = 0.9

#: Cap on hierarchy depth (every kept level shrinks the graph by at
#: least ``1 -`` :data:`STALL_RATIO` and a kNN level about 4×, so 32
#: levels covers any graph that coarsens at all; the cap guards against
#: slow shrinkage that slips past :data:`STALL_RATIO`).
MAX_LEVELS = 32

#: Cap on the mutual-proposal rounds of one :func:`heavy_edge_matching`
#: pass.  kNN graphs and unit-weight lattices stop matching well before
#: it; a chain of strictly increasing weights matches one pair per round
#: and would otherwise take ``n/2`` rounds.
MATCHING_ROUNDS = 16


def _as_csr(weights) -> sparse.csr_matrix:
    if sparse.issparse(weights):
        return weights.tocsr()
    return sparse.csr_matrix(np.asarray(weights, dtype=np.float64))


def _edge_hash(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """One splitmix64 step over the unordered pair ``{i, j}``.

    Symmetric in ``(i, j)`` and a bijection of the packed pair, so the
    edges of one row hash to distinct values and both endpoints of an
    edge see the same value.
    """
    z = np.minimum(i, j).astype(np.uint64) << np.uint64(32)
    z |= np.maximum(i, j).astype(np.uint64)
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _segment_max_mask(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mask of the entries equal to the maximum of their segment.

    Segments are the runs of equal values in the sorted, non-empty
    ``keys``; the maximum is one ``np.maximum.reduceat`` over them.
    """
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    peak = np.maximum.reduceat(values, starts)
    return values == np.repeat(peak, np.diff(starts, append=keys.size))


def heavy_edge_matching(weights) -> np.ndarray:
    """Aggregate labels from heavy-edge matching in mutual-proposal rounds.

    Each round works on the live edges — positive-weight, non-loop edges
    between two still-unmatched vertices — as whole arrays over CSR:
    every unmatched vertex with a live edge proposes its heaviest live
    neighbour (a segment max over its row), and every mutual proposal
    becomes a matched pair.  Equal weights are broken by a symmetric
    hash of the edge (:func:`_edge_hash`), computed only on rows whose
    heaviest weight is tied; a smallest-index rule would instead match
    one pair per round on unit-weight chains and grids.  Rounds repeat
    until one matches nothing or :data:`MATCHING_ROUNDS` have run; the
    remaining vertices become singleton aggregates.

    On symmetric weights the live edge with the largest (weight, hash)
    is always mutual, so every round with live edges matches at least
    one pair, but no more on a chain whose weights increase
    monotonically: there the cap ends the pass with most vertices
    unmatched, and :func:`build_hierarchy` stalls.  Without ties the
    result does not depend on the vertex order.

    Returns an ``(n,)`` integer array mapping each vertex to its
    aggregate id in ``[0, n_coarse)``; aggregates hold at most two
    vertices and are numbered in order of their smallest member.
    """
    csr = _as_csr(weights)
    n = csr.shape[0]
    if csr.shape[0] != csr.shape[1]:
        raise DataValidationError(f"weights must be square, got {csr.shape}")
    src = np.repeat(np.arange(n, dtype=np.int32), np.diff(csr.indptr))
    live = (csr.indices != src) & (csr.data > 0)
    src, w = src[live], csr.data[live]
    dst = csr.indices[live].astype(np.int32, copy=False)
    del live
    partner = np.full(n, -1, dtype=np.intp)
    for _ in range(MATCHING_ROUNDS):
        if src.size == 0:
            break
        best = np.flatnonzero(_segment_max_mask(src, w))
        best_src, best_dst = src[best], dst[best]
        proposal = np.full(n, -1, dtype=np.intp)
        # a tied row holds an arbitrary one of its heaviest edges until
        # the hash below picks the one both endpoints agree on
        proposal[best_src] = best_dst
        tied = np.bincount(best_src, minlength=n)[best_src] > 1
        if tied.any():
            tied_src, tied_dst = best_src[tied], best_dst[tied]
            win = _segment_max_mask(tied_src, _edge_hash(tied_src, tied_dst))
            proposal[tied_src[win]] = tied_dst[win]
        proposer = np.flatnonzero(proposal >= 0)
        target = proposal[proposer]
        mutual = proposal[target] == proposer
        if not mutual.any():
            break
        partner[proposer[mutual]] = target[mutual]
        unmatched = partner < 0
        keep = unmatched[src] & unmatched[dst]
        src, dst, w = src[keep], dst[keep], w[keep]
    vertex = np.arange(n)
    leader = np.minimum(vertex, np.where(partner >= 0, partner, vertex))
    aggregate_id = np.cumsum(leader == vertex) - 1
    return aggregate_id[leader]


def aggregation_operator(labels: np.ndarray) -> sparse.csr_matrix:
    """The piecewise-constant prolongation ``P`` of an aggregate map.

    ``P`` has shape ``(n, n_coarse)`` with exactly one unit entry per
    row: ``P[i, labels[i]] = 1``.  Its transpose is the restriction
    (summation over aggregates).
    """
    labels = np.asarray(labels, dtype=np.intp)
    n = labels.shape[0]
    if n == 0:
        raise DataValidationError("labels must be non-empty")
    n_coarse = int(labels.max()) + 1
    if labels.min() < 0:
        raise DataValidationError("labels must be non-negative aggregate ids")
    return sparse.csr_matrix(
        (np.ones(n), (np.arange(n), labels)), shape=(n, n_coarse)
    )


def coarsen_weights(weights, prolongation: sparse.csr_matrix) -> sparse.csr_matrix:
    """Galerkin coarse graph ``W_c = PᵀWP`` (symmetric, non-negative).

    Intra-aggregate weights land on the diagonal of ``W_c`` as
    self-loops; like the fine graph's self-weights they cancel in the
    Laplacian quadratic form while keeping the degree bookkeeping
    consistent, so ``L(W_c) = PᵀL(W)P`` holds exactly.

    The restriction ``Pᵀ`` is formed as its own CSR matrix, so every
    product is CSR by CSR and ``W`` is never converted to CSC; sorting
    the result's indices gives the canonical CSR, with the same bits,
    that ``(P.T @ W @ P).tocsr()`` returns.
    """
    coarse = sparse.csr_matrix(prolongation.T) @ _as_csr(weights) @ prolongation
    coarse.sort_indices()
    return coarse


class SystemPattern:
    """One kept Laplacian and what every system in its pattern shares.

    Each λ writes ``scale·L + diag(d)`` into ``L``'s own pattern
    (:meth:`system`): a new data array on ``L``'s indices and indptr,
    with no sparse addition.  So the position of each row's diagonal
    entry, which the assembly adds to and each damped-Jacobi smoother
    reads (:meth:`diagonal_of`), and the row blocks of the system's
    products (:meth:`product`) are worked out once per Laplacian, here.

    Attributes
    ----------
    laplacian:
        The Laplacian, sparse or dense.  A sparse one must store every
        diagonal entry, as :func:`~repro.graph.laplacian.laplacian`'s
        assembly does; one that does not raises
        :class:`~repro.exceptions.DataValidationError`.
    diagonal:
        Position of row ``i``'s diagonal entry in the values: the CSR
        ``data`` or the dense matrix's flattened array.
    blocks:
        The :class:`~repro.linalg.threads.RowBlocks` of a CSR pattern
        with at least :data:`~repro.linalg.threads.BLOCKED_MIN_NNZ`
        entries on a multi-CPU host, else ``None``.
    """

    __slots__ = ("laplacian", "diagonal", "blocks")

    def __init__(self, laplacian):
        self.laplacian = laplacian
        n = laplacian.shape[0]
        if not sparse.issparse(laplacian):
            self.diagonal = np.arange(n) * (n + 1)
            self.blocks: RowBlocks | None = None
            return
        indptr, indices = laplacian.indptr, laplacian.indices
        rows = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
        self.diagonal = np.flatnonzero(indices == rows).astype(indptr.dtype)
        if not np.array_equal(rows[self.diagonal], np.arange(n)):
            raise DataValidationError(
                "a system pattern must store one diagonal entry in every row"
            )
        self.blocks = row_blocks(indptr)

    @property
    def nbytes(self) -> int:
        """Bytes of the cached diagonal positions."""
        return self.diagonal.nbytes

    def system(self, scale: float, diagonal: np.ndarray):
        """``scale·L + diag(diagonal)``, with the bits of the sparse sum.

        Each entry is ``scale·L_ij``, plus ``d_i`` on the diagonal: the
        roundings ``scale * L + sparse.diags(d)`` makes, which also drops
        an entry that comes out zero.  Here that entry stays an explicit
        zero.  A sparse result shares ``L``'s indices and indptr.
        """
        laplacian = self.laplacian
        if not sparse.issparse(laplacian):
            system = laplacian * scale
            system.flat[self.diagonal] += diagonal
            return system
        data = laplacian.data * scale
        data[self.diagonal] += diagonal
        return sparse.csr_matrix(
            (data, laplacian.indices, laplacian.indptr), shape=laplacian.shape
        )

    def diagonal_of(self, system) -> np.ndarray:
        """The diagonal of a ``system`` in this pattern."""
        values = system.data if sparse.issparse(system) else system.reshape(-1)
        return values[self.diagonal]

    def product(self, system):
        """``x ↦ system @ x`` for a ``system`` in this pattern: row-blocked
        over :attr:`blocks` when there are any."""
        if self.blocks is None:
            return system.__matmul__
        return self.blocks.product(system)


@dataclass(frozen=True)
class CoarseLevel:
    """One level of a coarsening hierarchy.

    Attributes
    ----------
    aggregates:
        ``(n_fine,)`` aggregate map: fine vertex ``i`` lies in coarse
        vertex ``aggregates[i]``.  It is the prolongation ``P``'s one
        column index per row (``P[i, aggregates[i]] = 1``), and
        :func:`aggregation_operator` rebuilds ``P`` from it.
    laplacian:
        ``L(W_c)`` of the coarse graph ``W_c = PᵀWP`` — equal to
        ``PᵀL(W)P`` by the Galerkin identity, assembled once because it
        is λ-independent.  It stores every diagonal entry.

    The level's :attr:`pattern`, which each V-cycle reads, is worked out
    on first use and kept with the level.
    """

    aggregates: np.ndarray
    laplacian: sparse.csr_matrix

    @cached_property
    def pattern(self) -> SystemPattern:
        """The :class:`SystemPattern` of :attr:`laplacian`."""
        return SystemPattern(self.laplacian)

    @property
    def n_fine(self) -> int:
        return int(self.aggregates.shape[0])

    @property
    def n_coarse(self) -> int:
        return int(self.laplacian.shape[0])


@dataclass(frozen=True)
class CoarseningHierarchy:
    """A λ-independent stack of coarse Laplacians for one similarity graph.

    ``levels[0].aggregates`` maps the fine graph's vertices to level 1
    (the first coarse level); deeper levels continue the chain.  For a
    diagonal fine-level term ``diag(v)`` (the labeled-mask ``V`` of the
    soft criterion), :meth:`coarsen_diagonal` returns the per-level
    Galerkin diagonals ``Pᵀ…Pᵀ v`` — diagonal again because ``P`` has
    orthogonal columns of 0/1 entries.
    """

    n_vertices: int
    levels: tuple[CoarseLevel, ...] = field(default_factory=tuple)

    @property
    def sizes(self) -> tuple[int, ...]:
        """Vertex counts per level, finest first."""
        return (self.n_vertices,) + tuple(lvl.n_coarse for lvl in self.levels)

    def retained_bytes(self) -> int:
        """Bytes of every array the levels hold: each aggregate map, each
        coarse Laplacian's CSR arrays and, once a V-cycle has read them,
        its pattern's diagonal positions."""
        return sum(
            level.aggregates.nbytes
            + level.laplacian.data.nbytes
            + level.laplacian.indices.nbytes
            + level.laplacian.indptr.nbytes
            # a cached_property lives in the instance dict once computed
            + (level.pattern.nbytes if "pattern" in vars(level) else 0)
            for level in self.levels
        )

    def coarsen_diagonal(self, values: np.ndarray) -> list[np.ndarray]:
        """Aggregate a fine-level diagonal through every level.

        ``Pᵀ diag(v) P`` is diagonal with entries ``Σ_{i∈agg} v_i``: one
        ``bincount`` over the aggregate map, the additions the V-cycle's
        restriction makes.  Returns one vector per coarse level (finest
        coarse first).
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.shape[0] != self.n_vertices:
            raise DataValidationError(
                f"diagonal has length {values.shape[0]} but the hierarchy "
                f"was built over {self.n_vertices} vertices"
            )
        out = []
        current = values
        for level in self.levels:
            current = np.bincount(
                level.aggregates, weights=current, minlength=level.n_coarse
            )
            out.append(current)
        return out


def _matching_pass(weights):
    """One heavy-edge matching of ``weights`` and its Galerkin coarse graph.

    Returns ``(labels, W_c)``, or ``None`` when the pass stalls: it
    keeps at least :data:`STALL_RATIO` of the vertices.
    """
    labels = heavy_edge_matching(weights)
    n_coarse = int(labels.max()) + 1
    if n_coarse >= STALL_RATIO * weights.shape[0]:
        return None
    return labels, coarsen_weights(weights, aggregation_operator(labels))


def _coarsest_bound(n_vertices: int) -> int:
    """The default ``min_coarse_size`` of an ``n_vertices``-vertex graph."""
    return max(512, n_vertices // MULTIGRID_COARSE_DIVISOR)


def build_hierarchy(
    weights,
    *,
    min_coarse_size: int | None = None,
) -> CoarseningHierarchy:
    """Coarsen a similarity graph by repeated heavy-edge matching.

    Each level composes two :func:`heavy_edge_matching` passes, the
    second on the first's coarse graph, so every aggregate holds at most
    4 vertices; the level keeps only the composed aggregate map and the
    second coarse graph's Laplacian.  That coarse graph is dropped once
    the next level has been matched on it.  The second pass is skipped
    once the first leaves at most ``min_coarse_size`` vertices, and a
    second pass that stalls (keeps at least :data:`STALL_RATIO` of its
    vertices) leaves the pairwise level.  Coarsening stops when the
    coarsest level has at most ``min_coarse_size`` vertices, after
    :data:`MAX_LEVELS` levels, or when a level's first pass stalls.
    ``min_coarse_size`` defaults to ``max(512, n //
    MULTIGRID_COARSE_DIVISOR)`` for an ``n``-vertex graph.  A graph
    already at or below ``min_coarse_size`` yields an empty hierarchy —
    the V-cycle then degenerates to one exact solve.
    """
    current = _as_csr(weights)
    n = int(current.shape[0])
    if min_coarse_size is None:
        min_coarse_size = _coarsest_bound(n)
    if min_coarse_size < 1:
        raise ConfigurationError(
            f"min_coarse_size must be >= 1, got {min_coarse_size}"
        )
    levels: list[CoarseLevel] = []
    with obs.span(
        "repro.coarsen.hierarchy",
        n_vertices=n,
        min_coarse_size=int(min_coarse_size),
    ) as span:
        while current.shape[0] > min_coarse_size and len(levels) < MAX_LEVELS:
            step = _matching_pass(current)
            if step is None:
                break
            labels, coarse = step
            if coarse.shape[0] > min_coarse_size:
                second = _matching_pass(coarse)
                if second is not None:
                    pair_labels, coarse = second
                    labels = pair_labels[labels]
            # int32 ids, the column indices aggregation_operator(labels) holds
            levels.append(
                CoarseLevel(
                    aggregates=labels.astype(np.int32),
                    laplacian=_unchecked_laplacian(coarse),
                )
            )
            current = coarse
        if span.recording:
            span.set_attribute("n_levels", len(levels))
            span.set_attribute(
                "n_coarsest", int(levels[-1].n_coarse) if levels else n
            )
        obs.get_registry().counter("coarsen.hierarchies").inc()
    return CoarseningHierarchy(n_vertices=n, levels=tuple(levels))


class MultigridPreconditioner:
    """Symmetric V-cycle over a fine system and a coarsening hierarchy.

    Parameters
    ----------
    system:
        The fine system ``scale·L + diag(d)``, sparse or dense.
    pattern:
        The :class:`SystemPattern` ``system`` was written into: its
        diagonal positions and row blocks.
    hierarchy:
        A :class:`CoarseningHierarchy` of the graph behind ``L``.
    scale:
        The factor ``L`` carries in ``system``: ``λ`` for the soft
        criterion's ``V + λL``, ``1`` for the hard ``D₂₂ − W₂₂ =
        L(W₂₂) + diag(W₂₁·1)``.
    diagonals:
        ``hierarchy.coarsen_diagonal(d)``, one vector per coarse level.

    Each coarse level is assembled as ``scale·L_l + diag(d_l)`` into its
    Laplacian's pattern (:meth:`SystemPattern.system`), in O(nnz) with
    no triple products: the Galerkin product ``PᵀAP`` of the level
    above.  The coarsest system (``system`` itself when the hierarchy is
    empty) is factorized exactly.  Each other level keeps its smoother
    ``S_l = ω·D_l⁻¹`` (ω = :data:`OMEGA`), its diagonal read through
    the pattern's cached positions, and its product, row-blocked where
    the pattern has blocks (:mod:`repro.linalg.threads`).

    Calling the instance applies one V-cycle to a residual: one
    damped-Jacobi pre-sweep ``x = S r`` from zero, restriction of the
    remaining residual, recursion, the prolongated coarse correction
    scaled by ``α`` = :data:`COARSE_FACTOR`, one damped-Jacobi
    post-sweep.  As an operator that is

        ``M⁻¹ = S(2S⁻¹ − A)S + α (I − SA) P M_c⁻¹ Pᵀ (I − AS)``,

    symmetric because ``S`` is.  Every level system is weakly diagonally
    dominant with a positive diagonal, so ``D⁻¹A`` has its eigenvalues
    in ``[0, 2]`` and ``2S⁻¹ − A = 2D/ω − A`` is positive definite for
    ω < 1; the coarse term is semidefinite for any ``α > 0`` once the
    coarse ``M_c⁻¹`` is definite, which holds by induction from the
    exact coarsest solve.  So the cycle is symmetric positive definite
    and can be passed directly as the ``preconditioner`` of
    :func:`~repro.linalg.iterative.preconditioned_conjugate_gradient`;
    a constant ``α`` keeps it one fixed operator, so CG needs no
    flexible variant.
    """

    def __init__(
        self,
        system,
        pattern: SystemPattern,
        hierarchy: CoarseningHierarchy,
        scale: float,
        diagonals,
    ):
        patterns = [pattern] + [level.pattern for level in hierarchy.levels]
        self._systems = [system] + [
            level_pattern.system(scale, diagonal)
            for level_pattern, diagonal in zip(patterns[1:], diagonals, strict=True)
        ]
        self._labels = [level.aggregates for level in hierarchy.levels]
        self._products = [
            level_pattern.product(matrix)
            for level_pattern, matrix in zip(patterns, self._systems)
        ]
        self._smoothers: list[np.ndarray] = []
        for level, (level_pattern, matrix) in enumerate(zip(patterns[:-1], self._systems)):
            diagonal = level_pattern.diagonal_of(matrix)
            if diagonal.size and diagonal.min() <= 0:
                raise DataValidationError(
                    f"level-{level} system has a non-positive diagonal; "
                    "the damped-Jacobi smoother requires SPD level systems"
                )
            self._smoothers.append(OMEGA / diagonal)
        self._coarse_factor: SPDFactorization = factorize_spd(self._systems[-1])

    @property
    def product(self):
        """``x ↦ A x`` for the fine system, made as the cycle's own fine
        products are: row-blocked where its pattern has blocks."""
        return self._products[0]

    @property
    def n_levels(self) -> int:
        return len(self._systems)

    def __call__(self, residual: np.ndarray) -> np.ndarray:
        return self._cycle(0, np.asarray(residual, dtype=np.float64))

    def _cycle(self, level: int, rhs: np.ndarray) -> np.ndarray:
        if level == len(self._systems) - 1:
            return np.asarray(self._coarse_factor.solve(rhs)).ravel()
        product = self._products[level]
        smoother = self._smoothers[level]
        labels = self._labels[level]
        # damped-Jacobi pre-sweep from x = 0; the residual, the
        # prolongated correction and the post-sweep's update each
        # overwrite the product before them
        x = smoother * rhs
        work = product(x)
        np.subtract(rhs, work, out=work)
        # restriction Pᵀr sums the residual over each aggregate in vertex
        # order, the additions a CSR product with Pᵀ makes; prolongation
        # Pe copies each aggregate's correction back to its vertices
        correction = self._cycle(
            level + 1,
            np.bincount(labels, weights=work, minlength=self._systems[level + 1].shape[0]),
        )
        correction *= COARSE_FACTOR
        np.take(correction, labels, out=work, mode="clip")
        x += work
        # damped-Jacobi post-sweep
        work = product(x)
        np.subtract(rhs, work, out=work)
        work *= smoother
        x += work
        return x
