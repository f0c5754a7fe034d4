"""Tests for the graph-coarsening multigrid preconditioner.

The hypothesis suite pins the structural invariants the V-cycle relies
on: every matching yields a valid aggregation operator (one unit entry
per row, no empty aggregates, at most two vertices per aggregate, pairs
joined by a positive edge), every hierarchy level composes two of them
into connected aggregates of at most four vertices, the Galerkin triple
product ``PᵀAP`` of an SPD system is SPD, and the coarse Laplacian
identity ``PᵀL(W)P = L(PᵀWP)`` holds exactly.  The hierarchy is pinned
against a pairwise chain built from the matching itself; a level holds
only its aggregate map and coarse Laplacian, and its retained bytes are
theirs plus, once a V-cycle has read it, its pattern's diagonal
positions.  Systems written into a Laplacian's pattern keep the bits of
the sparse sums they replace, and every kept Laplacian stores its whole
diagonal.  The V-cycle's aggregate-map transfers (a ``bincount``
restriction and a gather prolongation) are pinned against the sparse
products ``Pᵀr`` and ``Pe`` and against an out-of-place cycle that
rebuilds ``P`` and transposes it on every call, and the cycle is pinned
symmetric positive definite on soft and hard kNN systems and on a
bipartite lattice.  The vectorized mutual-proposal
matching is pinned against a per-vertex loop of the same rounds, its
hashed tie-break against unit-weight chains and grids, and its
independence of vertex order against relabelled kNN graphs.  The
performance-shaped property — multigrid-preconditioned CG reaches a
residual no worse than unpreconditioned CG on the same iteration
budget — is what justifies shipping the backend at all.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from repro.datasets.synthetic import make_synthetic_dataset
from repro.exceptions import (
    ConfigurationError,
    ConvergenceError,
    DataValidationError,
)
from repro.graph.laplacian import grounded_system, laplacian
from repro.graph.similarity import knn_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.kernels.base import pairwise_sq_distances
from repro.linalg.coarsen import (
    COARSE_FACTOR,
    MATCHING_ROUNDS,
    OMEGA,
    STALL_RATIO,
    CoarseLevel,
    CoarseningHierarchy,
    MultigridPreconditioner,
    SystemPattern,
    aggregation_operator,
    build_hierarchy,
    coarsen_weights,
    heavy_edge_matching,
)
from repro.linalg.iterative import preconditioned_conjugate_gradient
from repro.linalg.solvers import factorize_spd, solve_spd
from repro.linalg.workspace import SolveWorkspace


def _random_graph(n, seed, k=6):
    """A kNN graph that is well posed at every ``n >= 2``.

    The bandwidth is the largest k-th-neighbour distance, so every kept
    edge has kernel weight at least ``exp(-1)``.  A size-only rule such
    as ``paper_bandwidth_rule`` can be far below the neighbour distances
    of a tiny sample: at ``n=2, seed=9909`` the only edge gets weight
    ``exp(-42)``, which vanishes next to the unit self-loop, and
    ``knn_graph`` rightly rejects the zero-degree rows.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    k = min(k, n - 1)
    kth = np.sort(pairwise_sq_distances(x), axis=1)[:, k]
    bandwidth = float(np.sqrt(kth.max()))
    return knn_graph(x, k=k, bandwidth=bandwidth).weights


def _soft_system(weights, lam, n_labeled):
    n = weights.shape[0]
    mask = np.zeros(n)
    mask[:n_labeled] = 1.0
    return (sparse.diags(mask) + lam * laplacian(weights)).tocsr()


def _soft_vcycle(weights, lam, n_labeled, min_coarse_size=16):
    """The soft criterion's V-cycle, as ``SolveWorkspace`` builds it.

    Coarse levels ``λ·L_l + diag(v_l)`` come from a hierarchy of the
    graph and the coarsened labeled mask; ``min_coarse_size`` is the
    workspace floor (512) lowered so small graphs keep coarse levels.
    """
    hierarchy = build_hierarchy(weights, min_coarse_size=min_coarse_size)
    mask = np.zeros(weights.shape[0])
    mask[:n_labeled] = 1.0
    system = _soft_system(weights, lam, n_labeled)
    return MultigridPreconditioner(
        system,
        SystemPattern(system),
        hierarchy,
        lam,
        hierarchy.coarsen_diagonal(mask),
    )


def _vcycle_pcg(weights, lam, n_labeled, rhs):
    """PCG to 1e-10 on the soft system, preconditioned by its V-cycle."""
    return preconditioned_conjugate_gradient(
        _soft_system(weights, lam, n_labeled),
        rhs,
        preconditioner=_soft_vcycle(weights, lam, n_labeled),
    ).x


def _path(n, weights):
    """The chain ``0 - 1 - … - n-1`` with edge ``(i, i+1)`` weighing ``weights[i]``."""
    i = np.arange(n - 1)
    upper = sparse.coo_matrix((weights, (i, i + 1)), shape=(n, n))
    return (upper + upper.T).tocsr()


def _knn_3d(n, seed):
    """``n`` standard-normal points in d=3, k=10, bandwidth 0.5."""
    x = np.random.default_rng(seed).normal(size=(n, 3))
    return knn_graph(x, k=10, bandwidth=0.5).weights


def _pairwise_chain(weights, min_coarse_size):
    """Sizes, graphs and matchings of one heavy-edge matching per level.

    The chain a pairwise hierarchy would build: it stops at
    ``min_coarse_size`` vertices or at the first pass that stalls.
    ``matchings[i]`` maps the vertices of ``graphs[i]`` to ``graphs[i + 1]``.
    """
    sizes, graphs, matchings = [weights.shape[0]], [weights], []
    while sizes[-1] > min_coarse_size:
        labels = heavy_edge_matching(graphs[-1])
        if labels.max() + 1 >= STALL_RATIO * sizes[-1]:
            break
        graphs.append(coarsen_weights(graphs[-1], aggregation_operator(labels)))
        sizes.append(graphs[-1].shape[0])
        matchings.append(labels)
    return sizes, graphs, matchings


def _grid(m):
    """The unit-weight ``m × m`` lattice."""
    path = _path(m, np.ones(m - 1))
    eye = sparse.identity(m)
    return (sparse.kron(path, eye) + sparse.kron(eye, path)).tocsr()


def _partition(labels, names=None):
    """The aggregates as sets of vertex names (default: the indices)."""
    names = np.arange(labels.size) if names is None else names
    groups = {}
    for name, label in zip(names, labels):
        groups.setdefault(label, set()).add(int(name))
    return {frozenset(group) for group in groups.values()}


def _splitmix64(i, j):
    """splitmix64 of the unordered pair ``{i, j}`` in Python integers."""
    mask = (1 << 64) - 1
    z = ((min(i, j) << 32) | max(i, j)) + 0x9E3779B97F4A7C15 & mask
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def _reference_matching(weights):
    """Per-vertex loop over the same mutual-proposal rounds.

    Each unmatched vertex proposes the live neighbour with the largest
    ``(weight, hash)``; mutual proposals match; aggregates are numbered
    by their smallest member.
    """
    csr = sparse.csr_matrix(weights)
    n = csr.shape[0]
    partner = [-1] * n
    for _ in range(MATCHING_ROUNDS):
        proposal = {}
        for i in range(n):
            if partner[i] >= 0:
                continue
            row = slice(csr.indptr[i], csr.indptr[i + 1])
            best = None
            for j, w in zip(csr.indices[row], csr.data[row]):
                if j != i and w > 0 and partner[j] < 0:
                    key = (w, _splitmix64(i, int(j)))
                    if best is None or key > best[0]:
                        best = (key, int(j))
            if best is not None:
                proposal[i] = best[1]
        matched = [i for i, j in proposal.items() if proposal.get(j) == i]
        if not matched:
            break
        for i in matched:
            partner[i] = proposal[i]
    labels = np.full(n, -1, dtype=np.intp)
    n_coarse = 0
    for i in range(n):
        if labels[i] < 0:
            labels[i] = n_coarse
            if partner[i] >= 0:
                labels[partner[i]] = n_coarse
            n_coarse += 1
    return labels


class TestHeavyEdgeMatching:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=80),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(n=2, seed=9909)
    def test_matching_is_a_valid_aggregation(self, n, seed):
        weights = _random_graph(n, seed)
        labels = heavy_edge_matching(weights)
        assert labels.shape == (n,)
        assert labels.min() >= 0
        counts = np.bincount(labels)
        # no empty aggregates, and pair matching caps aggregates at 2
        assert counts.min() >= 1
        assert counts.max() <= 2
        # a pair is only ever matched along a positive-weight edge
        for aggregate in np.flatnonzero(counts == 2):
            i, j = np.flatnonzero(labels == aggregate)
            assert weights[i, j] > 0
        p = aggregation_operator(labels)
        assert p.shape == (n, labels.max() + 1)
        # exactly one unit entry per row
        assert np.array_equal(np.diff(p.indptr), np.ones(n, dtype=p.indptr.dtype))
        np.testing.assert_array_equal(p.data, np.ones(n))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=2**16),
        decimals=st.sampled_from([None, 2, 1]),
    )
    def test_matches_per_vertex_reference(self, n, seed, decimals):
        """Rounding the weights creates ties, so the hash decides them."""
        weights = _random_graph(n, seed)
        if decimals is not None:
            weights.data = np.round(weights.data, decimals)
        np.testing.assert_array_equal(
            heavy_edge_matching(weights), _reference_matching(weights)
        )

    @pytest.mark.parametrize("shape", ["path", "grid"])
    def test_unit_weight_ties_still_halve_the_graph(self, shape):
        """A smallest-index tie-break matches one pair per round here and
        leaves ~0.999·n aggregates; the hashed one stays near n/2."""
        weights = _path(10_000, np.ones(9_999)) if shape == "path" else _grid(300)
        n = weights.shape[0]
        assert heavy_edge_matching(weights).max() + 1 <= 0.6 * n

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=120),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_partition_ignores_vertex_order(self, n, seed):
        """kNN weights are all distinct, so no tie-break is involved and
        relabelling the vertices relabels the same aggregates."""
        weights = _random_graph(n, seed)
        perm = np.random.default_rng(seed).permutation(n)
        permuted = weights[perm][:, perm]
        assert _partition(heavy_edge_matching(permuted), names=perm) == (
            _partition(heavy_edge_matching(weights))
        )

    def test_matching_is_deterministic(self):
        weights = _random_graph(50, 3)
        a = heavy_edge_matching(weights)
        b = heavy_edge_matching(weights)
        np.testing.assert_array_equal(a, b)

    def test_rejects_non_square(self):
        with pytest.raises(DataValidationError, match="square"):
            heavy_edge_matching(np.ones((3, 4)))


class TestGalerkinIdentities:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=60),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_coarse_laplacian_identity(self, n, seed):
        """``PᵀL(W)P == L(PᵀWP)`` — the identity that makes the
        hierarchy λ-independent."""
        weights = _random_graph(n, seed)
        p = aggregation_operator(heavy_edge_matching(weights))
        lap_then_coarsen = (p.T @ laplacian(weights) @ p).toarray()
        coarsen_then_lap = laplacian(coarsen_weights(weights, p)).toarray()
        np.testing.assert_allclose(
            lap_then_coarsen, coarsen_then_lap, atol=1e-10
        )

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=60),
        seed=st.integers(min_value=0, max_value=2**16),
        lam=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_triple_product_preserves_spd(self, n, seed, lam):
        weights = _random_graph(n, seed)
        system = _soft_system(weights, lam, max(1, n // 3))
        p = aggregation_operator(heavy_edge_matching(weights))
        coarse = (p.T @ system @ p).toarray()
        np.testing.assert_allclose(coarse, coarse.T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(coarse)
        assert eigenvalues.min() > -1e-10


    @pytest.mark.parametrize("dim", [3, 5])
    def test_coarse_graph_is_canonical_and_bit_equal(self, dim):
        """``coarsen_weights`` never converts W to CSC, and returns the
        canonical CSR ``(P.T @ W @ P).tocsr()`` returns, bit for bit, on
        both passes of a hierarchy level."""
        x = np.random.default_rng(dim).normal(size=(1500, dim))
        weights = knn_graph(x, k=10, bandwidth=0.7).weights
        for _ in range(2):
            p = aggregation_operator(heavy_edge_matching(weights))
            coarse = coarsen_weights(weights, p)
            expected = (p.T @ weights @ p).tocsr()
            assert coarse.format == "csr"
            rebuilt = sparse.csr_matrix(
                (coarse.data, coarse.indices, coarse.indptr), shape=coarse.shape
            )
            assert rebuilt.has_canonical_format  # recomputed, not a cached flag
            for got, want in (
                (coarse.indptr, expected.indptr),
                (coarse.indices, expected.indices),
                (coarse.data, expected.data),
            ):
                np.testing.assert_array_equal(got, want)
            weights = coarse


class TestHierarchy:
    def test_sizes_shrink_monotonically(self):
        weights = _random_graph(200, 5)
        hierarchy = build_hierarchy(weights, min_coarse_size=8)
        sizes = hierarchy.sizes
        assert sizes[0] == 200
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert len(hierarchy.levels) >= 2

    def test_small_graph_yields_empty_hierarchy(self):
        weights = _random_graph(20, 1)
        hierarchy = build_hierarchy(weights, min_coarse_size=1024)
        assert hierarchy.levels == ()
        assert hierarchy.sizes == (20,)

    def test_coarsen_diagonal_aggregates_mask(self):
        weights = _random_graph(120, 2)
        hierarchy = build_hierarchy(weights, min_coarse_size=8)
        mask = np.zeros(120)
        mask[:30] = 1.0
        diagonals = hierarchy.coarsen_diagonal(mask)
        assert len(diagonals) == len(hierarchy.levels)
        # aggregation is a partition: total labeled mass is conserved
        for diag in diagonals:
            assert diag.sum() == pytest.approx(30.0)
        with pytest.raises(DataValidationError, match="length"):
            hierarchy.coarsen_diagonal(np.ones(7))

    def test_monotone_chain_stalls_and_still_solves(self):
        """Strictly increasing weights: only the heaviest remaining edge
        is mutual, so each round matches one pair and the level stalls.
        Every multigrid entry point must still solve exactly."""
        n = 2000
        weights = _path(n, np.arange(1.0, n))
        hierarchy = build_hierarchy(weights, min_coarse_size=16)
        assert hierarchy.sizes == (n,)
        system = _soft_system(weights, 0.5, n // 20)
        rhs = np.random.default_rng(3).normal(size=n)
        expected = solve_spd(system, rhs, method="direct")
        np.testing.assert_allclose(
            _vcycle_pcg(weights, 0.5, n // 20, rhs), expected, atol=1e-7
        )
        y = np.sin(np.arange(n // 20))
        workspace = SolveWorkspace(weights, backend="multigrid")
        for lam in (0.05, 0.5, 5.0):
            expected = solve_spd(
                _soft_system(weights, lam, y.size),
                np.concatenate([y, np.zeros(n - y.size)]),
                method="direct",
            )
            np.testing.assert_allclose(
                workspace.solve_soft(y, lam).scores, expected, atol=1e-7
            )

    def test_invalid_config_rejected(self):
        weights = _random_graph(30, 0)
        with pytest.raises(ConfigurationError, match="min_coarse_size"):
            build_hierarchy(weights, min_coarse_size=0)

    def test_a_level_retains_its_aggregate_map_and_coarse_laplacian(self):
        """Nothing else: no prolongation matrix and no coarse graph."""
        hierarchy = build_hierarchy(_knn_3d(3000, 2), min_coarse_size=16)
        assert len(hierarchy.levels) >= 3
        assert [f.name for f in dataclasses.fields(CoarseLevel)] == ["aggregates", "laplacian"]
        held = 0
        for level in hierarchy.levels:
            for value in (getattr(level, f.name) for f in dataclasses.fields(level)):
                if sparse.issparse(value):
                    held += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
                else:
                    held += value.nbytes
        assert hierarchy.retained_bytes() == held
        assert build_hierarchy(_random_graph(20, 1)).retained_bytes() == 0

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=300),
        seed=st.integers(min_value=0, max_value=2**16),
        min_coarse_size=st.sampled_from([1, 8, 64]),
    )
    def test_levels_hold_connected_aggregates_of_one_to_four(
        self, n, seed, min_coarse_size
    ):
        weights = _random_graph(n, seed)
        hierarchy = build_hierarchy(weights, min_coarse_size=min_coarse_size)
        graph = weights
        for level in hierarchy.levels:
            labels = level.aggregates
            assert labels.shape == (graph.shape[0],) == (level.n_fine,)
            members = np.bincount(labels, minlength=level.n_coarse)
            assert members.size == level.n_coarse
            assert members.min() >= 1 and members.max() <= 4
            # the positive edges inside the aggregates connect each of them
            matched_on = sparse.coo_matrix(graph)
            row, col, w = matched_on.row, matched_on.col, matched_on.data
            inside = (labels[row] == labels[col]) & (row != col) & (w > 0)
            edges = sparse.coo_matrix(
                (w[inside], (row[inside], col[inside])), shape=matched_on.shape
            )
            n_parts, _ = connected_components(edges, directed=False)
            assert n_parts == level.n_coarse
            graph = coarsen_weights(graph, aggregation_operator(labels))

    @pytest.mark.parametrize("data", ["normal-3d", "truncated-mvn-5d"])
    def test_kept_levels_are_every_second_pairwise_level(self, data):
        """The shapes of the pipeline and serving benchmarks' graphs."""
        if data == "normal-3d":
            weights = _knn_3d(3000, 8)
        else:
            cov = np.full((5, 5), 0.05)
            np.fill_diagonal(cov, 0.1)
            raw = np.random.default_rng(8).multivariate_normal(
                np.full(5, 0.5), cov, size=3000
            )
            x = np.where((raw >= 0.0) & (raw <= 1.0), raw, 0.0)
            weights = knn_graph(x, k=10, bandwidth=0.82).weights
        sizes, graphs, matchings = _pairwise_chain(weights, 16)
        hierarchy = build_hierarchy(weights, min_coarse_size=16)
        kept = list(range(0, len(sizes), 2))
        if kept[-1] != len(sizes) - 1:
            kept.append(len(sizes) - 1)  # a last pass left at most 16
        assert list(hierarchy.sizes) == [sizes[i] for i in kept]
        assert len(hierarchy.levels) >= 3
        for level, start, stop in zip(hierarchy.levels, kept, kept[1:]):
            composed = np.arange(sizes[start])
            for labels in matchings[start:stop]:
                composed = labels[composed]
            np.testing.assert_array_equal(level.aggregates, composed)
            assert (level.laplacian != laplacian(graphs[stop])).nnz == 0
            # the composed map's own Galerkin product is that coarse graph
            np.testing.assert_allclose(
                coarsen_weights(graphs[start], aggregation_operator(level.aggregates)).toarray(),
                graphs[stop].toarray(),
                rtol=1e-12,
                atol=1e-15,
            )

    def test_operator_complexity_of_a_knn_hierarchy(self):
        """Σ nnz(L_l) ÷ nnz(L): pairwise levels make it about 2."""
        weights = _knn_3d(3000, 1)
        hierarchy = build_hierarchy(weights, min_coarse_size=16)
        fine = laplacian(weights).nnz
        total = fine + sum(level.laplacian.nnz for level in hierarchy.levels)
        assert total / fine <= 1.5

    def test_stalled_second_pass_keeps_the_pairwise_level(self):
        """Pair edges ``(2i, 2i+1)`` weigh 100 and the linking edges
        strictly increase: the first pass halves the path, the second
        stalls on the monotone coarse chain, and the hierarchy keeps that
        one pairwise level.  Every multigrid entry point still solves."""
        n = 2000
        edge = np.empty(n - 1)
        edge[0::2] = 100.0
        edge[1::2] = np.linspace(1.0, 50.0, n // 2 - 1)
        weights = _path(n, edge)
        hierarchy = build_hierarchy(weights, min_coarse_size=16)
        assert hierarchy.sizes == (n, n // 2)
        assert np.bincount(hierarchy.levels[0].aggregates).max() == 2
        system = _soft_system(weights, 0.5, n // 20)
        rhs = np.random.default_rng(3).normal(size=n)
        np.testing.assert_allclose(
            _vcycle_pcg(weights, 0.5, n // 20, rhs),
            solve_spd(system, rhs, method="direct"),
            atol=1e-7,
        )
        y = np.sin(np.arange(n // 20))
        workspace = SolveWorkspace(weights, backend="multigrid")
        for lam in (0.05, 0.5, 5.0):
            expected = solve_spd(
                _soft_system(weights, lam, y.size),
                np.concatenate([y, np.zeros(n - y.size)]),
                method="direct",
            )
            fit = workspace.solve_soft(y, lam)
            assert fit.details["n_levels"] == 2
            np.testing.assert_allclose(fit.scores, expected, atol=1e-7)


class TestMultigridPreconditioner:
    def test_preconditioner_is_symmetric(self):
        precond = _soft_vcycle(_random_graph(150, 7), 1.5, 40)
        assert precond.n_levels >= 3
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, 150))
        # <Mu, v> == <u, Mv>: required for a valid CG preconditioner
        assert np.dot(precond(u), v) == pytest.approx(
            np.dot(u, precond(v)), rel=1e-8
        )

    def test_from_hierarchy_levels_are_galerkin_products(self):
        """``λL_l + diag(v_l)`` equals ``PᵀA_{l-1}P`` at every level."""
        precond = _soft_vcycle(_knn_3d(2000, 6), 0.3, 100)
        systems = precond._systems
        prolongations = [aggregation_operator(labels) for labels in precond._labels]
        assert len(systems) >= 4
        for fine, coarse, p in zip(systems[:-1], systems[1:], prolongations, strict=True):
            np.testing.assert_allclose(
                coarse.toarray(), (p.T @ fine @ p).toarray(), rtol=1e-12, atol=1e-12
            )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        lam=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_mg_pcg_beats_plain_cg_at_equal_budget(self, seed, lam):
        """Same iteration budget, multigrid reaches a residual at least
        as good (with slack) as unpreconditioned CG."""
        weights = _random_graph(300, seed)
        system = _soft_system(weights, lam, 75)
        rng = np.random.default_rng(seed)
        rhs = rng.normal(size=300)
        budget = 8

        def final_residual(preconditioner):
            try:
                result = preconditioned_conjugate_gradient(
                    system,
                    rhs,
                    preconditioner=preconditioner,
                    tol=1e-14,
                    max_iter=budget,
                )
                return result.final_residual
            except ConvergenceError as exc:
                return exc.residual

        mg = _soft_vcycle(weights, lam, 75)
        assert final_residual(mg) <= 1.05 * final_residual(None) + 1e-12

    def test_cached_restrictions_change_no_output_bit(self):
        """Against an out-of-place cycle that rebuilds each ``P`` from its
        aggregate map and transposes it on every call: smoother ``S =
        ω·D⁻¹``, coarse correction ``α·P e`` with ``α`` =
        :data:`COARSE_FACTOR`.  The in-place cycle makes the same
        roundings in the same order."""
        weights = _knn_3d(2000, 4)
        system = _soft_system(weights, 0.8, 100)
        precond = _soft_vcycle(weights, 0.8, 100)
        systems = precond._systems
        prolongations = [aggregation_operator(labels) for labels in precond._labels]
        coarsest = factorize_spd(systems[-1])

        def cycle(level, rhs):
            if level == len(systems) - 1:
                return np.asarray(coarsest.solve(rhs)).ravel()
            a, p = systems[level], prolongations[level]
            smoother = OMEGA / a.diagonal()
            x = smoother * rhs
            coarse_residual = np.asarray(p.T @ (rhs - a @ x)).ravel()
            correction = COARSE_FACTOR * cycle(level + 1, coarse_residual)
            x = x + np.asarray(p @ correction).ravel()
            return x + smoother * (rhs - a @ x)

        assert precond.n_levels >= 4
        for seed in range(3):
            r = np.random.default_rng(seed).normal(size=system.shape[0])
            assert np.array_equal(precond(r), cycle(0, r))

    @pytest.mark.parametrize("case", ["soft 3-d kNN", "hard 3-d kNN", "soft lattice"])
    def test_vcycle_is_symmetric_positive_definite(self, case):
        """``uᵀM⁻¹v = vᵀM⁻¹u`` to 1e-12 relative to ``√(uᵀM⁻¹u·vᵀM⁻¹v)``
        and ``uᵀM⁻¹u > 0``, at the module's ω < 1 and coarse factor.  The
        unit-weight lattice is bipartite, so its ``D⁻¹A`` comes closest
        to the Gershgorin bound 2 that keeps ``2D/ω − A`` definite only
        for ω < 1; its checkerboard vector is that extreme mode."""
        if case == "soft 3-d kNN":
            precond = _soft_vcycle(_knn_3d(2000, 5), 2.0, 100)
        elif case == "hard 3-d kNN":
            weights, n = _knn_3d(2000, 5), 100
            system, coupling = grounded_system(weights, n)
            hierarchy = build_hierarchy(weights[n:, n:], min_coarse_size=16)
            grounding = np.asarray(coupling.sum(axis=1)).ravel()
            precond = MultigridPreconditioner(
                system, SystemPattern(system), hierarchy, 1.0, hierarchy.coarsen_diagonal(grounding)
            )
        else:
            precond = _soft_vcycle(_grid(40), 10.0, 40)
        assert precond.n_levels >= 3
        size = precond._systems[0].shape[0]
        rng = np.random.default_rng(11)
        vectors = list(rng.normal(size=(6, size)))
        if case == "soft lattice":
            rows, cols = np.divmod(np.arange(size), 40)
            vectors.append((-1.0) ** (rows + cols))
        images = [precond(v) for v in vectors]
        energies = [float(v @ image) for v, image in zip(vectors, images)]
        assert min(energies) > 0
        for i, (u, mu) in enumerate(zip(vectors, images)):
            for j in range(i + 1, len(vectors)):
                v, mv = vectors[j], images[j]
                scale = np.sqrt(energies[i] * energies[j])
                assert abs(float(u @ mv) - float(v @ mu)) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=40),
        seed=st.integers(min_value=0, max_value=2**16),
        scale=st.floats(min_value=1e-100, max_value=1e100),
    )
    @example(sizes=[1], seed=0, scale=1.0)
    def test_aggregate_map_transfers_are_the_sparse_products_bit_for_bit(
        self, sizes, seed, scale
    ):
        """On any aggregate map, singletons included, the cycle's
        ``bincount`` restriction adds each aggregate's entries in vertex
        order, as the CSR product with ``Pᵀ`` does, and its gather is
        ``P @ e``.  The values are scaled normals, none of them ``-0.0``:
        the product's sum starts at ``+0.0`` and would drop a zero's sign
        that the gather keeps."""
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        p = aggregation_operator(labels)
        r = scale * rng.normal(size=labels.size)
        e = scale * rng.normal(size=len(sizes))
        restricted = np.bincount(p.indices, weights=r, minlength=p.shape[1])
        assert restricted.tobytes() == (sparse.csr_matrix(p.T) @ r).tobytes()
        assert restricted.tobytes() == (p.T @ r).tobytes()
        assert e[p.indices].tobytes() == (p @ e).tobytes()

    def test_rejects_non_positive_diagonal(self):
        bad = sparse.diags([0.0, 1.0, 1.0, 1.0]).tocsr()
        level = CoarseLevel(
            aggregates=np.array([0, 0, 1, 1], dtype=np.int32),
            laplacian=sparse.csr_matrix((2, 2)),
        )
        hierarchy = CoarseningHierarchy(4, (level,))
        with pytest.raises(DataValidationError, match="diagonal"):
            MultigridPreconditioner(
                bad, SystemPattern(bad), hierarchy, 1.0, hierarchy.coarsen_diagonal(np.ones(4))
            )


def _csr_bytes(matrix):
    """The bytes of a CSR matrix's data, indices and indptr."""
    return matrix.data.tobytes(), matrix.indices.tobytes(), matrix.indptr.tobytes()


def _sparse_sum(laplacian, scale, diagonal):
    """The assembly a system pattern replaces: a scaled Laplacian plus a
    diagonal matrix, as one sparse sum."""
    return (scale * laplacian + sparse.diags(diagonal, format="csr")).tocsr()


def _pair_and_grid():
    """A 10 × 10 unit lattice plus a pair of vertices joined only to each
    other, weighing 5: the pair's aggregate has no edge out of it, so its
    coarse Laplacian row has an exactly zero diagonal."""
    pair = sparse.csr_matrix(np.array([[0.0, 5.0], [5.0, 0.0]]))
    return sparse.block_diag([_grid(10), pair], format="csr")


class TestSystemPattern:
    """``scale·L + diag(d)`` written into ``L``'s pattern keeps the bits
    of the sparse sum it replaces, for the fine soft system and for every
    coarse level of both criteria."""

    def test_soft_systems_keep_the_sparse_sum_bits(self):
        weights = _knn_3d(3000, 3)
        workspace = SolveWorkspace(weights, backend="multigrid")
        n = 150
        mask = np.zeros(3000)
        mask[:n] = 1.0
        hierarchy = build_hierarchy(weights, min_coarse_size=16)
        assert len(hierarchy.levels) >= 3
        for lam in (0.01, 0.1, 1.0, 10.0):
            system = workspace.soft_system(lam, n)
            assert np.shares_memory(system.indices, workspace.laplacian.indices)
            assert np.shares_memory(system.indptr, workspace.laplacian.indptr)
            assert _csr_bytes(system) == _csr_bytes(_sparse_sum(laplacian(weights), lam, mask))
            for level, diagonal in zip(hierarchy.levels, hierarchy.coarsen_diagonal(mask)):
                assert _csr_bytes(level.pattern.system(lam, diagonal)) == _csr_bytes(
                    _sparse_sum(level.laplacian, lam, diagonal)
                )

    def test_hard_levels_keep_the_sparse_sum_bits(self):
        weights, n = _knn_3d(2000, 5), 100
        system, coupling = grounded_system(weights, n)
        hierarchy = build_hierarchy(weights[n:, n:], min_coarse_size=16)
        grounding = np.asarray(coupling.sum(axis=1)).ravel()
        vcycle = MultigridPreconditioner(
            system, SystemPattern(system), hierarchy, 1.0, hierarchy.coarsen_diagonal(grounding)
        )
        assert vcycle.n_levels >= 3
        for level, diagonal, built in zip(
            hierarchy.levels, hierarchy.coarsen_diagonal(grounding), vcycle._systems[1:]
        ):
            assert _csr_bytes(built) == _csr_bytes(_sparse_sum(level.laplacian, 1.0, diagonal))

    def test_every_kept_laplacian_stores_its_whole_diagonal(self):
        """The pair's aggregate keeps an explicit zero where the sparse
        difference ``D - W`` stores nothing, so the hard level system
        ``L_l + diag(d_l)`` finds its diagonal in the pattern, and a soft
        level with nothing to add keeps that zero as an explicit entry."""
        weights = _pair_and_grid()
        hierarchy = build_hierarchy(weights, min_coarse_size=8)
        assert len(hierarchy.levels) >= 2
        zeros = 0
        for level in hierarchy.levels:
            diagonal = level.pattern.diagonal_of(level.laplacian)
            np.testing.assert_array_equal(diagonal, level.laplacian.diagonal())
            zeros += int(np.count_nonzero(diagonal == 0.0))
            grounding = np.ones(level.n_coarse)
            assert _csr_bytes(level.pattern.system(2.0, grounding)) == _csr_bytes(
                _sparse_sum(level.laplacian, 2.0, grounding)
            )
            soft = level.pattern.system(2.0, np.zeros(level.n_coarse))
            reference = _sparse_sum(level.laplacian, 2.0, np.zeros(level.n_coarse))
            soft.eliminate_zeros()
            assert _csr_bytes(soft) == _csr_bytes(reference)
        assert zeros == len(hierarchy.levels)
        # a fine vertex whose only edge is its self-loop, likewise
        loop_only = laplacian(
            sparse.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))
        )
        assert loop_only[2].indices.tolist() == [2]
        assert loop_only[2, 2] == 0.0

    def test_a_pattern_reads_no_missing_diagonal(self):
        with pytest.raises(DataValidationError, match="diagonal entry in every row"):
            SystemPattern(sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]])))

    def test_retained_bytes_count_a_read_pattern(self):
        hierarchy = build_hierarchy(_knn_3d(3000, 2), min_coarse_size=16)
        before = hierarchy.retained_bytes()
        positions = sum(level.pattern.diagonal.nbytes for level in hierarchy.levels)
        assert hierarchy.retained_bytes() == before + positions

    def test_rejects_a_stored_zero_diagonal(self):
        """A stored zero on a level's diagonal reaches the smoother check."""
        weights = _pair_and_grid()
        hierarchy = build_hierarchy(weights, min_coarse_size=8)
        system = laplacian(weights) + sparse.identity(weights.shape[0], format="csr")
        system = system.tocsr()
        with pytest.raises(DataValidationError, match="level-1 system has a non-positive"):
            MultigridPreconditioner(
                system,
                SystemPattern(system),
                hierarchy,
                1.0,
                hierarchy.coarsen_diagonal(np.zeros(weights.shape[0])),
            )


class TestWorkspaceMultigridBackend:
    @pytest.fixture(scope="class")
    def problem(self):
        data = make_synthetic_dataset(60, 240, seed=13)
        bandwidth = paper_bandwidth_rule(60, 5)
        graph = knn_graph(data.x_all, k=8, bandwidth=bandwidth)
        return data, graph

    def test_parity_with_exact_backend_across_lambda_sweep(self, problem):
        data, graph = problem
        mg = SolveWorkspace(graph.weights, backend="multigrid")
        # the workspace floor (512) would leave this 300-vertex fixture
        # with an empty hierarchy; inject a deep one so the sweep
        # exercises real V-cycles, not the degenerate exact-solve case
        mg._hierarchy = build_hierarchy(graph.weights, min_coarse_size=32)
        mg._counters["coarsen_builds"] += 1
        exact = SolveWorkspace(graph.weights, backend="exact")
        for lam in (0.01, 0.1, 1.0, 10.0):
            a = mg.solve_soft(data.y_labeled, lam)
            b = exact.solve_soft(data.y_labeled, lam)
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-6)
            assert a.solve_info.method == "multigrid_pcg"
            assert a.details["n_levels"] >= 3
        stats = mg.stats()
        assert stats.coarsen_builds == 1  # hierarchy shared across the sweep
        assert stats.multigrid_solves == 4
        assert stats.warm_starts == 3
        assert stats.pcg_iterations > 0

    def test_convergence_failure_falls_back_to_exact(
        self, problem, monkeypatch
    ):
        import repro.linalg.workspace as workspace_module

        data, graph = problem

        def stalled(*args, **kwargs):
            raise ConvergenceError("stalled V-cycle", iterations=1, residual=1.0)

        monkeypatch.setattr(
            workspace_module, "preconditioned_conjugate_gradient", stalled
        )
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        fit = ws.solve_soft(data.y_labeled, 5.0)
        assert fit.details["fallback"] == "exact"
        exact = SolveWorkspace(graph.weights, backend="exact")
        np.testing.assert_allclose(
            fit.scores, exact.solve_soft(data.y_labeled, 5.0).scores, atol=1e-8
        )
        assert ws.stats().fallbacks == 1

    def test_invalidate_clears_hierarchy(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        ws.solve_soft(data.y_labeled, 0.5)
        ws.invalidate()
        ws.solve_soft(data.y_labeled, 0.5)
        assert ws.stats().coarsen_builds == 2

    def test_empty_hierarchy_degenerates_to_exact_solve(self):
        # below the default min_coarse_size the hierarchy is empty and
        # the V-cycle is a single exact solve
        weights = _random_graph(30, 21)
        system = _soft_system(weights, 1.0, 10)
        hierarchy = build_hierarchy(weights)
        mask = np.zeros(30)
        mask[:10] = 1.0
        precond = MultigridPreconditioner(
            system, SystemPattern(system), hierarchy, 1.0, hierarchy.coarsen_diagonal(mask)
        )
        assert precond.n_levels == 1
        rng = np.random.default_rng(2)
        rhs = rng.normal(size=30)
        np.testing.assert_allclose(
            precond(rhs), solve_spd(system, rhs, method="direct"), atol=1e-8
        )
