"""Tests for the graph-coarsening multigrid preconditioner.

The hypothesis suite pins the structural invariants the V-cycle relies
on: every matching yields a valid aggregation operator (one unit entry
per row, no empty aggregates, at most two vertices per aggregate), the
Galerkin triple product ``PᵀAP`` of an SPD system is SPD, and the
coarse Laplacian identity ``PᵀL(W)P = L(PᵀWP)`` holds exactly.  The
performance-shaped property — multigrid-preconditioned CG reaches a
residual no worse than unpreconditioned CG on the same iteration
budget — is what justifies shipping the backend at all.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.datasets.synthetic import make_synthetic_dataset
from repro.exceptions import (
    ConfigurationError,
    ConvergenceError,
    DataValidationError,
)
from repro.graph.laplacian import laplacian
from repro.graph.similarity import knn_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.kernels.base import pairwise_sq_distances
from repro.linalg.advanced import preconditioned_conjugate_gradient
from repro.linalg.coarsen import (
    CoarseningHierarchy,
    MultigridPreconditioner,
    aggregation_operator,
    build_hierarchy,
    coarsen_weights,
    graph_from_system,
    heavy_edge_matching,
    solve_multigrid,
)
from repro.linalg.solvers import solve_spd
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
        p = aggregation_operator(labels)
        assert p.shape == (n, labels.max() + 1)
        # exactly one unit entry per row
        assert np.array_equal(np.diff(p.indptr), np.ones(n, dtype=p.indptr.dtype))
        np.testing.assert_array_equal(p.data, np.ones(n))

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

    def test_graph_from_system_recovers_weights(self):
        weights = _random_graph(40, 11)
        lam = 0.7
        system = _soft_system(weights, lam, 10)
        recovered = graph_from_system(system)
        expected = (lam * weights).tocsr()
        expected.setdiag(0.0)
        expected.eliminate_zeros()
        np.testing.assert_allclose(
            recovered.toarray(), expected.toarray(), atol=1e-12
        )


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

    def test_invalid_config_rejected(self):
        weights = _random_graph(30, 0)
        with pytest.raises(ConfigurationError, match="min_coarse_size"):
            build_hierarchy(weights, min_coarse_size=0)
        with pytest.raises(ConfigurationError, match="max_levels"):
            build_hierarchy(weights, max_levels=-1)


class TestMultigridPreconditioner:
    def test_preconditioner_is_symmetric(self):
        weights = _random_graph(150, 7)
        system = _soft_system(weights, 1.5, 40)
        precond = MultigridPreconditioner.from_matrix(
            system, min_coarse_size=16
        )
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, 150))
        # <Mu, v> == <u, Mv>: required for a valid CG preconditioner
        assert np.dot(precond(u), v) == pytest.approx(
            np.dot(u, precond(v)), rel=1e-8
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

        mg = MultigridPreconditioner.from_matrix(system, min_coarse_size=16)
        assert final_residual(mg) <= 1.05 * final_residual(None) + 1e-12

    def test_validates_level_shapes_and_params(self):
        weights = _random_graph(40, 4)
        system = _soft_system(weights, 1.0, 10)
        with pytest.raises(ConfigurationError, match="at least one"):
            MultigridPreconditioner([], [])
        with pytest.raises(ConfigurationError, match="prolongations"):
            MultigridPreconditioner([system, system], [])
        with pytest.raises(ConfigurationError, match="omega"):
            MultigridPreconditioner.from_matrix(system, omega=1.5)
        with pytest.raises(ConfigurationError, match="n_smooth"):
            MultigridPreconditioner.from_matrix(system, n_smooth=0)

    def test_rejects_non_positive_diagonal(self):
        bad = sparse.diags([0.0, 1.0, 1.0, 1.0]).tocsr()
        p = aggregation_operator(np.array([0, 0, 1, 1]))
        with pytest.raises(DataValidationError, match="diagonal"):
            MultigridPreconditioner([bad, (p.T @ bad @ p).tocsr()], [p])


class TestSolveMultigrid:
    def test_matches_direct_solve(self):
        weights = _random_graph(250, 9)
        system = _soft_system(weights, 2.0, 60)
        rng = np.random.default_rng(1)
        rhs = rng.normal(size=250)
        result = solve_multigrid(system, rhs, min_coarse_size=16)
        expected = solve_spd(system, rhs, method="direct")
        np.testing.assert_allclose(result.x, expected, atol=1e-7)
        assert result.converged

    def test_solve_spd_method_multigrid(self):
        weights = _random_graph(180, 10)
        system = _soft_system(weights, 0.5, 45)
        rhs = np.ones(180)
        x, info = solve_spd(
            system, rhs, method="multigrid", return_info=True
        )
        np.testing.assert_allclose(
            x, solve_spd(system, rhs, method="direct"), atol=1e-7
        )
        assert info.method == "multigrid"
        assert info.iterations > 0
        # warm start from the exact answer converges immediately
        _, warm_info = solve_spd(
            system, rhs, method="multigrid", x0=x, return_info=True
        )
        assert warm_info.warm_started
        assert warm_info.iterations <= info.iterations


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
        assert ws.stats().reanchors == 1

    def test_invalidate_clears_hierarchy(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        ws.solve_soft(data.y_labeled, 0.5)
        ws.invalidate()
        ws.solve_soft(data.y_labeled, 0.5)
        assert ws.stats().coarsen_builds == 2

    def test_empty_hierarchy_degenerates_to_exact_solve(self):
        # below min_coarse_size the V-cycle is a single exact solve
        weights = _random_graph(30, 21)
        hierarchy = CoarseningHierarchy(n_vertices=30)
        system = _soft_system(weights, 1.0, 10)
        precond = MultigridPreconditioner.from_matrix(
            system, hierarchy=hierarchy
        )
        assert precond.n_levels == 1
        rng = np.random.default_rng(2)
        rhs = rng.normal(size=30)
        np.testing.assert_allclose(
            precond(rhs), solve_spd(system, rhs, method="direct"), atol=1e-8
        )
