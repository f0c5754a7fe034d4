"""Unit tests for the cross-solve amortization workspace.

Covers the cache machinery (hits/misses/evictions), the continuation
state (warm starts, re-anchoring), invalidation on graph mutation
(including a hypothesis property test: a mutated workspace must raise or
recompute, never serve stale answers), and the ``x0`` threading through
``solve_spd``.  Numerical parity against direct solves lives in
``tests/test_workspace_parity.py``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.hard import solve_hard_criterion
from repro.core.soft import solve_soft_criterion
from repro.datasets.synthetic import make_synthetic_dataset
from repro.exceptions import ConfigurationError, WorkspaceInvalidatedError
from repro.graph.similarity import full_kernel_graph, knn_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.linalg.solvers import SolveInfo, solve_spd
from repro.linalg.workspace import SolveWorkspace, check_sweep_backend


@pytest.fixture(scope="module")
def problem():
    data = make_synthetic_dataset(60, 30, seed=7)
    bandwidth = paper_bandwidth_rule(60, 5)
    graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
    return data, graph


@pytest.fixture(scope="module")
def sparse_problem():
    data = make_synthetic_dataset(60, 60, seed=9)
    bandwidth = paper_bandwidth_rule(60, 5)
    graph = knn_graph(data.x_all, k=10, bandwidth=bandwidth)
    return data, graph


class TestFactorizationCache:
    def test_exact_repeat_solve_hits_cache(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="exact")
        a = ws.solve_soft(data.y_labeled, 0.1)
        b = ws.solve_soft(data.y_labeled, 0.1)
        stats = ws.stats()
        assert stats.factor_misses == 1
        assert stats.factor_hits == 1
        assert np.array_equal(a.scores, b.scores)

    def test_lru_eviction(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="exact", max_factorizations=2)
        for lam in (0.1, 0.2, 0.3):
            ws.solve_soft(data.y_labeled, lam)
        stats = ws.stats()
        assert stats.factor_evictions == 1
        # 0.1 was evicted: solving it again must miss, 0.3 must hit.
        ws.solve_soft(data.y_labeled, 0.3)
        assert ws.stats().factor_hits == 1
        ws.solve_soft(data.y_labeled, 0.1)
        assert ws.stats().factor_misses == 4

    def test_hard_factorization_reused_across_calls(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights)
        ws.solve_hard(data.y_labeled)
        ws.solve_hard(data.y_labeled)
        ws.solve_soft(data.y_labeled, 0.0)  # delegates to hard
        stats = ws.stats()
        assert stats.factor_misses == 1
        assert stats.factor_hits == 2

    def test_distinct_masks_get_distinct_factorizations(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="exact")
        ws.solve_soft(data.y_labeled, 0.1)
        ws.solve_soft(data.y_labeled[:50], 0.1)
        assert ws.stats().factor_misses == 2

    def test_invalid_configuration_rejected(self, problem):
        _, graph = problem
        with pytest.raises(ConfigurationError):
            SolveWorkspace(graph.weights, backend="nope")
        with pytest.raises(ConfigurationError):
            SolveWorkspace(graph.weights, backend="spectral")
        with pytest.raises(ConfigurationError):
            SolveWorkspace(graph.weights, on_mutation="panic")
        with pytest.raises(ConfigurationError):
            SolveWorkspace(graph.weights, max_factorizations=0)
        ws = SolveWorkspace(graph.weights)
        with pytest.raises(ConfigurationError):
            ws.solve_soft(np.ones(10), 0.1, backend="nope")
        with pytest.raises(ConfigurationError):
            check_sweep_backend("spectral")
        # the hard solve always runs the exact grounded factorization,
        # so it takes no backend and no strict-mode switch exists
        with pytest.raises(TypeError):
            ws.solve_hard(np.ones(10), backend="nope")
        with pytest.raises(TypeError):
            SolveWorkspace(graph.weights, exact=True)


class TestContinuation:
    def test_factored_sweep_warm_starts(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="factored")
        ws.sweep_soft(data.y_labeled, (1e-3, 3e-3, 1e-2, 3e-2, 0.1))
        stats = ws.stats()
        # First grid point anchors; later points run warm-started PCG.
        assert stats.pcg_solves >= 1
        assert stats.warm_starts >= 1
        assert stats.factor_misses < 5

    def test_iterative_backend_reports_iterations_saved(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights)
        cold = ws.solve_soft(data.y_labeled, 0.1, backend="cg")
        warm = ws.solve_soft(data.y_labeled, 0.10001, backend="cg")
        assert not cold.solve_info.warm_started
        assert warm.solve_info.warm_started
        assert warm.solve_info.iterations_saved is not None
        assert warm.solve_info.iterations < cold.solve_info.iterations

    def test_small_labeled_fraction_uses_woodbury(self):
        """With n_labeled <= min(512, N/4) the factored path solves the
        whole sweep off ONE factorization via the rank-n_labeled
        Woodbury update — no PCG, no re-anchoring."""
        data = make_synthetic_dataset(20, 100, seed=5)
        bandwidth = paper_bandwidth_rule(20, 5)
        graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
        ws = SolveWorkspace(graph.weights, backend="factored")
        fits = ws.sweep_soft(data.y_labeled, (1e-3, 1e-2, 0.1, 1.0, 10.0))
        stats = ws.stats()
        assert stats.factor_misses == 1
        assert stats.woodbury_solves == 4  # all but the anchor point
        assert stats.pcg_solves == 0
        assert stats.reanchors == 0
        for lam, fit in zip((1e-3, 1e-2, 0.1, 1.0, 10.0), fits):
            reference = solve_soft_criterion(
                graph.weights, data.y_labeled, lam, check_reachability=False
            )
            np.testing.assert_allclose(
                fit.scores, reference.scores, atol=1e-8, rtol=0
            )


class TestInvalidation:
    def test_dense_mutation_raises(self, problem):
        data, graph = problem
        weights = graph.weights.copy()
        ws = SolveWorkspace(weights)
        ws.solve_soft(data.y_labeled, 0.1)
        ws.weights[0, 1] += 0.25
        ws.weights[1, 0] += 0.25
        with pytest.raises(WorkspaceInvalidatedError):
            ws.solve_soft(data.y_labeled, 0.1)

    def test_sparse_mutation_raises(self, sparse_problem):
        data, graph = sparse_problem
        ws = SolveWorkspace(graph.weights.copy())
        ws.solve_hard(data.y_labeled)
        ws.weights.data[0] += 1.0
        with pytest.raises(WorkspaceInvalidatedError):
            ws.solve_hard(data.y_labeled)

    def test_recompute_mode_reflects_mutation(self, problem):
        data, graph = problem
        weights = graph.weights.copy()
        ws = SolveWorkspace(weights, backend="exact", on_mutation="recompute")
        ws.solve_soft(data.y_labeled, 0.1)
        ws.weights[0, 1] += 0.25
        ws.weights[1, 0] += 0.25
        fit = ws.solve_soft(data.y_labeled, 0.1)
        reference = solve_soft_criterion(
            ws.weights, data.y_labeled, 0.1, check_reachability=False
        )
        np.testing.assert_allclose(fit.scores, reference.scores, atol=1e-8)

    def test_explicit_invalidate_clears_caches(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="exact")
        ws.solve_soft(data.y_labeled, 0.1)
        ws.invalidate()
        ws.solve_soft(data.y_labeled, 0.1)
        assert ws.stats().factor_misses == 2

    @settings(max_examples=15, deadline=None)
    @given(
        entry=st.tuples(
            st.integers(min_value=0, max_value=89),
            st.integers(min_value=0, max_value=89),
        ),
        bump=st.floats(min_value=1e-6, max_value=10.0),
        mode=st.sampled_from(["raise", "recompute"]),
    )
    def test_never_serves_stale_factorization(self, entry, bump, mode):
        """Property: after ANY symmetric weight bump, a workspace either
        raises or returns the answer for the mutated graph — never the
        cached answer for the old one.  Diagonal bumps are excluded: they
        shift the degree by the same amount, leaving ``L = D - W`` (and
        hence the solution) unchanged."""
        assume(entry[0] != entry[1])
        data = make_synthetic_dataset(60, 30, seed=3)
        bandwidth = paper_bandwidth_rule(60, 5)
        weights = full_kernel_graph(data.x_all, bandwidth=bandwidth).weights.copy()
        ws = SolveWorkspace(weights, backend="exact", on_mutation=mode)
        stale = ws.solve_soft(data.y_labeled, 0.1)
        i, j = entry
        ws.weights[i, j] += bump
        ws.weights[j, i] = ws.weights[i, j]
        if mode == "raise":
            with pytest.raises(WorkspaceInvalidatedError):
                ws.solve_soft(data.y_labeled, 0.1)
        else:
            fresh = ws.solve_soft(data.y_labeled, 0.1)
            reference = solve_soft_criterion(
                ws.weights, data.y_labeled, 0.1, check_reachability=False
            )
            np.testing.assert_allclose(fresh.scores, reference.scores, atol=1e-8)
            assert not np.array_equal(fresh.scores, stale.scores)


class TestCoreDelegation:
    def test_soft_workspace_kwarg(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights, backend="exact")
        fit = solve_soft_criterion(
            graph.weights, data.y_labeled, 0.1, workspace=ws
        )
        assert fit.method == "workspace[exact]"
        assert ws.stats().factor_misses == 1

    def test_hard_workspace_kwarg(self, problem):
        data, graph = problem
        ws = SolveWorkspace(graph.weights)
        fit = solve_hard_criterion(graph.weights, data.y_labeled, workspace=ws)
        reference = solve_hard_criterion(
            graph.weights, data.y_labeled, check_reachability=False
        )
        np.testing.assert_array_equal(fit.scores[:60], data.y_labeled)
        np.testing.assert_allclose(fit.scores, reference.scores, atol=1e-10)


class TestSolveSpdWarmStart:
    """Satellite: x0 threading through solve_spd."""

    def _system(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(40, 40))
        return a @ a.T + 40 * np.eye(40), rng.normal(size=40)

    def test_x0_forwarded_to_iterative(self):
        system, rhs = self._system()
        exact = np.linalg.solve(system, rhs)
        cold, cold_info = solve_spd(system, rhs, method="cg", return_info=True)
        warm, warm_info = solve_spd(
            system, rhs, method="cg", x0=exact, return_info=True
        )
        assert not cold_info.warm_started
        assert warm_info.warm_started
        assert warm_info.iterations < cold_info.iterations
        np.testing.assert_allclose(warm, exact, atol=1e-8)

    def test_x0_ignored_by_direct(self):
        system, rhs = self._system()
        plain = solve_spd(system, rhs)
        with_x0 = solve_spd(system, rhs, x0=np.ones(40))
        np.testing.assert_array_equal(plain, with_x0)

    def test_solveinfo_new_fields_default(self):
        info = SolveInfo(method="cholesky", size=5)
        assert info.warm_started is False
        assert info.iterations_saved is None
