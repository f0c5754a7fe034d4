"""Unit tests for the unified solver dispatch."""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import ConfigurationError, SingularSystemError
from repro.linalg.solvers import solve_spd, solve_square

METHODS = ["direct", "sparse", "cg", "jacobi", "gauss_seidel"]


def _spd(rng, n):
    a = rng.uniform(0, 1, size=(n, n))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, a.sum(axis=1) + 1.0)
    return a


class TestSolveSquare:
    def test_dense(self, rng):
        a = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        x = rng.normal(size=5)
        np.testing.assert_allclose(solve_square(a, a @ x), x, atol=1e-9)

    def test_sparse(self, rng):
        a = _spd(rng, 8)
        x = rng.normal(size=8)
        got = solve_square(sparse.csc_matrix(a), a @ x)
        np.testing.assert_allclose(got, x, atol=1e-9)

    def test_singular_dense_raises(self):
        with pytest.raises(SingularSystemError):
            solve_square(np.ones((3, 3)), np.ones(3))

    def test_singular_sparse_raises(self):
        a = sparse.csc_matrix(np.ones((3, 3)))
        with pytest.raises(SingularSystemError):
            solve_square(a, np.ones(3))


class TestSolveSpd:
    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_agree(self, rng, method):
        a = _spd(rng, 12)
        x = rng.normal(size=12)
        got = solve_spd(a, a @ x, method=method, tol=1e-12)
        np.testing.assert_allclose(got, x, atol=1e-7)

    def test_direct_on_sparse_input(self, rng):
        a = _spd(rng, 6)
        x = rng.normal(size=6)
        got = solve_spd(sparse.csr_matrix(a), a @ x, method="direct")
        np.testing.assert_allclose(got, x, atol=1e-9)

    def test_direct_falls_back_for_semidefinite(self, rng):
        """Indefinite-but-invertible input must still solve (LU fallback)."""
        a = np.diag([1.0, -2.0, 3.0])
        x = np.array([1.0, 2.0, 3.0])
        got = solve_spd(a, a @ x, method="direct")
        np.testing.assert_allclose(got, x, atol=1e-10)

    def test_unknown_method_raises(self, rng):
        a = _spd(rng, 3)
        # "multigrid" is no solve_spd method: graph systems get their
        # V-cycle from SolveWorkspace(backend="multigrid")
        for method in ("quantum", "multigrid"):
            with pytest.raises(ConfigurationError, match="unknown solver"):
                solve_spd(a, np.ones(3), method=method)

    def test_criteria_reject_multigrid_solver(self, rng):
        from repro.core.estimators import GraphSSLRegressor
        from repro.core.hard import solve_hard_criterion
        from repro.core.soft import solve_soft_criterion

        weights = _spd(rng, 6)
        np.fill_diagonal(weights, 1.0)
        y = np.array([1.0, -1.0])
        with pytest.raises(ConfigurationError, match="unknown solver"):
            solve_hard_criterion(weights, y, method="multigrid")
        with pytest.raises(ConfigurationError, match="unknown solver"):
            solve_soft_criterion(
                sparse.csr_matrix(weights), y, 0.5, solver="multigrid"
            )
        model = GraphSSLRegressor(0.0, bandwidth=1.0, solver="multigrid")
        with pytest.raises(ConfigurationError, match="unknown solver"):
            model.fit(rng.normal(size=(2, 2)), y, rng.normal(size=(4, 2)))

    def test_max_iter_forwarded(self, rng):
        from repro.exceptions import ConvergenceError

        a = _spd(rng, 20)
        with pytest.raises(ConvergenceError):
            solve_spd(a, rng.normal(size=20), method="cg", tol=1e-15, max_iter=1)


class TestSPDFactorization:
    def test_dense_cholesky_reused_across_rhs(self, rng):
        from repro.linalg.solvers import factorize_spd

        a = _spd(rng, 10)
        factor = factorize_spd(a)
        assert factor.method == "cholesky"
        assert factor.nnz is None and factor.fill_nnz is None
        block = rng.normal(size=(10, 3))
        np.testing.assert_allclose(a @ factor.solve(block), block, atol=1e-8)

    def test_sparse_reports_nnz_and_fill(self, rng):
        from repro.linalg.solvers import factorize_spd

        a = sparse.csr_matrix(_spd(rng, 15))
        factor = factorize_spd(a)
        assert factor.method == "sparse_lu"
        assert factor.nnz == a.nnz
        assert factor.fill_nnz >= factor.size  # L and U each carry a diagonal
        x = rng.normal(size=15)
        np.testing.assert_allclose(factor.solve(a @ x), x, atol=1e-8)

    def test_sparse_block_rhs(self, rng):
        from repro.linalg.solvers import factorize_spd

        dense = _spd(rng, 9)
        factor = factorize_spd(sparse.csr_matrix(dense))
        block = rng.normal(size=(9, 4))
        np.testing.assert_allclose(dense @ factor.solve(block), block, atol=1e-8)

    def test_singular_sparse_raises(self):
        from repro.linalg.solvers import factorize_spd

        with pytest.raises(SingularSystemError):
            factorize_spd(sparse.csr_matrix(np.ones((4, 4))))

    def test_singular_dense_raises(self):
        from repro.linalg.solvers import factorize_spd

        with pytest.raises(SingularSystemError):
            factorize_spd(np.ones((4, 4)))

    def test_info_carries_fill_stats(self, rng):
        from repro.linalg.solvers import factorize_spd

        a = sparse.csr_matrix(_spd(rng, 12))
        info = factorize_spd(a).info()
        assert info.method == "sparse_lu"
        assert info.nnz == a.nnz
        assert info.fill_nnz is not None

    def test_solve_spd_sparse_info_has_nnz(self, rng):
        a = sparse.csr_matrix(_spd(rng, 12))
        x = rng.normal(size=12)
        got, info = solve_spd(a, np.asarray(a @ x).ravel(), method="direct", return_info=True)
        np.testing.assert_allclose(got, x, atol=1e-8)
        assert info.method == "sparse_lu"
        assert info.nnz == a.nnz

    def test_dense_direct_info_unchanged(self, rng):
        a = _spd(rng, 8)
        x = rng.normal(size=8)
        got, info = solve_spd(a, a @ x, method="direct", return_info=True)
        np.testing.assert_allclose(got, x, atol=1e-9)
        assert info.method == "cholesky"
        assert info.nnz is None
