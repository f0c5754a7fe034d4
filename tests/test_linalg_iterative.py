"""Unit tests for the from-scratch iterative solvers."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import spsolve

from repro.core.hard import solve_hard_criterion
from repro.exceptions import ConvergenceError, DataValidationError
from repro.graph.laplacian import grounded_system
from repro.graph.similarity import knn_graph
from repro.linalg import iterative as iterative_module
from repro.linalg.iterative import (
    IterativeResult,
    conjugate_gradient,
    gauss_seidel,
    jacobi,
    preconditioned_conjugate_gradient,
    sor,
)

SOLVERS = [jacobi, gauss_seidel, conjugate_gradient]


def _spd_diag_dominant(rng, n):
    """SPD and strictly diagonally dominant (converges for all 3 methods)."""
    a = rng.uniform(0, 1, size=(n, n))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, a.sum(axis=1) + 1.0)
    return a


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.__name__)
class TestCommonBehaviour:
    def test_solves_spd_system(self, solver, rng):
        a = _spd_diag_dominant(rng, 10)
        x_true = rng.normal(size=10)
        result = solver(a, a @ x_true, tol=1e-12)
        assert result.converged
        np.testing.assert_allclose(result.x, x_true, atol=1e-8)

    def test_residual_history_decreases_overall(self, solver, rng):
        a = _spd_diag_dominant(rng, 8)
        result = solver(a, rng.normal(size=8), tol=1e-12)
        assert result.residual_norms[-1] < result.residual_norms[0]

    def test_x0_starting_point_accepted(self, solver, rng):
        a = _spd_diag_dominant(rng, 6)
        x_true = rng.normal(size=6)
        result = solver(a, a @ x_true, x0=x_true, tol=1e-12)
        assert result.iterations == 0

    def test_dimension_mismatch_raises(self, solver, rng):
        a = _spd_diag_dominant(rng, 4)
        with pytest.raises(DataValidationError):
            solver(a, np.ones(5))

    def test_bad_x0_raises(self, solver, rng):
        a = _spd_diag_dominant(rng, 4)
        with pytest.raises(DataValidationError):
            solver(a, np.ones(4), x0=np.ones(3))

    def test_non_square_raises(self, solver, rng):
        with pytest.raises(DataValidationError):
            solver(rng.normal(size=(3, 4)), np.ones(3))

    def test_zero_rhs_gives_zero(self, solver, rng):
        a = _spd_diag_dominant(rng, 5)
        result = solver(a, np.zeros(5))
        np.testing.assert_allclose(result.x, np.zeros(5), atol=1e-12)


class TestJacobi:
    def test_sparse_input(self, rng):
        a = _spd_diag_dominant(rng, 12)
        x_true = rng.normal(size=12)
        result = jacobi(sparse.csr_matrix(a), a @ x_true, tol=1e-12)
        np.testing.assert_allclose(result.x, x_true, atol=1e-8)

    def test_zero_diagonal_raises(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DataValidationError, match="diagonal"):
            jacobi(a, np.ones(2))

    def test_divergence_raises_convergence_error(self):
        # Not diagonally dominant; Jacobi diverges.
        a = np.array([[1.0, 3.0], [3.0, 1.0]])
        with pytest.raises(ConvergenceError) as excinfo:
            jacobi(a, np.ones(2), max_iter=100)
        assert excinfo.value.iterations == 100

    @pytest.mark.parametrize("solver", [jacobi, gauss_seidel, sor])
    def test_divergence_stops_at_the_first_non_finite_residual(self, solver):
        """On this matrix every stationary sweep multiplies the error by
        a factor above 1, so the iterate overflows within a few hundred
        sweeps.  The solver stops there with the sweeps made, not after
        ``max_iter`` sweeps on NaNs, and raises no floating-point
        warning on the way; one sweep fewer still has a finite
        residual."""
        a = np.array([[1.0, 3.0], [3.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="not finite") as excinfo:
                solver(a, np.ones(2), max_iter=10_000)
            sweeps = excinfo.value.iterations
            assert 0 < sweeps < 10_000
            assert not np.isfinite(excinfo.value.residual)
            with pytest.raises(ConvergenceError, match="did not converge") as before:
                solver(a, np.ones(2), max_iter=sweeps - 1)
        assert before.value.iterations == sweeps - 1
        assert np.isfinite(before.value.residual)


class TestGaussSeidel:
    def test_converges_faster_than_jacobi(self, rng):
        a = _spd_diag_dominant(rng, 10)
        b = rng.normal(size=10)
        gs = gauss_seidel(a, b, tol=1e-10)
        ja = jacobi(a, b, tol=1e-10)
        assert gs.iterations <= ja.iterations

    def test_spd_but_not_dominant_converges(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a = q @ np.diag(rng.uniform(0.5, 5.0, 6)) @ q.T
        x_true = rng.normal(size=6)
        result = gauss_seidel(a, a @ x_true, tol=1e-11, max_iter=50_000)
        np.testing.assert_allclose(result.x, x_true, atol=1e-6)


class TestConjugateGradient:
    def test_exact_termination_bound(self, rng):
        """CG converges within ~n iterations on well-conditioned systems."""
        a = _spd_diag_dominant(rng, 20)
        result = conjugate_gradient(a, rng.normal(size=20), tol=1e-10)
        assert result.iterations <= 25

    def test_indefinite_matrix_raises(self, rng):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(ConvergenceError, match="positive definite"):
            conjugate_gradient(a, np.array([1.0, 1.0, 1.0]))

    def test_sparse_matches_dense(self, rng):
        a = _spd_diag_dominant(rng, 15)
        b = rng.normal(size=15)
        dense = conjugate_gradient(a, b, tol=1e-12).x
        sp = conjugate_gradient(sparse.csr_matrix(a), b, tol=1e-12).x
        np.testing.assert_allclose(dense, sp, atol=1e-9)

    def test_max_iter_exhaustion_raises(self, rng):
        a = _spd_diag_dominant(rng, 30)
        with pytest.raises(ConvergenceError):
            conjugate_gradient(a, rng.normal(size=30), tol=1e-14, max_iter=2)


# ----------------------------------------------------------------------
# One loop per method: CG is PCG with M = I, Gauss-Seidel is SOR at
# omega = 1.  The references below are the standalone loops those two
# replaced, kept verbatim so the bits they produced stay pinned.
# ----------------------------------------------------------------------


def _reference_cg(matrix, rhs, x0, tol):
    """Hestenes-Stiefel CG with residual-norm tracking."""
    n = rhs.shape[0]
    x = np.zeros(n) if x0 is None else x0.copy()
    max_iter = max(10 * n, 50)
    norm = float(np.linalg.norm(rhs))
    scale = norm if norm > 0 else 1.0
    residual = rhs - matrix @ x
    direction = residual.copy()
    res_sq = float(residual @ residual)
    residuals = [float(np.sqrt(res_sq))]
    if residuals[-1] <= tol * scale:
        return IterativeResult(x, 0, tuple(residuals), True)
    for iteration in range(1, max_iter + 1):
        a_direction = matrix @ direction
        step = res_sq / float(direction @ a_direction)
        x = x + step * direction
        residual = residual - step * a_direction
        new_res_sq = float(residual @ residual)
        residuals.append(float(np.sqrt(new_res_sq)))
        if residuals[-1] <= tol * scale:
            return IterativeResult(x, iteration, tuple(residuals), True)
        direction = residual + (new_res_sq / res_sq) * direction
        res_sq = new_res_sq
    raise AssertionError("reference CG did not converge")


def _reference_gauss_seidel(dense, rhs, x0, tol):
    """Forward Gauss-Seidel sweeps as dense triangular solves."""
    n = rhs.shape[0]
    x = np.zeros(n) if x0 is None else x0.copy()
    norm = float(np.linalg.norm(rhs))
    scale = norm if norm > 0 else 1.0
    strict_lower = np.tril(dense, k=-1)
    upper = np.triu(dense, k=1)
    lower_with_diag = strict_lower + np.diag(np.diagonal(dense).copy())
    residuals = []
    for iteration in range(1, 10_001):
        res_norm = float(np.linalg.norm(rhs - dense @ x))
        residuals.append(res_norm)
        if res_norm <= tol * scale:
            return IterativeResult(x, iteration - 1, tuple(residuals), True)
        x = solve_triangular(lower_with_diag, rhs - upper @ x, lower=True)
    raise AssertionError("reference Gauss-Seidel did not converge")


@st.composite
def spd_systems(draw):
    """A strictly diagonally dominant SPD system, its rhs and maybe an x0.

    The off-diagonal pattern is random (dense to quite sparse) and the
    diagonal margin sets the conditioning; half the draws warm-start.
    """
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**31 - 1))
    density = draw(st.sampled_from([0.1, 0.4, 1.0]))
    margin = draw(st.sampled_from([0.05, 1.0, 10.0]))
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < density)
    a = np.triu(a, k=1)
    a = a + a.T
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + margin)
    rhs = rng.normal(size=n)
    x0 = rng.normal(size=n) if draw(st.booleans()) else None
    return a, rhs, x0


def _assert_same_bits(got: IterativeResult, want: IterativeResult) -> None:
    np.testing.assert_array_equal(got.x, want.x)
    assert got.iterations == want.iterations
    assert got.residual_norms == want.residual_norms


class TestOneLoopPerMethod:
    @given(system=spd_systems())
    @settings(max_examples=40, deadline=None)
    def test_cg_is_the_hestenes_stiefel_loop(self, system):
        a, rhs, x0 = system
        for matrix in (a, sparse.csr_matrix(a)):
            _assert_same_bits(
                conjugate_gradient(matrix, rhs, x0=x0, tol=1e-10),
                _reference_cg(matrix, rhs, x0, tol=1e-10),
            )

    @given(system=spd_systems())
    @settings(max_examples=40, deadline=None)
    def test_dense_gauss_seidel_is_the_forward_sweep(self, system):
        a, rhs, x0 = system
        reference = _reference_gauss_seidel(a, rhs, x0, tol=1e-10)
        _assert_same_bits(gauss_seidel(a, rhs, x0=x0, tol=1e-10), reference)
        _assert_same_bits(sor(a, rhs, omega=1.0, x0=x0, tol=1e-10), reference)

    @given(system=spd_systems())
    @settings(max_examples=40, deadline=None)
    def test_sparse_gauss_seidel_agrees_with_the_forward_sweep(self, system):
        """The CSR sweep is its own triangular solve: equal to tolerance."""
        a, rhs, x0 = system
        reference = _reference_gauss_seidel(a, rhs, x0, tol=1e-10)
        result = gauss_seidel(sparse.csr_matrix(a), rhs, x0=x0, tol=1e-10)
        assert result.converged
        assert abs(result.iterations - reference.iterations) <= 1
        # margin >= 0.05 bounds ||A^-1|| by 20, so both are within
        # 2e-9 ||b|| of the solution.
        atol = 1e-8 * max(1.0, float(np.linalg.norm(rhs)))
        np.testing.assert_allclose(result.x, reference.x, rtol=0, atol=atol)


class TestSparseSweepsStaySparse:
    """On CSR input the sweeps never form an ``(m, m)`` array."""

    @pytest.fixture(scope="class")
    def grounded(self):
        rng = np.random.default_rng(3)
        n = 60
        weights = knn_graph(rng.normal(size=(1200, 3)), k=10, bandwidth=0.5).weights
        y = rng.normal(size=n)
        system, w21 = grounded_system(weights, n)
        rhs = np.asarray(w21 @ y).ravel()
        direct = spsolve(system.tocsc(), rhs)
        return weights, y, system.tocsr(), rhs, direct

    @pytest.mark.parametrize(
        "route", ["gauss_seidel", "sor", "solve_hard_criterion"]
    )
    def test_peak_memory_stays_below_one_dense_copy(self, grounded, route):
        weights, y, system, rhs, direct = grounded
        m = system.shape[0]
        tracemalloc.start()
        try:
            if route == "gauss_seidel":
                x = gauss_seidel(system, rhs).x
            elif route == "sor":
                x = sor(system, rhs, omega=1.5).x
            else:
                x = solve_hard_criterion(weights, y, method="gauss_seidel").unlabeled_scores
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8, f"peak {peak / 1e6:.1f} MB: an (m, m) float64 copy was made"
        np.testing.assert_allclose(x, direct, rtol=0, atol=1e-7)


# ----------------------------------------------------------------------
# PCG updates x, r and p in place; the reference below is the
# out-of-place recurrence, which allocates all three every iteration.
# ----------------------------------------------------------------------


def _reference_pcg(matvec, rhs, precondition, x0, tol):
    """Preconditioned CG with new ``x``, ``r`` and ``p`` every iteration."""
    n = rhs.shape[0]
    x = np.zeros(n) if x0 is None else x0.copy()
    norm = float(np.linalg.norm(rhs))
    scale = norm if norm > 0 else 1.0
    residual = rhs - matvec(x)
    residuals = [float(np.linalg.norm(residual))]
    if residuals[-1] <= tol * scale:
        return IterativeResult(x, 0, tuple(residuals), True)
    z = precondition(residual)
    direction = z.copy()
    rz = float(residual @ z)
    for iteration in range(1, max(10 * n, 50) + 1):
        a_direction = matvec(direction)
        step = rz / float(direction @ a_direction)
        x = x + step * direction
        residual = residual - step * a_direction
        residuals.append(float(np.linalg.norm(residual)))
        if residuals[-1] <= tol * scale:
            return IterativeResult(x, iteration, tuple(residuals), True)
        z = precondition(residual)
        new_rz = float(residual @ z)
        direction = z + (new_rz / rz) * direction
        rz = new_rz
    raise AssertionError("reference PCG did not converge")


def _reusing(function, n):
    """``function`` writing every output into one buffer it overwrites."""
    out = np.empty(n)

    def wrapped(v):
        out[:] = function(v)
        return out

    return wrapped


class TestInPlacePCG:
    @given(system=spd_systems())
    @settings(max_examples=40, deadline=None)
    def test_bit_equal_to_the_out_of_place_recurrence(self, system):
        """Dense, CSR and callable operators, with and without an ``x0``:
        the same ``x``, iteration count and residual history as the
        out-of-place loop, and the caller's ``rhs`` and ``x0`` unchanged."""
        a, rhs, x0 = system
        diag = np.diagonal(a).copy()
        precondition = lambda v: v / diag
        rhs_before = rhs.copy()
        x0_before = None if x0 is None else x0.copy()
        csr = sparse.csr_matrix(a)
        for matrix, product in ((a, a), (csr, csr), (lambda v: a @ v, a)):
            reference = _reference_pcg(lambda v: product @ v, rhs, precondition, x0, tol=1e-10)
            result = preconditioned_conjugate_gradient(
                matrix, rhs, preconditioner=precondition, x0=x0, tol=1e-10
            )
            _assert_same_bits(result, reference)
            np.testing.assert_array_equal(rhs, rhs_before)
            if x0 is not None:
                np.testing.assert_array_equal(x0, x0_before)
                assert result.x is not x0

    @given(system=spd_systems())
    @settings(max_examples=20, deadline=None)
    def test_operators_may_reuse_their_output_buffers(self, system):
        """An operator and a preconditioner that overwrite one buffer on
        every call give the bits of ones that allocate."""
        a, rhs, x0 = system
        n = rhs.shape[0]
        diag = np.diagonal(a).copy()
        precondition = lambda v: v / diag
        fresh = preconditioned_conjugate_gradient(
            lambda v: a @ v, rhs, preconditioner=precondition, x0=x0, tol=1e-10
        )
        reused = preconditioned_conjugate_gradient(
            _reusing(lambda v: a @ v, n),
            rhs,
            preconditioner=_reusing(precondition, n),
            x0=x0,
            tol=1e-10,
        )
        _assert_same_bits(reused, fresh)


class TestDenseSorChecksFiniteOnce:
    """Dense SOR checks its matrix finite on entry, then sweeps with
    LAPACK's own finite scan switched off."""

    @pytest.mark.parametrize("where", ["lower", "diagonal", "upper"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_fails_before_any_sweep(self, monkeypatch, where, bad):
        a = _spd_diag_dominant(np.random.default_rng(4), 6)
        a[{"lower": (4, 1), "diagonal": (2, 2), "upper": (1, 4)}[where]] = bad
        calls = []
        monkeypatch.setattr(
            iterative_module, "solve_triangular", lambda *args, **kw: calls.append(1)
        )
        with pytest.raises(DataValidationError, match="finite") as excinfo:
            sor(a, np.ones(6), omega=1.2)
        assert isinstance(excinfo.value, ValueError)
        assert calls == []

    @pytest.mark.parametrize("omega", [0.6, 1.0, 1.5])
    def test_sweeps_keep_their_bits(self, omega):
        """The same ``x`` and residual history as sweeps that let
        ``solve_triangular`` check its inputs."""
        rng = np.random.default_rng(5)
        a = _spd_diag_dominant(rng, 30)
        rhs = rng.normal(size=30)
        d = np.diag(np.diagonal(a).copy())
        lower = d + omega * np.tril(a, k=-1)
        upper = omega * np.triu(a, k=1) + (omega - 1.0) * d
        x, residuals = np.zeros(30), []
        while True:
            residuals.append(float(np.linalg.norm(rhs - a @ x)))
            if residuals[-1] <= 1e-10 * np.linalg.norm(rhs):
                break
            x = solve_triangular(lower, omega * rhs - upper @ x, lower=True, check_finite=True)
        result = sor(a, rhs, omega=omega, tol=1e-10)
        np.testing.assert_array_equal(result.x, x)
        assert result.residual_norms == tuple(residuals)
