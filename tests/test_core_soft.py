"""Unit tests for the soft criterion (Eq. 2/3/4)."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.hard import solve_hard_criterion
from repro.core.soft import (
    soft_criterion_objective,
    soft_lambda_infinity_limit,
    solve_soft_criterion,
)
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    DisconnectedGraphError,
)


class TestStationarity:
    def test_full_solves_stationarity_system(self, small_problem):
        """(V + lam L) f = (y; 0) holds for the returned scores."""
        data, weights, _ = small_problem
        lam = 0.3
        n = data.n_labeled
        fit = solve_soft_criterion(weights, data.y_labeled, lam, method="full")
        degrees = weights.sum(axis=1)
        lap = np.diag(degrees) - weights
        system = lam * lap
        system[np.arange(n), np.arange(n)] += 1.0
        rhs = np.zeros(weights.shape[0])
        rhs[:n] = data.y_labeled
        np.testing.assert_allclose(system @ fit.scores, rhs, atol=1e-8)

    def test_schur_matches_full(self, small_problem):
        data, weights, _ = small_problem
        for lam in (0.01, 0.1, 1.0, 5.0):
            full = solve_soft_criterion(weights, data.y_labeled, lam, method="full")
            schur = solve_soft_criterion(weights, data.y_labeled, lam, method="schur")
            np.testing.assert_allclose(schur.scores, full.scores, atol=1e-8)

    def test_matches_eq4_bruteforce(self, small_problem):
        """The schur path equals a literal transcription of Eq. (4)."""
        data, weights, _ = small_problem
        n = data.n_labeled
        lam = 0.2
        degrees = weights.sum(axis=1)
        d11 = np.diag(degrees[:n])
        d22 = np.diag(degrees[n:])
        w11, w12 = weights[:n, :n], weights[:n, n:]
        w21, w22 = weights[n:, :n], weights[n:, n:]
        inner = np.eye(n) + lam * d11 - lam * w11
        inner_inv = np.linalg.inv(inner)
        system = d22 - w22 - lam * (w21 @ inner_inv @ w12)
        expected = np.linalg.solve(system, w21 @ inner_inv @ data.y_labeled)
        fit = solve_soft_criterion(weights, data.y_labeled, lam, method="schur")
        np.testing.assert_allclose(fit.unlabeled_scores, expected, atol=1e-9)

    def test_is_minimizer_of_objective(self, small_problem, rng):
        """Random perturbations never decrease Eq. (2)'s objective."""
        data, weights, _ = small_problem
        lam = 0.5
        fit = solve_soft_criterion(weights, data.y_labeled, lam)
        base = soft_criterion_objective(weights, data.y_labeled, fit.scores, lam)
        for _ in range(10):
            perturbed = fit.scores + 0.05 * rng.normal(size=fit.scores.shape)
            value = soft_criterion_objective(weights, data.y_labeled, perturbed, lam)
            assert value >= base - 1e-9


class TestProposition21:
    """Proposition II.1: lam -> 0 recovers the hard criterion."""

    def test_lam_zero_delegates_to_hard(self, small_problem):
        data, weights, _ = small_problem
        soft = solve_soft_criterion(weights, data.y_labeled, 0.0)
        hard = solve_hard_criterion(weights, data.y_labeled)
        np.testing.assert_allclose(soft.scores, hard.scores, atol=1e-12)
        assert soft.criterion == "soft"

    def test_limit_is_continuous(self, small_problem):
        data, weights, _ = small_problem
        hard = solve_hard_criterion(weights, data.y_labeled)
        deviations = []
        for lam in (1e-2, 1e-4, 1e-6, 1e-8):
            soft = solve_soft_criterion(weights, data.y_labeled, lam)
            deviations.append(
                np.max(np.abs(soft.unlabeled_scores - hard.unlabeled_scores))
            )
        assert all(b < a for a, b in zip(deviations, deviations[1:]))
        assert deviations[-1] < 1e-6


class TestProposition22:
    """Proposition II.2: lam -> inf collapses to the labeled mean."""

    def test_collapse_to_labeled_mean(self, small_problem):
        data, weights, _ = small_problem
        mean = data.y_labeled.mean()
        soft = solve_soft_criterion(weights, data.y_labeled, 1e9)
        np.testing.assert_allclose(
            soft.scores, np.full(weights.shape[0], mean), atol=1e-5
        )

    def test_infinity_limit_helper(self):
        limit = soft_lambda_infinity_limit(np.array([1.0, 0.0, 1.0]), 5)
        np.testing.assert_allclose(limit, np.full(5, 2.0 / 3.0))

    def test_infinity_limit_rejects_short_total(self):
        with pytest.raises(DataValidationError):
            soft_lambda_infinity_limit(np.ones(5), 3)

    def test_monotone_shrinkage_toward_mean(self, small_problem):
        """Distance to the mean vector decreases along increasing lambda."""
        data, weights, _ = small_problem
        mean = data.y_labeled.mean()
        distances = []
        for lam in (0.1, 1.0, 10.0, 100.0):
            soft = solve_soft_criterion(weights, data.y_labeled, lam)
            distances.append(np.max(np.abs(soft.scores - mean)))
        assert all(b < a for a, b in zip(distances, distances[1:]))


class TestValidationAndErrors:
    def test_negative_lambda_raises(self, small_problem):
        data, weights, _ = small_problem
        with pytest.raises(DataValidationError):
            solve_soft_criterion(weights, data.y_labeled, -0.1)

    def test_unknown_method_raises(self, small_problem):
        data, weights, _ = small_problem
        with pytest.raises(ConfigurationError, match="method"):
            solve_soft_criterion(weights, data.y_labeled, 0.1, method="magic")

    def test_disconnected_raises(self, disconnected_weights):
        with pytest.raises(DisconnectedGraphError):
            solve_soft_criterion(disconnected_weights, np.array([1.0, 0.0]), 0.1)

    def test_too_many_labels_raises(self, tiny_weights):
        with pytest.raises(DataValidationError):
            solve_soft_criterion(tiny_weights, np.ones(5), 0.1)

    def test_no_unlabeled_shrinks_labels(self, rng):
        """With m = 0 the soft criterion is ridge-like on the labels."""
        from repro.graph.similarity import full_kernel_graph

        x = rng.normal(size=(6, 2))
        graph = full_kernel_graph(x, bandwidth=1.0)
        y = rng.normal(size=6)
        fit = solve_soft_criterion(graph.weights, y, 0.5, method="schur")
        assert fit.scores.shape == (6,)
        # Shrinkage: the fitted spread cannot exceed the label spread.
        assert fit.scores.std() < y.std() + 1e-12

    def test_labeled_scores_not_clamped(self, small_problem):
        """Unlike the hard criterion, soft smooths the labeled scores."""
        data, weights, _ = small_problem
        fit = solve_soft_criterion(weights, data.y_labeled, 1.0)
        assert np.max(np.abs(fit.labeled_scores - data.y_labeled)) > 1e-3


def _six_vertex_problem():
    """Dense 6-vertex full-kernel weights, two labeled vertices first."""
    from repro.graph.similarity import full_kernel_graph

    x = np.random.default_rng(6).normal(size=(6, 2))
    return full_kernel_graph(x, bandwidth=1.0).weights, np.array([1.0, -1.0])


class TestSolverName:
    """``solver`` is checked on entry and the named backend runs on every
    route, dense Schur requests included."""

    @pytest.mark.parametrize("form", ["dense-schur", "dense-full", "sparse"])
    def test_unknown_solver_raises_before_any_work(self, form, monkeypatch):
        from repro.core import soft
        from repro.linalg.solvers import solve_spd

        weights, y = _six_vertex_problem()
        if form == "sparse":
            weights = sparse.csr_matrix(weights)
        method = "full" if form == "dense-full" else "schur"

        def no_reachability(*args, **kwargs):
            raise AssertionError("reachability ran before the solver check")

        monkeypatch.setattr(soft, "require_labeled_reachability", no_reachability)
        with pytest.raises(ConfigurationError) as spd_error:
            solve_spd(np.eye(2), np.ones(2), method="no-such-solver")
        with pytest.raises(ConfigurationError) as excinfo:
            solve_soft_criterion(
                weights, y, 0.5, method=method, solver="no-such-solver"
            )
        assert str(excinfo.value) == str(spd_error.value)

    def test_named_backend_runs_on_dense_schur(self):
        weights, y = _six_vertex_problem()
        fit = solve_soft_criterion(weights, y, 0.5, solver="cg")
        assert fit.solve_info.method == "cg"
        assert fit.method == "schur->full"
        reference = solve_soft_criterion(weights, y, 0.5)
        np.testing.assert_allclose(fit.scores, reference.scores, atol=1e-8)

    def test_regressor_reports_its_solver(self):
        from repro.core.estimators import GraphSSLRegressor

        rng = np.random.default_rng(8)
        model = GraphSSLRegressor(lam=0.5, bandwidth=1.0, solver="cg")
        model.fit(rng.normal(size=(4, 2)), rng.normal(size=4), rng.normal(size=(8, 2)))
        assert model.graph_.construction == "full"
        assert model.result_.solve_info.method == "cg"

    def test_default_solver_keeps_the_schur_bits(self):
        from repro.core.soft import _solve_schur

        weights, y = _six_vertex_problem()
        fit = solve_soft_criterion(weights, y, 0.5)
        assert fit.method == "schur"
        np.testing.assert_array_equal(
            fit.scores, _solve_schur(weights, y, 0.5, 2, 4).scores
        )
        direct = solve_soft_criterion(weights, y, 0.5, solver="direct")
        np.testing.assert_array_equal(direct.scores, fit.scores)


class TestObjectiveHelper:
    def test_perfect_fit_zero_loss(self, tiny_weights):
        scores = np.ones(4)
        value = soft_criterion_objective(tiny_weights, np.ones(2), scores, 2.0)
        assert value == pytest.approx(0.0)

    def test_decomposition(self, tiny_weights, rng):
        y = rng.normal(size=2)
        scores = rng.normal(size=4)
        lam = 0.7
        loss = np.sum((y - scores[:2]) ** 2)
        diffs = scores[:, None] - scores[None, :]
        penalty = 0.5 * lam * np.sum(tiny_weights * diffs**2)
        got = soft_criterion_objective(tiny_weights, y, scores, lam)
        assert got == pytest.approx(loss + penalty, rel=1e-10)
