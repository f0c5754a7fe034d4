"""Golden parity suite: workspace sweep backends versus direct solves.

The amortization layer is only admissible if it does not move results.
This suite pins the contract from three directions:

* every workspace backend matches per-point direct solves at
  ``atol=1e-8`` across a lambda grid (on dense graphs, where ``direct``
  takes the Schur route, for exact/factored/multigrid; on sparse
  graphs for exact/factored);
* the sparse exact backend is *bitwise* identical to the direct sparse
  path (same operations in the same order);
* the rewired model-selection and experiment drivers (grid CV,
  bandwidth hoist, parallel replicates) reproduce their pre-workspace
  answers exactly.
"""

import numpy as np
import pytest

from repro.core.soft import solve_soft_criterion
from repro.datasets.synthetic import make_synthetic_dataset
from repro.experiments.figures.prop21 import run_prop21_experiment
from repro.experiments.figures.prop22 import run_prop22_experiment
from repro.experiments.lambda_curve import run_lambda_curve
from repro.graph.similarity import full_kernel_graph, knn_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.linalg.workspace import SolveWorkspace
from repro.model_selection.search import (
    cross_validate_lambda,
    select_bandwidth,
)

LAMBDA_GRID = (1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0)


@pytest.fixture(scope="module")
def dense_problem():
    data = make_synthetic_dataset(80, 40, seed=11)
    bandwidth = paper_bandwidth_rule(80, 5)
    graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
    return data, graph


@pytest.fixture(scope="module")
def sparse_problem():
    data = make_synthetic_dataset(80, 80, seed=13)
    bandwidth = paper_bandwidth_rule(80, 5)
    graph = knn_graph(data.x_all, k=12, bandwidth=bandwidth)
    return data, graph


class TestBackendParity:
    @pytest.mark.parametrize("backend", ["exact", "factored", "multigrid"])
    def test_dense_backend_matches_direct(self, dense_problem, backend):
        data, graph = dense_problem
        ws = SolveWorkspace(graph.weights, backend=backend)
        for lam in LAMBDA_GRID:
            direct = solve_soft_criterion(
                graph.weights, data.y_labeled, lam, check_reachability=False
            )
            amortized = ws.solve_soft(data.y_labeled, lam)
            np.testing.assert_allclose(
                amortized.scores,
                direct.scores,
                atol=1e-8,
                rtol=0,
                err_msg=f"backend={backend} lam={lam}",
            )

    @pytest.mark.parametrize("backend", ["exact", "factored"])
    def test_sparse_backend_matches_direct(self, sparse_problem, backend):
        data, graph = sparse_problem
        ws = SolveWorkspace(graph.weights, backend=backend)
        for lam in LAMBDA_GRID:
            direct = solve_soft_criterion(
                graph.weights, data.y_labeled, lam, check_reachability=False
            )
            amortized = ws.solve_soft(data.y_labeled, lam)
            np.testing.assert_allclose(
                amortized.scores,
                direct.scores,
                atol=1e-8,
                rtol=0,
                err_msg=f"backend={backend} lam={lam}",
            )

    def test_sparse_exact_is_bitwise_identical(self, sparse_problem):
        """The sparse exact path assembles the same system with the same
        op order as :func:`solve_soft_criterion`, so it must produce the
        SAME floats, not merely close ones."""
        data, graph = sparse_problem
        ws = SolveWorkspace(graph.weights, backend="exact")
        for lam in LAMBDA_GRID:
            direct = solve_soft_criterion(
                graph.weights, data.y_labeled, lam, check_reachability=False
            )
            amortized = ws.solve_soft(data.y_labeled, lam)
            np.testing.assert_array_equal(
                amortized.scores, direct.scores, err_msg=f"lam={lam}"
            )

    def test_sparse_woodbury_matches_direct(self):
        """Small labeled fraction routes the factored backend through the
        rank-n_labeled Woodbury continuation; it must still track direct
        per-point solves at 1e-8 across the whole grid."""
        data = make_synthetic_dataset(30, 170, seed=19)
        bandwidth = paper_bandwidth_rule(30, 5)
        graph = knn_graph(data.x_all, k=12, bandwidth=bandwidth)
        ws = SolveWorkspace(graph.weights, backend="factored")
        for lam in LAMBDA_GRID:
            direct = solve_soft_criterion(
                graph.weights, data.y_labeled, lam, check_reachability=False
            )
            amortized = ws.solve_soft(data.y_labeled, lam)
            np.testing.assert_allclose(
                amortized.scores, direct.scores, atol=1e-8, rtol=0,
                err_msg=f"lam={lam}",
            )
        assert ws.stats().woodbury_solves >= len(LAMBDA_GRID) - 1

    def test_lambda_zero_matches_hard_everywhere(self, dense_problem):
        data, graph = dense_problem
        for backend in ("exact", "factored", "multigrid"):
            ws = SolveWorkspace(graph.weights, backend=backend)
            via_soft = ws.solve_soft(data.y_labeled, 0.0)
            via_hard = ws.solve_hard(data.y_labeled)
            np.testing.assert_array_equal(via_soft.scores, via_hard.scores)


class TestModelSelectionParity:
    def test_grid_cv_matches_scalar_loop(self, dense_problem):
        """Scoring a grid in one call (folds hoisted outside the lambda
        loop) must equal the historical per-lambda scalar calls when the
        seed is a reused integer: same fold draws, same solves."""
        data, graph = dense_problem
        grid = (0.0, 0.01, 0.1, 1.0)
        batched = cross_validate_lambda(
            graph.weights, data.y_labeled, grid, n_folds=4, seed=5
        )
        looped = tuple(
            cross_validate_lambda(
                graph.weights, data.y_labeled, lam, n_folds=4, seed=5
            )
            for lam in grid
        )
        assert batched == looped

    @pytest.mark.parametrize("backend", ["exact", "factored"])
    def test_cv_workspace_backend_matches_direct(self, dense_problem, backend):
        data, graph = dense_problem
        grid = (0.0, 0.01, 0.1, 1.0)
        direct = cross_validate_lambda(
            graph.weights, data.y_labeled, grid, n_folds=4, seed=5
        )
        amortized = cross_validate_lambda(
            graph.weights,
            data.y_labeled,
            grid,
            n_folds=4,
            seed=5,
            sweep_backend=backend,
        )
        np.testing.assert_allclose(amortized, direct, atol=1e-8, rtol=0)

    def test_select_bandwidth_hoist_matches_rebuilt(self):
        """Hoisting sqrt(pairwise distances) out of the bandwidth loop
        reuses the same ``profile(radii / h)`` op order as
        ``kernel.gram``, so scores must be bitwise unchanged."""
        data = make_synthetic_dataset(40, 20, seed=17)
        grid = (0.5, 1.0, 2.0)
        hoisted = select_bandwidth(
            data.x_labeled,
            data.y_labeled,
            data.x_unlabeled,
            grid=grid,
            n_folds=3,
            seed=2,
        )
        from repro.kernels.library import GaussianKernel

        x_all = np.vstack([data.x_labeled, data.x_unlabeled])
        for bandwidth, score in zip(grid, hoisted.scores):
            weights = GaussianKernel().gram(x_all, bandwidth=bandwidth)
            rebuilt = cross_validate_lambda(
                weights, data.y_labeled, 0.0, n_folds=3, seed=2
            )
            assert rebuilt == score


class TestExperimentParity:
    def test_lambda_curve_serial_parallel_bit_identical(self):
        kwargs = dict(
            n_labeled=40,
            n_unlabeled=12,
            lambdas=(0.0, 0.01, 0.1, 1.0),
            n_replicates=4,
            seed=21,
            sweep_backend="factored",
        )
        serial = run_lambda_curve(n_jobs=1, **kwargs)
        parallel = run_lambda_curve(n_jobs=2, **kwargs)
        assert serial.rmse == parallel.rmse
        assert serial.hard_rmse == parallel.hard_rmse
        assert serial.mean_rmse == parallel.mean_rmse

    def test_lambda_curve_workspace_interpolates_anchors(self):
        curve = run_lambda_curve(
            n_labeled=40,
            n_unlabeled=12,
            lambdas=(0.0, 0.01, 0.1, 1.0, 100.0, 1e4),
            n_replicates=3,
            seed=22,
            sweep_backend="factored",
        )
        assert curve.interpolates_anchors

    @pytest.mark.parametrize("backend", ["exact", "factored", "multigrid"])
    def test_prop21_still_converges(self, backend):
        result = run_prop21_experiment(
            n_labeled=40, n_unlabeled=12, seed=1, sweep_backend=backend
        )
        assert result.converges

    @pytest.mark.parametrize("backend", ["exact", "factored", "multigrid"])
    def test_prop22_still_collapses(self, backend):
        result = run_prop22_experiment(
            n_labeled=40, n_unlabeled=12, seed=1, sweep_backend=backend
        )
        assert result.collapses_to_mean
