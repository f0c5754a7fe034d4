"""Golden parity suite: workspace sweep backends versus per-point solves.

Every λ-sweep runs through :class:`~repro.linalg.workspace.SolveWorkspace`,
so the workspace is only admissible if it does not move results.  The
per-point reference is :func:`~repro.core.soft.solve_soft_criterion`.
This suite pins the contract from three directions:

* every workspace backend matches per-point reference solves at
  ``atol=1e-8`` across a lambda grid (on dense graphs, where the
  reference takes the Schur route, for exact/factored/multigrid; on
  sparse graphs for exact/factored), and the multigrid backend's hard
  solve matches :func:`~repro.core.hard.solve_hard_criterion` on both;
* the exact backend is *bitwise* identical to the reference solves
  that assemble the same system — soft on sparse graphs, dense
  ``method="full"``, and the hard criterion on both — because both
  sides assemble through :mod:`repro.graph.laplacian` and solve in the
  same operation order;
* the model-selection and experiment functions (grid CV against a
  per-fold reference loop, bandwidth hoist, parallel replicates)
  reproduce their answers on every backend, and each CV fold takes its
  backend from :func:`~repro.linalg.workspace.choose_backend`:
  ``multigrid`` on sparse graphs above
  :data:`~repro.linalg.workspace.FACTORIZE_MAX_VERTICES` vertices,
  ``exact`` (with the per-fold exact loop's bits) otherwise.
"""

import numpy as np
import pytest

from repro.core.hard import solve_hard_criterion
from repro.core.soft import solve_soft_criterion
from repro.datasets.splits import kfold_indices
from repro.datasets.synthetic import make_synthetic_dataset
from repro.experiments.figures.prop21 import run_prop21_experiment
from repro.experiments.figures.prop22 import run_prop22_experiment
from repro.experiments.lambda_curve import run_lambda_curve
from repro.graph.similarity import full_kernel_graph, knn_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.linalg.workspace import FACTORIZE_MAX_VERTICES, SolveWorkspace
from repro.model_selection import search as search_module
from repro.model_selection.search import cross_validate_lambda, select_bandwidth

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

    @pytest.mark.parametrize("problem", ["sparse_problem", "dense_problem"])
    def test_multigrid_hard_matches_direct(self, request, problem):
        """On ``multigrid`` the hard criterion runs PCG on a V-cycle of
        ``D22 - W22`` instead of factorizing it; it must still track the
        per-point reference at 1e-8."""
        data, graph = request.getfixturevalue(problem)
        ws = SolveWorkspace(graph.weights, backend="multigrid")
        np.testing.assert_allclose(
            ws.solve_hard(data.y_labeled).scores,
            solve_hard_criterion(graph.weights, data.y_labeled).scores,
            atol=1e-8,
            rtol=0,
        )
        assert ws.stats().multigrid_solves == 1

    @pytest.mark.parametrize(
        "problem, method",
        [
            ("sparse_problem", "schur"),
            ("dense_problem", "full"),
            ("sparse_problem", "hard"),
            ("dense_problem", "hard"),
        ],
        ids=["sparse-schur", "dense-full", "sparse-hard", "dense-hard"],
    )
    def test_exact_is_bitwise_identical(self, request, problem, method):
        """The exact backend factorizes the system the per-point solve
        assembles — both come from :mod:`repro.graph.laplacian` — and
        solves it in the same op order, so it must produce the SAME
        floats, not merely close ones.  (On sparse graphs the default
        ``method="schur"`` is answered by the full system.)"""
        data, graph = request.getfixturevalue(problem)
        ws = SolveWorkspace(graph.weights, backend="exact")
        if method == "hard":
            np.testing.assert_array_equal(
                ws.solve_hard(data.y_labeled).scores,
                solve_hard_criterion(graph.weights, data.y_labeled).scores,
            )
            return
        for lam in LAMBDA_GRID:
            direct = solve_soft_criterion(
                graph.weights, data.y_labeled, lam, method=method,
                check_reachability=False,
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

    @pytest.mark.parametrize("backend", ["exact", "factored", "multigrid"])
    def test_cv_workspace_backend_matches_direct(
        self, dense_problem, backend, monkeypatch
    ):
        data, graph = dense_problem
        monkeypatch.setattr(search_module, "choose_backend", lambda weights: backend)
        grid = (0.0, 0.01, 0.1, 1.0)
        y = data.y_labeled
        n = y.shape[0]
        total = graph.weights.shape[0]
        losses = [[] for _ in grid]
        for fold in kfold_indices(n, 4, seed=5):
            keep = np.setdiff1d(np.arange(n), fold)
            order = np.concatenate([keep, fold, np.arange(n, total)])
            w_perm = graph.weights[np.ix_(order, order)]
            for j, lam in enumerate(grid):
                fit = solve_soft_criterion(w_perm, y[keep], lam)
                held_out = fit.scores[len(keep) : len(keep) + len(fold)]
                losses[j].append(np.mean((y[fold] - held_out) ** 2))
        direct = [np.mean(fold_losses) for fold_losses in losses]
        amortized = cross_validate_lambda(
            graph.weights,
            data.y_labeled,
            grid,
            n_folds=4,
            seed=5,
        )
        np.testing.assert_allclose(amortized, direct, atol=1e-8, rtol=0)

    @pytest.mark.parametrize(
        "graph, n_total, backend",
        [
            ("dense", 120, "exact"),
            ("knn", FACTORIZE_MAX_VERTICES, "exact"),
            ("knn", FACTORIZE_MAX_VERTICES + 1, "multigrid"),
        ],
        ids=["dense", "sparse-at-floor", "sparse-above-floor"],
    )
    def test_cv_folds_take_the_backend_from_the_graph(
        self, monkeypatch, graph, n_total, backend
    ):
        """Every fold of a sparse graph above the floor solves through
        ``multigrid`` within 1e-8 of a per-fold ``exact`` loop; a dense
        graph, or a sparse one at the floor, keeps that loop's bits."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(n_total, 3))
        n = n_total // 20
        y = np.sin(x[:n, 0]) + 0.1 * rng.normal(size=n)
        if graph == "dense":
            weights = full_kernel_graph(x, bandwidth=0.5).weights
        else:
            weights = knn_graph(x, k=10, bandwidth=0.5).weights
        grid = (0.0, 0.1, 1.0)

        losses = [[] for _ in grid]
        for fold in kfold_indices(n, 4, seed=5):
            keep = np.setdiff1d(np.arange(n), fold)
            order = np.concatenate([keep, fold, np.arange(n, n_total)])
            if graph == "dense":
                w_perm = weights[np.ix_(order, order)]
            else:
                w_perm = weights[order][:, order].tocsr()
            ws = SolveWorkspace(w_perm, backend="exact")
            for j, lam in enumerate(grid):
                held_out = ws.solve_soft(y[keep], lam).scores[len(keep) : n]
                losses[j].append(np.mean((y[fold] - held_out) ** 2))
        per_fold_exact = tuple(float(np.mean(fold_losses)) for fold_losses in losses)

        built = []

        class RecordingWorkspace(SolveWorkspace):
            def __init__(self, weights, **kwargs):
                super().__init__(weights, **kwargs)
                built.append(self.backend)

        monkeypatch.setattr(search_module, "SolveWorkspace", RecordingWorkspace)
        scores = cross_validate_lambda(weights, y, grid, n_folds=4, seed=5)
        assert built == [backend] * 4
        assert np.all(np.isfinite(scores))
        if backend == "exact":
            assert scores == per_fold_exact
        else:
            np.testing.assert_allclose(scores, per_fold_exact, atol=1e-8, rtol=0)

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
        )
        assert curve.interpolates_anchors

    @pytest.mark.parametrize("backend", ["exact", "factored", "multigrid"])
    def test_prop21_still_converges(self, backend, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.figures.prop21.choose_backend", lambda weights: backend
        )
        result = run_prop21_experiment(n_labeled=40, n_unlabeled=12, seed=1)
        assert result.converges

    @pytest.mark.parametrize("backend", ["exact", "factored", "multigrid"])
    def test_prop22_still_collapses(self, backend, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.figures.prop22.choose_backend", lambda weights: backend
        )
        result = run_prop22_experiment(n_labeled=40, n_unlabeled=12, seed=1)
        assert result.collapses_to_mean

