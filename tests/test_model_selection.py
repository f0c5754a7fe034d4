"""Tests for transductive cross-validation and grid search."""

import numpy as np
import pytest

from repro.datasets.synthetic import make_synthetic_dataset
from repro.exceptions import ConfigurationError, DataValidationError
from repro.graph.similarity import full_kernel_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.linalg import workspace as workspace_module
from repro.model_selection.search import (
    cross_validate_lambda,
    select_bandwidth,
    select_lambda,
)


@pytest.fixture(scope="module")
def cv_problem():
    data = make_synthetic_dataset(80, 25, seed=11)
    bandwidth = paper_bandwidth_rule(80, 5)
    weights = full_kernel_graph(data.x_all, bandwidth=bandwidth).dense_weights()
    return data, weights


class TestCrossValidateLambda:
    def test_returns_finite_positive_loss(self, cv_problem):
        data, weights = cv_problem
        loss = cross_validate_lambda(weights, data.y_labeled, 0.1, seed=0)
        assert np.isfinite(loss) and loss > 0

    def test_lambda_zero_evaluates_hard(self, cv_problem):
        data, weights = cv_problem
        loss = cross_validate_lambda(weights, data.y_labeled, 0.0, seed=0)
        assert np.isfinite(loss)

    def test_deterministic_given_seed(self, cv_problem):
        data, weights = cv_problem
        a = cross_validate_lambda(weights, data.y_labeled, 0.1, seed=3)
        b = cross_validate_lambda(weights, data.y_labeled, 0.1, seed=3)
        assert a == b

    def test_huge_lambda_scores_worse_than_hard(self, cv_problem):
        """CV must detect the collapse-to-mean degradation."""
        data, weights = cv_problem
        hard_loss = cross_validate_lambda(weights, data.y_labeled, 0.0, seed=0)
        collapsed_loss = cross_validate_lambda(weights, data.y_labeled, 1e6, seed=0)
        assert collapsed_loss > hard_loss

    def test_too_few_labels_raises(self, cv_problem):
        _, weights = cv_problem
        with pytest.raises(DataValidationError):
            cross_validate_lambda(weights, np.ones(3), 0.1, n_folds=5)


class TestSelectLambda:
    def test_structure(self, cv_problem):
        data, weights = cv_problem
        result = select_lambda(
            weights, data.y_labeled, grid=(0.0, 0.1, 5.0), seed=0
        )
        assert result.grid == (0.0, 0.1, 5.0)
        assert len(result.scores) == 3
        assert result.best_value in result.grid
        assert result.best_score == min(result.scores)
        assert len(result.to_rows()) == 3

    def test_prefers_small_lambda_on_paper_dgp(self, cv_problem):
        """On the paper's DGP, CV should pick lambda from the small end."""
        data, weights = cv_problem
        result = select_lambda(
            weights, data.y_labeled, grid=(0.0, 0.01, 5.0, 100.0), seed=1
        )
        assert result.best_value <= 0.01

    def test_empty_grid_raises(self, cv_problem):
        data, weights = cv_problem
        with pytest.raises(ConfigurationError):
            select_lambda(weights, data.y_labeled, grid=())

    def test_negative_lambda_rejected(self, cv_problem):
        data, weights = cv_problem
        with pytest.raises(ConfigurationError):
            select_lambda(weights, data.y_labeled, grid=(-0.1, 0.1))


class TestSelectBandwidth:
    def test_picks_reasonable_bandwidth(self):
        data = make_synthetic_dataset(60, 20, seed=5)
        reference = paper_bandwidth_rule(60, 5)
        grid = (0.1 * reference, reference, 10.0 * reference)
        result = select_bandwidth(
            data.x_labeled, data.y_labeled, data.x_unlabeled,
            grid=grid, seed=0,
        )
        assert result.best_value in grid
        # The absurdly small bandwidth (near-disconnected graph) must not win.
        assert result.best_value != grid[0]

    def test_invalid_grid_raises(self):
        data = make_synthetic_dataset(20, 5, seed=6)
        with pytest.raises(ConfigurationError):
            select_bandwidth(
                data.x_labeled, data.y_labeled, data.x_unlabeled, grid=()
            )
        with pytest.raises(ConfigurationError):
            select_bandwidth(
                data.x_labeled, data.y_labeled, data.x_unlabeled, grid=(0.0,)
            )


class TestSelectBandwidthKnnRoute:
    """The large-N bugfix: bandwidth search over a sparse kNN graph must
    never materialise an (N, N) array."""

    def _problem(self, seed=5):
        data = make_synthetic_dataset(60, 20, seed=seed)
        reference = paper_bandwidth_rule(60, 5)
        grid = (0.1 * reference, reference, 10.0 * reference)
        return data, grid

    def test_knn_route_agrees_with_full_on_best_value(self):
        data, grid = self._problem()
        full = select_bandwidth(
            data.x_labeled, data.y_labeled, data.x_unlabeled,
            grid=grid, seed=0,
        )
        knn = select_bandwidth(
            data.x_labeled, data.y_labeled, data.x_unlabeled,
            grid=grid, seed=0, graph="knn", graph_params={"k": 15},
        )
        assert knn.best_value in grid
        assert knn.best_value == full.best_value

    def test_approx_construction_and_multigrid_backend(self, monkeypatch):
        data, grid = self._problem(seed=6)
        # Lowered floor: the 80-vertex kNN graphs take the multigrid backend.
        monkeypatch.setattr(workspace_module, "FACTORIZE_MAX_VERTICES", 10)
        result = select_bandwidth(
            data.x_labeled, data.y_labeled, data.x_unlabeled,
            grid=grid, seed=0, graph="knn",
            graph_params={"k": 12, "construction": "approx"},
        )
        assert result.best_value in grid
        assert np.isfinite(result.best_score)

    def test_one_route_name_across_entry_points(self, monkeypatch):
        """``"construction"`` in ``graph_params`` names the route on the
        serving model, the regressor and the bandwidth search alike, and
        all three build the weights of ``approx_knn_graph``."""
        from repro.core.estimators import GraphSSLRegressor
        from repro.graph.approx import approx_knn_graph
        from repro.model_selection import search as search_module
        from repro.serving import GraphSSLModel

        data, _ = self._problem(seed=7)
        bandwidth = 1.0
        params = {"k": 10, "construction": "approx"}
        args = (data.x_labeled, data.y_labeled, data.x_unlabeled)
        model = GraphSSLModel(
            graph="knn", graph_params=params, bandwidth=bandwidth
        ).fit(*args)
        regressor = GraphSSLRegressor(
            graph="knn", graph_params=params, bandwidth=bandwidth
        ).fit(*args)
        searched = []
        score = search_module.cross_validate_lambda

        def recording(weights, *rest, **kwargs):
            searched.append(weights)
            return score(weights, *rest, **kwargs)

        monkeypatch.setattr(search_module, "cross_validate_lambda", recording)
        select_bandwidth(*args, grid=(bandwidth,), seed=0, graph="knn", graph_params=params)
        expected = approx_knn_graph(data.x_all, k=10, bandwidth=bandwidth).weights
        for weights in (model.graph_.weights, regressor.graph_.weights, *searched):
            assert (weights != expected).nnz == 0
        assert len(searched) == 1

    def test_invalid_graph_arguments_rejected(self):
        data, grid = self._problem()
        args = (data.x_labeled, data.y_labeled, data.x_unlabeled)
        with pytest.raises(ConfigurationError, match="graph must"):
            select_bandwidth(*args, grid=grid, graph="mesh")
        with pytest.raises(ConfigurationError, match="graph_params"):
            select_bandwidth(*args, grid=grid, graph_params={"k": 5})
        with pytest.raises(ConfigurationError, match="unknown graph_params"):
            select_bandwidth(
                *args, grid=grid, graph="knn", graph_params={"radius": 1.0}
            )
        with pytest.raises(ConfigurationError, match="construction"):
            select_bandwidth(
                *args, grid=grid, graph="knn",
                graph_params={"construction": "magic"},
            )

    def test_knn_route_never_allocates_dense_n_by_n(self, monkeypatch):
        """Mirror of the PR-2 graph-construction guard, for the search:
        N=8000 bandwidth selection through the knn route must stay under
        an N^2/4-element allocation budget."""
        n_total = 8000
        n_labeled = 40
        budget = n_total * n_total // 4

        rng = np.random.default_rng(0)
        x_all = rng.normal(size=(n_total, 2))
        y_labeled = np.sign(x_all[:n_labeled, 0])
        y_labeled[y_labeled == 0] = 1.0

        def guarded(allocator):
            def wrapper(shape, *args, **kwargs):
                size = int(np.prod(np.atleast_1d(shape)))
                assert size < budget, (
                    f"dense allocation of shape {shape} during knn "
                    f"bandwidth selection"
                )
                return allocator(shape, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(np, "empty", guarded(np.empty))
        monkeypatch.setattr(np, "zeros", guarded(np.zeros))
        monkeypatch.setattr(np, "ones", guarded(np.ones))

        result = select_bandwidth(
            x_all[:n_labeled],
            y_labeled,
            x_all[n_labeled:],
            grid=(0.05, 0.2),
            lam=0.1,
            n_folds=2,
            seed=0,
            graph="knn",
            graph_params={"k": 8},
        )
        assert result.best_value in (0.05, 0.2)
