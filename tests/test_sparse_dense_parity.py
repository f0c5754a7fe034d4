"""Dense-vs-sparse golden-parity suite: the correctness lock for the
sparse-native fast path.

Every estimator must produce the same scores whether it is handed

* the *dense* ndarray of a kNN graph built by the historical dense route,
* the same graph as a scipy *sparse* CSR matrix, or
* the CSR built by the densification-free *neighbor* route
  (``construction="neighbors"``), which never materializes an ``(N, N)``
  array.

If any core path silently densifies — or the neighbor construction
drifts from the dense one — these tests are the tripwire.  CI runs this
module with ``-W error::scipy.sparse.SparseEfficiencyWarning`` so even
*inefficient* sparse operations (structure-changing assignment, implicit
format conversions) fail the build.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.core.hard import solve_hard_criterion
from repro.core.multiclass import solve_multiclass_hard
from repro.core.nadaraya_watson import nadaraya_watson_from_weights
from repro.core.propagation import local_global_consistency, propagate_labels, propagate_soft
from repro.core.soft import solve_soft_criterion
from repro.core.uncertainty import gaussian_field_posterior
from repro.core.variants import solve_soft_criterion_normalized
from repro.graph.similarity import knn_graph

ATOL = 1e-8

N_TOTAL = 40
N_LABELED = 12
K = 6


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(N_TOTAL, 2))
    y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=N_TOTAL)
    y_labeled = y[:N_LABELED]
    y_classes = (x[:N_LABELED, 0] > 0).astype(float) + (x[:N_LABELED, 1] > 0)
    dense_built = knn_graph(x, k=K, bandwidth=1.0, construction="dense")
    neighbor_built = knn_graph(x, k=K, bandwidth=1.0, construction="neighbors")
    return {
        "dense": dense_built.dense_weights(),
        "sparse": dense_built.weights.tocsr(),
        "neighbors": neighbor_built.weights.tocsr(),
        "y": y_labeled,
        "y_classes": y_classes,
    }


VARIANTS = ("dense", "sparse", "neighbors")


def _check_parity(problem, solve, atol=ATOL):
    """Run ``solve(weights)`` on all three inputs and compare to dense."""
    reference = solve(problem["dense"])
    for variant in ("sparse", "neighbors"):
        got = solve(problem[variant])
        np.testing.assert_allclose(got, reference, atol=atol, rtol=0,
                                   err_msg=f"variant {variant!r} diverged")
    return reference


class TestInputsAgree:
    def test_three_representations_same_graph(self, problem):
        np.testing.assert_allclose(
            np.asarray(problem["sparse"].todense()), problem["dense"], atol=0
        )
        np.testing.assert_allclose(
            np.asarray(problem["neighbors"].todense()), problem["dense"], atol=1e-12
        )

    def test_sparse_inputs_are_actually_sparse(self, problem):
        assert sparse.issparse(problem["sparse"])
        assert sparse.issparse(problem["neighbors"])
        assert problem["sparse"].nnz < N_TOTAL * N_TOTAL


class TestEstimatorParity:
    def test_hard(self, problem):
        _check_parity(problem, lambda w: solve_hard_criterion(w, problem["y"]).scores)

    @pytest.mark.parametrize("method", ["full", "schur"])
    @pytest.mark.parametrize("lam", [0.05, 1.0])
    def test_soft(self, problem, method, lam):
        _check_parity(
            problem,
            lambda w: solve_soft_criterion(w, problem["y"], lam, method=method).scores,
        )

    def test_soft_with_empty_laplacian_diagonal(self):
        """A labeled vertex with only a self-loop has ``L_ii = 0``, which
        CSR does not store: ``V`` must enter ``V + lam L`` as a diagonal
        matrix, because assigning it into CSR changes the sparsity
        structure, which this module's CI gate turns into an error."""
        weights = np.eye(8)
        for i in range(1, 7):
            weights[i, i + 1] = weights[i + 1, i] = 0.5
        y = np.array([0.3, 1.0])
        dense = solve_soft_criterion(weights, y, 0.5, method="full").scores
        csr = solve_soft_criterion(sparse.csr_matrix(weights), y, 0.5, method="full").scores
        np.testing.assert_allclose(csr, dense, atol=ATOL, rtol=0)

    def test_soft_lam_zero_matches_hard(self, problem):
        scores = _check_parity(
            problem, lambda w: solve_soft_criterion(w, problem["y"], 0.0).scores
        )
        hard = solve_hard_criterion(problem["sparse"], problem["y"]).scores
        np.testing.assert_allclose(scores, hard, atol=ATOL)

    def test_propagation_hard(self, problem):
        _check_parity(
            problem,
            lambda w: propagate_labels(w, problem["y"], tol=1e-13).fit.scores,
        )

    def test_propagation_soft(self, problem):
        _check_parity(
            problem,
            lambda w: propagate_soft(w, problem["y"], 0.5, tol=1e-13).fit.scores,
        )

    def test_nadaraya_watson(self, problem):
        _check_parity(problem, lambda w: nadaraya_watson_from_weights(w, problem["y"]))

    def test_multiclass(self, problem):
        _check_parity(
            problem,
            lambda w: solve_multiclass_hard(w, problem["y_classes"]).scores,
        )

    def test_multiclass_predictions(self, problem):
        dense_fit = solve_multiclass_hard(problem["dense"], problem["y_classes"])
        for variant in ("sparse", "neighbors"):
            fit = solve_multiclass_hard(problem[variant], problem["y_classes"])
            np.testing.assert_array_equal(fit.predict(), dense_fit.predict())
            np.testing.assert_allclose(
                fit.predict_proba(), dense_fit.predict_proba(), atol=ATOL
            )

    def test_uncertainty_mean(self, problem):
        _check_parity(
            problem, lambda w: gaussian_field_posterior(w, problem["y"]).mean
        )

    def test_uncertainty_variance(self, problem):
        _check_parity(
            problem, lambda w: gaussian_field_posterior(w, problem["y"]).variance
        )

    def test_variants_normalized(self, problem):
        _check_parity(
            problem,
            lambda w: solve_soft_criterion_normalized(w, problem["y"], 0.5).scores,
        )

    def test_local_global_consistency(self, problem):
        _check_parity(
            problem,
            lambda w: local_global_consistency(w, problem["y"], alpha=0.9).scores,
        )


class TestNoDenseAllocation:
    """The acceptance guard: ``construction="neighbors"`` at N=8000 must
    never allocate an ``(N, N)`` dense array."""

    N = 8000

    def test_neighbor_construction_never_densifies(self, monkeypatch):
        import repro.graph.similarity as similarity

        budget = self.N * self.N // 4  # elements; far below any (N, N) array

        def guarded(allocator):
            def wrapper(shape, *args, **kwargs):
                size = int(np.prod(np.atleast_1d(shape)))
                assert size < budget, (
                    f"dense allocation of shape {shape} on the neighbor path"
                )
                return allocator(shape, *args, **kwargs)

            return wrapper

        def poisoned(*args, **kwargs):
            raise AssertionError(
                "pairwise_sq_distances (the O(N^2) kernel) was called on "
                "the neighbor construction path"
            )

        monkeypatch.setattr(similarity, "pairwise_sq_distances", poisoned)
        monkeypatch.setattr(np, "empty", guarded(np.empty))
        monkeypatch.setattr(np, "zeros", guarded(np.zeros))
        monkeypatch.setattr(np, "ones", guarded(np.ones))

        rng = np.random.default_rng(0)
        x = rng.normal(size=(self.N, 2))
        graph = knn_graph(x, k=8, bandwidth=0.5, construction="neighbors")
        assert graph.is_sparse
        # union symmetrization: at most N self-loops + 2 N k directed edges
        assert graph.weights.nnz <= self.N + 2 * self.N * 8

    def test_auto_picks_neighbors_at_scale(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(600, 2))
        graph = knn_graph(x, k=5, bandwidth=0.5)
        assert graph.params["construction"] == "neighbors"
        small = knn_graph(rng.normal(size=(30, 2)), k=5, bandwidth=0.5)
        assert small.params["construction"] == "dense"
