"""Serving above the factorization floor: fit and insert through a V-cycle.

``GraphSSLModel`` fits and serves sparse reference graphs with more than
:data:`~repro.linalg.workspace.FACTORIZE_MAX_VERTICES` vertices on the
workspace's ``multigrid`` backend: the fit runs PCG on a Galerkin V-cycle
and exact insertion is preconditioned by that cached V-cycle instead of a
sparse LU of the whole system.  These tests lower the floor below a
700-vertex kNN fixture — large enough that the V-cycle coarsens at least
once — and pin, for a hard and a λ = 0.5 model:

* no system larger than the V-cycle's coarsest level is ever factorized;
* exact predictions and both credible-interval routes match the
  ``exact``-backend model and a rebuild-and-resolve at 1e-8;
* each insertion stays stateless, so serving is deterministic;
* dense models and sparse models at or below the floor still factorize.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from test_serving_parity import oracle_prediction

from repro import obs
from repro.datasets.synthetic import make_regression_dataset, truncated_mvn_inputs
from repro.linalg import solvers as solvers_module
from repro.linalg import workspace as workspace_module
from repro.linalg.workspace import _min_coarse_size
from repro.serving import GraphSSLModel

#: Floor used by these tests: below the fixture's 700 vertices.
LOWERED_FLOOR = 600

LAMS = (0.0, 0.5)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(8)
    reference = make_regression_dataset(40, 660, seed=rng)
    queries = truncated_mvn_inputs(6, seed=rng)
    return reference, queries


def _fit(reference, lam: float, graph: str = "knn") -> GraphSSLModel:
    params = {"k": 10} if graph == "knn" else {}
    model = GraphSSLModel(lam=lam, graph=graph, graph_params=params)
    return model.fit(reference.x_labeled, reference.y_labeled, reference.x_unlabeled)


@pytest.fixture(scope="module")
def models(data):
    """``{lam: (multigrid model, exact-backend model)}`` on one graph."""
    reference, _ = data
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workspace_module, "FACTORIZE_MAX_VERTICES", LOWERED_FLOOR)
        multigrid = {lam: _fit(reference, lam) for lam in LAMS}
    return {lam: (multigrid[lam], _fit(reference, lam)) for lam in LAMS}


class TestBackendChoice:
    @pytest.mark.parametrize("lam", LAMS)
    def test_above_floor_runs_a_multilevel_vcycle(self, models, lam):
        multigrid, exact = models[lam]
        assert multigrid._workspace.backend == "multigrid"
        assert multigrid.result_.solve_info.method == "multigrid_pcg"
        assert multigrid.result_.details["n_levels"] >= 2
        assert exact._workspace.backend == "exact"

    def test_fit_span_records_the_choice(self, data, monkeypatch):
        reference, _ = data
        monkeypatch.setattr(workspace_module, "FACTORIZE_MAX_VERTICES", LOWERED_FLOOR)
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            _fit(reference, 0.0)
        (span,) = [s for s in tracer.iter_spans() if s.name == "repro.serving.fit"]
        assert span.attributes["backend"] == "multigrid"
        assert span.attributes["sparse"] is True
        assert span.attributes["n_reference"] == 700

    def test_dense_and_below_floor_models_factorize(self, data, monkeypatch):
        reference, _ = data
        assert 700 <= workspace_module.FACTORIZE_MAX_VERTICES
        assert _fit(reference, 0.0)._workspace.backend == "exact"
        monkeypatch.setattr(workspace_module, "FACTORIZE_MAX_VERTICES", 10)
        assert _fit(reference, 0.0, graph="full")._workspace.backend == "exact"


class TestNoLargeFactorization:
    @pytest.mark.parametrize("lam", LAMS)
    def test_only_the_coarsest_level_is_factorized(self, data, monkeypatch, lam):
        """Above the floor neither the fit nor the inserter factorizes
        the whole system: only V-cycle coarsest levels are factorized."""
        reference, queries = data
        sizes = []
        original = solvers_module.SPDFactorization.__init__

        def recording(factor, matrix):
            sizes.append(matrix.shape[0])
            original(factor, matrix)

        monkeypatch.setattr(solvers_module.SPDFactorization, "__init__", recording)
        monkeypatch.setattr(workspace_module, "FACTORIZE_MAX_VERTICES", LOWERED_FLOOR)
        model = _fit(reference, lam)
        model.predict(queries, method="exact")
        if lam == 0.0:
            model.predict(queries, method="exact", return_interval=True)
            model.predict(queries, method="nw", return_interval=True)
        system_size = 700 if lam else 660
        assert sizes
        assert max(sizes) <= _min_coarse_size(system_size) < system_size


class TestParity:
    @pytest.mark.parametrize("lam", LAMS)
    def test_predictions_match_exact_backend(self, models, data, lam):
        multigrid, exact = models[lam]
        _, queries = data
        np.testing.assert_allclose(
            multigrid.predict(queries, method="exact"),
            exact.predict(queries, method="exact"),
            atol=1e-8,
            rtol=0,
        )

    @pytest.mark.parametrize("lam", LAMS)
    def test_predictions_match_rebuild_and_resolve(self, models, data, lam):
        multigrid, _ = models[lam]
        _, queries = data
        served = multigrid.predict(queries[:3], method="exact")
        expected = [oracle_prediction(multigrid, query) for query in queries[:3]]
        np.testing.assert_allclose(served, expected, atol=1e-8, rtol=0)

    @pytest.mark.parametrize("method", ["exact", "nw"])
    def test_interval_routes_match_exact_backend(self, models, data, method):
        """``method="exact"`` solves the extended Schur complement;
        ``method="nw"`` takes the first-order interval, whose
        ``A⁻¹c_u`` is a PCG solve to tolerance on either backend."""
        multigrid, exact = models[0.0]
        _, queries = data
        for got, want in zip(
            multigrid.predict(queries, method=method, return_interval=True),
            exact.predict(queries, method=method, return_interval=True),
        ):
            np.testing.assert_allclose(got, want, atol=1e-8, rtol=0)


class TestDeterminism:
    @pytest.mark.parametrize("lam", LAMS)
    def test_insertions_are_stateless(self, models, data, lam):
        multigrid, _ = models[lam]
        _, queries = data
        forward = multigrid.predict(queries, method="exact")
        backward = multigrid.predict(queries[::-1], method="exact")
        np.testing.assert_array_equal(forward, backward[::-1])

    def test_pickled_copy_rebuilds_the_same_vcycle(self, models, data, monkeypatch):
        multigrid, _ = models[0.0]
        _, queries = data
        monkeypatch.setattr(workspace_module, "FACTORIZE_MAX_VERTICES", LOWERED_FLOOR)
        clone = pickle.loads(pickle.dumps(multigrid))
        np.testing.assert_array_equal(
            clone.predict(queries, method="exact"),
            multigrid.predict(queries, method="exact"),
        )
        assert clone._workspace.backend == "multigrid"
