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
* dense models and sparse models at or below the floor still factorize;
* a model's fit, exact insertions and later solves at its λ share one
  operator: one assembled system and, on ``multigrid``, one V-cycle;
* insertion PCG, started from the fitted field with the query at its
  harmonic value, takes no more iterations per query than the same PCG
  started from the rank-1 border guess, and fewer in sum on a V-cycle;
* the bordered product, which works on the query's neighbours alone
  beyond ``A``'s own product, is the explicitly assembled bordered
  matrix.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from scipy import sparse

from test_serving_parity import oracle_prediction

from repro import obs
from repro.datasets.synthetic import make_regression_dataset, truncated_mvn_inputs
from repro.linalg import coarsen as coarsen_module
from repro.linalg import solvers as solvers_module
from repro.linalg import workspace as workspace_module
from repro.linalg.coarsen import _coarsest_bound
from repro.linalg.iterative import preconditioned_conjugate_gradient
from repro.serving import GraphSSLModel
from repro.serving.insertion import INSERTION_MAX_ITER, INSERTION_TOL, _bordered_operators

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


def _rank1_start_insertion(inserter, row):
    """One exact insertion by the inserter's bordered PCG, started from
    the rank-1 border guess ``(f + g·t₀, t₀)`` with ``g = M⁻¹(scale·c)``.

    This guess models the query's edges but not the ``scale·diag(c)`` the
    query adds to its neighbours' degrees.  Same system, preconditioner
    and stopping test as :meth:`ExactInserter.insert`; returns
    ``(prediction, iterations)``.
    """
    if inserter.lam:
        c = np.zeros(inserter.n_total)
        c[row.indices] = row.weights
        scale, tail, warm = inserter.lam, 0.0, inserter.scores
    else:
        tail, c = inserter._split(row)
        scale, warm = 1.0, inserter.scores[inserter.n :]
    s, k, border = row.total, c.shape[0], scale * c
    g = inserter.precondition(border)
    denom = scale * s - float(border @ g)
    assert denom > 0
    t0 = (tail + float(border @ warm)) / denom

    def matvec(v):
        top = inserter.system @ v[:k] + scale * (c * v[:k]) - border * v[k]
        return np.concatenate([top, [scale * (s * v[k] - float(c @ v[:k]))]])

    def precondition(r):
        return np.concatenate([inserter.precondition(r[:k]), [r[k] / (scale * s)]])

    result = preconditioned_conjugate_gradient(
        matvec,
        np.concatenate([inserter.rhs, [tail]]),
        preconditioner=precondition,
        x0=np.concatenate([warm + g * t0, [t0]]),
        tol=INSERTION_TOL,
        max_iter=INSERTION_MAX_ITER,
    )
    return float(result.x[k]), result.iterations


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
        assert max(sizes) <= _coarsest_bound(system_size) < system_size


class TestOneOperator:
    @pytest.mark.parametrize("lam", LAMS)
    @pytest.mark.parametrize("backend", ["multigrid", "exact"])
    def test_shared_by_fit_serving_and_solves(self, data, monkeypatch, backend, lam):
        """A model builds its criterion's operator once: the fit, 20 exact
        insertions and two more solves at its λ share one assembled
        system and one preconditioner: a V-cycle on ``multigrid``, one
        factorization on ``exact``.  A hard model slices
        the weight matrix twice in all, ``W22`` once and ``W21`` once."""
        reference, _ = data
        assemblies, vcycles, slices = [], [], []
        name = "assemble_soft_system" if lam else "_grounded_laplacian"
        assemble = getattr(workspace_module, name)

        def counting_assembly(*args, **kwargs):
            assemblies.append(1)
            return assemble(*args, **kwargs)

        build = coarsen_module.MultigridPreconditioner.__init__

        def counting_build(vcycle, *args, **kwargs):
            vcycles.append(1)
            build(vcycle, *args, **kwargs)

        getitem = sparse.csr_matrix.__getitem__

        def recording_slice(matrix, key):
            slices.append(matrix)
            return getitem(matrix, key)

        monkeypatch.setattr(workspace_module, name, counting_assembly)
        monkeypatch.setattr(coarsen_module.MultigridPreconditioner, "__init__", counting_build)
        monkeypatch.setattr(sparse.csr_matrix, "__getitem__", recording_slice)
        if backend == "multigrid":
            monkeypatch.setattr(workspace_module, "FACTORIZE_MAX_VERTICES", LOWERED_FLOOR)
        model = _fit(reference, lam)
        workspace = model._workspace
        assert workspace.backend == backend
        model.predict(truncated_mvn_inputs(20, seed=np.random.default_rng(3)), method="exact")
        y = reference.y_labeled
        for _ in range(2):
            if lam:
                workspace.solve_soft(y, lam)
            else:
                workspace.solve_hard(y)
        assert len(assemblies) == 1
        assert len(vcycles) == (backend == "multigrid")
        if not lam:
            assert sum(matrix is workspace.weights for matrix in slices) == 2
        n = y.shape[0]
        assert model._inserter.system is workspace.operator(lam, n).system
        assert len(assemblies) == 1
        assert workspace.stats().factorizations == (backend == "exact")


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


class TestStart:
    @pytest.mark.parametrize("lam", LAMS)
    def test_fitted_field_start_beats_the_rank1_guess(self, models, data, lam):
        """Query by query, the fitted-field start takes at most the
        rank-1 start's iterations on both backends, strictly fewer in sum
        on the V-cycle, and both reach the same prediction."""
        _, queries = data
        totals = {}
        for backend, model in zip(("multigrid", "exact"), models[lam]):
            inserter = model._ensure_inserter()
            rows = model.query_weights(queries)
            new = [inserter.insert(row) for row in rows]
            old = [_rank1_start_insertion(inserter, row) for row in rows]
            np.testing.assert_allclose(
                [result.prediction for result in new],
                [prediction for prediction, _ in old],
                atol=1e-10,
                rtol=0,
            )
            for result, (_, iterations) in zip(new, old):
                assert result.iterations <= iterations, backend
            totals[backend] = (
                sum(result.iterations for result in new),
                sum(iterations for _, iterations in old),
            )
        new_total, old_total = totals["multigrid"]
        assert new_total < old_total, totals


class TestBorderedOperator:
    @pytest.mark.parametrize("lam", LAMS)
    def test_sparse_border_product_is_the_assembled_matrix(self, models, data, lam):
        """``[[A + scale·diag(c), -scale·c], [-scale·cᵀ, scale·s]] v``
        assembled as one CSR matrix and applied by the inserter's
        product agree to 1e-14 relative to the absolute row sums ``|B||v|``;
        the block preconditioner applies ``M⁻¹`` and ``1/(scale·s)``."""
        _, queries = data
        model, _ = models[lam]
        inserter = model._ensure_inserter()
        rng = np.random.default_rng(2)
        for row in model.query_weights(queries):
            if lam:
                scale, c = lam, np.zeros(inserter.n_total)
                c[row.indices] = row.weights
            else:
                scale, (_, c) = 1.0, inserter._split(row)
            s = row.total
            matvec, precondition = _bordered_operators(
                inserter.system, inserter.precondition, c, scale, s
            )
            border = sparse.csr_matrix(-scale * c[:, None])
            bordered = sparse.bmat(
                [
                    [inserter.system + sparse.diags(scale * c), border],
                    [border.T, sparse.csr_matrix([[scale * s]])],
                ],
                format="csr",
            )
            for v in rng.normal(size=(3, c.size + 1)):
                got, want = matvec(v).copy(), bordered @ v
                assert np.all(np.abs(got - want) <= 1e-14 * (abs(bordered) @ np.abs(v)))
            r = rng.normal(size=c.size + 1)
            z = precondition(r)
            np.testing.assert_array_equal(z[:-1], inserter.precondition(r[:-1]))
            assert z[-1] == r[-1] / (scale * s)
