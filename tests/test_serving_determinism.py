"""Bitwise-determinism contract of the serving layer.

The serving layer promises that batching is *only* a throughput trade:
``predict_batch`` must be bit-identical to a loop of ``predict``, at
every ``batch_size``, and through the
:class:`~repro.serving.server.ModelServer` micro-batcher.  These tests
use exact equality (``==``, never ``allclose``) on purpose — a single
ULP of drift means some per-query quantity leaked across queries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import make_regression_dataset, truncated_mvn_inputs
from repro.serving import GraphSSLModel, ModelServer

METHODS = ("nw", "exact")


@pytest.fixture(scope="module")
def fitted():
    """One fitted model per graph family plus a 17-query workload.

    17 is deliberately prime: it never divides evenly into the batch
    sizes below, so every split exercises a ragged tail chunk.
    """
    rng = np.random.default_rng(11)
    data = make_regression_dataset(30, 120, seed=rng)
    queries = truncated_mvn_inputs(17, seed=rng)
    models = {}
    for graph, params in (("full", {}), ("knn", {"k": 10})):
        model = GraphSSLModel(graph=graph, graph_params=params)
        model.fit(data.x_labeled, data.y_labeled, data.x_unlabeled)
        models[graph] = model
    return models, queries


class TestBatchEqualsLoop:
    @pytest.mark.parametrize("graph", ["full", "knn"])
    @pytest.mark.parametrize("method", METHODS)
    def test_predict_batch_bitwise_equals_predict_loop(self, fitted, graph, method):
        models, queries = fitted
        model = models[graph]
        batched = model.predict_batch(queries, method=method)
        looped = np.array(
            [model.predict(q[None, :], method=method)[0] for q in queries]
        )
        assert np.array_equal(batched, looped)

    @pytest.mark.parametrize("batch_size", [1, 3, 5, 17, 64])
    @pytest.mark.parametrize("method", METHODS)
    def test_batch_size_never_changes_bits(self, fitted, batch_size, method):
        models, queries = fitted
        model = models["full"]
        reference = model.predict(queries, method=method)
        split = model.predict_batch(
            queries, method=method, batch_size=batch_size
        )
        assert np.array_equal(split, reference)

    def test_interval_bounds_are_batch_invariant(self, fitted):
        models, queries = fitted
        model = models["full"]
        whole = model.predict_batch(queries, method="exact", return_interval=True)
        split = model.predict_batch(
            queries, method="exact", return_interval=True, batch_size=4
        )
        for a, b in zip(whole, split):
            assert np.array_equal(a, b)


class TestServerDeterminism:
    @pytest.mark.parametrize("method", METHODS)
    def test_server_stream_equals_direct_batch(self, fitted, method):
        models, queries = fitted
        model = models["full"]
        direct = model.predict_batch(queries, method=method)
        server = ModelServer(model, method=method, max_batch_size=5)
        streamed = server.predict_many(queries)
        assert np.array_equal(streamed, direct)

    def test_flush_boundaries_are_invisible(self, fitted):
        models, queries = fitted
        model = models["full"]
        small = ModelServer(model, method="nw", max_batch_size=2)
        large = ModelServer(model, method="nw", max_batch_size=100)
        assert np.array_equal(
            small.predict_many(queries), large.predict_many(queries)
        )

    def test_repeated_workloads_are_stable(self, fitted):
        """Serving is stateless: counters advance, predictions do not."""
        models, queries = fitted
        model = models["full"]
        for method in METHODS:
            first = model.predict_batch(queries, method=method)
            second = model.predict_batch(queries, method=method)
            assert np.array_equal(first, second)
