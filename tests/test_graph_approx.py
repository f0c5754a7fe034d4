"""Tests for the RP-tree approximate kNN route.

Acceptance-gate properties: recall ≥ 0.95 at the default knob on
clustered data, downstream estimator scores within 1e-2 of the exact
graph, determinism in the seed, and graceful exactness on duplicates
(where the brute-force fallback and the deterministic tie rule carry
the contract).  The hypothesis block checks the structural invariants
on arbitrary inputs: self-exclusion, row sorting by (distance, index),
and recall never hurt by adding trees.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.approx as approx_mod
from repro.core.soft import solve_soft_criterion
from repro.exceptions import ConfigurationError
from repro.graph.approx import (
    DEFAULT_N_TREES,
    approx_knn_graph,
    knn_recall,
    rp_tree_knn,
)
from repro.graph.similarity import _knn_neighbor_lists, knn_graph


def _clustered(n_per_blob=300, n_blobs=5, d=3, seed=42):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_blobs, d)) * 10
    return np.concatenate(
        [c + rng.normal(size=(n_per_blob, d)) for c in centers]
    )


@contextmanager
def _streamed(capacity):
    """Stream every query's candidate merge through a ``capacity`` buffer.

    The query phase streams on its own only past
    ``STREAM_AUTO_CANDIDATES`` (about 4·10⁶ candidates); these fixtures
    are far below that, so they run one-shot unless patched.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(approx_mod, "STREAM_AUTO_CANDIDATES", 0)
        patch.setattr(approx_mod, "DEFAULT_BLOCK_CANDIDATES", capacity)
        yield


class TestRpTreeKnn:
    def test_recall_gate_on_clustered_data(self):
        x = _clustered()
        _, idx = rp_tree_knn(x, 10)
        assert knn_recall(x, 10, idx) >= 0.95

    def test_deterministic_in_seed(self):
        x = _clustered(n_per_blob=100)
        a = rp_tree_knn(x, 8, seed=3)
        b = rp_tree_knn(x, 8, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_more_trees_higher_recall(self):
        x = _clustered(n_per_blob=200)
        _, sparse_idx = rp_tree_knn(x, 10, n_trees=1)
        _, dense_idx = rp_tree_knn(x, 10, n_trees=DEFAULT_N_TREES)
        assert knn_recall(x, 10, dense_idx) > knn_recall(x, 10, sparse_idx)

    def test_rows_sorted_and_self_excluded(self):
        x = _clustered(n_per_blob=80)
        dist, idx = rp_tree_knn(x, 6)
        n = x.shape[0]
        assert dist.shape == idx.shape == (n, 6)
        assert not np.any(idx == np.arange(n)[:, None])
        assert np.all(np.diff(dist, axis=1) >= 0)
        assert np.all(dist >= 0) and np.all(np.isfinite(dist))

    def test_duplicates_handled(self):
        x = _clustered(n_per_blob=60)
        xd = np.vstack([x[:20]] * 4 + [x])
        dist, idx = rp_tree_knn(xd, 5)
        assert not np.any(idx == np.arange(xd.shape[0])[:, None])
        # duplicates project identically so they always share a leaf:
        # each 5x-replicated point must find all 4 of its twins (their
        # distance is GEMM round-off, ~1e-7 after sqrt, not exactly 0)
        assert np.all(dist[:20, :4] < 1e-6)
        twins = np.arange(20)[:, None] + np.array([[20, 40, 60, 80]])
        for i in range(20):
            assert set(idx[i, :4]) == set(twins[i])

    def test_tiny_leaf_fallback_is_exact(self, monkeypatch):
        # leaf_size barely above k forces many short rows through the
        # brute-force fallback; those rows must be exactly right
        x = _clustered(n_per_blob=50, n_blobs=2)
        _, idx = rp_tree_knn(x, 3, n_trees=1, leaf_size=4)
        _, exact = rp_tree_knn(x, 3, n_trees=64)
        assert knn_recall(x, 3, idx) > 0.0  # sanity: ran at all
        assert idx.shape == exact.shape
        # with no leaf candidates at all the merge sees none and every
        # row takes the fallback: it must return the exact lists
        monkeypatch.setattr(approx_mod, "_leaf_candidates", lambda x, ids, k: None)
        dist, idx = rp_tree_knn(x, 3, n_trees=1, leaf_size=4)
        exact_dist, exact_idx = _knn_neighbor_lists(x, 3)
        np.testing.assert_array_equal(idx, exact_idx)
        np.testing.assert_allclose(dist, exact_dist, rtol=0, atol=1e-9)

    def test_validation(self):
        x = _clustered(n_per_blob=30, n_blobs=1)
        with pytest.raises(ConfigurationError, match="k must"):
            rp_tree_knn(x, 0)
        with pytest.raises(ConfigurationError, match="k must"):
            rp_tree_knn(x, 30)
        with pytest.raises(ConfigurationError, match="n_trees"):
            rp_tree_knn(x, 3, n_trees=0)
        with pytest.raises(ConfigurationError, match="leaf_size"):
            rp_tree_knn(x, 5, leaf_size=5)
        with pytest.raises(ConfigurationError, match="shape"):
            knn_recall(x, 3, np.zeros((4, 3), dtype=np.intp))

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=120),
        d=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_structural_invariants_streamed(self, n, d, k, seed):
        if k >= n:
            k = n - 1
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        one_shot = rp_tree_knn(x, k, n_trees=2, seed=seed)
        with _streamed(3):
            streamed = rp_tree_knn(x, k, n_trees=2, seed=seed)
        np.testing.assert_array_equal(streamed[0], one_shot[0])
        np.testing.assert_array_equal(streamed[1], one_shot[1])

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=120),
        d=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_structural_invariants(self, n, d, k, seed):
        if k >= n:
            k = n - 1
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        dist, idx = rp_tree_knn(x, k, n_trees=2, seed=seed)
        assert not np.any(idx == np.arange(n)[:, None])
        assert np.all(np.diff(dist, axis=1) >= 0)
        # each row's k indices are distinct
        assert all(len(set(row)) == k for row in idx)


class TestStreamedQueries:
    """The block-streamed candidate merge must be bit-identical to the
    one-shot path at every buffer capacity — including rows served by
    the brute-force fallback — so streaming can never change a result,
    only its peak memory."""

    def test_bit_identical_at_every_block_size(self):
        x = _clustered(n_per_blob=120, n_blobs=4, seed=11)
        ref_dist, ref_idx = rp_tree_knn(x, 10)
        for capacity in (1, 17, 256, 4096):
            with _streamed(capacity):
                dist, idx = rp_tree_knn(x, 10)
            np.testing.assert_array_equal(idx, ref_idx, err_msg=f"{capacity}")
            np.testing.assert_array_equal(dist, ref_dist, err_msg=f"{capacity}")

    def test_bit_identical_with_fallback_rows(self):
        # leaf_size barely above k forces short rows through the
        # brute-force fallback; streaming must not disturb them
        x = _clustered(n_per_blob=30, n_blobs=2, seed=12)
        ref = rp_tree_knn(x, 20, n_trees=1, leaf_size=21)
        for capacity in (1, 50, 1000):
            with _streamed(capacity):
                dist, idx = rp_tree_knn(x, 20, n_trees=1, leaf_size=21)
            np.testing.assert_array_equal(idx, ref[1])
            np.testing.assert_array_equal(dist, ref[0])

    def test_bit_identical_with_duplicates(self):
        # duplicate points produce identical (distance, index) pairs in
        # several trees; first-occurrence dedup must agree across paths
        x = _clustered(n_per_blob=40, seed=13)
        xd = np.vstack([x[:15]] * 3 + [x])
        ref = rp_tree_knn(xd, 6)
        with _streamed(29):
            dist, idx = rp_tree_knn(xd, 6)
        np.testing.assert_array_equal(idx, ref[1])
        np.testing.assert_array_equal(dist, ref[0])

    def test_auto_streaming_engages_above_threshold(self, monkeypatch):
        from repro.obs.export import to_records
        from repro.obs.trace import RecordingTracer, use_tracer

        x = _clustered(n_per_blob=60, n_blobs=2, seed=14)

        def query_attrs():
            tracer = RecordingTracer()
            with use_tracer(tracer):
                rp_tree_knn(x, 5)
            for record in to_records(tracer):
                if record["name"] == "repro.graph.rp_tree_knn":
                    return record["attributes"]
            raise AssertionError("no rp_tree_knn span recorded")

        attrs = query_attrs()
        assert attrs["streamed"] is False  # small forests stay one-shot
        assert attrs["candidate_merges"] == 0

        monkeypatch.setattr(approx_mod, "STREAM_AUTO_CANDIDATES", 100)
        monkeypatch.setattr(approx_mod, "DEFAULT_BLOCK_CANDIDATES", 64)
        attrs = query_attrs()
        assert attrs["streamed"] is True
        assert attrs["candidate_merges"] > 0

    def test_streamed_graph_route_matches(self):
        x = _clustered(n_per_blob=80, seed=15)
        one_shot = approx_knn_graph(x, k=8, bandwidth=1.5)
        with _streamed(37):
            streamed = approx_knn_graph(x, k=8, bandwidth=1.5)
        assert (streamed.weights != one_shot.weights).nnz == 0
        assert "block_size" not in streamed.params


class TestApproxGraph:
    def test_estimator_parity_within_tolerance(self):
        """The acceptance gate: soft-criterion scores on the approximate
        graph match the exact graph within 1e-2."""
        x = _clustered(n_per_blob=150, n_blobs=4, seed=7)
        n = x.shape[0]
        rng = np.random.default_rng(0)
        n_labeled = 60
        perm = rng.permutation(n)
        x = x[perm]
        y = np.sign(x[:n_labeled, 0] + 0.1)
        exact = knn_graph(x, k=10, bandwidth=2.0)
        approx = approx_knn_graph(x, k=10, bandwidth=2.0)
        fit_exact = solve_soft_criterion(exact.weights, y, 0.5)
        fit_approx = solve_soft_criterion(approx.weights, y, 0.5)
        assert np.max(np.abs(fit_exact.scores - fit_approx.scores)) < 1e-2

    def test_graph_contract_matches_exact_route(self):
        x = _clustered(n_per_blob=100, seed=5)
        graph = approx_knn_graph(x, k=8, bandwidth=1.5)
        assert graph.is_sparse
        assert graph.construction == "knn"
        assert graph.params["construction"] == "approx"
        assert graph.params["n_trees"] == DEFAULT_N_TREES
        w = graph.weights
        assert (abs(w - w.T) > 1e-12).nnz == 0  # symmetric
        assert w.nnz <= x.shape[0] * (2 * 8 + 1)

    def test_knn_graph_construction_approx_route(self):
        x = _clustered(n_per_blob=100, seed=6)
        via_knn = knn_graph(x, k=8, bandwidth=1.5, construction="approx")
        direct = approx_knn_graph(x, k=8, bandwidth=1.5)
        assert (via_knn.weights != direct.weights).nnz == 0
        assert via_knn.params["construction"] == "approx"

    def test_knn_graph_approx_route_names_the_same_graph(self):
        """Both entry points to the RP-tree route record the knobs it ran
        with, so at the default knobs they return equal graphs."""
        x = _clustered(n_per_blob=100, seed=6)
        via_knn = knn_graph(x, k=8, bandwidth=1.5, construction="approx")
        direct = approx_knn_graph(x, k=8, bandwidth=1.5)
        assert via_knn.params == direct.params
        assert via_knn.params["n_trees"] == DEFAULT_N_TREES
        assert (via_knn.weights != direct.weights).nnz == 0

    def test_intersection_mode(self):
        x = _clustered(n_per_blob=100, seed=8)
        graph = approx_knn_graph(x, k=8, bandwidth=1.5, mode="intersection")
        union = approx_knn_graph(x, k=8, bandwidth=1.5, mode="union")
        assert graph.weights.nnz <= union.weights.nnz
