"""Unit tests for repro.graph.similarity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial import cKDTree

from repro.exceptions import ConfigurationError, GraphStructureError
from repro.graph import similarity
from repro.graph.similarity import (
    SimilarityGraph,
    build_similarity_graph,
    epsilon_graph,
    full_kernel_graph,
    knn_graph,
)
from repro.kernels.library import BoxcarKernel, GaussianKernel


class TestFullKernelGraph:
    def test_matches_direct_gram(self, rng):
        x = rng.normal(size=(10, 3))
        graph = full_kernel_graph(x, bandwidth=0.8)
        expected = GaussianKernel().gram(x, bandwidth=0.8)
        np.testing.assert_allclose(graph.dense_weights(), expected)

    def test_metadata_recorded(self, rng):
        x = rng.normal(size=(5, 2))
        graph = full_kernel_graph(x, bandwidth=0.5)
        assert graph.kernel_name == "gaussian"
        assert graph.bandwidth == 0.5
        assert graph.construction == "full"
        assert graph.n_vertices == 5
        assert not graph.is_sparse

    def test_zero_diagonal_option(self, rng):
        x = rng.normal(size=(6, 2))
        graph = full_kernel_graph(x, bandwidth=0.5, zero_diagonal=True)
        np.testing.assert_array_equal(np.diag(graph.dense_weights()), np.zeros(6))

    def test_default_keeps_self_weights(self, rng):
        """The paper's D includes self-weights; the default must keep them."""
        x = rng.normal(size=(6, 2))
        graph = full_kernel_graph(x, bandwidth=0.5)
        np.testing.assert_allclose(np.diag(graph.dense_weights()), np.ones(6))

    def test_degrees(self, rng):
        x = rng.normal(size=(7, 2))
        graph = full_kernel_graph(x, bandwidth=1.0)
        np.testing.assert_allclose(
            graph.degree(), graph.dense_weights().sum(axis=1)
        )


class TestKnnGraph:
    def test_sparse_and_symmetric(self, rng):
        x = rng.normal(size=(30, 3))
        graph = knn_graph(x, k=5, bandwidth=1.0)
        assert graph.is_sparse
        w = graph.dense_weights()
        np.testing.assert_allclose(w, w.T, atol=1e-12)

    def test_union_has_at_least_k_neighbours(self, rng):
        x = rng.normal(size=(25, 2))
        graph = knn_graph(x, k=4, bandwidth=1.0, mode="union")
        w = graph.dense_weights()
        off_diag_counts = (w > 0).sum(axis=1) - 1
        assert np.all(off_diag_counts >= 4)

    def test_mutual_subset_of_union(self, rng):
        x = rng.normal(size=(25, 2))
        union = knn_graph(x, k=4, bandwidth=1.0, mode="union").dense_weights()
        mutual = knn_graph(x, k=4, bandwidth=1.0, mode="mutual").dense_weights()
        assert np.all((mutual > 0) <= (union > 0))

    def test_weights_are_kernel_values(self, rng):
        x = rng.normal(size=(15, 2))
        graph = knn_graph(x, k=3, bandwidth=0.7)
        w = graph.dense_weights()
        full = GaussianKernel().gram(x, bandwidth=0.7)
        mask = w > 0
        np.testing.assert_allclose(w[mask], full[mask])

    def test_invalid_k_raises(self, rng):
        x = rng.normal(size=(5, 2))
        with pytest.raises(ConfigurationError):
            knn_graph(x, k=5, bandwidth=1.0)
        with pytest.raises(ConfigurationError):
            knn_graph(x, k=0, bandwidth=1.0)

    def test_invalid_mode_raises(self, rng):
        x = rng.normal(size=(5, 2))
        with pytest.raises(ConfigurationError, match="mode"):
            knn_graph(x, k=2, bandwidth=1.0, mode="both")


class TestKnnSymmetrization:
    """The kNN asymmetry footgun, pinned down.

    "j is among i's k nearest" is a *directed* relation.  On this line,

        0.0   1.0   1.8   2.0
         a     b     c     d

    with k=1: a selects b, but b selects c (1.8 - 1.0 < 1.0 - 0.0); c and
    d select each other.  ``mode`` decides what survives symmetrization:
    union keeps {a,b}, {b,c}, {c,d}; intersection keeps only the mutual
    pair {c,d}.
    """

    X = np.array([[0.0], [1.0], [1.8], [2.0]])

    @pytest.mark.parametrize("construction", ["dense", "neighbors"])
    def test_union_keeps_either_direction(self, construction):
        w = knn_graph(
            self.X, k=1, bandwidth=1.0, mode="union", construction=construction
        ).dense_weights()
        edges = {(i, j) for i in range(4) for j in range(i + 1, 4) if w[i, j] > 0}
        assert edges == {(0, 1), (1, 2), (2, 3)}

    @pytest.mark.parametrize("construction", ["dense", "neighbors"])
    def test_intersection_keeps_only_mutual(self, construction):
        w = knn_graph(
            self.X, k=1, bandwidth=1.0, mode="intersection", construction=construction
        ).dense_weights()
        edges = {(i, j) for i in range(4) for j in range(i + 1, 4) if w[i, j] > 0}
        assert edges == {(2, 3)}

    def test_mutual_is_legacy_alias_for_intersection(self):
        legacy = knn_graph(self.X, k=1, bandwidth=1.0, mode="mutual")
        canonical = knn_graph(self.X, k=1, bandwidth=1.0, mode="intersection")
        np.testing.assert_array_equal(
            legacy.dense_weights(), canonical.dense_weights()
        )
        assert legacy.params["mode"] == "intersection"

    def test_provenance_records_route(self):
        dense = knn_graph(self.X, k=1, bandwidth=1.0, construction="dense")
        neigh = knn_graph(self.X, k=1, bandwidth=1.0, construction="neighbors")
        assert dense.params["construction"] == "dense"
        assert neigh.params["construction"] == "neighbors"

    def test_invalid_construction_raises(self):
        with pytest.raises(ConfigurationError, match="construction"):
            knn_graph(self.X, k=1, bandwidth=1.0, construction="magic")


class TestEpsilonGraph:
    def test_keeps_only_close_pairs(self):
        x = np.array([[0.0], [0.5], [5.0]])
        graph = epsilon_graph(x, radius=1.0, bandwidth=1.0)
        w = graph.dense_weights()
        assert w[0, 1] > 0
        assert w[0, 2] == 0.0
        assert w[1, 2] == 0.0

    def test_large_radius_equals_full_graph(self, rng):
        x = rng.normal(size=(12, 2))
        eps = epsilon_graph(x, radius=1e6, bandwidth=0.9).dense_weights()
        full = full_kernel_graph(x, bandwidth=0.9).dense_weights()
        np.testing.assert_allclose(eps, full)

    def test_boxcar_epsilon_duality(self, rng):
        """epsilon graph at radius h with boxcar kernel == full boxcar graph."""
        x = rng.normal(size=(15, 2))
        h = 1.2
        eps = epsilon_graph(x, radius=h, kernel=BoxcarKernel(), bandwidth=h)
        full = full_kernel_graph(x, kernel=BoxcarKernel(), bandwidth=h)
        np.testing.assert_allclose(eps.dense_weights(), full.dense_weights())


class TestLocalScalingGraph:
    def test_symmetric_unit_diagonal(self, rng):
        from repro.graph.similarity import local_scaling_graph

        x = rng.normal(size=(25, 3))
        graph = local_scaling_graph(x, k=5)
        w = graph.dense_weights()
        np.testing.assert_allclose(w, w.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(w), np.ones(25), atol=1e-12)
        assert graph.construction == "local_scaling"

    def test_matches_formula(self, rng):
        from repro.graph.similarity import local_scaling_graph
        from repro.kernels.base import pairwise_sq_distances

        x = rng.normal(size=(12, 2))
        k = 3
        graph = local_scaling_graph(x, k=k)
        sq = pairwise_sq_distances(x)
        with_inf = sq.copy()
        np.fill_diagonal(with_inf, np.inf)
        sigma = np.sqrt(np.sort(with_inf, axis=1)[:, k - 1])
        expected = np.exp(-sq / (sigma[:, None] * sigma[None, :]))
        np.testing.assert_allclose(graph.dense_weights(), expected, atol=1e-12)

    def test_adapts_to_density(self, rng):
        """A dense and a sparse cluster: within-cluster weights at equal
        *rank* are comparable despite very different absolute distances."""
        from repro.graph.similarity import local_scaling_graph

        dense_cluster = 0.1 * rng.normal(size=(20, 2))
        sparse_cluster = 5.0 * rng.normal(size=(20, 2)) + 100.0
        x = np.vstack([dense_cluster, sparse_cluster])
        w = local_scaling_graph(x, k=5).dense_weights()
        dense_within = w[:20, :20][np.triu_indices(20, 1)]
        sparse_within = w[20:, 20:][np.triu_indices(20, 1)]
        # Same order of magnitude of median within-cluster weight.
        ratio = np.median(dense_within) / np.median(sparse_within)
        assert 0.2 < ratio < 5.0
        # Cross-cluster weights vanish.
        assert w[:20, 20:].max() < 1e-10

    def test_duplicates_rejected(self):
        from repro.exceptions import DataValidationError
        from repro.graph.similarity import local_scaling_graph

        x = np.zeros((6, 2))
        with pytest.raises(DataValidationError, match="identical"):
            local_scaling_graph(x, k=2)

    def test_invalid_k(self, rng):
        from repro.graph.similarity import local_scaling_graph

        x = rng.normal(size=(5, 2))
        with pytest.raises(ConfigurationError):
            local_scaling_graph(x, k=5)

    def test_propagation_works_on_local_scaling(self, rng):
        from repro.core.hard import solve_hard_criterion
        from repro.datasets.toy import two_moons
        from repro.graph.similarity import local_scaling_graph
        from repro.metrics.classification import accuracy

        x, y = two_moons(200, noise=0.06, seed=4)
        labeled_idx = np.concatenate(
            [np.flatnonzero(y == 0.0)[:5], np.flatnonzero(y == 1.0)[:5]]
        )
        rest = np.setdiff1d(np.arange(200), labeled_idx)
        order = np.concatenate([labeled_idx, rest])
        graph = local_scaling_graph(x[order], k=7)
        fit = solve_hard_criterion(graph.weights, y[labeled_idx])
        predictions = (fit.unlabeled_scores >= 0.5).astype(float)
        assert accuracy(y[rest], predictions) > 0.9


class TestBuildDispatch:
    def test_dispatches_each_construction(self, rng):
        x = rng.normal(size=(20, 2))
        assert build_similarity_graph(x, bandwidth=1.0).construction == "full"
        assert (
            build_similarity_graph(x, graph="knn", bandwidth=1.0, k=3).construction
            == "knn"
        )
        assert (
            build_similarity_graph(
                x, graph="epsilon", bandwidth=1.0, radius=2.0
            ).construction
            == "epsilon"
        )

    def test_unknown_construction_raises(self, rng):
        x = rng.normal(size=(5, 2))
        with pytest.raises(ConfigurationError, match="unknown graph"):
            build_similarity_graph(x, graph="delaunay", bandwidth=1.0)

    def test_bad_params_raise_configuration_error(self, rng):
        x = rng.normal(size=(5, 2))
        with pytest.raises(ConfigurationError, match="invalid parameters"):
            build_similarity_graph(x, graph="full", bandwidth=1.0, k=3)


class TestSimilarityGraphContainer:
    def test_from_weights_validates(self):
        with pytest.raises(GraphStructureError):
            SimilarityGraph.from_weights(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_edge_count_dense(self):
        w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
        assert SimilarityGraph.from_weights(w).edge_count() == 2

    def test_edge_count_sparse_matches_dense(self, rng):
        x = rng.normal(size=(20, 2))
        graph = knn_graph(x, k=3, bandwidth=1.0)
        dense = SimilarityGraph.from_weights(graph.dense_weights())
        assert graph.edge_count() == dense.edge_count()

    def test_dense_weights_roundtrip(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        graph = SimilarityGraph(weights=sparse.csr_matrix(w))
        np.testing.assert_array_equal(graph.dense_weights(), w)


class TestKnnTieDeterminism:
    """Regression tests for the kd-tree neighbour-drop bug: under
    duplicated rows or tied distances, the kd-tree route could keep an
    arbitrary member of the tied set and disagree with the dense route.
    Both routes now break ties deterministically by smallest index."""

    def _duplicated_cloud(self, seed=0, n_unique=40, n_copies=3):
        rng = np.random.default_rng(seed)
        unique = rng.normal(size=(n_unique, 2))
        return np.vstack([unique] * n_copies)

    def test_dense_and_neighbors_agree_on_duplicates(self):
        x = self._duplicated_cloud()
        for k in (2, 3, 5):
            dense = knn_graph(x, k=k, bandwidth=0.7, construction="dense")
            neigh = knn_graph(x, k=k, bandwidth=0.7, construction="neighbors")
            np.testing.assert_allclose(
                dense.dense_weights(), neigh.dense_weights(), atol=1e-12
            )

    def test_duplicate_never_drops_a_zero_distance_twin(self):
        # 3 copies of each point: with k=2, both twins (distance 0) must
        # be selected ahead of any strictly-positive neighbour
        x = self._duplicated_cloud(n_unique=20, n_copies=3)
        n_unique = 20
        graph = knn_graph(x, k=2, bandwidth=0.7, construction="neighbors")
        w = graph.weights
        unit = float(GaussianKernel().profile(np.zeros(1))[0])
        for i in range(x.shape[0]):
            twins = [j for j in range(x.shape[0])
                     if j != i and j % n_unique == i % n_unique]
            for j in twins:
                assert w[i, j] == pytest.approx(unit)

    def test_tied_but_distinct_points_break_toward_smallest_index(self):
        # vertices 1, 2, 3 are all at distance 1 from vertex 0; k=2 must
        # keep {1, 2} on both routes
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                      [5.0, 5.0], [6.0, 5.0], [5.0, 6.0]])
        dense = knn_graph(x, k=2, bandwidth=1.0, construction="dense")
        neigh = knn_graph(x, k=2, bandwidth=1.0, construction="neighbors")
        np.testing.assert_allclose(
            dense.dense_weights(), neigh.dense_weights(), atol=1e-12
        )

    def test_support_excluding_kernel_rejected_with_vertices_named(self):
        # distinct points all farther apart than the boxcar support:
        # every neighbour weight is exactly 0, leaving each vertex with
        # only its self-loop — the validation names the rows instead of
        # letting a disconnected system reach the solver
        from repro.exceptions import DataValidationError

        x = np.arange(6, dtype=float)[:, None] * np.array([[1.0, 0.0]])
        with pytest.raises(DataValidationError, match=r"vertices \[0, 1, 2"):
            knn_graph(
                x, k=3, bandwidth=0.001, kernel=BoxcarKernel(),
                construction="neighbors",
            )

    def test_local_scaling_duplicate_error_names_vertices(self):
        from repro.exceptions import DataValidationError
        from repro.graph.similarity import local_scaling_graph

        x = np.vstack([np.zeros((3, 2)), np.random.default_rng(0).normal(size=(5, 2))])
        with pytest.raises(DataValidationError, match=r"vertices \[0, 1, 2\]"):
            local_scaling_graph(x, k=2)


class _InputOrderTree(cKDTree):
    """A kd-tree whose "leaf order" is the input order and whose queries
    run on one thread."""

    @property
    def indices(self):
        return np.arange(self.n)

    def query(self, x, k=1, **kwargs):
        kwargs["workers"] = 1
        return super().query(x, k=k, **kwargs)


def _input_order_lists(x, k):
    """Reference neighbour lists: one single-threaded query of every point
    in input order, followed by the same tie handling."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(similarity, "cKDTree", _InputOrderTree)
        patch.setattr(similarity, "_QUERY_BLOCK_ROWS", x.shape[0])
        return similarity._knn_neighbor_lists(x, k)


def _tied_points(kind, n, dim, seed):
    """Points with exact duplicates and many tied distances."""
    rng = np.random.default_rng(seed)
    if kind == "grid":  # integer lattice: duplicates and equal distances
        return rng.integers(0, 3, size=(n, dim)).astype(float)
    unique = rng.normal(size=(max(1, n // 3), dim))
    return unique[rng.integers(0, unique.shape[0], size=n)]


class TestLeafOrderQueries:
    """Querying in the tree's leaf order, in blocks, on every core gives
    the neighbour lists of an input-order single-threaded query bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["grid", "duplicated"]),
        dim=st.sampled_from([1, 2, 3, 5]),
        block=st.sampled_from([8, 16, 32]),
        offset=st.sampled_from([-1, 0, 1]),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_input_order_query(self, kind, dim, block, offset, k, seed):
        n = block + offset
        k = min(k, n - 1)
        x = _tied_points(kind, n, dim, seed)
        expected = _input_order_lists(x, k)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(similarity, "_QUERY_BLOCK_ROWS", block)
            got = similarity._knn_neighbor_lists(x, k)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_matches_at_the_block_size(self, offset):
        n = similarity._QUERY_BLOCK_ROWS + offset
        rng = np.random.default_rng(7)
        x = rng.normal(size=(n, 3))
        x[rng.integers(0, n, size=200)] = x[:200]  # exact duplicates
        expected = _input_order_lists(x, 10)
        got = similarity._knn_neighbor_lists(x, 10)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])


class TestNeighbourListOrder:
    """Every row is sorted by ``(distance, index)`` without the vertex
    itself, whether or not its distances tie: on lattice points, whose
    distances are exact, it equals a brute-force sort of all vertices."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 3]),
        n=st.integers(min_value=2, max_value=60),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_rows_match_a_brute_force_sort(self, dim, n, k, seed):
        k = min(k, n - 1)
        x = _tied_points("grid", n, dim, seed)
        dist, idx = similarity._knn_neighbor_lists(x, k)
        for i in range(n):
            sq = ((x - x[i]) ** 2).sum(axis=1)
            others = np.delete(np.arange(n), i)
            expected = others[np.lexsort((others, sq[others]))][:k]
            np.testing.assert_array_equal(idx[i], expected)
            np.testing.assert_array_equal(dist[i], np.sqrt(sq[expected]))
