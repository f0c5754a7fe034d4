"""Unit tests for repro.graph.components."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components as scipy_components

from repro.exceptions import DataValidationError, DisconnectedGraphError
from repro.graph.components import (
    connected_components,
    is_connected,
    labeled_reachability,
    require_labeled_reachability,
    validated_components,
)
from repro.utils.validation import check_weight_matrix


class TestConnectedComponents:
    def test_single_component(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        count, labels = connected_components(w)
        assert count == 1
        assert labels[0] == labels[1]

    def test_two_components(self, disconnected_weights):
        count, labels = connected_components(disconnected_weights)
        assert count == 2
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]

    def test_zero_weights_are_not_edges(self):
        w = np.zeros((3, 3))
        count, _ = connected_components(w)
        assert count == 3

    def test_sparse_input(self, disconnected_weights):
        count, _ = connected_components(sparse.csr_matrix(disconnected_weights))
        assert count == 2

    def test_sparse_stored_zero_not_an_edge(self):
        """An explicitly stored 0.0 entry must not create an edge."""
        data = np.array([1.0, 1.0, 0.0, 0.0])
        rows = np.array([0, 1, 0, 2])
        cols = np.array([1, 0, 2, 0])
        w = sparse.csr_matrix((data, (rows, cols)), shape=(3, 3))
        assert w.nnz == 4  # the zeros are explicitly stored
        count, _ = connected_components(w)
        assert count == 2

    def test_is_connected(self, disconnected_weights):
        assert not is_connected(disconnected_weights)
        assert is_connected(np.array([[0.0, 0.1], [0.1, 0.0]]))


class TestLabeledReachability:
    def test_ok_when_all_reach(self, tiny_weights):
        report = labeled_reachability(tiny_weights, n_labeled=2)
        assert report.ok
        assert report.orphan_vertices == ()

    def test_detects_orphans(self, disconnected_weights):
        report = labeled_reachability(disconnected_weights, n_labeled=2)
        assert not report.ok
        assert report.orphan_vertices == (3, 4)
        assert report.n_components == 2

    def test_all_labeled_is_ok(self, disconnected_weights):
        report = labeled_reachability(disconnected_weights, n_labeled=5)
        assert report.ok

    def test_no_labels_all_orphans(self, tiny_weights):
        report = labeled_reachability(tiny_weights, n_labeled=0)
        assert not report.ok
        assert len(report.orphan_vertices) == 4

    def test_invalid_n_labeled(self, tiny_weights):
        with pytest.raises(DataValidationError):
            labeled_reachability(tiny_weights, n_labeled=9)

    def test_require_raises_with_vertices(self, disconnected_weights):
        with pytest.raises(DisconnectedGraphError) as excinfo:
            require_labeled_reachability(disconnected_weights, n_labeled=2)
        assert excinfo.value.component_indices == (3, 4)
        assert "bandwidth" in str(excinfo.value)

    def test_require_passes_silently(self, tiny_weights):
        require_labeled_reachability(tiny_weights, n_labeled=2)

    @pytest.mark.parametrize("as_sparse", [False, True], ids=["dense", "sparse"])
    def test_validates_weights_once(self, disconnected_weights, monkeypatch, as_sparse):
        from repro.graph import components

        calls = []
        original = components.check_weight_matrix

        def counting(weights, *args, **kwargs):
            calls.append(weights.shape)
            return original(weights, *args, **kwargs)

        monkeypatch.setattr(components, "check_weight_matrix", counting)
        weights = (
            sparse.csr_matrix(disconnected_weights) if as_sparse else disconnected_weights
        )
        report = labeled_reachability(weights, n_labeled=2)
        assert report.orphan_vertices == (3, 4)
        assert len(calls) == 1


def _block_graph(n, n_blocks, seed, density, n_isolated=5):
    """Random symmetric weights whose edges stay inside ``n_blocks``
    non-empty, interleaved vertex blocks, so there are at least
    ``n_blocks`` components, plus ``n_isolated`` vertices of their own
    (a self-loop and no edge)."""
    rng = np.random.default_rng(seed)
    block = rng.permutation(np.arange(n) % n_blocks)
    block[rng.choice(n, size=n_isolated, replace=False)] = n_blocks + np.arange(n_isolated)
    rows, cols = np.nonzero(
        np.triu(rng.random((n, n)) < density, k=1) & (block[:, None] == block[None, :])
    )
    weights = rng.uniform(0.1, 1.0, size=rows.size)
    loops = np.arange(n)
    return sparse.csr_matrix(
        (
            np.concatenate([weights, weights, np.ones(n)]),
            (np.concatenate([rows, cols, loops]), np.concatenate([cols, rows, loops])),
        ),
        shape=(n, n),
    )


class TestValidatedComponents:
    """Strong components renumbered by smallest vertex are the undirected
    components, labels included."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=130, max_value=400),
        n_blocks=st.integers(min_value=50, max_value=120),
        seed=st.integers(min_value=0, max_value=2**16),
        density=st.floats(min_value=0.0, max_value=0.3),
    )
    def test_matches_undirected_components(self, n, n_blocks, seed, density):
        weights = check_weight_matrix(_block_graph(n, n_blocks, seed, density))
        count, labels = validated_components(weights)
        expected_count, expected_labels = scipy_components(weights, directed=False)
        assert count == expected_count >= 50
        np.testing.assert_array_equal(labels, expected_labels)
        assert labels.dtype == expected_labels.dtype

    def test_strong_labels_renumbered_by_smallest_vertex(self, monkeypatch):
        """The labels do not depend on the order scipy's strong search
        numbers components in."""
        from repro.graph import components

        weights = check_weight_matrix(_block_graph(150, 60, seed=5, density=0.2))
        expected_count, expected_labels = scipy_components(weights, directed=False)

        def reversed_strong(graph, directed, connection="weak"):
            count, labels = scipy_components(
                graph, directed=directed, connection=connection
            )
            if directed:
                labels = (count - 1 - labels).astype(labels.dtype)
            return count, labels

        monkeypatch.setattr(components, "_cc", reversed_strong)
        count, labels = validated_components(weights)
        assert count == expected_count
        np.testing.assert_array_equal(labels, expected_labels)

    def test_one_sided_entry_within_tolerance_joins_components(self):
        """A stored 1e-11 with no mirror passes the symmetry check and is
        an edge: it joins two strong components into one component."""
        dense = np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [1.0, 1.0, 1e-11, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [0.0, 0.0, 1.0, 1.0],
            ]
        )
        weights = check_weight_matrix(sparse.csr_matrix(dense))
        undirected = scipy_components(weights, directed=False)
        strong = scipy_components(weights, directed=True, connection="strong")
        assert undirected[0] == 1
        assert strong[0] == 2
        np.testing.assert_array_equal(strong[1], [1, 1, 0, 0])
        count, labels = validated_components(weights)
        assert count == 1
        np.testing.assert_array_equal(labels, [0, 0, 0, 0])
