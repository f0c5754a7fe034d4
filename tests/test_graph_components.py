"""Unit tests for repro.graph.components."""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import DataValidationError, DisconnectedGraphError
from repro.graph.components import (
    connected_components,
    is_connected,
    labeled_reachability,
    require_labeled_reachability,
)


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
