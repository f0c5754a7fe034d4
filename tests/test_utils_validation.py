"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import DataValidationError, GraphStructureError
from repro.utils.validation import (
    check_finite_array,
    check_labels,
    check_matrix_2d,
    check_positive_scalar,
    check_square_matrix,
    check_symmetric,
    check_vector,
    check_weight_matrix,
)


class TestFiniteArray:
    def test_converts_to_float64(self):
        out = check_finite_array([1, 2, 3])
        assert out.dtype == np.float64

    def test_rejects_nan(self):
        with pytest.raises(DataValidationError, match="non-finite"):
            check_finite_array([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(DataValidationError, match="non-finite"):
            check_finite_array([np.inf])

    def test_rejects_strings(self):
        with pytest.raises(DataValidationError):
            check_finite_array(["a", "b"])

    def test_error_names_argument(self):
        with pytest.raises(DataValidationError, match="weights"):
            check_finite_array([np.nan], name="weights")


class TestVector:
    def test_accepts_1d(self):
        out = check_vector([1.0, 2.0])
        assert out.shape == (2,)

    def test_rejects_2d(self):
        with pytest.raises(DataValidationError, match="1-d"):
            check_vector([[1.0], [2.0]])

    def test_min_length(self):
        with pytest.raises(DataValidationError, match="length"):
            check_vector([1.0], min_length=2)


class TestMatrices:
    def test_square_ok(self):
        out = check_square_matrix(np.eye(3))
        assert out.shape == (3, 3)

    def test_rejects_non_square(self):
        with pytest.raises(DataValidationError, match="square"):
            check_square_matrix(np.ones((2, 3)))

    def test_rejects_1d_as_matrix(self):
        with pytest.raises(DataValidationError, match="2-d"):
            check_matrix_2d([1.0, 2.0])

    def test_symmetric_passes(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        check_symmetric(m)

    def test_asymmetric_raises(self):
        m = np.array([[1.0, 2.0], [2.1, 1.0]])
        with pytest.raises(GraphStructureError, match="symmetric"):
            check_symmetric(m)


class TestWeightMatrix:
    def test_valid_dense(self):
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        out = check_weight_matrix(w)
        np.testing.assert_array_equal(out, w)

    def test_negative_weight_raises(self):
        w = np.array([[0.0, -0.1], [-0.1, 0.0]])
        with pytest.raises(GraphStructureError, match="negative"):
            check_weight_matrix(w)

    def test_asymmetric_raises(self):
        w = np.array([[0.0, 0.5], [0.4, 0.0]])
        with pytest.raises(GraphStructureError, match="symmetric"):
            check_weight_matrix(w)

    def test_sparse_accepted(self):
        w = sparse.csr_matrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
        out = check_weight_matrix(w)
        assert sparse.issparse(out)

    def test_sparse_negative_raises(self):
        w = sparse.csr_matrix(np.array([[0.0, -0.5], [-0.5, 0.0]]))
        with pytest.raises(GraphStructureError, match="negative"):
            check_weight_matrix(w)

    def test_sparse_rejected_when_dense_required(self):
        w = sparse.csr_matrix(np.eye(2))
        with pytest.raises(DataValidationError, match="dense"):
            check_weight_matrix(w, allow_sparse=False)

    def test_sparse_asymmetric_raises(self):
        w = sparse.csr_matrix(np.array([[0.0, 0.5], [0.3, 0.0]]))
        with pytest.raises(GraphStructureError, match="symmetric"):
            check_weight_matrix(w)


def _csr(data, indices, indptr, n):
    """A CSR matrix holding exactly the given arrays (no canonicalization)."""
    return sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64), np.asarray(indices), np.asarray(indptr)),
        shape=(n, n),
    )


class TestSparseWeightMatrix:
    """The sparse path checks symmetry with one transpose and copies nothing
    it does not have to."""

    def test_value_mismatch_rejected(self):
        w = sparse.csr_matrix(np.array([[1.0, 0.5], [0.5 + 2e-10, 1.0]]))
        with pytest.raises(GraphStructureError, match="symmetric"):
            check_weight_matrix(w)

    def test_pattern_mismatch_rejected(self):
        w = _csr([1.0, 0.5, 1.0], [0, 1, 1], [0, 2, 3], 2)
        with pytest.raises(GraphStructureError, match="symmetric"):
            check_weight_matrix(w)

    def test_unsorted_asymmetric_input_rejected(self):
        # row 0 lists column 2 before column 1; w[2, 1] != w[1, 2]
        w = _csr(
            [0.3, 0.5, 1.0, 0.5, 0.4, 0.3, 0.2, 1.0],
            [2, 1, 1, 0, 2, 0, 1, 2],
            [0, 2, 5, 8],
            3,
        )
        assert not w.has_sorted_indices
        with pytest.raises(GraphStructureError, match="symmetric"):
            check_weight_matrix(w)

    def test_duplicate_asymmetric_input_rejected(self):
        # (0, 1) stored twice: 0.25 + 0.25 = 0.5 against w[1, 0] = 0.4
        w = _csr([0.25, 0.25, 0.4], [1, 1, 0], [0, 2, 3], 2)
        with pytest.raises(GraphStructureError, match="symmetric"):
            check_weight_matrix(w)

    @pytest.mark.parametrize("gap", [0.0, 5e-11, 9e-11])
    def test_asymmetry_within_tolerance_accepted(self, gap):
        value_gap = sparse.csr_matrix(np.array([[1.0, 0.5], [0.5 + gap, 1.0]]))
        one_sided = _csr([1.0, gap, 1.0], [0, 1, 1], [0, 2, 3], 2)
        for w in (value_gap, one_sided):
            out = check_weight_matrix(w)
            assert out is w

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layout", [sparse.csr_matrix, sparse.csc_matrix])
    def test_non_canonical_input_never_mutated(self, dtype, layout):
        # unsorted and duplicated; symmetric once the duplicates are summed
        w = layout(
            (
                np.array([0.5, 1.0, 0.25, 0.25, 1.0, 0.5, 0.5, 1.0], dtype=dtype),
                np.array([2, 0, 1, 1, 1, 0, 0, 2]),
                np.array([0, 4, 6, 8]),
            ),
            shape=(3, 3),
        )
        arrays = (w.data, w.indices, w.indptr)
        before = [a.copy() for a in arrays]
        out = check_weight_matrix(w)
        for array, saved in zip(arrays, before):
            np.testing.assert_array_equal(array, saved)
        assert not any(
            np.shares_memory(mine, theirs)
            for mine in (out.data, out.indices, out.indptr)
            for theirs in arrays
        )
        np.testing.assert_array_equal(out.indptr, [0, 3, 5, 7])
        np.testing.assert_array_equal(out.indices, [0, 1, 2, 0, 1, 0, 2])
        np.testing.assert_array_equal(
            out.data, [1.0, 0.5, 0.5, 0.5, 1.0, 0.5, 1.0]
        )

    def test_float64_csr_returned_uncopied(self):
        w = sparse.csr_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        out = check_weight_matrix(w)
        assert out is w
        assert np.shares_memory(out.data, w.data)

    @pytest.mark.parametrize(
        "convert",
        [lambda w: w.tocsc(), lambda w: w.tocoo(), lambda w: w.astype(np.float32)],
        ids=["csc", "coo", "float32"],
    )
    def test_other_formats_converted_to_float64_csr(self, convert):
        dense = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 1.0]])
        w = convert(sparse.csr_matrix(dense))
        out = check_weight_matrix(w)
        assert out.format == "csr" and out.dtype == np.float64
        assert not np.shares_memory(out.data, w.data)
        np.testing.assert_array_equal(out.toarray(), dense.astype(w.dtype))


class TestLabels:
    def test_exact_length_enforced(self):
        with pytest.raises(DataValidationError, match="length 3"):
            check_labels([1.0, 2.0], n_labeled=3)

    def test_length_match_ok(self):
        out = check_labels([1.0, 0.0], n_labeled=2)
        assert out.shape == (2,)


class TestPositiveScalar:
    def test_positive_ok(self):
        assert check_positive_scalar(2.5) == 2.5

    def test_zero_rejected_by_default(self):
        with pytest.raises(DataValidationError, match="> 0"):
            check_positive_scalar(0.0)

    def test_zero_allowed_when_requested(self):
        assert check_positive_scalar(0.0, allow_zero=True) == 0.0

    def test_negative_always_rejected(self):
        with pytest.raises(DataValidationError):
            check_positive_scalar(-1.0, allow_zero=True)

    def test_nan_rejected(self):
        with pytest.raises(DataValidationError, match="finite"):
            check_positive_scalar(float("nan"))

    def test_non_numeric_rejected(self):
        with pytest.raises(DataValidationError):
            check_positive_scalar("abc")
