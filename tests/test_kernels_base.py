"""Unit tests for repro.kernels.base."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.kernels.base import pairwise_sq_distances
from repro.kernels.library import GaussianKernel, BoxcarKernel


class TestPairwiseSqDistances:
    def test_matches_bruteforce(self, rng):
        x = rng.normal(size=(7, 3))
        y = rng.normal(size=(5, 3))
        got = pairwise_sq_distances(x, y)
        expected = np.array(
            [[np.sum((a - b) ** 2) for b in y] for a in x]
        )
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_self_distances_zero_diagonal(self, rng):
        x = rng.normal(size=(6, 4))
        sq = pairwise_sq_distances(x)
        np.testing.assert_array_equal(np.diag(sq), np.zeros(6))

    def test_never_negative(self, rng):
        # Near-duplicate rows trigger catastrophic cancellation.
        x = np.repeat(rng.normal(size=(1, 5)), 50, axis=0)
        x += 1e-9 * rng.normal(size=x.shape)
        assert pairwise_sq_distances(x).min() >= 0.0

    def test_symmetry(self, rng):
        x = rng.normal(size=(8, 2))
        sq = pairwise_sq_distances(x)
        np.testing.assert_allclose(sq, sq.T, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DataValidationError, match="columns"):
            pairwise_sq_distances(np.ones((2, 3)), np.ones((2, 4)))


class TestRadialKernelApi:
    def test_call_on_difference_vectors(self):
        kernel = GaussianKernel()
        diffs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        values = kernel(diffs)
        np.testing.assert_allclose(
            values, [1.0, np.exp(-1.0), np.exp(-4.0)], atol=1e-12
        )

    def test_evaluate_radii_rejects_negative(self):
        with pytest.raises(DataValidationError, match="non-negative"):
            GaussianKernel().evaluate_radii([-0.1])

    def test_gram_matches_paper_formula(self, rng):
        # w_ij = exp(-||xi-xj||^2 / h^2) with sigma = h.
        x = rng.normal(size=(6, 3))
        h = 0.7
        gram = GaussianKernel().gram(x, bandwidth=h)
        sq = pairwise_sq_distances(x)
        np.testing.assert_allclose(gram, np.exp(-sq / h**2), atol=1e-12)

    def test_gram_cross_shape(self, rng):
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(6, 2))
        assert GaussianKernel().gram(x, y, bandwidth=1.0).shape == (4, 6)

    def test_gram_unit_diagonal(self, rng):
        x = rng.normal(size=(5, 2))
        gram = GaussianKernel().gram(x, bandwidth=0.5)
        np.testing.assert_allclose(np.diag(gram), np.ones(5), atol=1e-12)

    def test_gram_requires_positive_bandwidth(self, rng):
        x = rng.normal(size=(3, 2))
        with pytest.raises(DataValidationError):
            GaussianKernel().gram(x, bandwidth=0.0)

    def test_condition_report_gaussian(self):
        report = GaussianKernel().theorem_conditions()
        assert report.bounded
        assert not report.compact_support  # the RBF violates (ii)
        assert report.lower_bounded_on_ball
        assert not report.all_satisfied

    def test_condition_report_boxcar(self):
        report = BoxcarKernel().theorem_conditions()
        assert report.all_satisfied

    def test_condition_summary_mentions_failures(self):
        text = GaussianKernel().theorem_conditions().summary()
        assert "NO" in text and "compact" in text


class TestChunkedDistances:
    """The blocked large-output path must agree with the one-shot
    expression and allocate no (n, m)-sized temporaries beyond the
    output.  These tests lower ``CHUNK_AUTO_ELEMENTS`` so small inputs
    take the blocked path."""

    def test_explicit_chunk_matches_one_shot(self, rng, monkeypatch):
        import repro.kernels.base as base

        x = rng.normal(size=(57, 4))
        y = rng.normal(size=(23, 4))
        reference = pairwise_sq_distances(x, y)
        block_rows = []
        original = base._fill_sq_blocked

        def spy(*args):
            block_rows.append(args[5])
            return original(*args)

        monkeypatch.setattr(base, "_fill_sq_blocked", spy)
        for rows in (1, 7, 56):
            monkeypatch.setattr(base, "CHUNK_AUTO_ELEMENTS", rows * 23)
            np.testing.assert_allclose(
                pairwise_sq_distances(x, y), reference, atol=1e-12
            )
        assert block_rows == [1, 7, 56]

    def test_chunked_self_distances_zero_diagonal(self, rng, monkeypatch):
        import repro.kernels.base as base

        x = rng.normal(size=(40, 3))
        reference = pairwise_sq_distances(x)
        monkeypatch.setattr(base, "CHUNK_AUTO_ELEMENTS", 11 * 40)
        sq = pairwise_sq_distances(x)
        np.testing.assert_array_equal(np.diagonal(sq), np.zeros(40))
        np.testing.assert_allclose(sq, reference, atol=1e-12)

    def test_small_outputs_keep_historical_expression_bitwise(self, rng):
        # the auto path below CHUNK_AUTO_ELEMENTS must stay bit-identical
        # to previous releases (golden tests depend on it)
        from repro.kernels.base import CHUNK_AUTO_ELEMENTS

        x = rng.normal(size=(64, 5))
        y = rng.normal(size=(48, 5))
        assert 64 * 48 <= CHUNK_AUTO_ELEMENTS
        x_norms = np.einsum("ij,ij->i", x, x)
        y_norms = np.einsum("ij,ij->i", y, y)
        legacy = x_norms[:, None] + y_norms[None, :] - 2.0 * (x @ y.T)
        np.maximum(legacy, 0.0, out=legacy)
        np.testing.assert_array_equal(pairwise_sq_distances(x, y), legacy)

    def test_invalid_arguments_rejected(self, rng):
        x = rng.normal(size=(10, 2))
        # the block size and the output buffer are internal
        with pytest.raises(TypeError):
            pairwise_sq_distances(x, chunk_size=4)
        with pytest.raises(TypeError):
            pairwise_sq_distances(x, out=np.empty((10, 10)))
        with pytest.raises(DataValidationError, match="2-d"):
            pairwise_sq_distances(x[:, 0])
        with pytest.raises(DataValidationError, match="non-finite"):
            pairwise_sq_distances(x, np.full((3, 2), np.nan))

    def test_auto_chunking_bounds_temporaries(self, rng, monkeypatch):
        """Above the auto threshold, no allocation besides the output may
        reach (n * m) elements."""
        import repro.kernels.base as base

        monkeypatch.setattr(base, "CHUNK_AUTO_ELEMENTS", 2**10)
        n, m = 96, 64
        budget = n * m
        x = rng.normal(size=(n, 3))
        y = rng.normal(size=(m, 3))
        reference = x.copy(), y.copy()
        large = []

        def guarded(allocator):
            def wrapper(shape, *args, **kwargs):
                if int(np.prod(np.atleast_1d(shape))) >= budget:
                    large.append(tuple(np.atleast_1d(shape)))
                return allocator(shape, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(np, "empty", guarded(np.empty))
        monkeypatch.setattr(np, "zeros", guarded(np.zeros))
        sq = pairwise_sq_distances(x, y)
        assert large == [(n, m)], f"allocations on the chunked path: {large}"
        np.testing.assert_array_equal(x, reference[0])
        np.testing.assert_array_equal(y, reference[1])
        expected = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(sq, expected, atol=1e-10)
