"""Tests for the per-figure experiment drivers (trimmed sizes).

These are *driver correctness* tests: each figure driver runs end to end
at a tiny configuration and produces a structurally valid result.  The
paper-shape assertions at realistic sizes live in the integration tests
and in the benchmarks.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.figures import (
    run_complexity_experiment,
    run_figure1,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_prop21_experiment,
    run_prop22_experiment,
    run_toy_example,
)
from repro.experiments.synthetic_sweep import run_synthetic_sweep, synthetic_replicate_rmse


class TestSyntheticSweepDriver:
    def test_replicate_returns_all_lambdas(self, rng):
        metrics = synthetic_replicate_rmse(
            rng, n_labeled=30, n_unlabeled=10, model="model1", lambdas=(0.0, 0.1)
        )
        assert set(metrics) == {"lambda=0", "lambda=0.1"}
        assert all(v >= 0 for v in metrics.values())

    def test_invalid_vary_raises(self):
        with pytest.raises(ConfigurationError):
            run_synthetic_sweep(
                name="x", model="model1", vary="k", values=(10,), fixed=5
            )

    def test_reproducible_with_seed(self):
        kwargs = dict(
            name="t", model="model1", vary="n", values=(20, 40), fixed=5,
            lambdas=(0.0, 0.1), n_replicates=3, seed=11,
        )
        a = run_synthetic_sweep(**kwargs)
        b = run_synthetic_sweep(**kwargs)
        np.testing.assert_array_equal(a.means, b.means)


@pytest.mark.parametrize(
    "driver,kwargs,x_label",
    [
        (run_figure1, {"n_values": (20, 50), "m": 5}, "n"),
        (run_figure2, {"m_values": (5, 15), "n": 30}, "m"),
        (run_figure3, {"n_values": (20, 50), "m": 5}, "n"),
        (run_figure4, {"m_values": (5, 15), "n": 30}, "m"),
    ],
)
class TestSyntheticFigures:
    def test_driver_structure(self, driver, kwargs, x_label):
        result = driver(lambdas=(0.0, 0.1), n_replicates=3, seed=0, **kwargs)
        assert result.x_label == x_label
        assert result.series_labels == ("lambda=0", "lambda=0.1")
        assert result.means.shape == (2, 2)
        assert np.all(result.means > 0)
        assert result.metric == "rmse"


class TestFigure5Driver:
    def test_tiny_run_structure(self):
        result = run_figure5(
            images_per_class=20,
            settings=("80/20",),
            lambdas=(0.0, 1.0),
            repeats=1,
            seed=0,
        )
        assert result.series_labels == ("ratio 80/20",)
        assert result.means.shape == (1, 2)
        assert np.all(result.means > 0.0) and np.all(result.means < 1.0)
        assert result.metric == "auc"

    def test_unknown_setting_raises(self):
        with pytest.raises(ConfigurationError, match="unknown settings"):
            run_figure5(settings=("30/70",), repeats=1)

    def test_prebuilt_dataset_used(self):
        from repro.datasets.coil import make_coil_like

        ds = make_coil_like(images_per_class=20, seed=3)
        result = run_figure5(
            dataset=ds, settings=("80/20",), lambdas=(0.0,), repeats=1, seed=0
        )
        assert result.meta["n_samples"] == ds.n_samples

    def test_single_class_dataset_rejected(self):
        """If every fold is degenerate (one class), the driver raises
        instead of silently returning empty averages."""
        import dataclasses

        from repro.datasets.coil import make_coil_like

        ds = make_coil_like(images_per_class=20, seed=3)
        broken = dataclasses.replace(
            ds, binary_labels=np.zeros_like(ds.binary_labels)
        )
        with pytest.raises(ConfigurationError, match="no valid splits"):
            run_figure5(
                dataset=broken, settings=("80/20",), lambdas=(0.0,),
                repeats=1, seed=0,
            )


class TestToyDriver:
    def test_closed_forms_hold(self):
        result = run_toy_example(seed=0)
        assert result.ok
        assert result.max_score_deviation < 1e-10
        assert result.max_inverse_deviation < 1e-10

    def test_empty_grid_raises(self):
        with pytest.raises(ConfigurationError):
            run_toy_example(grid=())


class TestComplexityDriver:
    def test_structure_and_positive_times(self):
        result = run_complexity_experiment(
            total_sizes=(60, 120), repeats=1, seed=0
        )
        assert len(result.hard_seconds) == 2
        assert all(t > 0 for t in result.hard_seconds)
        assert all(t > 0 for t in result.soft_full_seconds)
        assert len(result.speedups()) == 2
        rows = result.to_rows()
        assert len(rows) == 2 and len(rows[0]) == len(result.headers())

    def test_soft_full_slower_than_hard(self):
        """The headline: the (n+m)-sized solve costs more than the m-sized."""
        result = run_complexity_experiment(
            total_sizes=(300, 500), repeats=3, seed=0
        )
        assert result.soft_full_seconds[-1] > result.hard_seconds[-1]

    def test_reports_minimum_over_repeats(self, monkeypatch):
        """Each size reports the fastest of its repeats, not their mean."""
        import types

        from repro.utils import timing

        # Per size and repeat the experiment times one hard solve, then one
        # soft solve; each measurement reads the clock twice.
        durations = {
            60: ([0.3, 0.1, 0.2], [0.9, 0.5, 0.7]),
            120: ([0.4, 0.6, 0.2], [1.5, 1.2, 2.4]),
        }
        readings = []
        now = 0.0
        for hard, soft in durations.values():
            for pair in zip(hard, soft):
                for seconds in pair:
                    readings += [now, now + seconds]
                    now += seconds + 1.0
        clock = iter(readings)
        monkeypatch.setattr(
            timing, "time", types.SimpleNamespace(perf_counter=lambda: next(clock))
        )
        result = run_complexity_experiment(
            total_sizes=tuple(durations), repeats=3, seed=0
        )
        assert next(clock, None) is None
        assert result.hard_seconds == pytest.approx((0.1, 0.2))
        assert result.soft_full_seconds == pytest.approx((0.5, 1.2))

    def test_invalid_fraction_raises(self):
        with pytest.raises(ConfigurationError):
            run_complexity_experiment(unlabeled_fraction=1.5)


class TestPropositionDrivers:
    def test_prop21_converges(self):
        result = run_prop21_experiment(n_labeled=40, n_unlabeled=10, seed=0)
        assert result.converges
        assert result.deviations[-1] < 1e-6
        assert len(result.to_rows()) == len(result.lambdas)

    def test_prop21_requires_decreasing_positive(self):
        with pytest.raises(ConfigurationError):
            run_prop21_experiment(lambdas=(0.1, 1.0))
        with pytest.raises(ConfigurationError):
            run_prop21_experiment(lambdas=(1.0, 0.0))

    def test_prop22_collapses_to_mean(self):
        result = run_prop22_experiment(n_labeled=40, n_unlabeled=10, seed=0)
        assert result.collapses_to_mean
        assert result.inconsistency_gap > 0
        # Distance to the mean vector shrinks along the grid.
        assert result.distance_to_mean[-1] < result.distance_to_mean[0]

    def test_prop22_requires_increasing(self):
        with pytest.raises(ConfigurationError):
            run_prop22_experiment(lambdas=(10.0, 1.0))
