"""Extension experiments: the paper's stated future-work directions.

Section VI lists two open directions, both implemented here:

* :func:`run_metric_study` — "investigate the theoretical properties of
  other indicators of prediction accuracy such as AUC and MCC":
  evaluates hard vs soft under AUC, MCC and accuracy on the synthetic
  workload, testing whether the RMSE ordering (hard best, worse with
  lambda) transfers to ranking/association metrics.
* :func:`run_m_growth_study` — "investigate the behavior when the
  unlabeled data grow faster than the labeled data": couples m to n via
  ``m = round(c * n^gamma)`` and traces RMSE along growing n for
  sublinear, linear and superlinear gamma, alongside the theorem's
  ratio ``m/(n h^d)``.  The conjecture (from the paper's Figure 2
  discussion) is that consistency survives exactly when the ratio
  vanishes — and that the hard criterion stays ahead of the soft one
  even when it does not.

A third study targets the paper's practical message head-on:

* :func:`run_tuned_lambda_study` — gives the soft criterion every
  advantage by cross-validating lambda per replicate
  (:mod:`repro.model_selection`), then compares against the untuned
  hard criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.hard import solve_hard_criterion
from repro.core.soft import solve_soft_criterion
from repro.datasets.synthetic import make_synthetic_dataset
from repro.exceptions import ConfigurationError
from repro.experiments.runner import run_replicates
from repro.experiments.sweep import SweepResult
from repro.graph.similarity import full_kernel_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.metrics.classification import accuracy, auc, matthews_corrcoef
from repro.metrics.regression import root_mean_squared_error
from repro.model_selection.search import select_lambda

__all__ = [
    "run_metric_study",
    "run_m_growth_study",
    "MGrowthResult",
    "run_tuned_lambda_study",
    "TunedLambdaResult",
]


def _metric_study_replicate(
    rng,
    *,
    n_labeled: int,
    n_unlabeled: int,
    lambdas: tuple[float, ...],
    metrics: tuple[str, ...],
    model: str,
) -> dict[str, float]:
    """One metric-study replicate (module-level so it pickles for n_jobs)."""
    data = make_synthetic_dataset(n_labeled, n_unlabeled, model=model, seed=rng)
    bandwidth = paper_bandwidth_rule(n_labeled, data.x_labeled.shape[1])
    graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
    out = {}
    for lam in lambdas:
        fit = solve_soft_criterion(
            graph.weights, data.y_labeled, lam, check_reachability=False
        )
        scores = fit.unlabeled_scores
        hidden = data.y_unlabeled
        if hidden.min() == hidden.max():
            # Degenerate replicate; score it neutrally.
            values = {"auc": 0.5, "mcc": 0.0, "accuracy": float(np.mean((scores >= 0.5) == hidden))}
        else:
            predictions = (scores >= 0.5).astype(float)
            values = {
                "auc": auc(hidden, scores),
                "mcc": matthews_corrcoef(hidden, predictions),
                "accuracy": accuracy(hidden, predictions),
            }
        for metric in metrics:
            out[f"{metric}@lambda={lam:g}"] = values[metric]
    return out


def run_metric_study(
    *,
    n_labeled: int = 200,
    n_unlabeled: int = 100,
    lambdas: tuple[float, ...] = (0.0, 0.01, 0.1, 5.0),
    metrics: tuple[str, ...] = ("auc", "mcc", "accuracy"),
    model: str = "model1",
    n_replicates: int = 50,
    seed=None,
    n_jobs: int = 1,
    progress=None,
) -> SweepResult:
    """Hard vs soft under AUC / MCC / accuracy (future-work metric study).

    Returns a sweep with one series per metric and the lambda grid on
    the x-axis.  AUC and MCC are *larger-is-better*; the paper's RMSE
    finding transfers if every series is maximal at lambda = 0.
    """
    known = {"auc", "mcc", "accuracy"}
    unknown = set(metrics) - known
    if unknown:
        raise ConfigurationError(f"unknown metrics {sorted(unknown)}; known: {sorted(known)}")

    replicate = partial(
        _metric_study_replicate,
        n_labeled=n_labeled,
        n_unlabeled=n_unlabeled,
        lambdas=tuple(lambdas),
        metrics=tuple(metrics),
        model=model,
    )
    summary = run_replicates(
        replicate, n_replicates=n_replicates, seed=seed, n_jobs=n_jobs,
        label="metric_study", progress=progress,
    )
    means = np.array(
        [[summary.means[f"{metric}@lambda={lam:g}"] for lam in lambdas] for metric in metrics]
    )
    stds = np.array(
        [[summary.stds[f"{metric}@lambda={lam:g}"] for lam in lambdas] for metric in metrics]
    )
    sems = np.array(
        [[summary.sems[f"{metric}@lambda={lam:g}"] for lam in lambdas] for metric in metrics]
    )
    return SweepResult(
        name="metric_study",
        x_label="lambda",
        x_values=tuple(lambdas),
        series_labels=tuple(metrics),
        means=means,
        stds=stds,
        sems=sems,
        metric="mixed (larger is better)",
        n_replicates=n_replicates,
        meta={"n": n_labeled, "m": n_unlabeled, "model": model},
    )


@dataclass(frozen=True)
class MGrowthResult:
    """RMSE along growing n with m coupled as ``m = round(c n^gamma)``.

    Attributes
    ----------
    gamma:
        The coupling exponent (1.0 = m proportional to n; > 1 is the
        regime the paper conjectures is inconsistent).
    n_values, m_values:
        The realized grid.
    hard_rmse, soft_rmse:
        Mean RMSE of the hard criterion and of the soft criterion at
        ``soft_lambda``.
    growth_ratio:
        The theorem's ``m / (n h^d)`` at each grid point.
    """

    gamma: float
    n_values: tuple[int, ...]
    m_values: tuple[int, ...]
    hard_rmse: tuple[float, ...]
    soft_rmse: tuple[float, ...]
    growth_ratio: tuple[float, ...]

    def hard_always_ahead(self) -> bool:
        """The paper's observation: hard beats soft in every regime."""
        return all(h <= s for h, s in zip(self.hard_rmse, self.soft_rmse))

    def to_rows(self) -> list[list]:
        return [
            [n, m, ratio, hard, soft]
            for n, m, ratio, hard, soft in zip(
                self.n_values, self.m_values, self.growth_ratio,
                self.hard_rmse, self.soft_rmse,
            )
        ]

    @staticmethod
    def headers() -> list[str]:
        return ["n", "m", "m/(n h^d)", "hard_rmse", "soft_rmse"]


def _m_growth_replicate(
    rng,
    *,
    n: int,
    m: int,
    bandwidth: float,
    soft_lambda: float,
    model: str,
) -> dict[str, float]:
    """One m-growth replicate (module-level so it pickles for n_jobs)."""
    data = make_synthetic_dataset(n, m, model=model, seed=rng)
    graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
    hard = solve_hard_criterion(
        graph.weights, data.y_labeled, check_reachability=False
    )
    soft = solve_soft_criterion(
        graph.weights, data.y_labeled, soft_lambda,
        check_reachability=False,
    )
    return {
        "hard": root_mean_squared_error(data.q_unlabeled, hard.unlabeled_scores),
        "soft": root_mean_squared_error(data.q_unlabeled, soft.unlabeled_scores),
    }


def run_m_growth_study(
    *,
    gamma: float,
    coefficient: float = 1.0,
    n_values: tuple[int, ...] = (50, 100, 200, 400, 800),
    soft_lambda: float = 0.1,
    model: str = "model1",
    n_replicates: int = 30,
    seed=None,
    n_jobs: int = 1,
    progress=None,
) -> MGrowthResult:
    """Trace RMSE with m coupled to n by ``m = round(coefficient * n^gamma)``."""
    if gamma <= 0:
        raise ConfigurationError(f"gamma must be > 0, got {gamma}")
    if coefficient <= 0:
        raise ConfigurationError(f"coefficient must be > 0, got {coefficient}")
    hard_means = []
    soft_means = []
    m_values = []
    ratios = []
    for j, n in enumerate(n_values):
        m = max(1, int(round(coefficient * n**gamma)))
        m_values.append(m)
        bandwidth = paper_bandwidth_rule(n, 5)
        ratios.append(m / (n * bandwidth**5))

        summary = run_replicates(
            partial(
                _m_growth_replicate,
                n=n,
                m=m,
                bandwidth=bandwidth,
                soft_lambda=soft_lambda,
                model=model,
            ),
            n_replicates=n_replicates,
            seed=None if seed is None else (hash((seed, j)) % (2**32)),
            n_jobs=n_jobs,
            label=f"m_growth[n={n}]",
            progress=progress,
        )
        hard_means.append(summary.means["hard"])
        soft_means.append(summary.means["soft"])
    return MGrowthResult(
        gamma=gamma,
        n_values=tuple(n_values),
        m_values=tuple(m_values),
        hard_rmse=tuple(hard_means),
        soft_rmse=tuple(soft_means),
        growth_ratio=tuple(ratios),
    )


@dataclass(frozen=True)
class TunedLambdaResult:
    """Untuned hard criterion vs per-replicate CV-tuned soft criterion.

    Attributes
    ----------
    hard_rmse, tuned_rmse:
        Mean RMSE of lambda = 0 and of the CV-selected lambda.
    chosen_lambdas:
        The lambda each replicate's cross-validation picked.
    """

    hard_rmse: float
    tuned_rmse: float
    chosen_lambdas: tuple[float, ...]

    @property
    def hard_wins_or_ties(self) -> bool:
        return self.hard_rmse <= self.tuned_rmse + 1e-12

    def fraction_choosing_zero(self) -> float:
        """How often CV itself selects the hard criterion."""
        chosen = np.asarray(self.chosen_lambdas)
        return float(np.mean(chosen == 0.0))


def _tuned_lambda_replicate(
    rng,
    *,
    n_labeled: int,
    n_unlabeled: int,
    grid: tuple[float, ...],
    n_folds: int,
    model: str,
    sweep_backend: str = "direct",
) -> dict[str, float]:
    """One tuned-lambda replicate (module-level so it pickles for n_jobs).

    The CV fold shuffles draw from the same generator that produced the
    dataset, exactly as the pre-``run_replicates`` implementation did, so
    the per-replicate stream (and every reported number) is unchanged.
    """
    data = make_synthetic_dataset(n_labeled, n_unlabeled, model=model, seed=rng)
    bandwidth = paper_bandwidth_rule(n_labeled, data.x_labeled.shape[1])
    graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
    search = select_lambda(
        graph.weights, data.y_labeled, grid=grid, n_folds=n_folds, seed=rng,
        sweep_backend=sweep_backend,
    )
    tuned = solve_soft_criterion(
        graph.weights, data.y_labeled, search.best_value,
        check_reachability=False,
    )
    hard = solve_hard_criterion(
        graph.weights, data.y_labeled, check_reachability=False
    )
    return {
        "hard": root_mean_squared_error(data.q_unlabeled, hard.unlabeled_scores),
        "tuned": root_mean_squared_error(data.q_unlabeled, tuned.unlabeled_scores),
        "chosen": float(search.best_value),
    }


def run_tuned_lambda_study(
    *,
    n_labeled: int = 150,
    n_unlabeled: int = 30,
    grid: tuple[float, ...] = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
    n_folds: int = 5,
    model: str = "model1",
    n_replicates: int = 20,
    seed=None,
    n_jobs: int = 1,
    progress=None,
    sweep_backend: str = "direct",
) -> TunedLambdaResult:
    """Compare the untuned hard criterion with a CV-tuned soft criterion.

    ``sweep_backend`` is forwarded to the per-replicate
    :func:`~repro.model_selection.search.select_lambda` grid search.
    """
    from repro.experiments.amortize import check_sweep_backend

    check_sweep_backend(sweep_backend)
    summary = run_replicates(
        partial(
            _tuned_lambda_replicate,
            n_labeled=n_labeled,
            n_unlabeled=n_unlabeled,
            grid=tuple(grid),
            n_folds=n_folds,
            model=model,
            sweep_backend=sweep_backend,
        ),
        n_replicates=n_replicates,
        seed=seed,
        n_jobs=n_jobs,
        label="tuned_lambda",
        progress=progress,
    )
    return TunedLambdaResult(
        hard_rmse=summary.means["hard"],
        tuned_rmse=summary.means["tuned"],
        chosen_lambdas=summary.values["chosen"],
    )
