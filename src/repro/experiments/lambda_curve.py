"""The lambda-degradation curve: RMSE as a continuous function of lambda.

The paper samples four lambdas; this experiment traces the full curve on
a log grid from the hard criterion (lambda = 0) to deep in the
collapse regime, with the two theoretical anchors overlaid:

* at lambda = 0 the RMSE equals the hard criterion's (Prop. II.1);
* as lambda -> inf the RMSE approaches that of the constant
  labeled-mean prediction (Prop. II.2).

Proposition II.2's continuity remark — "the prediction cannot suddenly
jump from consistent to extremely inaccurate" — predicts a smooth
monotone-ish interpolation between the anchors, which is exactly what
the curve shows.

Each replicate solves its whole grid, and the hard anchor, through one
:class:`~repro.linalg.workspace.SolveWorkspace` on its graph, whose
backend :func:`~repro.linalg.workspace.choose_backend` reads off the
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.core.soft import soft_lambda_infinity_limit
from repro.datasets.synthetic import make_synthetic_dataset
from repro.exceptions import ConfigurationError
from repro.experiments.runner import run_replicates
from repro.graph.similarity import full_kernel_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.linalg.workspace import SolveWorkspace, choose_backend
from repro.metrics.regression import root_mean_squared_error

__all__ = ["LambdaCurve", "run_lambda_curve"]


@dataclass(frozen=True)
class LambdaCurve:
    """Mean RMSE along a lambda grid, with the two theoretical anchors.

    Attributes
    ----------
    lambdas:
        The grid (0 first, then increasing positives).
    rmse:
        Mean RMSE at each lambda.
    hard_rmse:
        Mean RMSE of the hard criterion (equals ``rmse[0]``).
    mean_rmse:
        Mean RMSE of the constant labeled-mean prediction (the
        lambda = inf anchor).
    n_replicates:
        Replicates behind every point.
    """

    lambdas: tuple[float, ...]
    rmse: tuple[float, ...]
    hard_rmse: float
    mean_rmse: float
    n_replicates: int

    @property
    def interpolates_anchors(self) -> bool:
        """Curve starts at the hard anchor and ends near the mean anchor."""
        starts = abs(self.rmse[0] - self.hard_rmse) < 1e-12
        ends = abs(self.rmse[-1] - self.mean_rmse) < 0.02
        return starts and ends

    def to_rows(self) -> list[list]:
        return [[lam, value] for lam, value in zip(self.lambdas, self.rmse)]

    @staticmethod
    def headers() -> list[str]:
        return ["lambda", "rmse"]


def _lambda_curve_replicate(
    rng,
    *,
    n_labeled: int,
    n_unlabeled: int,
    lambdas: tuple[float, ...],
    model: str,
) -> dict[str, float]:
    """One replicate: RMSE at each grid lambda plus the two anchors.

    Module-level (not a closure) so it pickles across the ``n_jobs``
    process boundary.  One :class:`~repro.linalg.workspace.SolveWorkspace`
    serves the whole grid; the hard anchor is solved through the same
    workspace so the ``lambda = 0`` grid point stays *exactly* equal to
    it.
    """
    data = make_synthetic_dataset(n_labeled, n_unlabeled, model=model, seed=rng)
    bandwidth = paper_bandwidth_rule(n_labeled, data.x_labeled.shape[1])
    graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
    workspace = SolveWorkspace(graph.weights, backend=choose_backend(graph.weights))
    out = {}
    for lam in lambdas:
        fit = workspace.solve_soft(data.y_labeled, lam)
        out[f"lam={lam:g}"] = root_mean_squared_error(
            data.q_unlabeled, fit.unlabeled_scores
        )
    hard = workspace.solve_hard(data.y_labeled)
    out["hard"] = root_mean_squared_error(
        data.q_unlabeled, hard.unlabeled_scores
    )
    limit = soft_lambda_infinity_limit(data.y_labeled, graph.n_vertices)
    out["mean"] = root_mean_squared_error(
        data.q_unlabeled, limit[n_labeled:]
    )
    return out


def run_lambda_curve(
    *,
    n_labeled: int = 150,
    n_unlabeled: int = 30,
    lambdas: tuple[float, ...] = (
        0.0, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0, 1e4,
    ),
    model: str = "model1",
    n_replicates: int = 50,
    seed=None,
    n_jobs: int = 1,
    progress=None,
) -> LambdaCurve:
    """Trace mean RMSE along a dense lambda grid."""
    if lambdas[0] != 0.0 or list(lambdas[1:]) != sorted(set(lambdas[1:])):
        raise ConfigurationError(
            "lambdas must start at 0 and then strictly increase"
        )
    replicate = partial(
        _lambda_curve_replicate,
        n_labeled=n_labeled,
        n_unlabeled=n_unlabeled,
        lambdas=tuple(lambdas),
        model=model,
    )
    summary = run_replicates(
        replicate, n_replicates=n_replicates, seed=seed, n_jobs=n_jobs,
        label="lambda_curve", progress=progress,
    )
    return LambdaCurve(
        lambdas=tuple(lambdas),
        rmse=tuple(summary.means[f"lam={lam:g}"] for lam in lambdas),
        hard_rmse=summary.means["hard"],
        mean_rmse=summary.means["mean"],
        n_replicates=n_replicates,
    )
