"""Proposition II.2: the soft criterion is inconsistent for large lambda.

Two measurements on a connected synthetic graph:

* the soft solution's max-norm distance to the constant labeled-mean
  vector must *vanish* as lambda -> inf (the counterexample's limit);
* the soft solution's RMSE against the true regression function must
  stay bounded away from the hard criterion's RMSE (the inconsistency
  gap) for large lambda.

The grid is solved through one :class:`~repro.linalg.workspace.SolveWorkspace`,
which picks its own backend from the graph; the hard solution is the
per-point reference solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hard import solve_hard_criterion
from repro.core.soft import soft_lambda_infinity_limit
from repro.datasets.synthetic import make_synthetic_dataset
from repro.exceptions import ConfigurationError
from repro.graph.similarity import full_kernel_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.linalg.workspace import SolveWorkspace
from repro.metrics.regression import root_mean_squared_error

__all__ = ["Prop22Result", "run_prop22_experiment"]


@dataclass(frozen=True)
class Prop22Result:
    """Soft-criterion behaviour along a growing lambda grid.

    Attributes
    ----------
    lambdas:
        Increasing lambda grid.
    distance_to_mean:
        ``max_a |f_soft(lambda)_a - mean(Y_n)|`` on unlabeled vertices —
        must vanish as lambda grows.
    rmse:
        RMSE of the soft solution against the true ``q(X)``.
    hard_rmse:
        The hard criterion's RMSE on the same problem (the consistent
        reference point).
    """

    lambdas: tuple[float, ...]
    distance_to_mean: tuple[float, ...]
    rmse: tuple[float, ...]
    hard_rmse: float

    @property
    def collapses_to_mean(self) -> bool:
        """Final distance to the constant mean vector is tiny."""
        return self.distance_to_mean[-1] < 1e-6

    @property
    def inconsistency_gap(self) -> float:
        """How much worse the large-lambda soft RMSE is than the hard RMSE."""
        return self.rmse[-1] - self.hard_rmse

    def to_rows(self) -> list[list]:
        return [
            [lam, dist, err]
            for lam, dist, err in zip(self.lambdas, self.distance_to_mean, self.rmse)
        ]

    @staticmethod
    def headers() -> list[str]:
        return ["lambda", "max|soft-mean|", "rmse"]


def run_prop22_experiment(
    *,
    n_labeled: int = 100,
    n_unlabeled: int = 30,
    lambdas: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0, 1e4, 1e6, 1e8),
    seed: int = 0,
) -> Prop22Result:
    """Measure the soft criterion's collapse to the labeled mean.

    A fixed-graph lambda sweep: the grid shares one
    :class:`~repro.linalg.workspace.SolveWorkspace`.
    """
    if any(lam <= 0 for lam in lambdas):
        raise ConfigurationError("lambdas must be strictly positive")
    if list(lambdas) != sorted(lambdas):
        raise ConfigurationError("lambdas must be increasing toward infinity")
    data = make_synthetic_dataset(n_labeled, n_unlabeled, seed=seed)
    bandwidth = paper_bandwidth_rule(n_labeled, data.x_labeled.shape[1])
    graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
    workspace = SolveWorkspace(graph.weights)

    hard = solve_hard_criterion(graph.weights, data.y_labeled, check_reachability=False)
    hard_rmse = root_mean_squared_error(data.q_unlabeled, hard.unlabeled_scores)
    limit = soft_lambda_infinity_limit(data.y_labeled, graph.n_vertices)

    # L·1 = 0, so f(λ) - limit solves the same system with the labels
    # shifted by their mean.  Solving for that deviation directly keeps
    # its O(1/λ) size above roundoff; subtracting the limit from f(λ)
    # leaves only roundoff at λ = 1e8.
    shifted = data.y_labeled - limit[:n_labeled]
    distances = []
    errors = []
    for lam in lambdas:
        deviation = workspace.solve_soft(shifted, lam).unlabeled_scores
        distances.append(float(np.max(np.abs(deviation))))
        errors.append(
            root_mean_squared_error(data.q_unlabeled, limit[n_labeled:] + deviation)
        )
    return Prop22Result(
        lambdas=tuple(lambdas),
        distance_to_mean=tuple(distances),
        rmse=tuple(errors),
        hard_rmse=hard_rmse,
    )
