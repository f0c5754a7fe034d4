"""Proposition II.1: the soft solution converges to the hard solution as
lambda -> 0.

The experiment solves the soft criterion along a decreasing lambda grid
on one synthetic problem and records the max-norm deviation from the
hard solution on the unlabeled block.  The deviations must decrease
monotonically and vanish in the limit.  The grid is solved through one
:class:`~repro.linalg.workspace.SolveWorkspace`, which picks its own
backend from the graph; the hard solution is the per-point reference
solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hard import solve_hard_criterion
from repro.datasets.synthetic import make_synthetic_dataset
from repro.exceptions import ConfigurationError
from repro.graph.similarity import full_kernel_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.linalg.workspace import SolveWorkspace

__all__ = ["Prop21Result", "run_prop21_experiment"]


@dataclass(frozen=True)
class Prop21Result:
    """Soft-to-hard deviation along a vanishing lambda grid.

    Attributes
    ----------
    lambdas:
        The decreasing lambda grid.
    deviations:
        ``max_a |f_soft(lambda)_a - f_hard_a|`` over unlabeled vertices.
    """

    lambdas: tuple[float, ...]
    deviations: tuple[float, ...]

    @property
    def converges(self) -> bool:
        """Deviations non-increasing and final deviation tiny."""
        non_increasing = all(
            later <= earlier * (1 + 1e-9)
            for earlier, later in zip(self.deviations, self.deviations[1:])
        )
        return non_increasing and self.deviations[-1] < 1e-6

    def to_rows(self) -> list[list]:
        return [[lam, dev] for lam, dev in zip(self.lambdas, self.deviations)]

    @staticmethod
    def headers() -> list[str]:
        return ["lambda", "max|soft-hard|"]


def run_prop21_experiment(
    *,
    n_labeled: int = 100,
    n_unlabeled: int = 30,
    lambdas: tuple[float, ...] = (1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10),
    seed: int = 0,
) -> Prop21Result:
    """Measure ``||f_soft(lambda) - f_hard||_max`` along a vanishing grid.

    A fixed-graph lambda sweep: the grid shares one
    :class:`~repro.linalg.workspace.SolveWorkspace`.
    """
    if any(lam <= 0 for lam in lambdas):
        raise ConfigurationError("lambdas must be strictly positive (0 IS the hard criterion)")
    if list(lambdas) != sorted(lambdas, reverse=True):
        raise ConfigurationError("lambdas must be strictly decreasing toward 0")
    data = make_synthetic_dataset(n_labeled, n_unlabeled, seed=seed)
    bandwidth = paper_bandwidth_rule(n_labeled, data.x_labeled.shape[1])
    graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
    workspace = SolveWorkspace(graph.weights)
    hard = solve_hard_criterion(graph.weights, data.y_labeled, check_reachability=False)
    deviations = []
    for lam in lambdas:
        soft = workspace.solve_soft(data.y_labeled, lam)
        deviations.append(
            float(np.max(np.abs(soft.unlabeled_scores - hard.unlabeled_scores)))
        )
    return Prop21Result(lambdas=tuple(lambdas), deviations=tuple(deviations))
