"""Section III's toy example, verified numerically.

With all inputs identical the RBF weight matrix is all-ones and the
paper derives in closed form:

* ``(D22 - W22)^{-1}`` has ``(n+1)/(n(m+n))`` on the diagonal and
  ``1/(n(m+n))`` off it;
* the hard solution is ``mean(Y_1..Y_n)`` on every unlabeled vertex and
  ``Y_i`` on every labeled vertex.

:func:`run_toy_example` solves the toy problem with the production
solver over a grid of (n, m) and reports the worst deviation from both
closed forms — an end-to-end correctness check of Eq. (5)'s
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hard import solve_hard_criterion
from repro.datasets.toy import constant_input_toy
from repro.exceptions import ConfigurationError
from repro.graph.laplacian import grounded_system
from repro.graph.similarity import full_kernel_graph
from repro.utils.rng import spawn_rngs

__all__ = ["ToyExampleResult", "run_toy_example"]


@dataclass(frozen=True)
class ToyExampleResult:
    """Worst-case deviations of the solver from Section III's closed forms.

    Attributes
    ----------
    grid:
        The (n, m) pairs exercised.
    max_score_deviation:
        Worst ``|f_hat - mean(Y)|`` over all unlabeled vertices and grid
        points.
    max_inverse_deviation:
        Worst entrywise error of the computed ``(D22 - W22)^{-1}``
        against the paper's explicit formula.
    """

    grid: tuple[tuple[int, int], ...]
    max_score_deviation: float
    max_inverse_deviation: float

    @property
    def ok(self) -> bool:
        """Both deviations at numerical-noise level."""
        return self.max_score_deviation < 1e-8 and self.max_inverse_deviation < 1e-8


def run_toy_example(
    *,
    grid: tuple[tuple[int, int], ...] = ((5, 3), (20, 7), (50, 50), (10, 40)),
    seed=None,
) -> ToyExampleResult:
    """Verify the toy example's closed forms over a grid of (n, m)."""
    if not grid:
        raise ConfigurationError("grid must contain at least one (n, m) pair")
    worst_score = 0.0
    worst_inverse = 0.0
    for (n, m), rng in zip(grid, spawn_rngs(seed, len(grid))):
        toy = constant_input_toy(n, m, seed=rng)
        graph = full_kernel_graph(toy.x_all, bandwidth=1.0)
        fit = solve_hard_criterion(graph.weights, toy.y_labeled)
        worst_score = max(
            worst_score,
            float(np.max(np.abs(fit.unlabeled_scores - toy.expected_unlabeled_score))),
        )
        grounded, _ = grounded_system(graph.dense_weights(), n)
        inverse = np.linalg.inv(grounded)
        expected = np.full(
            (m, m), toy.expected_inverse_off_diagonal
        )
        np.fill_diagonal(expected, toy.expected_inverse_diagonal)
        worst_inverse = max(worst_inverse, float(np.max(np.abs(inverse - expected))))
    return ToyExampleResult(
        grid=tuple(grid),
        max_score_deviation=worst_score,
        max_inverse_deviation=worst_inverse,
    )
