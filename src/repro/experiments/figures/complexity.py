"""Section II's complexity claim: hard O(m^3) vs soft-full O((n+m)^3).

The paper notes the hard criterion solves an m x m system while the soft
criterion's Eq. (3) form solves an (n+m) x (n+m) system — another reason
to prefer the hard criterion.  This experiment times both solvers over a
grid of problem sizes with a fixed m/n ratio, fits power-law exponents,
and reports the speedup.  (The soft *Schur* form closes most of the gap
by construction; the timing uses the paper's full form, which is what
the claim is about.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hard import solve_hard_criterion
from repro.core.soft import solve_soft_criterion
from repro.datasets.synthetic import make_synthetic_dataset
from repro.exceptions import ConfigurationError
from repro.graph.similarity import full_kernel_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.utils.timing import Stopwatch, fit_power_law

__all__ = ["ComplexityResult", "run_complexity_experiment"]


@dataclass(frozen=True)
class ComplexityResult:
    """Timing comparison of the hard and soft-full solvers.

    Attributes
    ----------
    total_sizes:
        The swept total problem sizes ``n + m``.
    hard_seconds, soft_full_seconds:
        Minimum wall-clock per solve over the repeats at each size.
    hard_exponent, soft_exponent:
        Fitted power-law growth exponents (expected approaching 3 for
        large sizes; small sizes are overhead-dominated).
    """

    total_sizes: tuple[int, ...]
    hard_seconds: tuple[float, ...]
    soft_full_seconds: tuple[float, ...]
    hard_exponent: float
    soft_exponent: float

    def speedups(self) -> tuple[float, ...]:
        """Per-size ratio soft-full time / hard time."""
        return tuple(
            s / h if h > 0 else float("inf")
            for h, s in zip(self.hard_seconds, self.soft_full_seconds)
        )

    def to_rows(self) -> list[list]:
        return [
            [size, hard, soft, soft / hard if hard > 0 else float("inf")]
            for size, hard, soft in zip(
                self.total_sizes, self.hard_seconds, self.soft_full_seconds
            )
        ]

    @staticmethod
    def headers() -> list[str]:
        return ["n+m", "hard_s", "soft_full_s", "speedup"]


def run_complexity_experiment(
    *,
    total_sizes: tuple[int, ...] = (100, 200, 400, 800),
    unlabeled_fraction: float = 0.3,
    lam: float = 0.1,
    repeats: int = 3,
    seed: int = 0,
) -> ComplexityResult:
    """Time hard (m x m) vs soft-full ((n+m) x (n+m)) solves.

    Parameters
    ----------
    total_sizes:
        Total problem sizes ``n + m`` to sweep.
    unlabeled_fraction:
        Fraction of each problem that is unlabeled (so the hard system is
        this fraction of the full system).
    lam:
        Tuning parameter for the soft solves.
    repeats:
        Timed solves per size; the minimum over them is reported, the
        statistic least disturbed by other load on the host (the
        benchmark regression gates compare minima too).
    seed:
        Dataset seed.
    """
    if not 0.0 < unlabeled_fraction < 1.0:
        raise ConfigurationError(
            f"unlabeled_fraction must be in (0, 1), got {unlabeled_fraction}"
        )
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    watch = Stopwatch()
    hard_mins = []
    soft_mins = []
    for size in total_sizes:
        m = max(1, int(round(size * unlabeled_fraction)))
        n = size - m
        data = make_synthetic_dataset(n, m, seed=seed)
        bandwidth = paper_bandwidth_rule(n, data.x_labeled.shape[1])
        graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
        for _ in range(repeats):
            with watch.measure(f"hard-{size}"):
                solve_hard_criterion(graph.weights, data.y_labeled, check_reachability=False)
            with watch.measure(f"soft-{size}"):
                solve_soft_criterion(
                    graph.weights, data.y_labeled, lam,
                    method="full", check_reachability=False,
                )
        hard_mins.append(min(watch.samples[f"hard-{size}"]))
        soft_mins.append(min(watch.samples[f"soft-{size}"]))
    _, hard_exp = fit_power_law(total_sizes, hard_mins)
    _, soft_exp = fit_power_law(total_sizes, soft_mins)
    return ComplexityResult(
        total_sizes=tuple(total_sizes),
        hard_seconds=tuple(hard_mins),
        soft_full_seconds=tuple(soft_mins),
        hard_exponent=hard_exp,
        soft_exponent=soft_exp,
    )
