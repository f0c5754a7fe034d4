"""Bench: amortized λ-sweeps against per-point direct solves.

A 30-point logarithmic λ-grid (1e-3 .. 1e2) over a sparse kNN graph at
N in {1000, 4000}, solved two ways:

* **direct** — the historical hot path: one ``solve_soft_criterion``
  per grid point, reassembling and refactorizing every time;
* **factored** — one ``SolveWorkspace`` per sweep: anchor factorization
  plus warm-started preconditioned-CG continuation across the grid.

Workspaces are constructed *inside* the timed region, so every sample
pays the full cost of the first factorization — the speedup reported is what a cold sweep actually sees.  The acceptance
guard asserts the factored sweep is at least 3x faster than direct at
N=4000, and that its answers match direct solves at the sweep's ends.
"""

from __future__ import annotations

import numpy as np

from conftest import REPEATS, publish

from repro.core.soft import solve_soft_criterion
from repro.experiments.report import ascii_table
from repro.graph.similarity import knn_graph
from repro.linalg.workspace import SolveWorkspace

SIZES = (1000, 4000)
K = 10
GRID = tuple(float(lam) for lam in np.logspace(-3, 2, 30))

#: Acceptance floor for the factored sweep at the largest N.
MIN_FACTORED_SPEEDUP = 3.0


def _make_problem(n: int):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 2))
    n_labeled = n // 20
    y = np.sin(x[:n_labeled, 0]) + 0.1 * rng.normal(size=n_labeled)
    graph = knn_graph(x, k=K, bandwidth=0.5, construction="neighbors")
    return graph.weights, y


def _sweep_direct(weights, y):
    return [
        solve_soft_criterion(weights, y, lam, check_reachability=False).scores
        for lam in GRID
    ]


def _sweep_workspace(weights, y, backend):
    workspace = SolveWorkspace(weights, backend=backend)
    fits = workspace.sweep_soft(y, GRID)
    return [fit.scores for fit in fits], workspace.stats()


def test_bench_lambda_sweep(bench, results_dir):
    rows = []
    speedups = {}
    for n in SIZES:
        weights, y = _make_problem(n)

        direct, rec_direct = bench.measure(
            f"lambda_sweep_direct_n{n}",
            lambda: _sweep_direct(weights, y),
            repeats=REPEATS,
        )
        factored, rec_factored = bench.measure(
            f"lambda_sweep_factored_n{n}",
            lambda: _sweep_workspace(weights, y, "factored"),
            repeats=REPEATS,
        )

        factored_scores, stats = factored
        for rec in (rec_direct, rec_factored):
            rec.write_json(results_dir / f"{rec.name}.json")
        speedups[n] = rec_direct.min_s / rec_factored.min_s
        rows.append(
            [
                n,
                len(GRID),
                f"{rec_direct.min_s * 1e3:.1f}",
                f"{rec_factored.min_s * 1e3:.1f}",
                f"{speedups[n]:.2f}x",
                stats.factor_misses,
                stats.reanchors,
            ]
        )

        # Continuation must not drift: the factored sweep agrees with the
        # per-point direct solves at both ends of the grid.
        np.testing.assert_allclose(
            factored_scores[0], direct[0], atol=1e-8, rtol=0
        )
        np.testing.assert_allclose(
            factored_scores[-1], direct[-1], atol=1e-8, rtol=0
        )

    table = ascii_table(
        [
            "N",
            "grid",
            "direct (ms)",
            "factored (ms)",
            "factored speedup",
            "factorizations",
            "reanchors",
        ],
        rows,
    )
    summary = (
        "amortized lambda sweeps: 30-point log grid, kNN graph (k=10)\n"
        f"{table}\n"
        f"acceptance: factored >= {MIN_FACTORED_SPEEDUP:.0f}x at N={max(SIZES)}"
    )
    publish(results_dir, "lambda_sweep", summary)

    # Acceptance guard: cross-solve amortization pays for itself where it
    # matters — the factored sweep beats per-point solves >= 3x at the
    # largest size.
    assert speedups[max(SIZES)] >= MIN_FACTORED_SPEEDUP
