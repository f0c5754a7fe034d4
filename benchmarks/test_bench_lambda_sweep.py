"""Bench: amortized λ-sweeps against per-point direct solves.

A 30-point logarithmic λ-grid (1e-3 .. 1e2) over a sparse kNN graph at
N in {1000, 4000}, solved two ways:

* **direct** — the historical hot path: one ``solve_soft_criterion``
  per grid point, reassembling and refactorizing every time;
* **factored** — one ``SolveWorkspace`` per sweep: anchor factorization
  plus warm-started preconditioned-CG continuation across the grid.

Workspaces are constructed *inside* the timed region, so every sample
pays the full cost of the first factorization — the speedup reported is
what a cold sweep actually sees.  After one profiled pass per leg
(memory and solver health), the two legs are timed in :data:`PAIRS`
back-to-back pairs whose order alternates, and each leg's record is
built from its own samples.  The acceptance guard asserts that the
median of the per-pair speedups is at least 3x at N=4000: host load
shifts both legs of a pair alike, so their ratio holds steadier than a
ratio of minima taken seconds apart.  The factored answers must also
match direct solves at the sweep's ends.
"""

from __future__ import annotations

import statistics

import numpy as np

from conftest import REPEATS, publish

from repro.core.soft import solve_soft_criterion
from repro.experiments.report import ascii_table
from repro.graph.similarity import knn_graph
from repro.linalg.workspace import SolveWorkspace
from repro.obs.bench import BenchRecord, _profiled_pass
from repro.utils.timing import collect_timings

SIZES = (1000, 4000)
K = 10
GRID = tuple(float(lam) for lam in np.logspace(-3, 2, 30))

#: Acceptance floor for the factored sweep at the largest N, applied to
#: the median of the per-pair speedups.
MIN_FACTORED_SPEEDUP = 3.0

#: Alternating (direct, factored) timing pairs per size.
PAIRS = max(5, REPEATS)


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


def _measure_pairs(bench, n, legs):
    """Profile each leg once, then time the legs in alternating pairs.

    ``legs`` maps a leg name to its sweep.  Returns each leg's profiled
    result and its registered record, keyed by leg name.
    """
    profiled = {leg: _profiled_pass(fn) for leg, fn in legs.items()}
    samples = {leg: [] for leg in legs}
    order = list(legs)
    for _ in range(PAIRS):
        for leg in order:
            timings, _ = collect_timings(legs[leg], 1)
            samples[leg] += timings
        order.reverse()
    results, records = {}, {}
    for leg, (result, memory, health) in profiled.items():
        records[leg] = BenchRecord.from_samples(
            f"lambda_sweep_{leg}_n{n}",
            samples[leg],
            memory=memory,
            solver_health=health,
            environment=bench.environment,
            scale=bench.scale,
        )
        bench.add(records[leg])
        results[leg] = result
    return results, records


def test_bench_lambda_sweep(bench, results_dir):
    rows = []
    speedups = {}
    for n in SIZES:
        weights, y = _make_problem(n)

        results, records = _measure_pairs(
            bench,
            n,
            {
                "direct": lambda: _sweep_direct(weights, y),
                "factored": lambda: _sweep_workspace(weights, y, "factored"),
            },
        )
        direct = results["direct"]
        factored_scores, stats = results["factored"]
        rec_direct, rec_factored = records["direct"], records["factored"]
        for rec in (rec_direct, rec_factored):
            rec.write_json(results_dir / f"{rec.name}.json")
        speedups[n] = statistics.median(
            d / f for d, f in zip(rec_direct.samples_s, rec_factored.samples_s)
        )
        rows.append(
            [
                n,
                len(GRID),
                f"{rec_direct.min_s * 1e3:.1f}",
                f"{rec_factored.min_s * 1e3:.1f}",
                f"{speedups[n]:.2f}x",
                stats.factorizations,
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
            "direct min (ms)",
            "factored min (ms)",
            "median pair speedup",
            "factorizations",
            "reanchors",
        ],
        rows,
    )
    summary = (
        "amortized lambda sweeps: 30-point log grid, kNN graph (k=10)\n"
        f"{table}\n"
        f"acceptance: median of {PAIRS} alternating pair speedups >= "
        f"{MIN_FACTORED_SPEEDUP:.0f}x at N={max(SIZES)}"
    )
    publish(results_dir, "lambda_sweep", summary)

    # Acceptance guard: cross-solve amortization pays for itself where it
    # matters — in the median pair, the factored sweep beats per-point
    # solves >= 3x at the largest size.
    assert speedups[max(SIZES)] >= MIN_FACTORED_SPEEDUP
