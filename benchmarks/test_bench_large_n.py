"""Bench: the N=10⁵ pipeline — approximate kNN build + multigrid λ-sweep.

The scaling wall this PR removes is twofold.  First, graph construction:
the dense O(N²) route is out of reach long before 10⁵ and even exact
kd-tree queries degrade with dimension; the RP-tree route
(:mod:`repro.graph.approx`) is measured against the exact build with its
recall printed.  Second, the sweep: in d=3 the ``splu`` fill-in of one
soft-system factorization crosses ~80 s at N=10⁵, and the ``exact``
backend pays it at every grid point, while the ``multigrid`` backend
builds a λ-independent coarsening hierarchy in ~0.4 s at N=10⁵ (2-CPU
host) and solves each grid point in a handful of
V-cycle-preconditioned CG iterations.

Scales: ``quick`` (default) runs N=2·10⁴, ``REPRO_BENCH_SCALE=paper``
runs N=10⁵.  At both, ``exact`` solves only the grid's two endpoints,
which is all the parity check compares (2 factorizations instead of 20,
each ~80 s at N=10⁵), and the speedup floor compares time per grid
point.  The d=3 data is deliberate: in d=2 sparse factorization fill-in
stays nearly linear and the comparison would flatter nobody — see
docs/SCALING.md.

Acceptance guards: the multigrid sweep's time per grid point beats the
``exact`` backend's ≥ 3x, its endpoint scores match ``exact``'s within
1e-6, approximate-kNN recall at the default knob is ≥ 0.95, and
soft-criterion scores on the
approximate graph match the exact graph within 1e-2 RMS over vertices
(the max-norm is reported alongside: it is dominated by the single
worst vertex that lost its one longest edge, and stays a few times
larger even at recall > 0.9999).  The knob loop at the bottom produces
the recall/accuracy trade-off table quoted in docs/SCALING.md.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import REPEATS, SCALE, publish

from repro.experiments.report import ascii_table
from repro.graph.approx import (
    DEFAULT_N_TREES,
    approx_knn_graph,
    knn_recall,
    rp_tree_knn,
)
from repro.graph.similarity import knn_graph
from repro.linalg.workspace import SolveWorkspace
from repro.obs.bench import MemoryBudget

N = 100_000 if SCALE == "paper" else 20_000
D = 3
K = 10
GRID = tuple(float(lam) for lam in np.logspace(-3, 2, 20))

#: Acceptance floor: time per grid point of the coarsening-preconditioned
#: sweep vs the ``exact`` backend's (one splu factorization per point).
MIN_MULTIGRID_SPEEDUP = 3.0


#: Acceptance floors for the approximate construction.
MIN_APPROX_RECALL = 0.95
MAX_APPROX_SCORE_ERROR = 1e-2

# ----------------------------------------------------------------------
# Memory-budget bench (the out-of-core pipeline's acceptance gate)
# ----------------------------------------------------------------------

#: The budgeted pipeline: N = 10⁶ at paper scale, a CI-sized 2·10⁵
#: otherwise.  Its graph is the exact kNN graph on the route
#: ``construction="auto"`` picks at d=3: the kd-tree.
N_BUDGET = 1_000_000 if SCALE == "paper" else 200_000

#: Reduced λ grid for the budgeted sweep (memory is λ-count-independent;
#: runtime at N=10⁶ is not).
BUDGET_GRID = tuple(float(lam) for lam in np.logspace(-2, 1, 4))

#: Every phase of the memory-lean pipeline must peak below this fraction
#: of a naive pipeline's peak: the RP-tree route's one-shot candidate
#: merge, ``n_trees · N · k`` (row, col, sq) triples of 24 bytes
#: concatenated and then copied once more by the dedup/lexsort reduction.
BUDGET_FRACTION = 0.40


def _naive_candidate_bytes(n: int) -> int:
    return DEFAULT_N_TREES * n * K * 24 * 2


def test_bench_memory_budget(bench, results_dir):
    n = N_BUDGET
    x, y = _make_problem(n)
    budget_bytes = int(BUDGET_FRACTION * _naive_candidate_bytes(n))
    gate = MemoryBudget()

    # Budget phases and BenchRecorder timing passes both reset the shared
    # tracemalloc peak, so the phases run once (gated) and the record's
    # one timing sample is the pipeline's wall time, graph phase start to
    # hard phase end (repeats=1, informational only).  The per-phase
    # durations stay in memory["budget"]["phases"].
    started = time.perf_counter()
    with gate.phase("graph", budget_bytes=budget_bytes):
        graph = knn_graph(x, k=K, bandwidth=0.5)
    workspace = SolveWorkspace(graph.weights, backend="multigrid")
    with gate.phase("hierarchy", budget_bytes=budget_bytes):
        hierarchy = workspace.hierarchy()
    with gate.phase("sweep", budget_bytes=budget_bytes):
        fits = workspace.sweep_soft(y, BUDGET_GRID)
    # The hard solve follows the sweep and sets the pipeline's peak at
    # paper scale: its own hierarchy of W22, D22 - W22 and V-cycle.
    with gate.phase("hard", budget_bytes=budget_bytes):
        hard = workspace.solve_hard(y)
    wall_s = time.perf_counter() - started

    retained = hierarchy.retained_bytes()
    stats = workspace.stats()

    from repro.obs.bench import BenchRecord

    record = BenchRecord.from_samples(
        f"memory_budget_pipeline_n{n}",
        [wall_s],
        repeats=1,
        memory={
            "budget": gate.to_dict(),
            "naive_candidate_bytes": _naive_candidate_bytes(n),
            "hierarchy_retained_bytes": retained,
            "peak_bytes": max(u.peak_traced_bytes for u in gate.phases),
        },
        scale=SCALE,
    )
    bench.add(record)
    record.write_json(results_dir / f"{record.name}.json")

    lines = [
        f"memory-budget pipeline at N={n}, d={D}, k={K} "
        f"({len(BUDGET_GRID)}-point lambda grid, assembled hierarchy, "
        f"{stats.pcg_iterations} PCG iterations, "
        f"{hard.solve_info.iterations} of them the hard solve's)",
        f"per-phase budget: {budget_bytes / 2**20:.0f} MiB "
        f"(= {BUDGET_FRACTION:.0%} of the naive one-shot candidate peak "
        f"{_naive_candidate_bytes(n) / 2**20:.0f} MiB)",
        gate.report(),
        f"hierarchy retains {retained / 2**20:.1f} MiB "
        f"({len(hierarchy.levels)} coarse levels, sizes {hierarchy.sizes})",
    ]
    publish(results_dir, f"memory_budget_pipeline_n{n}", "\n".join(lines))

    # ------------------------------------------------------------------
    # Acceptance guards
    # ------------------------------------------------------------------
    assert gate.ok, gate.report()
    # Every grid point and the hard solve converged through a V-cycle:
    # none fell back to an exact factorization, which at this N is what
    # the budget forbids.
    assert [fit.solve_info.method for fit in fits + [hard]] == (
        ["multigrid_pcg"] * (len(BUDGET_GRID) + 1)
    )


def _make_problem(n: int):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, D))
    n_labeled = n // 20
    y = np.sin(x[:n_labeled, 0]) + 0.1 * rng.normal(size=n_labeled)
    return x, y


def _sweep(weights, y, backend, grid=GRID):
    workspace = SolveWorkspace(weights, backend=backend)
    fits = workspace.sweep_soft(y, grid)
    return [fit.scores for fit in fits], workspace.stats()


def test_bench_large_n(bench, results_dir):
    x, y = _make_problem(N)

    # ------------------------------------------------------------------
    # Graph construction: exact kd-tree vs RP-tree approximate
    # ------------------------------------------------------------------
    exact_graph, rec_knn = bench.measure(
        f"large_n_knn_exact_n{N}",
        lambda: knn_graph(x, k=K, bandwidth=0.5, construction="neighbors"),
        repeats=REPEATS,
    )
    approx_graph, rec_approx = bench.measure(
        f"large_n_knn_approx_n{N}",
        lambda: knn_graph(x, k=K, bandwidth=0.5, construction="approx"),
        repeats=REPEATS,
    )
    _, approx_idx = rp_tree_knn(x, K)
    recall = knn_recall(x, K, approx_idx)

    # ------------------------------------------------------------------
    # λ-sweeps over the exact graph
    # ------------------------------------------------------------------
    weights = exact_graph.weights
    multigrid, rec_multigrid = bench.measure(
        f"large_n_sweep_multigrid_n{N}",
        lambda: _sweep(weights, y, "multigrid"),
        repeats=1,
        profile=False,
    )
    # ``exact`` solves only the grid's endpoints, the points the parity
    # check below compares.
    endpoints = (GRID[0], GRID[-1])
    exact, rec_exact = bench.measure(
        f"large_n_sweep_exact_endpoints_n{N}",
        lambda: _sweep(weights, y, "exact", endpoints),
        repeats=1,
        profile=False,
    )
    rows = [
        ["knn exact", f"{rec_knn.min_s * 1e3:.0f}", "-", "-"],
        ["knn approx", f"{rec_approx.min_s * 1e3:.0f}", "-",
         f"recall {recall:.4f}"],
        ["sweep multigrid", f"{rec_multigrid.min_s * 1e3:.0f}",
         f"{len(GRID)}",
         f"{multigrid[1].pcg_iterations} PCG iters, "
         f"{multigrid[1].coarsen_builds} hierarchy build"],
        ["sweep exact", f"{rec_exact.min_s * 1e3:.0f}",
         f"{len(endpoints)}", f"{exact[1].factorizations} factorizations"],
    ]

    for rec in (rec_knn, rec_approx, rec_multigrid, rec_exact):
        rec.write_json(results_dir / f"{rec.name}.json")

    speedup = (rec_exact.min_s / len(endpoints)) / (rec_multigrid.min_s / len(GRID))
    table = ascii_table(["leg", "time (ms)", "grid", "notes"], rows)
    summary = (
        f"large-N pipeline at N={N}, d={D}, k={K} "
        f"(20-point log lambda grid)\n{table}\n"
        f"multigrid speedup over exact per grid point: {speedup:.2f}x "
        f"(acceptance >= {MIN_MULTIGRID_SPEEDUP:.0f}x); "
        f"approx recall {recall:.4f} "
        f"(acceptance >= {MIN_APPROX_RECALL})"
    )
    publish(results_dir, f"large_n_pipeline_n{N}", summary)

    # ------------------------------------------------------------------
    # Acceptance guards
    # ------------------------------------------------------------------
    assert recall >= MIN_APPROX_RECALL
    assert speedup >= MIN_MULTIGRID_SPEEDUP

    # The multigrid sweep must match exact solves at both ends of the grid.
    exact_scores, _ = exact
    multigrid_scores, _ = multigrid
    np.testing.assert_allclose(
        multigrid_scores[0], exact_scores[0], atol=1e-6, rtol=0
    )
    np.testing.assert_allclose(
        multigrid_scores[-1], exact_scores[-1], atol=1e-6, rtol=0
    )

    # ------------------------------------------------------------------
    # Recall/accuracy trade-off: sweep the knob, solve one mid-grid λ on
    # each approximate graph, compare to the exact graph's scores.  This
    # table is the source for docs/SCALING.md.
    # ------------------------------------------------------------------
    mid = GRID[len(GRID) // 2]
    reference = SolveWorkspace(weights, backend="multigrid").solve_soft(
        y, mid
    ).scores
    trade_rows = []
    default_errors = None
    for n_trees in (2, 4, DEFAULT_N_TREES, 2 * DEFAULT_N_TREES):
        start = time.perf_counter()
        _, idx = rp_tree_knn(x, K, n_trees=n_trees)
        build_s = time.perf_counter() - start
        knob_graph = approx_knn_graph(
            x, k=K, bandwidth=0.5, n_trees=n_trees
        )
        scores = SolveWorkspace(
            knob_graph.weights, backend="multigrid"
        ).solve_soft(y, mid).scores
        errors = np.abs(scores - reference)
        rms = float(np.sqrt(np.mean(errors**2)))
        knob_recall = knn_recall(x, K, idx)
        if n_trees == DEFAULT_N_TREES:
            default_errors = (knob_recall, rms)
        trade_rows.append(
            [
                n_trees,
                f"{build_s * 1e3:.0f}",
                f"{knob_recall:.4f}",
                f"{rms:.2e}",
                f"{float(errors.max()):.2e}",
            ]
        )
    trade_table = ascii_table(
        ["n_trees", "build (ms)", "recall@10", "rms err", "max err"],
        trade_rows,
    )
    publish(
        results_dir,
        f"large_n_approx_tradeoff_n{N}",
        f"approximate-kNN recall/accuracy trade-off at N={N}, d={D} "
        f"(soft scores at lambda={mid:.3g} vs the exact graph)\n"
        f"{trade_table}\n"
        f"acceptance at the default knob (n_trees={DEFAULT_N_TREES}): "
        f"recall >= {MIN_APPROX_RECALL}, "
        f"rms err < {MAX_APPROX_SCORE_ERROR}",
    )
    assert default_errors is not None
    assert default_errors[0] >= MIN_APPROX_RECALL
    assert default_errors[1] < MAX_APPROX_SCORE_ERROR, default_errors
