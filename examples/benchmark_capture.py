"""Benchmark capture: structured performance evidence, not just tables.

Walks the performance-observability layer end to end: measures two
solver configurations with a ``BenchRecorder`` (repeated timings, a
tracemalloc-profiled pass, solver health from the span trace), records
per-span memory peaks with an opt-in memory tracer, writes the session
trajectory ``BENCH_<runid>.json``, and runs the regression rule that
backs ``python -m repro bench-compare`` and ``obs trend`` against itself.

Run from the repo root::

    PYTHONPATH=src python examples/benchmark_capture.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.hard import solve_hard_criterion
from repro.core.soft import solve_soft_criterion
from repro.datasets.synthetic import make_synthetic_dataset
from repro.graph.similarity import full_kernel_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.obs.bench import BenchRecorder, load_bench_run, render_bench_report
from repro.obs.trend import render_trend_report, trend_runs


def main() -> None:
    data = make_synthetic_dataset(n_labeled=200, n_unlabeled=80, seed=0)
    bandwidth = paper_bandwidth_rule(200, data.x_labeled.shape[1])
    weights = full_kernel_graph(data.x_all, bandwidth=bandwidth).dense_weights()

    # 1. Measure: one profiled pass (tracemalloc + span trace -> memory
    #    and solver health) followed by clean repeated timings.
    recorder = BenchRecorder(scale="quick")
    _, hard_record = recorder.measure(
        "hard_cg",
        lambda: solve_hard_criterion(
            weights, data.y_labeled, method="cg", check_reachability=False
        ),
        repeats=5,
    )
    _, soft_record = recorder.measure(
        "soft_schur",
        lambda: solve_soft_criterion(
            weights, data.y_labeled, 0.1, method="schur", check_reachability=False
        ),
        repeats=5,
    )
    for record in (hard_record, soft_record):
        print(record.summary())
        print(f"  solver health: {record.solver_health}")

    # 2. Opt-in memory spans: per-span tracemalloc peaks, nested peaks
    #    attributed to the span that caused them.
    tracer = obs.RecordingTracer(track_memory=True)
    try:
        with obs.use_tracer(tracer):
            with obs.span("workload"):
                gram = np.ones((500, 500))
                with obs.span("transient"):
                    tmp = np.ones(1_000_000)
                    del tmp
                del gram
    finally:
        tracer.close()
    for span in tracer.iter_spans():
        peak = span.attributes["memory.peak_bytes"]
        print(f"memory span {span.name!r}: peak {peak / 1e6:.2f} MB")

    # 3. The session trajectory file — the artifact the bench harness
    #    writes at the repo root after every benchmarks/ run.
    out_dir = Path(tempfile.mkdtemp(prefix="bench_capture_"))
    path = recorder.write_run(out_dir)
    print(f"\nwrote bench trajectory {path}")
    run = load_bench_run(path)
    print(render_bench_report(run))

    # 4. The regression rule at sustain 1 (what bench-compare runs),
    #    against itself: identical inputs always compare clean and
    #    deterministically.
    report = trend_runs([run, run], threshold=0.15, sustain=1)
    print()
    print(render_trend_report(report))
    print(f"\nself-comparison ok: {report.ok}")


if __name__ == "__main__":
    main()
