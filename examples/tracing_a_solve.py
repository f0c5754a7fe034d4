"""Tracing a solve: observe solver health instead of guessing.

Runs a hard-criterion and a soft-criterion solve under a recording
tracer, prints the solver convergence evidence now threaded into
``FitResult.solve_info``, and renders the collected trace — spans with
graph degree statistics, condition estimates, and CG iteration counts —
as an aligned report.

Run from the repo root::

    PYTHONPATH=src python examples/tracing_a_solve.py
"""

from repro import obs
from repro.core.hard import solve_hard_criterion
from repro.core.soft import solve_soft_criterion
from repro.datasets.synthetic import make_synthetic_dataset
from repro.graph.similarity import full_kernel_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.obs.export import render_trace_report, write_jsonl
from repro.obs.ledger import render_span_tree


def main() -> None:
    data = make_synthetic_dataset(n_labeled=150, n_unlabeled=60, seed=0)
    bandwidth = paper_bandwidth_rule(150, data.x_labeled.shape[1])

    # 1. Solver health is available even without tracing: every fit now
    #    carries a SolveInfo from its main linear solve.
    graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
    fit = solve_hard_criterion(graph.weights, data.y_labeled, method="cg")
    info = fit.solve_info
    print(
        f"hard/cg: {info.iterations} iterations, final residual "
        f"{info.final_residual:.2e}, converged={info.converged}"
    )

    # 2. Install a recording tracer to capture the full span tree with
    #    health probes (condition estimates, degree stats, block sizes).
    tracer = obs.RecordingTracer()
    with obs.use_tracer(tracer):
        with obs.span("example.workload", n=150, m=60):
            graph = full_kernel_graph(data.x_all, bandwidth=bandwidth)
            solve_hard_criterion(graph.weights, data.y_labeled, method="cg")
            solve_soft_criterion(graph.weights, data.y_labeled, 0.1, method="schur")

    print()
    print(render_span_tree(tracer))
    print()
    print(render_trace_report(tracer))

    # 3. Persist for later inspection with `python -m repro trace-report`.
    path = write_jsonl(tracer, "/tmp/tracing_a_solve.jsonl")
    print(f"\nwrote {path} — render it with: python -m repro trace-report {path}")

    # 4. Metrics accumulated in the global registry along the way.
    print("\nmetrics registry:")
    for name, data_ in obs.get_registry().snapshot().items():
        print(f"  {name}: {data_}")


if __name__ == "__main__":
    main()
