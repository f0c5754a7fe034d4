"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline-lowd --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` runs one untraced timing pass in this process and prints
the end-to-end metrics.  ``--trace 1`` runs three fresh processes — an
untraced timing pass, a traced pass and a memory pass — and prints the
per-layer metrics.  Either way the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The memory pass runs the serving phases for this share of ``--seconds``.
MEMORY_SECONDS_SHARE = 0.2

#: Each child pass of ``--trace 1`` must finish within this many seconds.
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "work_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "rmse_unlabeled": "1",
    "peak_rss_mib": "MiB",
}

LAYER_UNITS = {
    "pipeline.graph.build_s": "s",
    "pipeline.graph.nnz": "count",
    "pipeline.graph.recall": "1",
    "pipeline.workspace.init_s": "s",
    "pipeline.hierarchy.build_s": "s",
    "pipeline.hierarchy.levels": "count",
    "pipeline.hierarchy.coarsest_size": "count",
    "pipeline.hierarchy.retained_mib": "MiB",
    "pipeline.sweep.solve_ms_p50": "ms",
    "pipeline.sweep.solve_ms_max": "ms",
    "pipeline.sweep.pcg_iterations": "count",
    "pipeline.sweep.iter_cost_matvecs": "matvec",
    "pipeline.sweep.max_rel_residual": "1",
    "host.csr_matvec_nnz_per_s": "nnz/s",
    "serving.attach_ms_per_1k": "ms",
    "serving.solve_ms_per_1k": "ms",
    "serving.respond_ms_per_1k": "ms",
    "serving.batch_size_mean": "count",
    "serving.flushes_full": "count",
    "serving.flushes_timer": "count",
    "serving.queue_wait_ms_p50": "ms",
    "serving.exact.solve_ms_p50": "ms",
    "serving.exact.iterations_per_query": "count",
    "serving.generator_lag_ms_p99": "ms",
    "pipeline.graph.peak_mib": "MiB",
    "pipeline.hierarchy.peak_mib": "MiB",
    "pipeline.sweep.peak_mib": "MiB",
    "serving.fit.peak_mib": "MiB",
    "serving.serve.peak_mib": "MiB",
    "trace.overhead_frac": "1",
    "trace.unattributed_frac": "1",
}

#: Stated bound on ``trace.unattributed_frac``: layer spans plus the
#: open-loop generator's idle time cover all but this share of the traced
#: pass's timed region.  The pipelines leave almost nothing unattributed;
#: on serve-nw the load generator's own per-request bookkeeping and the
#: spans' own bookkeeping take most of this allowance.
UNATTRIBUTED_BOUND = 0.05


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pass",
        dest="pass_mode",
        choices=("timing", "traced", "memory"),
        help="run one pass and print its raw result (used by --trace 1)",
    )
    return parser.parse_args(argv)


def _json_number(value: float) -> float:
    """JSON has no infinity: a failed operation's latency prints as 1e300."""
    return value if math.isfinite(value) else math.copysign(1e300, value)


def _child(args, mode: str) -> dict:
    """One pass in a fresh interpreter; returns its raw result."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--pass", mode,
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{mode} pass exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_pass(args, mode: str) -> dict:
    """One pass in this process: the timing pass repeats the workload's
    set-up; the traced and memory passes set up once."""
    from workloads import WORKLOADS, PassConfig, run

    seconds = args.seconds * (MEMORY_SECONDS_SHARE if mode == "memory" else 1.0)
    if mode == "timing" and args.pass_mode is None:
        workload = WORKLOADS[args.workload]
        cfg = PassConfig(mode, workload.setups, workload.sweeps, seconds)
    else:
        cfg = PassConfig(mode, 1, 1, seconds)
    result = run(args.workload, args.seed, cfg)
    return {
        "e2e": result.e2e,
        "layers": result.layers,
        "notes": result.notes,
        "attempted": result.attempted,
        "failed": result.failed,
        "wall_s": result.wall_s,
        "covered_s": result.covered_s,
    }


def _layer_metrics(timing: dict, traced: dict, memory: dict) -> dict:
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    metrics.update(traced["layers"])
    metrics.update(memory["layers"])
    # On work_s, where the per-request spans land.
    metrics["trace.overhead_frac"] = traced["e2e"]["work_s"] / timing["e2e"]["work_s"] - 1.0
    metrics["trace.unattributed_frac"] = 1.0 - traced["covered_s"] / traced["wall_s"]
    return metrics


def _report(args, label: str, metrics: dict, units: dict, raw: dict) -> None:
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} ({label})")
    for name, unit in units.items():
        print(f"  {name:<38} {metrics[name]:>16.6g} {unit}")
    for name, value in raw["notes"].items():
        shown = f"{value:>16.6g}" if isinstance(value, float) else f"{value!s:>16}"
        print(f"  {name:<38} {shown}")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"  {'failed_frac':<38} {failed / attempted:>16.6g} ({failed}/{attempted})")
    if label.startswith("per-layer") and metrics["trace.unattributed_frac"] > UNATTRIBUTED_BOUND:
        print(f"  note: unattributed time exceeds the stated bound {UNATTRIBUTED_BOUND:g}")


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.pass_mode is not None:
        print(json.dumps(_run_pass(args, args.pass_mode)))
        return 0

    if args.trace == 0:
        raw = _run_pass(args, "timing")
        metrics, units, label = raw["e2e"], E2E_UNITS, "end-to-end, untraced timing pass"
    else:
        passes = [_child(args, mode) for mode in ("timing", "traced", "memory")]
        timing, traced, memory = passes
        raw = dict(
            traced,
            attempted=sum(p["attempted"] for p in passes),
            failed=sum(p["failed"] for p in passes),
        )
        metrics, units, label = _layer_metrics(timing, traced, memory), LAYER_UNITS, "per-layer, traced pass"
    _report(args, label, metrics, units, raw)
    print(
        json.dumps(
            {
                "correct": raw["failed"] == 0,
                "attempted": raw["attempted"],
                "failed": raw["failed"],
                "metrics": {
                    name: {"value": _json_number(float(metrics[name])), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
