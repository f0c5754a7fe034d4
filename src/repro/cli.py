"""Command-line interface: regenerate any paper artifact from the shell.

Usage::

    python -m repro figure1 --replicates 50 --seed 0
    python -m repro figure5 --images-per-class 100 --repeats 2
    python -m repro toy
    python -m repro complexity
    python -m repro prop21
    python -m repro prop22
    python -m repro proof-constructs
    python -m repro consistency
    python -m repro metric-study
    python -m repro m-growth --gamma 1.5
    python -m repro tuned-lambda
    python -m repro serve-eval --n-ref 2000 --queries 256

Each command prints the regenerated series as an aligned table and,
with ``--csv PATH``, also writes it as CSV.

Every experiment command also accepts ``--trace PATH.jsonl``, which
runs it under a recording tracer (see :mod:`repro.obs`) and writes the
span trace — per-replicate spans, graph statistics, solver health — as
JSONL, and ``--metrics PATH.json``, which dumps the metrics-registry
snapshot at exit (even when the command fails).  Render a written trace
with::

    python -m repro trace-report PATH.jsonl

Long runs can stream live progress — heartbeats plus one event per
completed replicate — to stderr with ``--progress`` and/or to a durable
JSONL file with ``--progress-jsonl PATH.jsonl`` (fsynced per event, so
an interrupted run leaves a readable, ingestable prefix).

Benchmark trajectories (``BENCH_<runid>.json`` files written by the
benchmark harness; see docs/BENCHMARKING.md) have two verbs::

    python -m repro bench-report BENCH_RUN.json
    python -m repro bench-compare OLD.json [MID.json ...] NEW.json

``bench-compare`` takes two or more runs (shell globs welcome), orders
them by creation time, judges each benchmark's newest measurement
against its best earlier one from the same environment, and exits
non-zero when it regressed beyond the threshold.  It applies the rule of
``obs trend`` (:func:`repro.obs.trend.trend_runs`) at sustain 1.

The run ledger (``repro obs``; see docs/OBSERVABILITY.md) turns loose
artifacts into a persistent, queryable history::

    python -m repro obs ingest benchmarks/results/*.json trace.jsonl
    python -m repro obs runs
    python -m repro obs show <run-id>
    python -m repro obs history <bench-name>
    python -m repro obs trend            # exit 1 on a regression sustained over 2 runs
    python -m repro obs span-tree <run-id>
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments.report import ascii_table, format_sweep_result, write_csv
from repro.serving.evaluate import SERVE_EVAL_GRAPHS
from repro.serving.model import SERVING_METHODS

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (clean CLI error instead of a traceback)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed_int(text: str) -> int:
    """argparse type: a non-negative integer (SeedSequence rejects < 0)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _jobs_int(text: str) -> int:
    """argparse type: a worker count >= 1, or -1 for one worker per CPU."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    if value < 1 and value != -1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 or -1 (one worker per CPU), got {value}"
        )
    return value


def _print_sweep(result, csv_path) -> None:
    print(format_sweep_result(result))
    if csv_path:
        path = write_csv(csv_path, result.headers(), result.to_rows())
        print(f"\nwrote {path}")


def _print_rows(title: str, headers, rows, csv_path) -> None:
    print(title)
    print(ascii_table(headers, rows))
    if csv_path:
        path = write_csv(csv_path, headers, rows)
        print(f"\nwrote {path}")


def _cmd_figure(args) -> int:
    from repro.experiments.figures import run_figure1, run_figure2, run_figure3, run_figure4

    drivers = {
        "figure1": run_figure1,
        "figure2": run_figure2,
        "figure3": run_figure3,
        "figure4": run_figure4,
    }
    result = drivers[args.command](
        n_replicates=args.replicates, seed=args.seed, n_jobs=args.jobs
    )
    _print_sweep(result, args.csv)
    return 0


def _cmd_figure5(args) -> int:
    from repro.experiments.figures import run_figure5

    result = run_figure5(
        images_per_class=args.images_per_class,
        repeats=args.repeats,
        seed=args.seed,
    )
    _print_sweep(result, args.csv)
    return 0


def _cmd_toy(args) -> int:
    from repro.experiments.figures import run_toy_example

    result = run_toy_example(seed=args.seed)
    _print_rows(
        "Section III toy example",
        ["check", "max deviation"],
        [
            ["scores vs labeled mean", result.max_score_deviation],
            ["(D22-W22)^-1 vs paper formula", result.max_inverse_deviation],
        ],
        args.csv,
    )
    return 0 if result.ok else 1


def _cmd_complexity(args) -> int:
    from repro.experiments.figures import run_complexity_experiment

    result = run_complexity_experiment(seed=args.seed or 0)
    _print_rows(
        "Section II complexity claim", result.headers(), result.to_rows(), args.csv
    )
    print(
        f"fitted exponents: hard={result.hard_exponent:.2f}, "
        f"soft_full={result.soft_exponent:.2f}"
    )
    return 0


def _cmd_prop21(args) -> int:
    from repro.experiments.figures import run_prop21_experiment

    result = run_prop21_experiment(seed=args.seed or 0)
    _print_rows(
        "Proposition II.1 (lambda -> 0)",
        result.headers(),
        result.to_rows(),
        args.csv,
    )
    return 0 if result.converges else 1


def _cmd_prop22(args) -> int:
    from repro.experiments.figures import run_prop22_experiment

    result = run_prop22_experiment(seed=args.seed or 0)
    _print_rows(
        "Proposition II.2 (lambda -> inf)",
        result.headers(),
        result.to_rows(),
        args.csv,
    )
    print(f"hard RMSE {result.hard_rmse:.4f}; gap {result.inconsistency_gap:.4f}")
    return 0 if result.collapses_to_mean else 1


def _cmd_proof_constructs(args) -> int:
    from repro.validation import run_proof_construct_sweep

    snaps = run_proof_construct_sweep(seed=args.seed)
    rows = [
        [s.n, s.tiny_elements_max, s.spectral_radius, s.g_max, s.hard_nw_gap]
        for s in snaps
    ]
    _print_rows(
        "Section IV proof constructs",
        ["n", "||D22^-1 W22||max", "spec radius", "max |g|", "max |f-NW|"],
        rows,
        args.csv,
    )
    return 0


def _cmd_consistency(args) -> int:
    from repro.validation import run_consistency_curve

    curve = run_consistency_curve(
        n_replicates=args.replicates, seed=args.seed, n_jobs=args.jobs
    )
    _print_rows(
        f"Theorem II.1 empirical consistency (eps={curve.epsilon})",
        curve.headers(),
        curve.to_rows(),
        args.csv,
    )
    return 0


def _cmd_metric_study(args) -> int:
    from repro.experiments.extensions import run_metric_study

    result = run_metric_study(
        n_replicates=args.replicates, seed=args.seed, n_jobs=args.jobs
    )
    _print_sweep(result, args.csv)
    return 0


def _cmd_m_growth(args) -> int:
    from repro.experiments.extensions import run_m_growth_study

    result = run_m_growth_study(
        gamma=args.gamma, n_replicates=args.replicates, seed=args.seed,
        n_jobs=args.jobs,
    )
    _print_rows(
        f"m-growth study (m ~ n^{args.gamma:g})",
        result.headers(),
        result.to_rows(),
        args.csv,
    )
    print(f"hard always ahead: {result.hard_always_ahead()}")
    return 0


def _cmd_lambda_curve(args) -> int:
    from repro.experiments.lambda_curve import run_lambda_curve

    curve = run_lambda_curve(
        n_replicates=args.replicates, seed=args.seed, n_jobs=args.jobs
    )
    rows = [[f"{lam:g}", value] for lam, value in zip(curve.lambdas, curve.rmse)]
    _print_rows("lambda-degradation curve", curve.headers(), rows, args.csv)
    print(
        f"anchors: hard = {curve.hard_rmse:.4f}, "
        f"constant mean = {curve.mean_rmse:.4f}"
    )
    return 0 if curve.interpolates_anchors else 1


def _cmd_ablation(args) -> int:
    from repro.experiments.ablations import (
        run_bandwidth_ablation,
        run_graph_ablation,
        run_kernel_ablation,
        run_solver_ablation,
    )

    if args.axis == "solvers":
        result = run_solver_ablation(seed=args.seed or 0)
        _print_rows("solver ablation", result.headers(), result.to_rows(), args.csv)
        return 0
    drivers = {
        "kernels": run_kernel_ablation,
        "bandwidth": run_bandwidth_ablation,
        "graph": run_graph_ablation,
    }
    result = drivers[args.axis](
        n_replicates=args.replicates, seed=args.seed, n_jobs=args.jobs
    )
    _print_sweep(result, args.csv)
    return 0


def _cmd_diagnose(args) -> int:
    from repro.datasets.io import load_transductive_npz
    from repro.graph.diagnostics import diagnose_graph
    from repro.graph.similarity import build_similarity_graph
    from repro.kernels.bandwidth import median_heuristic

    problem = load_transductive_npz(args.path)
    bandwidth = args.bandwidth
    if bandwidth is None:
        bandwidth = median_heuristic(problem.x_all, subsample=500, seed=0)
        print(f"bandwidth: median heuristic -> {bandwidth:.4g}")
    params = {}
    if args.graph == "knn":
        params["k"] = args.k
        params["mode"] = args.mode
    elif args.graph == "epsilon":
        if args.radius is None:
            print("error: --radius is required with --graph epsilon", file=sys.stderr)
            return 2
        params["radius"] = args.radius
    if args.graph in ("knn", "epsilon"):
        params["construction_method"] = args.construction
    graph = build_similarity_graph(
        problem.x_all, construction=args.graph, bandwidth=bandwidth, **params
    )
    if graph.is_sparse:
        n = graph.n_vertices
        dense_bytes = n * n * 8
        sparse_bytes = graph.weights.nnz * 8
        print(
            f"sparse {graph.construction} graph "
            f"({graph.params.get('construction', 'auto')} route): "
            f"nnz={graph.weights.nnz} "
            f"(~{sparse_bytes / 1e6:.1f} MB vs {dense_bytes / 1e6:.1f} MB dense)"
        )
    report = diagnose_graph(graph.weights, problem.n_labeled)
    print(report.summary())
    return 0 if report.healthy else 1


def _cmd_trace_report(args) -> int:
    import json

    from repro.obs.export import load_jsonl, render_trace_report
    from repro.obs.ledger import render_span_tree

    try:
        records = load_jsonl(args.path)
    except FileNotFoundError:
        print(f"error: no such trace file: {args.path}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read trace file {args.path}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.path} is not a JSONL trace: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"empty trace: {args.path} contains no spans")
        return 0
    print(render_trace_report(records))
    if args.tree:
        print()
        print(render_span_tree(records, max_spans=args.max_spans))
    return 0


def _load_bench_file(path):
    """Load a bench run for the CLI; returns (run, error_message)."""
    import json

    from repro.obs.bench import load_bench_run

    try:
        return load_bench_run(path), None
    except FileNotFoundError:
        return None, f"error: no such bench file: {path}"
    except OSError as exc:
        return None, f"error: cannot read bench file {path}: {exc}"
    except (json.JSONDecodeError, ValueError) as exc:
        return None, f"error: {exc}"


def _cmd_bench_report(args) -> int:
    from repro.obs.bench import render_bench_report

    run, error = _load_bench_file(args.path)
    if error:
        print(error, file=sys.stderr)
        return 2
    print(render_bench_report(run))
    return 0


def _expand_globs(patterns) -> list[str]:
    """Expand any glob patterns among ``patterns`` (literal paths pass through).

    Covers shells that hand the pattern over unexpanded (quoted globs,
    CI YAML); a pattern matching nothing is kept literally so the error
    message names it.
    """
    import glob

    paths: list[str] = []
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            paths.extend(sorted(glob.glob(pattern)) or [pattern])
        else:
            paths.append(pattern)
    return paths


def _cmd_bench_compare(args) -> int:
    from repro.obs.trend import render_trend_report, trend_runs

    paths = _expand_globs(args.runs)
    if len(paths) < 2:
        print(
            f"error: bench-compare needs at least two run files, got {len(paths)}",
            file=sys.stderr,
        )
        return 2
    runs = []
    for path in paths:
        run, error = _load_bench_file(path)
        if error:
            print(error, file=sys.stderr)
            return 2
        runs.append(run)
    report = trend_runs(
        runs, threshold=args.threshold, min_repeats=args.min_repeats, sustain=1
    )
    print(
        f"comparing {len(paths)} runs: each benchmark's newest measurement "
        f"against its best earlier one"
    )
    print(render_trend_report(report))
    return 0 if report.ok else 1


def _open_ledger(args):
    import sqlite3

    from repro.exceptions import ConfigurationError
    from repro.obs.ledger import RunLedger

    try:
        return RunLedger(args.ledger)
    except (sqlite3.Error, ValueError) as exc:
        # A corrupt or non-SQLite --ledger file is a configuration
        # problem, not a crash: surface it as the usual one-line
        # ``error:`` + exit 2, for every obs verb at once.
        raise ConfigurationError(
            f"cannot open ledger {args.ledger}: {exc}"
        ) from exc


def _load_metrics_source(args) -> tuple[dict, str]:
    """Resolve ``{name: snapshot}`` metrics for obs slo/export-metrics.

    Exactly one source must be given: ``--metrics-dump PATH.json`` (a
    ``repro.metrics/v1`` document) or ``--ledger PATH.sqlite`` with an
    optional ``--run ID`` (default: the most recently created metrics
    run).  Returns ``(metrics, source_label)``.
    """
    import json

    from repro.exceptions import ConfigurationError

    dump = getattr(args, "metrics_dump", None)
    ledger_path = getattr(args, "ledger", None)
    if (dump is None) == (ledger_path is None):
        raise ConfigurationError(
            "provide exactly one metrics source: a metrics dump "
            "(--metrics-dump PATH.json) or a ledger run "
            "(--ledger PATH.sqlite [--run ID])"
        )
    if dump is not None:
        try:
            with open(dump) as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read metrics dump {dump}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{dump} is not valid JSON: {exc}") from exc
        metrics = payload.get("metrics") if isinstance(payload, dict) else None
        if not isinstance(metrics, dict):
            raise ConfigurationError(
                f"{dump} is not a repro.metrics/v1 dump (no 'metrics' object)"
            )
        return metrics, str(dump)
    with _open_ledger(args) as ledger:
        run_id = getattr(args, "run", None)
        if run_id is None:
            runs = ledger.runs(kind="metrics")
            if not runs:
                raise ConfigurationError(
                    f"ledger {ledger_path} has no ingested metrics runs"
                )
            run_id = runs[-1]["run_id"]
        try:
            metrics = ledger.metric_values(run_id)
        except KeyError as exc:
            raise ConfigurationError(str(exc.args[0])) from exc
    return metrics, f"{ledger_path}:{run_id}"


def _cmd_obs_ingest(args) -> int:
    import json

    ledger = _open_ledger(args)
    paths = _expand_globs(args.paths)
    failures = 0
    with ledger:
        for path in paths:
            try:
                result = ledger.ingest(path)
            except FileNotFoundError:
                print(f"error: no such file: {path}", file=sys.stderr)
                failures += 1
                continue
            except (OSError, json.JSONDecodeError, ValueError) as exc:
                print(f"error: cannot ingest {path}: {exc}", file=sys.stderr)
                failures += 1
                continue
            verb = "replaced" if result.replaced else "ingested"
            print(
                f"{verb} {result.kind} run {result.run_id} "
                f"({result.n_records} record(s), {result.status}) from {path}"
            )
    print(f"ledger: {args.ledger} ({len(paths) - failures}/{len(paths)} artifact(s) ok)")
    return 0 if failures == 0 else 2


def _cmd_obs_runs(args) -> int:
    with _open_ledger(args) as ledger:
        rows = ledger.runs(kind=args.kind)
    if not rows:
        print("ledger is empty (use 'repro obs ingest' first)")
        return 0
    import time as _time

    table = [
        [
            row["run_id"],
            row["kind"],
            row["status"],
            "-"
            if not row["created_unix"]
            else _time.strftime("%Y-%m-%d %H:%M", _time.gmtime(row["created_unix"])),
            str(row["git_sha"] or "-")[:12],
            row["env_digest"] or "-",
            row["n_records"],
        ]
        for row in rows
    ]
    print(ascii_table(
        ["run", "kind", "status", "created (UTC)", "git", "env", "records"], table
    ))
    return 0


def _cmd_obs_show(args) -> int:
    with _open_ledger(args) as ledger:
        try:
            detail = ledger.show(args.run_id)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    print(f"run {detail['run_id']}: {len(detail['artifacts'])} artifact(s)")
    for entry in detail["artifacts"]:
        env = entry.get("environment") or {}
        print(
            f"\n[{entry['kind']}] status={entry['status']} "
            f"records={entry['n_records']} git={str(env.get('git_sha'))[:12]} "
            f"source={entry.get('source_path')}"
        )
        if entry["kind"] == "bench" and entry.get("benchmarks"):
            rows = [
                [
                    b["name"],
                    b["repeats"],
                    "-" if b["min_s"] is None else f"{b['min_s'] * 1e3:.4g}ms",
                    "-" if b["peak_bytes"] is None else f"{b['peak_bytes'] / 1e6:.2f}",
                    b["solves"] if b["solves"] is not None else "-",
                ]
                for b in entry["benchmarks"]
            ]
            print(ascii_table(["benchmark", "repeats", "min", "peak MB", "solves"], rows))
        elif entry["kind"] == "metrics" and entry.get("metrics"):
            print(f"{len(entry['metrics'])} metric(s): " + ", ".join(sorted(entry["metrics"])[:10]))
        elif entry["kind"] == "trace":
            print(f"{entry.get('span_count', 0)} span(s) (render: repro obs span-tree {detail['run_id']})")
        elif entry["kind"] == "progress" and entry.get("tasks"):
            rows = [
                [
                    t["task"],
                    f"{t['completed'] or 0}/{t['total'] or '?'}",
                    "-" if t["elapsed_s"] is None else f"{t['elapsed_s']:.1f}s",
                    t["heartbeats"] or 0,
                ]
                for t in entry["tasks"]
            ]
            print(ascii_table(["task", "completed", "elapsed", "heartbeats"], rows))
    return 0


def _cmd_obs_history(args) -> int:
    from repro.obs.trend import render_history

    with _open_ledger(args) as ledger:
        points = ledger.history(args.bench)
        known = ledger.bench_names()
    if not points:
        hint = f" (known: {', '.join(known)})" if known else ""
        print(f"error: no history for benchmark {args.bench!r}{hint}", file=sys.stderr)
        return 2
    print(render_history(args.bench, points))
    return 0


def _cmd_obs_trend(args) -> int:
    from repro.obs.trend import render_trend_report, trend_runs

    with _open_ledger(args) as ledger:
        runs = ledger.bench_runs()
    if not runs:
        print("no bench runs in the ledger; nothing to gate")
        return 0
    report = trend_runs(
        runs,
        threshold=args.threshold,
        min_repeats=args.min_repeats,
        sustain=args.sustain,
    )
    print(f"trend over {len(runs)} bench run(s)")
    print(render_trend_report(report))
    return 0 if report.ok else 1


def _cmd_obs_span_tree(args) -> int:
    from repro.obs.ledger import render_span_tree

    with _open_ledger(args) as ledger:
        try:
            records = ledger.span_records(args.run_id)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    print(render_span_tree(records, max_spans=args.max_spans))
    return 0


def _cmd_obs_slo(args) -> int:
    from repro.obs.slo import evaluate_slo, load_slo_spec

    spec = load_slo_spec(args.spec)
    metrics, source = _load_metrics_source(args)
    report = evaluate_slo(spec, metrics)
    print(f"SLO spec {args.spec} vs {source}")
    print(report.render())
    return 1 if report.breached else 0


def _cmd_obs_export_metrics(args) -> int:
    from repro.obs.export import atomic_write_text
    from repro.obs.openmetrics import parse_openmetrics, render_openmetrics

    metrics, source = _load_metrics_source(args)
    try:
        text = render_openmetrics(metrics)
    except ValueError as exc:
        print(f"error: cannot expose {source}: {exc}", file=sys.stderr)
        return 2
    # Self-lint before anything is written: the exporter must never
    # produce text our own parser (or a Prometheus scraper) rejects.
    parse_openmetrics(text)
    if args.output is not None:
        path = atomic_write_text(args.output, text)
        print(f"wrote OpenMetrics exposition: {path} ({len(metrics)} metric(s))")
    else:
        print(text, end="")
    return 0


def _cmd_obs_lint_metrics(args) -> int:
    from repro.obs.openmetrics import OpenMetricsError, parse_openmetrics

    try:
        text = open(args.path).read()
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    try:
        families = parse_openmetrics(text)
    except OpenMetricsError as exc:
        print(f"{args.path}: INVALID — {exc}", file=sys.stderr)
        return 1
    n_samples = sum(len(family.samples) for family in families.values())
    print(f"{args.path}: OK ({len(families)} family(ies), {n_samples} sample(s))")
    return 0


def _cmd_obs_top(args) -> int:
    from repro.obs.dashboard import run_top

    try:
        return run_top(
            args.progress,
            args.metrics_dump,
            interval=args.interval,
            max_refreshes=args.refreshes,
        )
    except KeyboardInterrupt:
        # Ctrl-C is how a live dashboard normally ends.
        print()
        return 0


def _cmd_tuned_lambda(args) -> int:
    from repro.experiments.extensions import run_tuned_lambda_study

    result = run_tuned_lambda_study(
        n_replicates=args.replicates, seed=args.seed, n_jobs=args.jobs
    )
    _print_rows(
        "untuned hard vs CV-tuned soft",
        ["method", "mean RMSE"],
        [["hard (lambda=0)", result.hard_rmse], ["soft (CV lambda)", result.tuned_rmse]],
        args.csv,
    )
    print(
        f"CV selected lambda=0 in {100 * result.fraction_choosing_zero():.0f}% "
        f"of replicates"
    )
    return 0


def _cmd_serve_eval(args) -> int:
    from repro.serving.evaluate import run_serve_eval

    result = run_serve_eval(
        n_reference=args.n_ref,
        n_labeled=args.n_labeled,
        n_queries=args.queries,
        batch_size=args.batch_size,
        methods=args.method,
        graph=args.graph,
        k=args.k,
        lam=args.lam,
        parity_sample=args.parity_sample,
        seed=args.seed,
        telemetry=not args.no_telemetry,
    )
    _print_rows(
        f"serving evaluation (N={result.n_reference}, "
        f"{result.n_queries} queries, batch={result.batch_size}, "
        f"graph={result.graph})",
        result.headers(),
        result.to_rows(),
        args.csv,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate artifacts from 'On Consistency of "
        "Graph-based Semi-supervised Learning' (ICDCS 2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, replicates_default=25):
        p.add_argument("--seed", type=_seed_int, default=None, help="master RNG seed")
        p.add_argument("--csv", type=str, default=None, help="also write CSV here")
        p.add_argument(
            "--replicates", type=_positive_int, default=replicates_default,
            help="replicates per grid point",
        )
        p.add_argument(
            "--jobs", type=_jobs_int, default=1, metavar="N",
            help="worker processes for replicate fan-out (1 = serial, "
            "-1 = one per CPU); results are identical at every setting",
        )
        p.add_argument(
            "--trace", type=str, default=None, metavar="PATH.jsonl",
            help="record a span trace (solver health, graph stats) as JSONL",
        )
        p.add_argument(
            "--metrics", type=str, default=None, metavar="PATH.json",
            help="dump the metrics-registry snapshot as JSON at exit "
            "(written even when the command fails)",
        )
        p.add_argument(
            "--progress", action="store_true",
            help="stream live progress (heartbeats + one event per "
            "completed replicate) to stderr",
        )
        p.add_argument(
            "--progress-jsonl", type=str, default=None, metavar="PATH.jsonl",
            help="also append progress events to a durable JSONL file "
            "(fsynced per event; an interrupted run leaves a readable, "
            "ingestable prefix)",
        )

    def memory_budget_flag(p):
        p.add_argument(
            "--memory-budget-mb",
            type=_positive_int,
            default=None,
            metavar="MB",
            help="hard cap on the command's traced allocation peak "
            "(tracemalloc, bytes above the pre-command baseline); "
            "exceeding it aborts with exit status 1 and a usage report",
        )

    for name in ("figure1", "figure2", "figure3", "figure4"):
        p = sub.add_parser(name, help=f"regenerate {name}'s series")
        common(p)
        p.set_defaults(handler=_cmd_figure)

    p = sub.add_parser("figure5", help="regenerate figure 5 (COIL-like AUC)")
    common(p)
    p.add_argument("--images-per-class", type=_positive_int, default=150)
    p.add_argument(
        "--repeats", type=_positive_int, default=2, help="fold-shuffle repeats"
    )
    p.set_defaults(handler=_cmd_figure5)

    p = sub.add_parser("toy", help="verify the Section III toy example")
    common(p)
    p.set_defaults(handler=_cmd_toy)

    p = sub.add_parser("complexity", help="Section II complexity claim")
    common(p)
    p.set_defaults(handler=_cmd_complexity)

    p = sub.add_parser("prop21", help="Proposition II.1 (lambda -> 0)")
    common(p)
    memory_budget_flag(p)
    p.set_defaults(handler=_cmd_prop21)

    p = sub.add_parser("prop22", help="Proposition II.2 (lambda -> inf)")
    common(p)
    memory_budget_flag(p)
    p.set_defaults(handler=_cmd_prop22)

    p = sub.add_parser("proof-constructs", help="Section IV proof constructs")
    common(p)
    p.set_defaults(handler=_cmd_proof_constructs)

    p = sub.add_parser("consistency", help="Theorem II.1 empirical consistency")
    common(p, replicates_default=40)
    p.set_defaults(handler=_cmd_consistency)

    p = sub.add_parser("metric-study", help="future work: AUC/MCC comparison")
    common(p, replicates_default=30)
    p.set_defaults(handler=_cmd_metric_study)

    p = sub.add_parser("m-growth", help="future work: m growing faster than n")
    common(p, replicates_default=20)
    p.add_argument("--gamma", type=float, default=1.0, help="m ~ n^gamma exponent")
    p.set_defaults(handler=_cmd_m_growth)

    p = sub.add_parser("tuned-lambda", help="untuned hard vs CV-tuned soft")
    common(p, replicates_default=10)
    memory_budget_flag(p)
    p.set_defaults(handler=_cmd_tuned_lambda)

    p = sub.add_parser("lambda-curve", help="RMSE along a dense lambda grid")
    common(p, replicates_default=30)
    memory_budget_flag(p)
    p.set_defaults(handler=_cmd_lambda_curve)

    p = sub.add_parser("ablation", help="run one design-choice ablation")
    common(p, replicates_default=20)
    p.add_argument(
        "axis", choices=("kernels", "bandwidth", "graph", "solvers"),
        help="which design axis to ablate",
    )
    p.set_defaults(handler=_cmd_ablation)

    p = sub.add_parser(
        "serve-eval",
        help="inductive serving: throughput + exact-parity per method",
    )
    # serve-eval has no replicate grid, so it takes the observability
    # flags directly instead of via common().
    p.add_argument("--seed", type=_seed_int, default=None, help="master RNG seed")
    p.add_argument("--csv", type=str, default=None, help="also write CSV here")
    p.add_argument(
        "--n-ref", type=_positive_int, default=2000, metavar="N",
        help="reference graph size, labeled + unlabeled (default 2000)",
    )
    p.add_argument(
        "--n-labeled", type=_positive_int, default=200, metavar="M",
        help="labeled vertices among the reference points (default 200)",
    )
    p.add_argument(
        "--queries", type=_positive_int, default=256, metavar="Q",
        help="fresh query points in the workload (default 256)",
    )
    p.add_argument(
        "--batch-size", type=_positive_int, default=64,
        help="ModelServer auto-flush threshold (default 64)",
    )
    p.add_argument(
        "--method", choices=SERVING_METHODS + ("all",), default="all",
        help="serving method to evaluate (default: all)",
    )
    p.add_argument(
        "--graph", choices=SERVE_EVAL_GRAPHS, default="knn",
        help="reference graph family (default knn — the serving scale story)",
    )
    p.add_argument("--k", type=_positive_int, default=10, help="neighbours for knn")
    p.add_argument(
        "--lam", type=float, default=0.0,
        help="criterion: 0 = hard (default), > 0 = soft",
    )
    p.add_argument(
        "--parity-sample", type=int, default=16, metavar="P",
        help="queries re-answered by exact insertion for the deviation "
        "column (default 16; 0 disables)",
    )
    p.add_argument(
        "--trace", type=str, default=None, metavar="PATH.jsonl",
        help="record a span trace as JSONL",
    )
    p.add_argument(
        "--metrics", type=str, default=None, metavar="PATH.json",
        help="dump the metrics-registry snapshot as JSON at exit",
    )
    p.add_argument(
        "--progress", action="store_true",
        help="stream live progress to stderr",
    )
    p.add_argument(
        "--progress-jsonl", type=str, default=None, metavar="PATH.jsonl",
        help="also append progress events to a durable JSONL file",
    )
    p.add_argument(
        "--no-telemetry", action="store_true",
        help="disable per-request serving telemetry (latency histograms, "
        "phase timings, drift watchdog) — the low-overhead mode the "
        "serving bench gates against",
    )
    p.set_defaults(handler=_cmd_serve_eval)

    p = sub.add_parser(
        "trace-report", help="render a JSONL span trace as aligned tables"
    )
    p.add_argument("path", help="trace file written by --trace PATH.jsonl")
    p.add_argument(
        "--tree", action="store_true",
        help="also print the span tree (one indented row per span, with "
        "peak/net memory columns)",
    )
    p.add_argument(
        "--max-spans", type=int, default=200,
        help="span-tree line cap (with --tree)",
    )
    p.set_defaults(handler=_cmd_trace_report)

    p = sub.add_parser(
        "bench-report", help="render a BENCH_*.json benchmark trajectory"
    )
    p.add_argument("path", help="bench run (BENCH_*.json) or single-record JSON")
    p.set_defaults(handler=_cmd_bench_report)

    p = sub.add_parser(
        "bench-compare",
        help="compare two or more bench trajectories (newest vs best "
        "earlier per benchmark, same environment only); exit 1 on timing "
        "regression",
    )
    p.add_argument(
        "runs", nargs="+", metavar="RUN.json",
        help="two or more bench runs (BENCH_*.json; globs welcome) — "
        "ordered by creation time, each benchmark's newest measurement is "
        "judged against its best earlier one from the same environment",
    )
    p.add_argument(
        "--threshold", type=float, default=0.15,
        help="relative min-timing tolerance before a delta counts as a "
        "regression (default 0.15 = 15%%)",
    )
    p.add_argument(
        "--min-repeats", type=int, default=3,
        help="measurements with fewer timing repeats are reported but "
        "never gate (default 3)",
    )
    p.set_defaults(handler=_cmd_bench_compare)

    obs_parser = sub.add_parser(
        "obs", help="run ledger: persistent, queryable history of runs"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    def ledger_flag(p):
        p.add_argument(
            "--ledger", type=str, default="repro_ledger.sqlite",
            metavar="PATH.sqlite", help="ledger database (default: %(default)s)",
        )

    p = obs_sub.add_parser(
        "ingest", help="ingest bench/trace/metrics/progress artifacts"
    )
    ledger_flag(p)
    p.add_argument(
        "paths", nargs="+", metavar="ARTIFACT",
        help="BENCH_*.json, trace/progress .jsonl, or metrics .json files "
        "(globs welcome); re-ingesting a run replaces it",
    )
    p.set_defaults(handler=_cmd_obs_ingest)

    p = obs_sub.add_parser("runs", help="list every run in the ledger")
    ledger_flag(p)
    p.add_argument(
        "--kind", choices=("bench", "trace", "metrics", "progress"),
        default=None, help="only runs of this artifact kind",
    )
    p.set_defaults(handler=_cmd_obs_runs)

    p = obs_sub.add_parser("show", help="all artifacts recorded for one run")
    ledger_flag(p)
    p.add_argument("run_id", help="run id (see 'repro obs runs')")
    p.set_defaults(handler=_cmd_obs_show)

    p = obs_sub.add_parser(
        "history", help="one benchmark's timing trajectory across runs"
    )
    ledger_flag(p)
    p.add_argument("bench", help="benchmark name (e.g. micro_solve_hard_n100)")
    p.set_defaults(handler=_cmd_obs_history)

    p = obs_sub.add_parser(
        "trend",
        help="multi-run regression gate over each benchmark's newest "
        "environment; exit 1 on sustained regression",
    )
    ledger_flag(p)
    p.add_argument(
        "--threshold", type=float, default=0.15,
        help="relative min-timing tolerance (default 0.15 = 15%%)",
    )
    p.add_argument(
        "--min-repeats", type=int, default=3,
        help="benchmarks with fewer repeats never gate (default 3)",
    )
    p.add_argument(
        "--sustain", type=int, default=2,
        help="consecutive regressed runs required before gating "
        "(default 2 — one noisy run never trips the gate)",
    )
    p.set_defaults(handler=_cmd_obs_trend)

    p = obs_sub.add_parser(
        "span-tree", help="span tree with memory attribution for one run"
    )
    ledger_flag(p)
    p.add_argument("run_id", help="run id of an ingested trace")
    p.add_argument(
        "--max-spans", type=int, default=200, help="line cap (default 200)"
    )
    p.set_defaults(handler=_cmd_obs_span_tree)

    def metrics_source_flags(p):
        # slo / export-metrics accept exactly one metrics source; --ledger
        # defaults to None here (unlike ledger_flag) so "was it given" is
        # detectable.
        p.add_argument(
            "--metrics-dump", type=str, default=None, metavar="PATH.json",
            help="metrics dump written by --metrics PATH.json",
        )
        p.add_argument(
            "--ledger", type=str, default=None, metavar="PATH.sqlite",
            help="read metric values from an ingested ledger run instead",
        )
        p.add_argument(
            "--run", type=str, default=None, metavar="ID",
            help="ledger run id (default: newest ingested metrics run)",
        )

    p = obs_sub.add_parser(
        "slo",
        help="evaluate a latency/error/throughput/drift SLO spec; "
        "exit 1 on breach",
    )
    p.add_argument("spec", help="SLO spec file (TOML or JSON)")
    metrics_source_flags(p)
    p.set_defaults(handler=_cmd_obs_slo)

    p = obs_sub.add_parser(
        "export-metrics",
        help="render a metrics dump or ledger run as OpenMetrics text",
    )
    p.add_argument(
        "metrics_dump", nargs="?", default=None, metavar="PATH.json",
        help="metrics dump to export (or use --ledger/--run)",
    )
    p.add_argument(
        "--ledger", type=str, default=None, metavar="PATH.sqlite",
        help="read metric values from an ingested ledger run instead",
    )
    p.add_argument(
        "--run", type=str, default=None, metavar="ID",
        help="ledger run id (default: newest ingested metrics run)",
    )
    p.add_argument(
        "-o", "--output", type=str, default=None, metavar="PATH.prom",
        help="write the exposition here instead of stdout",
    )
    p.set_defaults(handler=_cmd_obs_export_metrics)

    p = obs_sub.add_parser(
        "lint-metrics",
        help="validate an OpenMetrics exposition file; exit 1 if invalid",
    )
    p.add_argument("path", metavar="PATH.prom", help="exposition file to check")
    p.set_defaults(handler=_cmd_obs_lint_metrics)

    p = obs_sub.add_parser(
        "top", help="live dashboard over a run's progress/metrics files"
    )
    p.add_argument(
        "progress", metavar="PROGRESS.jsonl",
        help="progress stream written by --progress-jsonl (may not exist yet)",
    )
    p.add_argument(
        "--metrics-dump", type=str, default=None, metavar="PATH.json",
        help="also tail a metrics dump for the serving panel",
    )
    p.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between refreshes (default 1.0)",
    )
    p.add_argument(
        "--refreshes", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until every task ends)",
    )
    p.set_defaults(handler=_cmd_obs_top)

    p = sub.add_parser(
        "diagnose", help="graph health report for a user NPZ problem"
    )
    common(p)
    p.add_argument("path", help="NPZ file with x_labeled/y_labeled/x_unlabeled")
    p.add_argument(
        "--bandwidth", type=float, default=None,
        help="kernel bandwidth (default: median heuristic)",
    )
    p.add_argument(
        "--graph", choices=("full", "knn", "epsilon"), default="full",
        help="graph family to diagnose (default: the paper's full graph)",
    )
    p.add_argument("--k", type=int, default=10, help="neighbours for --graph knn")
    p.add_argument(
        "--mode", choices=("union", "intersection"), default="union",
        help="knn symmetrization (see docs/SCALING.md)",
    )
    p.add_argument(
        "--radius", type=float, default=None, help="radius for --graph epsilon"
    )
    p.add_argument(
        "--construction",
        choices=("auto", "dense", "neighbors", "approx"), default="auto",
        help="sparsifier route: dense O(N^2), exact kd-tree neighbor "
        "queries, or approximate random-projection-tree queries "
        "('approx', knn only; see docs/SCALING.md)",
    )
    p.set_defaults(handler=_cmd_diagnose)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code.

    Invalid configuration surfaces as a one-line ``error: ...`` message
    and exit status 2 — argparse-level validation (e.g. ``--replicates
    0``) is caught by the type functions, and any
    :class:`~repro.exceptions.ConfigurationError` a driver raises is
    caught here rather than dumped as a traceback.
    """
    from repro.exceptions import ConfigurationError

    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped to e.g. `head`; the reader got everything it
        # wanted.  Detach stdout so interpreter shutdown doesn't retry.
        devnull = open(os.devnull, "w")
        os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0


def _dispatch(args) -> int:
    """Run the selected handler, honoring the observability flags.

    When the command carries ``--trace PATH.jsonl``, the handler runs
    under a recording tracer and the collected spans are written to the
    given path afterwards; ``--metrics PATH.json`` likewise runs it under
    a fresh metrics registry and dumps the snapshot at exit.  Both
    artifacts are written even if the handler fails part-way, so a
    crashing experiment still leaves its evidence behind.

    ``--progress`` / ``--progress-jsonl PATH.jsonl`` install a live
    :class:`~repro.obs.progress.ProgressEmitter` as the ambient emitter;
    the JSONL sink is fsynced per event, so an interrupted run leaves a
    readable prefix the ledger ingests as a *partial* run.

    ``--memory-budget-mb MB`` runs the handler under a
    :class:`~repro.obs.bench.MemoryBudget` phase: if the traced
    allocation peak exceeds the cap the command aborts with exit status
    1 and a one-line usage report on stderr; within budget, the same
    report confirms the headroom.
    """
    budget_mb = getattr(args, "memory_budget_mb", None)
    if budget_mb:
        handler = args.handler

        def budgeted_handler(inner_args):
            from repro.obs.bench import MemoryBudget, MemoryBudgetExceeded

            gate = MemoryBudget()
            try:
                with gate.phase(
                    inner_args.command, budget_bytes=budget_mb * 2**20
                ):
                    code = handler(inner_args)
            except MemoryBudgetExceeded as exc:
                print(f"memory budget exceeded: {exc}", file=sys.stderr)
                return 1
            print(gate.phases[-1].summary(), file=sys.stderr)
            return code

        args.handler = budgeted_handler

    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    progress_stderr = getattr(args, "progress", False)
    progress_jsonl = getattr(args, "progress_jsonl", None)
    if not any((trace_path, metrics_path, progress_stderr, progress_jsonl)):
        return args.handler(args)

    from contextlib import ExitStack

    from repro import obs
    from repro.obs.export import dump_metrics_json, write_jsonl

    tracer = obs.RecordingTracer() if trace_path else None
    registry = obs.MetricsRegistry() if metrics_path else None
    emitter = None
    if progress_stderr or progress_jsonl:
        emitter = obs.ProgressEmitter(
            stream=sys.stderr if progress_stderr else None,
            jsonl_path=progress_jsonl,
        )
    try:
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(obs.use_tracer(tracer))
            if registry is not None:
                stack.enter_context(obs.use_registry(registry))
            if emitter is not None:
                stack.enter_context(obs.use_progress(emitter))
            code = args.handler(args)
    finally:
        # Write both artifacts before printing anything: a dead stdout
        # (closed pipe) must not cost the evidence on disk.
        written = []
        if emitter is not None:
            emitter.close()
            if progress_jsonl:
                written.append(f"\nwrote progress: {progress_jsonl}")
        if tracer is not None:
            path = write_jsonl(tracer, trace_path)
            written.append(f"\nwrote trace: {path} ({len(tracer)} spans)")
        if registry is not None:
            path = dump_metrics_json(registry, metrics_path, command=args.command)
            written.append(f"wrote metrics: {path} ({len(registry)} metrics)")
        for line in written:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
