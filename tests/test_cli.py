"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.bench import BenchRecord, BenchRecorder


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            "figure1", "figure2", "figure3", "figure4", "figure5",
            "toy", "complexity", "prop21", "prop22",
            "proof-constructs", "consistency", "metric-study",
            "m-growth", "tuned-lambda", "lambda-curve",
        ):
            args = parser.parse_args([command])
            assert args.command == command
            assert callable(args.handler)

    def test_common_options_parsed(self):
        args = build_parser().parse_args(
            ["figure1", "--seed", "7", "--replicates", "3", "--csv", "/tmp/x.csv"]
        )
        assert args.seed == 7
        assert args.replicates == 3
        assert args.csv == "/tmp/x.csv"

    def test_trace_and_metrics_flags_parsed(self):
        args = build_parser().parse_args(
            ["toy", "--trace", "/tmp/t.jsonl", "--metrics", "/tmp/m.json"]
        )
        assert args.trace == "/tmp/t.jsonl"
        assert args.metrics == "/tmp/m.json"

    def test_jobs_flag_parsed(self):
        args = build_parser().parse_args(["figure1", "--jobs", "2"])
        assert args.jobs == 2
        assert build_parser().parse_args(["figure1"]).jobs == 1
        assert build_parser().parse_args(["consistency", "--jobs", "-1"]).jobs == -1

    def test_bench_verbs_registered(self):
        parser = build_parser()
        report = parser.parse_args(["bench-report", "run.json"])
        assert report.command == "bench-report"
        compare = parser.parse_args(
            ["bench-compare", "old.json", "new.json", "--threshold", "0.2"]
        )
        assert compare.command == "bench-compare"
        assert compare.threshold == pytest.approx(0.2)
        assert compare.min_repeats == 3


class TestCommands:
    def test_toy_command(self, capsys):
        code = main(["toy", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "toy example" in out
        assert "labeled mean" in out

    def test_figure1_tiny(self, capsys, tmp_path):
        csv = tmp_path / "fig1.csv"
        code = main([
            "figure1", "--replicates", "2", "--seed", "0", "--csv", str(csv),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "figure1" in out
        assert csv.exists()
        header = csv.read_text().splitlines()[0]
        assert header.startswith("n,lambda=0")

    def test_prop21_command(self, capsys):
        code = main(["prop21", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Proposition II.1" in out

    def test_prop22_command(self, capsys):
        code = main(["prop22", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Proposition II.2" in out
        assert "gap" in out

    def test_m_growth_command(self, capsys):
        code = main([
            "m-growth", "--gamma", "1.2", "--replicates", "2", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "m-growth" in out
        assert "hard always ahead" in out

    def test_metric_study_command(self, capsys):
        code = main(["metric-study", "--replicates", "2", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "auc" in out and "mcc" in out

    def test_tuned_lambda_command(self, capsys):
        code = main(["tuned-lambda", "--replicates", "2", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CV-tuned" in out or "CV selected" in out

    def test_figure5_tiny(self, capsys):
        code = main([
            "figure5", "--images-per-class", "20", "--repeats", "1",
            "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "figure5" in out
        assert "ratio 80/20" in out

    def test_complexity_command(self, capsys):
        code = main(["complexity", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exponents" in out

    def test_proof_constructs_command(self, capsys):
        code = main(["proof-constructs", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "spec radius" in out

    def test_lambda_curve_command(self, capsys):
        code = main(["lambda-curve", "--replicates", "2", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "anchors" in out

    def test_ablation_command(self, capsys):
        code = main(["ablation", "graph", "--replicates", "2", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "full" in out and "knn" in out

    def test_ablation_solvers_command(self, capsys):
        code = main(["ablation", "solvers", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "direct" in out

    def test_diagnose_command(self, capsys, tmp_path, rng):
        from repro.datasets.io import TransductiveProblem, save_transductive_npz

        problem = TransductiveProblem(
            x_labeled=rng.normal(size=(20, 3)),
            y_labeled=rng.integers(0, 2, 20).astype(float),
            x_unlabeled=rng.normal(size=(8, 3)),
        )
        path = save_transductive_npz(tmp_path / "p.npz", problem)
        code = main(["diagnose", str(path)])
        out = capsys.readouterr().out
        assert "graph:" in out
        assert code in (0, 1)  # healthy or warned, but never crashed

    def test_diagnose_flags_disconnected(self, capsys, tmp_path, rng):
        from repro.datasets.io import TransductiveProblem, save_transductive_npz

        problem = TransductiveProblem(
            x_labeled=rng.normal(size=(10, 2)),
            y_labeled=rng.integers(0, 2, 10).astype(float),
            x_unlabeled=rng.normal(size=(4, 2)) + 1000.0,
        )
        path = save_transductive_npz(tmp_path / "far.npz", problem)
        code = main(["diagnose", str(path), "--bandwidth", "0.5"])
        out = capsys.readouterr().out
        assert code == 1
        assert "warnings" in out


class TestArgumentValidation:
    """Regression tests: ``--replicates 0`` used to crash deep inside the
    driver with a traceback; bad values now fail at the parser (exit 2)
    or as a one-line ConfigurationError message from main()."""

    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_replicates_rejected_at_parser(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure1", "--replicates", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--replicates" in err
        assert "Traceback" not in err

    def test_negative_seed_rejected_at_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure1", "--seed", "-1"])
        assert excinfo.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_bad_jobs_rejected_at_parser(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure1", "--jobs", value])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_figure5_count_flags_validated(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure5", "--images-per-class", "0"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_driver_configuration_error_exits_two(self, capsys):
        code = main(["m-growth", "--gamma", "-1", "--replicates", "2", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "gamma must be > 0" in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_parallel_figure_run(self, capsys):
        code = main(["figure1", "--replicates", "2", "--seed", "0", "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "figure1" in out


class TestTraceReportRobustness:
    def test_empty_trace_file_prints_friendly_message(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code = main(["trace-report", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "empty trace" in out
        assert "Traceback" not in out

    def test_missing_trace_file_exits_cleanly(self, capsys, tmp_path):
        code = main(["trace-report", str(tmp_path / "nope.jsonl")])
        captured = capsys.readouterr()
        text = (captured.out + captured.err).lower()
        assert code == 2
        assert "no such" in text or "not found" in text
        assert "traceback" not in text

    def test_directory_path_exits_cleanly(self, capsys, tmp_path):
        code = main(["trace-report", str(tmp_path)])
        assert code == 2

    def test_corrupt_json_exits_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        code = main(["trace-report", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "Traceback" not in out


def _write_run(tmp_path, run_id, samples_by_name, environment=None):
    recorder = BenchRecorder(scale="quick", run_id=run_id, environment=environment)
    for name, samples in samples_by_name.items():
        recorder.add(
            BenchRecord.from_samples(name, samples, environment=recorder.environment)
        )
    return recorder.write_run(tmp_path)


class TestBenchVerbs:
    def test_bench_report(self, capsys, tmp_path):
        path = _write_run(tmp_path, "r1", {"solve": [0.1, 0.11, 0.12]})
        code = main(["bench-report", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "solve" in out and "r1" in out

    def test_bench_report_missing_file(self, capsys, tmp_path):
        code = main(["bench-report", str(tmp_path / "gone.json")])
        assert code == 2

    def test_self_compare_exits_zero(self, capsys, tmp_path):
        path = _write_run(tmp_path, "r1", {"solve": [0.1, 0.11, 0.12]})
        code = main(["bench-compare", str(path), str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 regression(s)" in out

    def test_degraded_timing_exits_nonzero(self, capsys, tmp_path):
        old = _write_run(tmp_path / "old", "r1", {"solve": [0.100, 0.101, 0.102]})
        new = _write_run(tmp_path / "new", "r2", {"solve": [0.150, 0.151, 0.152]})
        code = main(["bench-compare", str(old), str(new), "--threshold", "0.15"])
        out = capsys.readouterr().out
        assert code == 1
        assert "regression" in out

    def test_threshold_flag_loosens_gate(self, capsys, tmp_path):
        old = _write_run(tmp_path / "old", "r1", {"solve": [0.100, 0.101, 0.102]})
        new = _write_run(tmp_path / "new", "r2", {"solve": [0.150, 0.151, 0.152]})
        code = main(["bench-compare", str(old), str(new), "--threshold", "0.60"])
        assert code == 0
        capsys.readouterr()

    def test_compare_missing_file_exits_two(self, capsys, tmp_path):
        path = _write_run(tmp_path, "r1", {"solve": [0.1]})
        assert main(["bench-compare", str(path), str(tmp_path / "gone.json")]) == 2

    @pytest.mark.parametrize(
        "old_cpus, code, set_aside", [(1, 0, "1 measurement(s) set aside"), (2, 1, None)]
    )
    def test_only_runs_from_one_environment_gate(
        self, capsys, tmp_path, old_cpus, code, set_aside
    ):
        # solve 100 -> 150 ms at 3 repeats: a regression when both runs
        # come from one environment, set aside when the older came from
        # another host.
        from repro.obs.environment import environment_fingerprint

        def environment(cpus):
            return dict(environment_fingerprint(), cpu_count=cpus)

        old = _write_run(
            tmp_path / "old", "r1", {"solve": [0.100, 0.101, 0.102]},
            environment=environment(old_cpus),
        )
        new = _write_run(
            tmp_path / "new", "r2", {"solve": [0.150, 0.151, 0.152]},
            environment=environment(2),
        )
        assert main(["bench-compare", str(old), str(new)]) == code
        out = capsys.readouterr().out
        assert f"{code} regression(s) at threshold 15%" in out
        if set_aside is not None:
            assert set_aside in out
        else:
            assert "set aside:" not in out


class TestMetricsFlag:
    def test_metrics_dump_written(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        code = main(["toy", "--seed", "0", "--metrics", str(path)])
        assert code == 0
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.metrics/v1"
        assert data["command"] == "toy"
        assert data["environment"]["schema"] == "repro.env/v1"
        assert any(name.startswith("solves.") for name in data["metrics"])
        capsys.readouterr()

    def test_metrics_and_trace_together(self, capsys, tmp_path):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        code = main([
            "toy", "--seed", "0",
            "--metrics", str(metrics), "--trace", str(trace),
        ])
        assert code == 0
        assert metrics.exists() and trace.exists()
        capsys.readouterr()

    def test_metrics_written_even_on_failure(self, tmp_path, capsys):
        from repro.datasets.io import TransductiveProblem, save_transductive_npz
        import numpy as np

        rng = np.random.default_rng(0)
        problem = TransductiveProblem(
            x_labeled=rng.normal(size=(10, 2)),
            y_labeled=rng.integers(0, 2, 10).astype(float),
            x_unlabeled=rng.normal(size=(4, 2)) + 1000.0,
        )
        npz = save_transductive_npz(tmp_path / "far.npz", problem)
        path = tmp_path / "metrics.json"
        code = main([
            "diagnose", str(npz), "--bandwidth", "0.5", "--metrics", str(path),
        ])
        assert code == 1  # the command itself failed its health check
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.metrics/v1"
        capsys.readouterr()


class TestBenchCompareMultiRun:
    def _pin_created(self, path, created):
        data = json.loads(path.read_text())
        data["created_unix"] = created
        for record in data["benchmarks"]:
            record["created_unix"] = created
        path.write_text(json.dumps(data))
        return path

    def test_three_runs_judged_oldest_vs_newest(self, capsys, tmp_path):
        runs = []
        for i, base in enumerate([0.100, 0.120, 0.150]):
            path = _write_run(
                tmp_path / f"run{i}", f"r{i}",
                {"solve": [base, base * 1.01, base * 1.02]},
            )
            runs.append(str(self._pin_created(path, 100.0 * (i + 1))))
        code = main(["bench-compare", *runs, "--threshold", "0.15"])
        out = capsys.readouterr().out
        assert code == 1  # 0.150 vs 0.100 regressed even though no adjacent pair did badly
        assert "comparing 3 runs" in out
        assert "regression" in out

    def test_glob_pattern_expanded(self, capsys, tmp_path):
        for i in range(2):
            path = _write_run(
                tmp_path / f"run{i}", f"r{i}", {"solve": [0.1, 0.101, 0.102]}
            )
            self._pin_created(path, 100.0 * (i + 1))
        pattern = str(tmp_path) + "/*/BENCH_*.json"
        code = main(["bench-compare", pattern])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 regression(s)" in out

    def test_single_file_exits_two(self, capsys, tmp_path):
        path = _write_run(tmp_path, "r1", {"solve": [0.1]})
        assert main(["bench-compare", str(path)]) == 2
        assert "at least two" in capsys.readouterr().err

    def test_benchmark_in_one_run_only_never_gates(self, capsys, tmp_path):
        old = _write_run(tmp_path / "old", "r1", {"solve": [0.1, 0.101, 0.102]})
        new = _write_run(
            tmp_path / "new", "r2",
            {"solve": [0.1, 0.101, 0.102], "extra": [0.5, 0.51, 0.52]},
        )
        self._pin_created(old, 100.0)
        self._pin_created(new, 200.0)
        code = main(["bench-compare", str(old), str(new)])
        out = capsys.readouterr().out
        assert code == 0
        assert "extra" in out


class TestTraceReportMergedMemory:
    def test_cross_process_merged_memory_trace(self, capsys, tmp_path):
        """trace-report over a parent trace that adopted worker memory spans.

        This is the artifact shape a ``--jobs N --trace`` run produces:
        worker tracers record with ``track_memory=True``, ship their
        records across the process boundary, and the parent adopts them.
        """
        from repro import obs
        from repro.obs.export import write_jsonl

        parent = obs.RecordingTracer(track_memory=True)
        worker = obs.RecordingTracer(track_memory=True)
        with obs.use_tracer(worker):
            with obs.span("repro.replicate", index=1):
                _ = [0.0] * 50_000
        worker.close()
        with obs.use_tracer(parent):
            with obs.span("repro.replicate", index=0):
                _ = [0.0] * 50_000
        parent.adopt_records(worker.to_records())
        parent.close()
        path = write_jsonl(parent, tmp_path / "merged.jsonl")

        code = main(["trace-report", str(path), "--tree"])
        out = capsys.readouterr().out
        assert code == 0
        # both the locally-recorded and the adopted replicate spans render
        assert out.count("repro.replicate") >= 2
        # and the memory attribution survived the merge: the tree shows
        # a peak MB figure (not "-") for both replicate spans
        tree = out[out.index("span  duration_s") :].splitlines()
        assert tree[0].split()[:4] == ["span", "duration_s", "peak", "MB"]
        replicate_rows = [row for row in tree if row.startswith("repro.replicate")]
        assert len(replicate_rows) == 2
        for row in replicate_rows:
            float(row.split()[2])  # peak MB column


class TestProgressFlags:
    def test_parallel_figure_emits_progress(self, capsys, tmp_path):
        jsonl = tmp_path / "progress.jsonl"
        code = main([
            "figure1", "--replicates", "2", "--seed", "0", "--jobs", "2",
            "--progress", "--progress-jsonl", str(jsonl),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "heartbeat" in captured.err
        assert "replicate 1/2" in captured.err
        events = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert events[0]["type"] == "header"
        assert events[0]["schema"] == "repro.progress/v1"
        heartbeats = [e for e in events if e.get("type") == "heartbeat"]
        assert len(heartbeats) >= 1
        done = [e for e in events if e.get("type") == "replicate"]
        # every task covers replicate indices 0..1 exactly once
        by_task = {}
        for event in done:
            by_task.setdefault(event["task"], []).append(event["index"])
        assert by_task and all(sorted(v) == [0, 1] for v in by_task.values())
        ends = [e for e in events if e.get("type") == "end"]
        assert ends and all(e["status"] == "complete" for e in ends)

    def test_progress_preserves_aggregates_bit_identically(self, capsys, tmp_path):
        plain = tmp_path / "plain.csv"
        with_progress = tmp_path / "progress.csv"
        args = ["consistency", "--replicates", "2", "--seed", "0"]
        assert main([*args, "--csv", str(plain)]) == 0
        assert main([
            *args, "--csv", str(with_progress), "--jobs", "2",
            "--progress-jsonl", str(tmp_path / "p.jsonl"),
        ]) == 0
        capsys.readouterr()
        assert with_progress.read_text() == plain.read_text()


class TestMemoryLeanFlags:
    def test_memory_budget_parsed(self):
        args = build_parser().parse_args(["prop21", "--memory-budget-mb", "512"])
        assert args.memory_budget_mb == 512
        defaults = build_parser().parse_args(["lambda-curve"])
        assert defaults.memory_budget_mb is None

    def test_bad_budget_rejected_at_parser(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["prop21", "--memory-budget-mb", "0"])
        assert ">= 1" in capsys.readouterr().err

    def test_budget_within_reports_usage(self, capsys):
        code = main(["prop21", "--seed", "0", "--memory-budget-mb", "512"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Proposition II.1" in captured.out
        assert "prop21: peak" in captured.err and "(ok)" in captured.err

    def test_budget_exceeded_exits_one(self, capsys, monkeypatch):
        import numpy as np

        import repro.experiments.figures as figures
        from repro.experiments.figures.prop21 import Prop21Result

        def hungry_experiment(**kwargs):
            buf = np.ones(4_000_000)  # ~32 MB traced peak, way over 1 MB
            del buf
            return Prop21Result(lambdas=(1.0,), deviations=(0.0,))

        monkeypatch.setattr(figures, "run_prop21_experiment", hungry_experiment)
        code = main(["prop21", "--seed", "0", "--memory-budget-mb", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "memory budget exceeded" in captured.err
        assert "traced peak" in captured.err

    def test_budget_composes_with_metrics_flag(self, capsys, tmp_path):
        metrics = tmp_path / "m.json"
        code = main([
            "prop21", "--seed", "0", "--memory-budget-mb", "512",
            "--metrics", str(metrics),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert metrics.exists()
        assert "(ok)" in captured.err
