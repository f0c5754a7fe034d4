"""Tests for the run ledger (repro.obs.ledger) and trend gate (repro.obs.trend)."""

import json

import pytest

from repro.cli import main
from repro.obs.bench import BenchRecord, BenchRecorder
from repro.obs.ledger import RunLedger, render_span_tree
from repro.obs.progress import ProgressEmitter
from repro.obs.trend import history_series, render_trend_report, trend_runs


def _write_bench_run(directory, run_id, samples_by_name, created=None):
    """A BENCH_*.json on disk, optionally with a pinned creation time."""
    recorder = BenchRecorder(scale="quick", run_id=run_id)
    for name, samples in samples_by_name.items():
        recorder.add(BenchRecord.from_samples(name, samples))
    path = recorder.write_run(directory)
    if created is not None:
        data = json.loads(path.read_text())
        data["created_unix"] = created
        for record in data["benchmarks"]:
            record["created_unix"] = created
        path.write_text(json.dumps(data))
    return path


def _bench_run_dict(run_id, created, samples_by_name, environment=None):
    """An in-memory bench-run dict (for trend unit tests)."""
    records = []
    for name, samples in samples_by_name.items():
        record = BenchRecord.from_samples(name, samples).to_dict()
        if environment is not None:
            record["environment"] = environment
        record["created_unix"] = created
        records.append(record)
    return {
        "run_id": run_id,
        "created_unix": created,
        "scale": "quick",
        "environment": {"schema": "repro.env/v1", "git_sha": run_id},
        "benchmarks": records,
    }


def _write_progress(path, *, interrupt=False):
    emitter = ProgressEmitter(jsonl_path=path, run_id=path.stem)
    task = emitter.task("work", total=3)
    task.__enter__()
    task.replicate_done(0)
    if interrupt:
        task.__exit__(KeyboardInterrupt, KeyboardInterrupt(), None)
    else:
        task.replicate_done(1)
        task.replicate_done(2)
        task.__exit__(None, None, None)
    emitter.close()
    return path


def _write_trace(path):
    from repro import obs
    from repro.obs.export import write_jsonl

    tracer = obs.RecordingTracer(track_memory=True)
    with obs.use_tracer(tracer):
        with obs.span("outer", n=5):
            with obs.span("inner", kind="test"):
                _ = [0.0] * 20000
    return write_jsonl(tracer, path)


class TestIngestion:
    def test_bench_run_ingested(self, tmp_path):
        path = _write_bench_run(tmp_path, "r1", {"solve": [0.1, 0.11, 0.12]})
        with RunLedger(tmp_path / "L.sqlite") as ledger:
            result = ledger.ingest(path)
            assert (result.run_id, result.kind) == ("r1", "bench")
            assert result.n_records == 1 and not result.replaced
            assert ledger.bench_names() == ["solve"]

    def test_single_record_twin_ingested(self, tmp_path):
        record = BenchRecord.from_samples("micro", [0.01, 0.011])
        twin = record.write_json(tmp_path / "micro.json")
        with RunLedger(tmp_path / "L.sqlite") as ledger:
            result = ledger.ingest(twin)
            assert result.kind == "bench"
            assert ledger.bench_names() == ["micro"]

    def test_reingest_replaces_not_duplicates(self, tmp_path):
        path = _write_bench_run(tmp_path, "r1", {"solve": [0.1, 0.11, 0.12]})
        with RunLedger(tmp_path / "L.sqlite") as ledger:
            assert not ledger.ingest(path).replaced
            assert ledger.ingest(path).replaced
            assert len(ledger.runs()) == 1
            assert len(ledger.history("solve")) == 1

    def test_trace_ingested_with_memory_columns(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        with RunLedger(tmp_path / "L.sqlite") as ledger:
            result = ledger.ingest(path)
            assert result.kind == "trace"
            records = ledger.span_records(result.run_id)
        names = [r["name"] for r in records]
        assert names == ["outer", "inner"]
        assert "memory.peak_bytes" in records[0]["attributes"]
        tree = render_span_tree(records)
        assert "outer" in tree and "peak MB" in tree

    def test_metrics_dump_ingested(self, tmp_path):
        from repro import obs
        from repro.obs.export import dump_metrics_json

        registry = obs.MetricsRegistry()
        registry.counter("solves.hard").inc(3)
        dump = dump_metrics_json(registry, tmp_path / "m.json", command="toy")
        with RunLedger(tmp_path / "L.sqlite") as ledger:
            result = ledger.ingest(dump)
            assert result.kind == "metrics"
            assert result.n_records == 1
            detail = ledger.show(result.run_id)
        assert "solves.hard" in detail["artifacts"][0]["metrics"]

    def test_complete_progress_stream(self, tmp_path):
        path = _write_progress(tmp_path / "p.jsonl")
        with RunLedger(tmp_path / "L.sqlite") as ledger:
            result = ledger.ingest(path)
            assert (result.kind, result.status) == ("progress", "complete")
            events = ledger.progress_events(result.run_id)
        assert [e["type"] for e in events][-1] == "end"

    def test_interrupted_progress_is_partial(self, tmp_path):
        path = _write_progress(tmp_path / "p.jsonl", interrupt=True)
        with RunLedger(tmp_path / "L.sqlite") as ledger:
            result = ledger.ingest(path)
        assert result.status == "partial"

    def test_killed_mid_run_prefix_is_partial(self, tmp_path):
        """A stream with no end event at all (process killed) is partial."""
        path = _write_progress(tmp_path / "p.jsonl")
        lines = path.read_text().splitlines()
        truncated = tmp_path / "killed.jsonl"
        truncated.write_text("\n".join(lines[:4]) + "\n")  # header..first replicate
        with RunLedger(tmp_path / "L.sqlite") as ledger:
            assert ledger.ingest(truncated).status == "partial"

    def test_unknown_artifact_rejected(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text('{"hello": "world"}')
        with RunLedger(tmp_path / "L.sqlite") as ledger:
            with pytest.raises(ValueError, match="not a recognized"):
                ledger.ingest(junk)

    def test_runs_listing_carries_provenance(self, tmp_path):
        path = _write_bench_run(tmp_path, "r1", {"solve": [0.1, 0.11, 0.12]})
        with RunLedger(tmp_path / "L.sqlite") as ledger:
            ledger.ingest(path)
            (row,) = ledger.runs()
        assert row["run_id"] == "r1"
        assert row["git_sha"] is not None or row["env_digest"] is not None
        assert row["n_records"] == 1


class TestHistory:
    def test_history_spans_multiple_runs_in_time_order(self, tmp_path):
        a = _write_bench_run(tmp_path / "a", "r1", {"solve": [0.10, 0.11]}, created=100.0)
        b = _write_bench_run(tmp_path / "b", "r2", {"solve": [0.12, 0.13]}, created=200.0)
        with RunLedger(tmp_path / "L.sqlite") as ledger:
            ledger.ingest(b)  # ingest out of order on purpose
            ledger.ingest(a)
            points = ledger.history("solve")
        assert [p.run_id for p in points] == ["r1", "r2"]
        assert points[0].record.min_s == pytest.approx(0.10)
        assert points[1].record.min_s == pytest.approx(0.12)

    def test_history_series_pure_function(self):
        runs = [
            _bench_run_dict("r1", 100.0, {"solve": [0.1]}),
            _bench_run_dict("r2", 200.0, {"solve": [0.2]}),
            _bench_run_dict("r3", 300.0, {"other": [0.3]}),
        ]
        points = history_series(runs, "solve")
        assert [p.run_id for p in points] == ["r1", "r2"]
        # provenance comes from the record's own fingerprint when present
        assert points[0].env_digest is not None


class TestTrendGate:
    def _runs(self, mins, repeats=3):
        return [
            _bench_run_dict(
                f"r{i}", 100.0 * (i + 1), {"solve": [m] * repeats}
            )
            for i, m in enumerate(mins)
        ]

    def test_steady_series_ok(self):
        report = trend_runs(self._runs([0.10, 0.102, 0.098, 0.101]))
        (entry,) = report.entries
        assert entry.status == "ok"
        assert report.ok

    def test_sustained_regression_detected(self):
        report = trend_runs(self._runs([0.10, 0.10, 0.15, 0.16]))
        (entry,) = report.entries
        assert entry.status == "regression"
        assert entry.ratio == pytest.approx(1.6)
        assert not report.ok

    def test_single_noisy_run_does_not_gate(self):
        # last run regressed but the one before it did not: not sustained
        report = trend_runs(self._runs([0.10, 0.10, 0.101, 0.16]))
        (entry,) = report.entries
        assert entry.status == "ok"

    def test_slow_creep_caught_via_best_prior_baseline(self):
        # no adjacent pair exceeds 15%, but the last two are far above
        # the best early measurement
        report = trend_runs(self._runs([0.10, 0.11, 0.121, 0.13, 0.14]))
        (entry,) = report.entries
        assert entry.status == "regression"

    def test_low_repeat_runs_never_gate(self):
        report = trend_runs(self._runs([0.10, 0.10, 0.20, 0.20], repeats=1))
        (entry,) = report.entries
        assert entry.status == "informational"
        assert report.ok

    def test_improvement_reported(self):
        report = trend_runs(self._runs([0.10, 0.10, 0.08, 0.07]))
        (entry,) = report.entries
        assert entry.status == "improvement"
        assert entry.ratio == pytest.approx(0.7)
        assert report.ok

    def test_only_the_newest_environment_gates(self):
        # A faster host's measurement in the middle of the series would
        # set a baseline this host can never meet; it is set aside.
        from repro.obs.environment import environment_fingerprint

        here = environment_fingerprint()
        elsewhere = dict(here, cpu_count=here["cpu_count"] + 1)
        series = [(0.10, here), (0.05, elsewhere), (0.10, here), (0.105, here)]
        runs = [
            _bench_run_dict(f"r{i}", 100.0 * (i + 1), {"solve": [m] * 3}, env)
            for i, (m, env) in enumerate(series)
        ]
        (entry,) = trend_runs(runs).entries
        assert (entry.status, entry.n_runs, entry.n_set_aside) == ("ok", 3, 1)
        assert entry.baseline_min_s == pytest.approx(0.10)
        # Once the other host measures last, it is the home environment
        # and this host's runs are the ones set aside.
        runs.append(_bench_run_dict("r4", 500.0, {"solve": [0.05] * 3}, elsewhere))
        (entry,) = trend_runs(runs).entries
        assert (entry.status, entry.n_runs, entry.n_set_aside) == ("informational", 2, 3)
        assert "3 measurement(s) set aside" in render_trend_report(trend_runs(runs))

    def test_needs_sustain_plus_one_eligible_runs(self):
        report = trend_runs(self._runs([0.10, 0.20]))
        (entry,) = report.entries
        assert entry.status == "informational"

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            trend_runs([], threshold=0.0)
        with pytest.raises(ValueError):
            trend_runs([], sustain=0)
        with pytest.raises(ValueError):
            trend_runs([], min_repeats=0)

    def test_render_names_the_regression(self):
        report = trend_runs(self._runs([0.10, 0.10, 0.15, 0.16]))
        text = render_trend_report(report)
        assert "solve" in text and "regression" in text


class TestObsCli:
    def _ledger_args(self, tmp_path):
        return ["--ledger", str(tmp_path / "L.sqlite")]

    def test_ingest_and_runs(self, capsys, tmp_path):
        path = _write_bench_run(tmp_path, "r1", {"solve": [0.1, 0.11, 0.12]})
        assert main(["obs", "ingest", str(path), *self._ledger_args(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ingested bench run r1" in out
        assert main(["obs", "runs", *self._ledger_args(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "r1" in out and "bench" in out

    def test_ingest_glob_pattern(self, capsys, tmp_path):
        _write_bench_run(tmp_path / "a", "r1", {"solve": [0.1]}, created=100.0)
        _write_bench_run(tmp_path / "b", "r2", {"solve": [0.1]}, created=200.0)
        pattern = str(tmp_path) + "/*/BENCH_*.json"
        assert main(["obs", "ingest", pattern, *self._ledger_args(tmp_path)]) == 0
        capsys.readouterr()
        main(["obs", "runs", *self._ledger_args(tmp_path)])
        out = capsys.readouterr().out
        assert "r1" in out and "r2" in out

    def test_ingest_missing_file_exits_two(self, capsys, tmp_path):
        code = main([
            "obs", "ingest", str(tmp_path / "gone.json"),
            *self._ledger_args(tmp_path),
        ])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_history_across_two_runs(self, capsys, tmp_path):
        a = _write_bench_run(tmp_path / "a", "r1", {"solve": [0.10, 0.11, 0.12]},
                             created=100.0)
        b = _write_bench_run(tmp_path / "b", "r2", {"solve": [0.12, 0.13, 0.14]},
                             created=200.0)
        main(["obs", "ingest", str(a), str(b), *self._ledger_args(tmp_path)])
        capsys.readouterr()
        assert main(["obs", "history", "solve", *self._ledger_args(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert out.index("r1") < out.index("r2")

    def test_history_unknown_bench_hints_known_names(self, capsys, tmp_path):
        path = _write_bench_run(tmp_path, "r1", {"solve": [0.1]})
        main(["obs", "ingest", str(path), *self._ledger_args(tmp_path)])
        capsys.readouterr()
        assert main(["obs", "history", "nope", *self._ledger_args(tmp_path)]) == 2
        assert "solve" in capsys.readouterr().err

    def test_trend_exit_one_on_injected_regression(self, capsys, tmp_path):
        mins = [0.010, 0.010, 0.015, 0.016]
        for i, m in enumerate(mins):
            path = _write_bench_run(
                tmp_path / f"run{i}", f"r{i}",
                {"solve": [m, m * 1.01, m * 1.02]},
                created=100.0 * (i + 1),
            )
            main(["obs", "ingest", str(path), *self._ledger_args(tmp_path)])
        capsys.readouterr()
        assert main(["obs", "trend", *self._ledger_args(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "regression" in out

    def test_trend_exit_zero_on_steady_series(self, capsys, tmp_path):
        for i in range(3):
            path = _write_bench_run(
                tmp_path / f"run{i}", f"r{i}",
                {"solve": [0.01, 0.0101, 0.0102]},
                created=100.0 * (i + 1),
            )
            main(["obs", "ingest", str(path), *self._ledger_args(tmp_path)])
        capsys.readouterr()
        assert main(["obs", "trend", *self._ledger_args(tmp_path)]) == 0
        capsys.readouterr()

    def test_trend_empty_ledger_exits_zero(self, capsys, tmp_path):
        assert main(["obs", "trend", *self._ledger_args(tmp_path)]) == 0
        assert "nothing to gate" in capsys.readouterr().out

    def _rejected(self, capsys, tmp_path, flag, value):
        # Checked at the parser, so even an empty ledger (which has
        # nothing to gate) refuses a bad setting with exit 2.
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "trend", *self._ledger_args(tmp_path), flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-0.5", "nan", "inf"])
    def test_trend_threshold_must_be_finite_and_positive(self, capsys, tmp_path, value):
        self._rejected(capsys, tmp_path, "--threshold", value)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_trend_min_repeats_must_be_positive(self, capsys, tmp_path, value):
        self._rejected(capsys, tmp_path, "--min-repeats", value)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_trend_sustain_must_be_positive(self, capsys, tmp_path, value):
        self._rejected(capsys, tmp_path, "--sustain", value)

    def test_show_progress_run(self, capsys, tmp_path):
        path = _write_progress(tmp_path / "p.jsonl", interrupt=True)
        main(["obs", "ingest", str(path), *self._ledger_args(tmp_path)])
        capsys.readouterr()
        assert main(["obs", "show", "p", *self._ledger_args(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "status=partial" in out
        assert "1/3" in out

    def test_show_unknown_run_exits_two(self, capsys, tmp_path):
        assert main(["obs", "show", "ghost", *self._ledger_args(tmp_path)]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_span_tree_renders_memory_columns(self, capsys, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        main(["obs", "ingest", str(path), *self._ledger_args(tmp_path)])
        capsys.readouterr()
        with RunLedger(tmp_path / "L.sqlite") as ledger:
            run_id = ledger.runs(kind="trace")[0]["run_id"]
        assert main(["obs", "span-tree", run_id, *self._ledger_args(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "inner" in out and "peak MB" in out
