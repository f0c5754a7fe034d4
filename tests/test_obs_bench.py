"""Tests for repro.obs.bench — structured benchmark capture — and for the
regression rule at sustain 1, the pairwise verdict behind
``repro bench-compare``."""

import json
import math

import numpy as np
import pytest

from repro.core.hard import solve_hard_criterion
from repro.datasets.synthetic import make_synthetic_dataset
from repro.graph.similarity import full_kernel_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.obs.bench import (
    BenchRecord,
    BenchRecorder,
    MemoryBudget,
    MemoryBudgetExceeded,
    load_bench_run,
    prune_bench_runs,
    render_bench_report,
    solver_health_from_trace,
)
from repro.obs.environment import environment_fingerprint
from repro.obs.trend import render_trend_report, trend_runs


def _record(name, samples, *, repeats=None, **kwargs):
    return BenchRecord.from_samples(name, samples, repeats=repeats, **kwargs)


def _run(*records, run_id="test-run"):
    recorder = BenchRecorder(scale="quick", run_id=run_id)
    for record in records:
        recorder.add(record)
    return recorder.to_run()


def _pair_verdict(old, new, **kwargs):
    """The pairwise verdict: the one rule over two runs at sustain 1."""
    return trend_runs([old, new], sustain=1, **kwargs)


class TestEnvironmentFingerprint:
    def test_required_fields(self):
        env = environment_fingerprint()
        assert env["schema"] == "repro.env/v1"
        for key in ("python", "numpy", "scipy", "platform", "machine", "cpu_count"):
            assert env[key], key
        assert env["cpu_count"] >= 1

    def test_returns_fresh_copies(self):
        first = environment_fingerprint()
        first["python"] = "tampered"
        assert environment_fingerprint()["python"] != "tampered"


class TestBenchRecord:
    def test_from_samples_summaries(self):
        record = _record("x", [0.3, 0.1, 0.2])
        assert record.min_s == pytest.approx(0.1)
        assert record.median_s == pytest.approx(0.2)
        assert record.mean_s == pytest.approx(0.2)
        assert record.repeats == 3
        assert record.environment["schema"] == "repro.env/v1"

    def test_from_samples_rejects_empty(self):
        with pytest.raises(ValueError):
            _record("x", [])

    def test_dict_round_trip(self):
        record = _record(
            "x", [0.2, 0.1],
            memory={"peak_bytes": 1024, "net_bytes": 0},
            solver_health={"solves": 2, "methods": {"cg": 2}},
        )
        clone = BenchRecord.from_dict(record.to_dict())
        assert clone.name == "x"
        assert clone.min_s == record.min_s
        assert clone.memory == record.memory
        assert clone.solver_health == record.solver_health

    def test_write_json(self, tmp_path):
        path = _record("x", [0.1]).write_json(tmp_path / "x.json")
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.bench.record/v1"
        assert data["timings_s"]["min"] == pytest.approx(0.1)

    def test_summary_is_one_line(self):
        record = _record("x", [0.1], memory={"peak_bytes": 2_000_000})
        text = record.summary()
        assert "\n" not in text
        assert "x:" in text and "peak 2.00 MB" in text


class TestBenchRecorder:
    def test_measure_counts_and_profiles(self):
        recorder = BenchRecorder(scale="quick")
        calls = []
        result, record = recorder.measure("inc", lambda: calls.append(1) or len(calls), repeats=3)
        # one profiled pass + three timing passes
        assert len(calls) == 4
        assert result == 1  # profiled pass ran first
        assert record.repeats == 3
        assert len(record.samples_s) == 3
        assert record.memory["peak_bytes"] >= 0
        assert recorder.records == [record]

    def test_measure_without_profile(self):
        recorder = BenchRecorder()
        calls = []
        result, record = recorder.measure(
            "plain", lambda: calls.append(1) or "out", repeats=2, profile=False
        )
        assert len(calls) == 2
        assert result == "out"
        assert record.memory == {} and record.solver_health == {}

    def test_measure_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            BenchRecorder().measure("x", lambda: None, repeats=0)

    def test_measure_captures_solver_health(self):
        data = make_synthetic_dataset(40, 20, seed=0)
        bandwidth = paper_bandwidth_rule(40, data.x_labeled.shape[1])
        weights = full_kernel_graph(data.x_all, bandwidth=bandwidth).dense_weights()
        recorder = BenchRecorder()
        _, record = recorder.measure(
            "solve",
            lambda: solve_hard_criterion(
                weights, data.y_labeled, method="cg", check_reachability=False
            ),
            repeats=1,
        )
        health = record.solver_health
        assert health["solves"] == 1
        assert health["methods"] == {"cg": 1}
        assert health["iterations_total"] > 0
        assert health["converged_all"] is True

    def test_measure_leaves_tracemalloc_stopped(self):
        import tracemalloc

        BenchRecorder().measure("x", lambda: np.ones(1000), repeats=1)
        assert not tracemalloc.is_tracing()

    def test_write_and_load_run(self, tmp_path):
        recorder = BenchRecorder(scale="quick", run_id="r1")
        recorder.measure("a", lambda: None, repeats=1, profile=False)
        path = recorder.write_run(tmp_path)
        assert path.name == "BENCH_r1.json"
        run = load_bench_run(path)
        assert run["schema"] == "repro.bench.run/v1"
        assert [r["name"] for r in run["benchmarks"]] == ["a"]
        assert run["environment"]["schema"] == "repro.env/v1"

    def test_load_single_record_wraps_into_run(self, tmp_path):
        path = _record("solo", [0.1]).write_json(tmp_path / "solo.json")
        run = load_bench_run(path)
        assert [r["name"] for r in run["benchmarks"]] == ["solo"]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError):
            load_bench_run(path)


class TestSolverHealthFromTrace:
    def test_only_top_level_solve_spans_count(self):
        from repro import obs

        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            with obs.span("repro.solve_hard") as span:
                span.set_attributes(
                    {
                        "solver.method": "cg",
                        "solver.iterations": 12,
                        "solver.converged": True,
                    }
                )
                with obs.span("repro.linalg.cg") as inner:
                    # inner solver span without solver.method: not a solve
                    inner.set_attribute("solver.iterations", 12)
        health = solver_health_from_trace(tracer)
        assert health["solves"] == 1
        assert health["iterations_total"] == 12

    def test_divergence_flips_converged_all(self):
        from repro import obs

        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            with obs.span("s") as span:
                span.set_attributes(
                    {"solver.method": "cg", "solver.converged": False}
                )
        assert solver_health_from_trace(tracer)["converged_all"] is False


class TestCompareRuns:
    def test_self_comparison_is_clean(self):
        run = _run(_record("a", [0.1, 0.1, 0.1]), _record("b", [0.2, 0.2, 0.2]))
        comparison = _pair_verdict(run, run)
        assert comparison.ok
        assert {e.status for e in comparison.entries} == {"ok"}

    def test_regression_detected_over_threshold(self):
        old = _run(_record("a", [0.100, 0.101, 0.102]))
        new = _run(_record("a", [0.130, 0.131, 0.132]))
        comparison = _pair_verdict(old, new, threshold=0.15)
        (entry,) = comparison.entries
        assert entry.status == "regression"
        assert not comparison.ok

    def test_within_threshold_is_ok(self):
        old = _run(_record("a", [0.100] * 3))
        new = _run(_record("a", [0.110] * 3))
        assert _pair_verdict(old, new, threshold=0.15).ok

    def test_improvement_reported(self):
        old = _run(_record("a", [0.200] * 3))
        new = _run(_record("a", [0.100] * 3))
        (entry,) = _pair_verdict(old, new).entries
        assert entry.status == "improvement"

    def test_single_shot_never_gates(self):
        # 3x slower but only one repeat on each side: informational only,
        # with the ungated delta still shown.
        old = _run(_record("a", [0.1]))
        new = _run(_record("a", [0.3]))
        comparison = _pair_verdict(old, new, threshold=0.15, min_repeats=3)
        (entry,) = comparison.entries
        assert entry.status == "informational"
        assert entry.ratio == pytest.approx(3.0)
        assert comparison.ok

    def test_added_and_removed_tracked(self):
        # A benchmark seen in only one run is reported and never gates.
        old = _run(_record("gone", [0.1] * 3))
        new = _run(_record("fresh", [0.5] * 3))
        comparison = _pair_verdict(old, new)
        assert [(e.name, e.n_runs, e.status) for e in comparison.entries] == [
            ("fresh", 1, "informational"),
            ("gone", 1, "informational"),
        ]
        assert comparison.ok
        text = render_trend_report(comparison)
        assert "fresh" in text and "gone" in text

    def test_nonfinite_old_min_is_informational(self):
        old_run = _run(_record("a", [0.1] * 3))
        old_run["benchmarks"][0]["timings_s"]["min"] = 0.0
        new = _run(_record("a", [0.1] * 3))
        (entry,) = _pair_verdict(old_run, new).entries
        assert entry.status == "informational"
        assert math.isnan(entry.ratio)

    def test_validates_parameters(self):
        run = _run(_record("a", [0.1]))
        with pytest.raises(ValueError):
            _pair_verdict(run, run, threshold=0.0)
        with pytest.raises(ValueError):
            _pair_verdict(run, run, min_repeats=0)

    def test_comparison_is_deterministic(self):
        old = _run(
            _record("a", [0.100, 0.104, 0.102]),
            _record("b", [0.050, 0.052, 0.051]),
            _record("c", [0.3]),
        )
        new = _run(
            _record("a", [0.140, 0.139, 0.150]),
            _record("b", [0.049, 0.050, 0.048]),
            _record("d", [0.2]),
        )
        first = _pair_verdict(old, new, threshold=0.15)
        second = _pair_verdict(old, new, threshold=0.15)
        # repr, not ==: the one-run entries carry NaN baselines
        assert repr(first.entries) == repr(second.entries)
        assert render_trend_report(first) == render_trend_report(second)

    def test_other_environment_is_set_aside(self):
        # The same 100 -> 150 ms pair gates from one host and is set
        # aside when the older run came from another.
        here = environment_fingerprint()
        elsewhere = dict(here, cpu_count=here["cpu_count"] + 1)
        old_elsewhere = _run(_record("a", [0.100] * 3, environment=elsewhere))
        old_here = _run(_record("a", [0.100] * 3, environment=here))
        new = _run(_record("a", [0.150] * 3, environment=here))
        (entry,) = _pair_verdict(old_elsewhere, new).entries
        assert (entry.status, entry.n_runs, entry.n_set_aside) == ("informational", 1, 1)
        (entry,) = _pair_verdict(old_here, new).entries
        assert (entry.status, entry.n_runs, entry.n_set_aside) == ("regression", 2, 0)


class TestRenderers:
    def test_report_renders_all_benchmarks(self):
        run = _run(
            _record(
                "fast", [0.001] * 3,
                memory={"peak_bytes": 1_000_000},
                solver_health={"solves": 2, "methods": {"cg": 2}},
            ),
            _record("slow", [1.0]),
        )
        text = render_bench_report(run)
        assert "fast" in text and "slow" in text
        assert "cgx2" in text
        assert "test-run" in text

    def test_compare_render_mentions_verdict(self):
        old = _run(_record("a", [0.1] * 3))
        new = _run(_record("a", [0.2] * 3))
        text = render_trend_report(_pair_verdict(old, new))
        assert "regression" in text
        assert "1 regression(s) at threshold 15% (sustain 1" in text


class TestMemoryBudget:
    def test_phase_within_budget_records_usage(self):
        gate = MemoryBudget()
        with gate.phase("alloc", budget_bytes=64 * 2**20):
            buf = np.ones(500_000)  # ~4 MB traced
        del buf
        (usage,) = gate.phases
        assert usage.name == "alloc"
        assert usage.within is True
        assert usage.peak_traced_bytes >= 4_000_000
        assert usage.duration_s > 0
        assert gate.ok

    def test_phase_over_budget_raises(self):
        gate = MemoryBudget()
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            with gate.phase("alloc", budget_bytes=1_000_000):
                buf = np.ones(500_000)  # ~4 MB > 1 MB budget
        del buf
        assert excinfo.value.usage.name == "alloc"
        assert excinfo.value.usage.within is False
        assert not gate.ok

    def test_enforce_false_records_without_raising(self):
        gate = MemoryBudget(enforce=False)
        with gate.phase("alloc", budget_bytes=1_000_000):
            buf = np.ones(500_000)
        del buf
        assert gate.phases[0].within is False
        assert not gate.ok

    def test_unbudgeted_phase_is_observational(self):
        gate = MemoryBudget()
        with gate.phase("free"):
            buf = np.ones(100_000)
        del buf
        assert gate.phases[0].within is None
        assert gate.ok

    def test_body_exception_propagates_without_usage(self):
        gate = MemoryBudget()
        with pytest.raises(RuntimeError, match="boom"):
            with gate.phase("broken", budget_bytes=2**30):
                raise RuntimeError("boom")
        assert gate.phases == []
        import tracemalloc

        assert not tracemalloc.is_tracing()

    def test_measure_returns_result_and_usage(self):
        gate = MemoryBudget()
        result, usage = gate.measure(
            "work", lambda: 41 + 1, budget_bytes=2**30
        )
        assert result == 42
        assert usage.within is True

    def test_assert_within_regates_post_hoc(self):
        gate = MemoryBudget()
        with gate.phase("alloc"):
            buf = np.ones(500_000)
        del buf
        with pytest.raises(MemoryBudgetExceeded):
            gate.assert_within("alloc", 1_000_000)
        assert gate.phases[0].within is False
        with pytest.raises(KeyError):
            gate.assert_within("never-ran", 2**30)

    def test_report_and_to_dict(self):
        gate = MemoryBudget()
        with gate.phase("a", budget_bytes=2**30):
            pass
        with gate.phase("b"):
            pass
        data = gate.to_dict()
        assert [p["name"] for p in data["phases"]] == ["a", "b"]
        assert data["ok"] is True
        text = gate.report()
        assert "a" in text and "b" in text

    def test_leaves_tracemalloc_stopped_when_owned(self):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        gate = MemoryBudget()
        with gate.phase("x", budget_bytes=2**30):
            pass
        assert not tracemalloc.is_tracing()


class TestPruneBenchRuns:
    def _write_run(self, tmp_path, run_id, names, created):
        recorder = BenchRecorder(scale="quick", run_id=run_id)
        for name in names:
            recorder.add(_record(name, [0.1]))
        path = recorder.write_run(tmp_path)
        data = json.loads(path.read_text())
        data["created_unix"] = created
        path.write_text(json.dumps(data))
        return path

    def test_keeps_newest_per_benchmark(self, tmp_path):
        paths = [
            self._write_run(tmp_path, f"r{i}", ["a"], created=1000 + i)
            for i in range(5)
        ]
        deleted = prune_bench_runs(tmp_path, keep=3)
        # the two oldest runs of "a" are fully superseded
        assert sorted(p.name for p in deleted) == ["BENCH_r0.json", "BENCH_r1.json"]
        for path in paths[2:]:
            assert path.exists()

    def test_unique_benchmark_protects_old_run(self, tmp_path):
        old = self._write_run(tmp_path, "old", ["rare"], created=1)
        for i in range(4):
            self._write_run(tmp_path, f"new{i}", ["common"], created=100 + i)
        deleted = prune_bench_runs(tmp_path, keep=3)
        assert old.exists()  # "rare" has no newer twin
        assert [p.name for p in deleted] == ["BENCH_new0.json"]

    def test_unreadable_files_are_left_alone(self, tmp_path):
        junk = tmp_path / "BENCH_junk.json"
        junk.write_text("{not json")
        assert prune_bench_runs(tmp_path, keep=1) == []
        assert junk.exists()

    def test_keep_zero_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            prune_bench_runs(tmp_path, keep=0)
