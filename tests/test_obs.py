"""Tests for the repro.obs telemetry stack.

Covers span nesting and attribute propagation, metrics-registry
isolation, exporter round-trips, the numeric health probes, the solver
wiring (SolveInfo threading into FitResult), and a guard asserting the
disabled no-op path stays within the overhead budget.
"""

import json
import sys
import time

import numpy as np
import pytest

from repro import obs
from repro.core.hard import solve_hard_criterion
from repro.core.soft import solve_soft_criterion
from repro.datasets.synthetic import make_synthetic_dataset
from repro.graph.similarity import full_kernel_graph
from repro.kernels.bandwidth import paper_bandwidth_rule
from repro.linalg.solvers import SolveInfo, solve_spd
from repro.obs.export import (
    InMemoryExporter,
    load_header,
    load_jsonl,
    render_trace_report,
    write_jsonl,
)
from repro.obs.ledger import render_span_tree
from repro.obs.probes import condition_estimate, graph_stats


@pytest.fixture()
def problem():
    data = make_synthetic_dataset(40, 20, seed=0)
    bandwidth = paper_bandwidth_rule(40, data.x_labeled.shape[1])
    weights = full_kernel_graph(data.x_all, bandwidth=bandwidth).dense_weights()
    return data, weights


class TestSpans:
    def test_default_tracer_is_noop(self):
        assert not obs.tracing_enabled()
        span = obs.span("anything", key="value")
        assert not span.recording
        with span as inner:
            inner.set_attribute("ignored", 1)
        assert span.attributes == {}

    def test_nesting_builds_a_tree(self):
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            with obs.span("outer", level=0):
                with obs.span("inner-a", level=1):
                    with obs.span("leaf", level=2):
                        pass
                with obs.span("inner-b", level=1):
                    pass
            with obs.span("second-root"):
                pass
        assert [root.name for root in tracer.roots] == ["outer", "second-root"]
        outer = tracer.roots[0]
        assert [child.name for child in outer.children] == ["inner-a", "inner-b"]
        leaf = outer.children[0].children[0]
        assert leaf.depth == 2
        assert leaf.parent_id == outer.children[0].span_id
        assert [s.name for s in tracer.iter_spans()] == [
            "outer", "inner-a", "leaf", "inner-b", "second-root",
        ]

    def test_attributes_and_durations(self):
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            with obs.span("work", size=7) as span:
                span.set_attribute("late", True)
                time.sleep(0.001)
        (root,) = tracer.roots
        assert root.attributes == {"size": 7, "late": True}
        assert root.duration is not None and root.duration > 0

    def test_exception_recorded_and_tracer_restored(self):
        tracer = obs.RecordingTracer()
        with pytest.raises(RuntimeError):
            with obs.use_tracer(tracer):
                with obs.span("doomed"):
                    raise RuntimeError("boom")
        assert not obs.tracing_enabled()
        assert tracer.roots[0].attributes["error"] == "RuntimeError"
        assert tracer.roots[0].duration is not None

    def test_use_tracer_restores_previous(self):
        first = obs.RecordingTracer()
        second = obs.RecordingTracer()
        with obs.use_tracer(first):
            with obs.use_tracer(second):
                assert obs.get_tracer() is second
            assert obs.get_tracer() is first


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = obs.MetricsRegistry()
        registry.counter("events").inc()
        registry.counter("events").inc(2)
        registry.gauge("size").set(42)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.log_histogram("latency").observe(value)
        snap = registry.snapshot()
        assert snap["events"]["value"] == 3.0
        assert snap["size"]["value"] == 42.0
        assert snap["latency"]["count"] == 4
        assert snap["latency"]["mean"] == pytest.approx(2.5)
        assert snap["latency"]["min"] == 1.0
        assert snap["latency"]["max"] == 4.0

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            obs.MetricsRegistry().counter("c").inc(-1)

    def test_name_bound_to_one_kind(self):
        registry = obs.MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_histogram_sample_cap_keeps_exact_aggregates(self, monkeypatch):
        """Scalar observes queue for deferred bucketing; the queue is
        folded in at ``PENDING_LIMIT`` values, so it never grows past
        the cap, and the aggregates stay exact throughout."""
        from repro.obs.metrics import LogBucketHistogram

        monkeypatch.setattr(LogBucketHistogram, "PENDING_LIMIT", 10)
        hist = LogBucketHistogram("h")
        for value in range(100):
            hist.observe(float(value))
            assert hist._n_pending < 10
        assert hist.count == 100
        assert hist.zero_count == 1  # the 0.0 observation
        assert hist.min == 0.0 and hist.max == 99.0
        assert hist.mean == pytest.approx(49.5)
        assert sum(hist.buckets.values()) == 99

    def test_merge_preserves_quantiles_approximately(self):
        from repro.obs.metrics import LogBucketHistogram

        rng = np.random.default_rng(0)
        left = LogBucketHistogram("q")
        right = LogBucketHistogram("q")
        a = rng.exponential(size=450)
        b = rng.exponential(size=450)
        for value in a:
            left.observe(float(value))
        for value in b:
            right.observe(float(value))
        left.merge_state(right.to_state())
        pooled = np.sort(np.concatenate([a, b]))
        exact_p50 = pooled[int(np.ceil(0.5 * pooled.size)) - 1]
        assert left.count == 900
        assert left.snapshot()["p50"] == pytest.approx(
            exact_p50, rel=left.relative_error
        )

    def test_use_registry_isolates_tests(self):
        default = obs.get_registry()
        with obs.use_registry() as registry:
            assert obs.get_registry() is registry
            obs.get_registry().counter("isolated").inc()
            assert "isolated" in registry
        assert obs.get_registry() is default
        assert "isolated" not in default


class TestExporters:
    def _record_trace(self):
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            with obs.span("parent", n=3):
                with obs.span("child", residual=1e-9):
                    pass
        return tracer

    def test_jsonl_round_trip(self, tmp_path):
        tracer = self._record_trace()
        path = write_jsonl(tracer, tmp_path / "trace.jsonl")
        loaded = load_jsonl(path)
        assert [r["name"] for r in loaded] == ["parent", "child"]
        assert loaded[0]["parent_id"] is None
        assert loaded[1]["parent_id"] == loaded[0]["span_id"]
        assert loaded[1]["depth"] == 1
        assert loaded[0]["attributes"] == {"n": 3}
        assert loaded[1]["attributes"]["residual"] == pytest.approx(1e-9)
        for record in loaded:
            assert record["duration_s"] >= 0

    def test_jsonl_coerces_numpy_scalars(self, tmp_path):
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            with obs.span("np", count=np.int64(3), value=np.float64(0.5)):
                pass
        loaded = load_jsonl(write_jsonl(tracer, tmp_path / "np.jsonl"))
        assert loaded[0]["attributes"] == {"count": 3, "value": 0.5}
        # and the file is plain JSON, line by line
        for line in (tmp_path / "np.jsonl").read_text().splitlines():
            json.loads(line)

    def test_in_memory_exporter(self):
        exporter = InMemoryExporter()
        exporter.export(self._record_trace())
        assert exporter.names() == ["parent", "child"]
        assert exporter.find("child")[0]["attributes"]["residual"] == pytest.approx(1e-9)
        exporter.clear()
        assert exporter.records == []

    def test_render_report_and_tree(self):
        tracer = self._record_trace()
        report = render_trace_report(tracer)
        assert "parent" in report and "child" in report
        assert "span" in report and "mean_s" in report
        header, _, parent, child = render_span_tree(tracer).splitlines()
        assert header.split()[:2] == ["span", "duration_s"]
        assert parent.split()[0] == "parent"
        assert child.index("child") == parent.index("parent") + 2

    def test_render_report_empty(self):
        assert "empty trace" in render_trace_report([])

    def test_jsonl_header_carries_environment(self, tmp_path):
        path = write_jsonl(self._record_trace(), tmp_path / "trace.jsonl")
        header = load_header(path)
        assert header is not None
        assert header["type"] == "header"
        assert header["schema"] == "repro.trace/v1"
        env = header["environment"]
        assert env["schema"] == "repro.env/v1"
        for key in ("python", "numpy", "scipy", "platform", "cpu_count"):
            assert key in env
        # load_jsonl must skip the header and return spans only
        assert [r["name"] for r in load_jsonl(path)] == ["parent", "child"]

    def test_load_jsonl_tolerates_headerless_files(self, tmp_path):
        # Traces written before the header existed must keep loading.
        path = write_jsonl(self._record_trace(), tmp_path / "old.jsonl", header=False)
        assert load_header(path) is None
        assert [r["name"] for r in load_jsonl(path)] == ["parent", "child"]

    def test_render_report_skips_header_records(self, tmp_path):
        path = write_jsonl(self._record_trace(), tmp_path / "trace.jsonl")
        report = render_trace_report(load_jsonl(path))
        assert "parent" in report and "child" in report


class TestDurableWrites:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        from repro.obs.export import atomic_write_text

        path = atomic_write_text(tmp_path / "out.json", '{"a": 1}\n')
        assert path.read_text() == '{"a": 1}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_jsonl_sink_records_readable_before_close(self, tmp_path):
        from repro.obs.export import JsonlSink

        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"type": "start"})
            sink.write({"type": "end"})
            # durable before close: each write flushed + fsynced
            lines = path.read_text().splitlines()
            assert [json.loads(line)["type"] for line in lines] == ["start", "end"]

    def test_load_jsonl_skips_trailing_partial_line(self, tmp_path):
        from repro.obs.export import PartialArtifactWarning

        path = write_jsonl(self._record_trace(), tmp_path / "trace.jsonl")
        # simulate a process killed mid-write: truncate the last line
        text = path.read_text()
        path.write_text(text[: len(text) - 20])
        with pytest.warns(PartialArtifactWarning, match="partial"):
            records = load_jsonl(path)
        assert [r["name"] for r in records] == ["parent"]

    def test_load_jsonl_still_raises_on_mid_file_corruption(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "a"}\nnot json\n{"name": "b"}\n')
        with pytest.raises(json.JSONDecodeError):
            load_jsonl(path)

    def _record_trace(self):
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            with obs.span("parent", n=3):
                with obs.span("child", residual=1e-9):
                    pass
        return tracer


class TestMemorySpans:
    def test_disabled_tracking_never_touches_tracemalloc(self):
        # Neither the no-op path nor a plain RecordingTracer may import
        # (let alone start) tracemalloc: the opt-out path must stay free.
        saved = sys.modules.pop("tracemalloc", None)
        try:
            with obs.span("noop"):
                pass
            tracer = obs.RecordingTracer()
            with obs.use_tracer(tracer):
                with obs.span("work", n=3):
                    pass
            tracer.close()
            assert "tracemalloc" not in sys.modules
        finally:
            if saved is not None:
                sys.modules["tracemalloc"] = saved
        assert "memory.peak_bytes" not in tracer.roots[0].attributes

    def test_memory_attributes_recorded_when_opted_in(self):
        import tracemalloc

        tracer = obs.RecordingTracer(track_memory=True)
        try:
            assert tracemalloc.is_tracing()
            with obs.use_tracer(tracer):
                with obs.span("alloc"):
                    block = np.ones(250_000)  # ~2 MB
                    del block
        finally:
            tracer.close()
        assert not tracemalloc.is_tracing()
        (root,) = tracer.roots
        assert root.attributes["memory.peak_bytes"] >= 1_900_000
        # the allocation was freed inside the span
        assert root.attributes["memory.net_bytes"] < 500_000

    def test_nested_peaks_are_attributed_per_span(self):
        tracer = obs.RecordingTracer(track_memory=True)
        try:
            with obs.use_tracer(tracer):
                with obs.span("outer"):
                    own = np.ones(1_000_000)  # ~8 MB held across the child
                    with obs.span("inner"):
                        tmp = np.ones(250_000)  # ~2 MB transient
                        del tmp
                    del own
        finally:
            tracer.close()
        (outer,) = tracer.roots
        (inner,) = outer.children
        # inner's peak covers only its own transient, not outer's 8 MB
        assert 1_900_000 <= inner.attributes["memory.peak_bytes"] <= 5_000_000
        # outer's peak includes its own allocation
        assert outer.attributes["memory.peak_bytes"] >= 7_500_000

    def test_close_is_idempotent_and_leaves_foreign_tracing_alone(self):
        import tracemalloc

        tracer = obs.RecordingTracer(track_memory=True)
        tracer.close()
        tracer.close()
        assert not tracemalloc.is_tracing()

        tracemalloc.start()
        try:
            nested = obs.RecordingTracer(track_memory=True)
            nested.close()
            # it did not own the trace, so it must not stop it
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()


class TestProbes:
    def test_condition_exact_on_small_spd(self):
        diag = np.diag([1.0, 10.0, 100.0])
        estimate, how = condition_estimate(diag)
        assert how == "exact"
        assert estimate == pytest.approx(100.0, rel=1e-8)

    def test_condition_power_iteration_on_large_spd(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(1.0, 50.0, size=600)
        matrix = np.diag(values)
        estimate, how = condition_estimate(matrix)
        assert how == "power_iteration"
        true_cond = values.max() / values.min()
        # power iteration on a clustered spectrum is only an
        # order-of-magnitude estimate — that is all regime diagnostics need
        assert true_cond / 5 < estimate < true_cond * 5

    def test_graph_stats(self):
        weights = np.array(
            [
                [1.0, 0.5, 0.0, 0.0],
                [0.5, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.2],
                [0.0, 0.0, 0.2, 1.0],
            ]
        )
        stats = graph_stats(weights, n_labeled=2)
        assert stats["n_vertices"] == 4
        assert stats["n_components"] == 2
        assert stats["degree_min"] == pytest.approx(1.2)
        assert stats["degree_max"] == pytest.approx(1.5)
        assert stats["isolated_vertices"] == 0
        assert stats["labeled_mass_min"] == 0.0  # unlabeled block unreachable

    def test_probes_are_noops_on_noop_span(self, problem):
        from repro.obs import probes

        data, weights = problem
        span = obs.span("noop")
        # must not raise and must not compute anything observable
        probes.record_graph_stats(span, weights, data.y_labeled.shape[0])
        probes.record_spd_system(span, weights)
        probes.record_solve_info(span, None)
        assert span.attributes == {}


class TestSolverWiring:
    def test_cg_solve_info_threaded_into_fit_result(self, problem):
        data, weights = problem
        fit = solve_hard_criterion(weights, data.y_labeled, method="cg")
        info = fit.solve_info
        assert info is not None
        assert info.method == "cg"
        assert info.converged
        assert info.iterations > 0
        assert info.final_residual < 1e-6
        assert info.size == fit.n_unlabeled

    def test_direct_solve_info(self, problem):
        data, weights = problem
        fit = solve_hard_criterion(weights, data.y_labeled, method="direct")
        assert fit.solve_info.method in ("cholesky", "lu")
        assert fit.solve_info.iterations == 0
        assert fit.solve_info.converged

    def test_soft_schur_and_full_carry_solve_info(self, problem):
        data, weights = problem
        schur = solve_soft_criterion(weights, data.y_labeled, 0.1, method="schur")
        assert schur.solve_info.method == "lu"
        assert schur.solve_info.size == schur.n_unlabeled
        full = solve_soft_criterion(weights, data.y_labeled, 0.1, method="full")
        assert full.solve_info.method in ("cholesky", "lu")
        assert full.solve_info.size == weights.shape[0]
        at_zero = solve_soft_criterion(weights, data.y_labeled, 0.0, solver="cg")
        assert at_zero.solve_info.method == "cg"
        assert at_zero.solve_info.iterations > 0

    def test_solve_spd_return_info_flag(self):
        a = np.diag([2.0, 3.0, 4.0])
        b = np.ones(3)
        plain = solve_spd(a, b, method="cg")
        assert isinstance(plain, np.ndarray)
        x, info = solve_spd(a, b, method="cg", return_info=True)
        np.testing.assert_allclose(x, plain)
        assert isinstance(info, SolveInfo)
        assert info.converged and info.iterations >= 1

    def test_traced_solve_records_health_attributes(self, problem):
        data, weights = problem
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            solve_hard_criterion(weights, data.y_labeled, method="cg")
        names = [s.name for s in tracer.iter_spans()]
        assert "repro.solve_hard" in names and "repro.linalg.cg" in names
        (hard,) = [s for s in tracer.iter_spans() if s.name == "repro.solve_hard"]
        attrs = hard.attributes
        assert attrs["solver.iterations"] > 0
        assert attrs["solver.converged"] is True
        assert attrs["system.condition_estimate"] > 1.0
        assert attrs["graph.degree_min"] > 0
        assert attrs["graph.n_components"] == 1

    def test_replicate_spans_in_runner(self):
        from repro.experiments.runner import run_replicates

        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            run_replicates(
                lambda rng: {"value": float(rng.normal())},
                n_replicates=3,
                seed=0,
            )
        replicates = [s for s in tracer.iter_spans() if s.name == "repro.replicate"]
        assert [s.attributes["index"] for s in replicates] == [0, 1, 2]
        assert all("metric.value" in s.attributes for s in replicates)


class TestStopwatchIntegration:
    def test_stopwatch_emits_spans_when_tracing(self):
        from repro.utils.timing import Stopwatch

        watch = Stopwatch()
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer):
            with watch.measure("solve"):
                pass
        assert watch.count("solve") == 1
        assert [s.name for s in tracer.iter_spans()] == ["stopwatch.solve"]

    def test_fit_power_law_filters_zero_timings(self):
        from repro.utils.timing import fit_power_law

        sizes = [10.0, 20.0, 40.0, 80.0]
        times = [0.0, 2.0 * 20.0**3, 2.0 * 40.0**3, 2.0 * 80.0**3]
        with pytest.warns(RuntimeWarning, match="non-positive timing"):
            a, b = fit_power_law(sizes, times)
        assert b == pytest.approx(3.0, abs=1e-9)
        assert a == pytest.approx(2.0, rel=1e-9)

    def test_fit_power_law_still_rejects_too_few_survivors(self):
        from repro.utils.timing import fit_power_law

        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError):
                fit_power_law([1.0, 2.0], [0.0, 1.0])


class TestNoopOverheadGuard:
    def test_noop_span_overhead_under_budget(self, problem):
        """Disabled tracing must add <5% to a small solve_hard_criterion.

        Replays the exact telemetry sequence a direct hard solve executes
        (span open/close, tracing-enabled check, SolveInfo construction,
        probe no-op, two metric updates) and compares its per-call cost
        against the per-solve wall clock.

        Each round times 10 solves and then 2000 telemetry sequences back
        to back, so both see the same host load, and the test reads the
        median of the per-round ratios, so a round that a load spike or a
        histogram drain slowed cannot decide it.  On a 2-CPU host under a
        toggling background load, minima taken over two separate timing
        windows read 2.0-6.0%; these medians read 3.1-4.0%.  Each solve
        round follows one untimed solve, so the telemetry loop before it
        does not slow the solves.
        """
        from repro.obs import probes

        data, weights = problem
        assert not obs.tracing_enabled()

        def per_repeat(fn, repeats):
            start = time.perf_counter()
            for _ in range(repeats):
                fn()
            return (time.perf_counter() - start) / repeats

        solve = lambda: solve_hard_criterion(  # noqa: E731
            weights, data.y_labeled, method="direct", check_reachability=False
        )

        def telemetry_sequence():
            with obs.span("repro.solve_hard", n=40, m=20, method="direct") as span:
                obs.tracing_enabled()
                info = SolveInfo(method="cholesky", size=20)
                probes.record_solve_info(span, info)
                registry = obs.get_registry()
                registry.counter("solves.hard").inc()
                registry.log_histogram("solves.hard.system_size").observe(20)

        rounds = []
        for _ in range(15):
            solve()
            per_solve = per_repeat(solve, 10)
            rounds.append((per_repeat(telemetry_sequence, 2000) / per_solve, per_solve))
        ratio, per_solve = sorted(rounds)[len(rounds) // 2]
        assert ratio < 0.05, (
            f"noop telemetry overhead {ratio * per_solve * 1e6:.2f}us exceeds 5% "
            f"of per-solve time {per_solve * 1e6:.1f}us (median of "
            f"{len(rounds)} rounds)"
        )
