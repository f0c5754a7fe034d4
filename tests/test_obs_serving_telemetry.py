"""Serving telemetry: log-bucket histograms, drift watchdog, server wiring.

The acceptance path for PR 8's tentpole: per-request latency/queue-wait
series recorded by :class:`~repro.serving.server.ModelServer`, phase
timings and the query-drift watchdog recorded by
:class:`~repro.serving.model.GraphSSLModel`, error-path ticket
resolution, and the ``serving.*`` metric surface the SLO gate and the
``obs top`` dashboard read.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.exceptions import ConfigurationError
from repro.obs.metrics import LogBucketHistogram, MetricsRegistry
from repro.obs.probes import record_serving_stats
from repro.obs.serving_telemetry import (
    DriftWatchdog,
    ServingTelemetry,
    fit_drift_baseline,
)
from repro.serving import GraphSSLModel, ModelServer
from repro.datasets.synthetic import make_regression_dataset, truncated_mvn_inputs


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(11)
    data = make_regression_dataset(30, 90, seed=rng)
    model = GraphSSLModel(graph="full")
    model.fit(data.x_labeled, data.y_labeled, data.x_unlabeled)
    queries = truncated_mvn_inputs(24, seed=rng)
    return model, queries


class TestLogBucketHistogram:
    def test_quantiles_within_relative_error(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=-6.0, sigma=1.5, size=20_000)
        hist = LogBucketHistogram("lat")
        hist.observe_many(values)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = float(np.quantile(values, q))
            approx = hist.quantile(q)
            assert abs(approx - exact) <= hist.relative_error * exact * 1.5

    def test_observe_and_observe_many_agree(self):
        values = [0.001, 0.01, 0.1, 1.0, 0.0, -3.0]
        one = LogBucketHistogram("a")
        many = LogBucketHistogram("b")
        for v in values:
            one.observe(v)
        many.observe_many(np.asarray(values))
        assert one.buckets == many.buckets
        assert one.zero_count == many.zero_count == 2
        assert one.count == many.count == 6

    def test_merge_is_exact(self):
        rng = np.random.default_rng(1)
        left, right = LogBucketHistogram("x"), LogBucketHistogram("x")
        a, b = rng.exponential(size=500), rng.exponential(size=300)
        left.observe_many(a)
        right.observe_many(b)
        both = LogBucketHistogram("x")
        both.observe_many(np.concatenate([a, b]))
        left.merge_state(right.to_state())
        assert left.count == both.count
        assert left.buckets == both.buckets
        assert left.total == pytest.approx(both.total)
        assert left.min == pytest.approx(both.min)
        assert left.max == pytest.approx(both.max)

    def test_merge_rejects_mismatched_resolution(self):
        coarse = LogBucketHistogram("x", relative_error=0.1)
        fine = LogBucketHistogram("x", relative_error=0.01)
        with pytest.raises(ValueError, match="relative_error"):
            coarse.merge_state(fine.to_state())

    def test_registry_round_trip(self):
        registry = MetricsRegistry()
        registry.log_histogram("serving.lat").observe_many(
            np.random.default_rng(2).exponential(size=100)
        )
        other = MetricsRegistry()
        other.merge_state(registry.to_state())
        assert other.snapshot()["serving.lat"] == registry.snapshot()["serving.lat"]

    def test_snapshot_quantile_keys(self):
        hist = LogBucketHistogram("h")
        hist.observe_many(np.linspace(0.001, 1.0, 200))
        snap = hist.snapshot()
        for key in ("count", "p50", "p90", "p95", "p99", "relative_error"):
            assert key in snap
        assert snap["p50"] <= snap["p95"] <= snap["p99"]

    def test_invalid_relative_error(self):
        with pytest.raises(ValueError):
            LogBucketHistogram("h", relative_error=0.0)
        with pytest.raises(ValueError):
            LogBucketHistogram("h", relative_error=1.0)


class TestDriftWatchdog:
    def test_in_band_degrees_mostly_unflagged(self):
        rng = np.random.default_rng(3)
        fit_degrees = rng.normal(10.0, 1.0, size=2_000)
        baseline = fit_drift_baseline(fit_degrees)
        watchdog = DriftWatchdog(baseline)
        with obs.use_registry(MetricsRegistry()):
            watchdog.observe(rng.normal(10.0, 1.0, size=500))
        # the band keeps ~95% of same-distribution mass by construction
        assert watchdog.flag_fraction < 0.15

    def test_shifted_density_batch_flagged(self):
        """The acceptance criterion: a held-out shifted-density batch."""
        rng = np.random.default_rng(4)
        baseline = fit_drift_baseline(rng.normal(10.0, 1.0, size=2_000))
        watchdog = DriftWatchdog(baseline)
        registry = MetricsRegistry()
        with obs.use_registry(registry):
            n = watchdog.observe(rng.normal(4.0, 1.0, size=200))
        assert n > 100
        assert watchdog.flag_fraction > 0.5
        snap = registry.snapshot()
        assert snap["serving.drift.flagged"]["value"] == n
        assert snap["serving.drift.observed"]["value"] == 200
        assert snap["serving.drift.degree_low"]["value"] > 100
        assert snap["serving.drift.flag_fraction"]["value"] == pytest.approx(
            watchdog.flag_fraction
        )

    def test_empty_degrees_rejected(self):
        with pytest.raises(ValueError):
            fit_drift_baseline(np.array([]))


class TestServingTelemetryRecorder:
    def test_records_request_series(self):
        registry = MetricsRegistry()
        telemetry = ServingTelemetry(registry=registry)
        telemetry.record_requests(
            "nw",
            3,
            latencies_s=np.array([0.001, 0.002, 0.004]),
            queue_waits_s=np.array([0.0005, 0.0006, 0.0007]),
        )
        telemetry.record_errors("nw", 2)
        telemetry.record_phase("extract", 0.01)
        telemetry.record_flush("full")
        telemetry.record_throughput(1234.5)
        snap = registry.snapshot()
        assert snap["serving.request.count.nw"]["value"] == 5
        assert snap["serving.request.outcome.ok"]["value"] == 3
        assert snap["serving.request.outcome.error"]["value"] == 2
        assert snap["serving.request.latency_s"]["count"] == 3
        assert snap["serving.request.queue_wait_s"]["count"] == 3
        assert snap["serving.phase.extract_s"]["count"] == 1
        assert snap["serving.server.flush.full"]["value"] == 1
        assert snap["serving.request.throughput_qps"]["value"] == 1234.5

    def test_disabled_recorder_is_silent(self):
        registry = MetricsRegistry()
        telemetry = ServingTelemetry(enabled=False, registry=registry)
        telemetry.record_requests("nw", 3, latencies_s=np.array([0.001]))
        telemetry.record_errors("nw", 1)
        telemetry.record_phase("extract", 0.01)
        telemetry.record_flush("manual")
        telemetry.record_throughput(10.0)
        assert registry.snapshot() == {}


class TestModelPhasesAndDrift:
    def test_fit_builds_drift_baseline(self, fitted):
        model, _ = fitted
        assert model.drift_baseline_ is not None
        assert model.drift_watchdog_ is not None
        assert model.drift_baseline_.degree_lo < model.drift_baseline_.degree_hi

    def test_predict_batch_records_phases_and_drift(self, fitted):
        model, queries = fitted
        registry = MetricsRegistry()
        with obs.use_registry(registry):
            model.predict_batch(queries, method="nw")
        snap = registry.snapshot()
        assert snap["serving.phase.extract_s"]["count"] >= 1
        assert snap["serving.phase.predict_s"]["count"] >= 1
        assert snap["serving.drift.observed"]["value"] == len(queries)

    def test_interval_phase_recorded(self, fitted):
        model, queries = fitted
        registry = MetricsRegistry()
        with obs.use_registry(registry):
            model.predict(queries[:4], method="nw", return_interval=True)
        assert registry.snapshot()["serving.phase.interval_s"]["count"] >= 1

    def test_shifted_queries_flag_drift_through_model(self, fitted):
        """End-to-end: off-distribution queries raise the flag fraction."""
        model, queries = fitted
        registry = MetricsRegistry()
        with obs.use_registry(registry):
            model.predict_batch(queries + 8.0, method="nw")
        snap = registry.snapshot()
        # per-batch fraction from the fresh registry's counters — the
        # module-scoped model's watchdog accumulates across tests, so its
        # lifetime flag_fraction is not what this batch alone produced
        flagged = snap["serving.drift.flagged"]["value"]
        observed = snap["serving.drift.observed"]["value"]
        assert observed == len(queries)
        assert flagged / observed > 0.5

    def test_telemetry_off_records_no_phases(self, fitted):
        _, queries = fitted
        rng = np.random.default_rng(12)
        data = make_regression_dataset(20, 60, seed=rng)
        model = GraphSSLModel(graph="full", telemetry=False)
        model.fit(data.x_labeled, data.y_labeled, data.x_unlabeled)
        registry = MetricsRegistry()
        with obs.use_registry(registry):
            model.predict_batch(queries, method="nw")
        snap = registry.snapshot()
        assert not any(name.startswith("serving.phase.") for name in snap)
        assert not any(name.startswith("serving.drift.") for name in snap)


class TestModelServerTelemetry:
    def test_request_latency_and_queue_wait(self, fitted):
        model, queries = fitted
        registry = MetricsRegistry()
        server = ModelServer(model, max_batch_size=8)
        with obs.use_registry(registry):
            tickets = [server.submit(q) for q in queries]
            server.flush()
            values = [t.result() for t in tickets]
        assert len(values) == len(queries)
        snap = registry.snapshot()
        assert snap["serving.request.latency_s"]["count"] == len(queries)
        assert snap["serving.request.queue_wait_s"]["count"] == len(queries)
        assert snap["serving.request.count.nw"]["value"] == len(queries)
        assert snap["serving.request.outcome.ok"]["value"] == len(queries)
        assert snap["serving.request.throughput_qps"]["value"] > 0
        # latency includes queue wait, so quantiles must dominate
        assert (
            snap["serving.request.latency_s"]["p50"]
            >= snap["serving.request.queue_wait_s"]["p50"]
        )

    def test_flush_reason_counters(self, fitted):
        model, queries = fitted
        server = ModelServer(model, max_batch_size=4)
        for q in queries[:4]:
            server.submit(q)  # 4th submit auto-flushes
        server.submit(queries[4])
        server.flush()  # manual
        ticket = server.submit(queries[5])
        ticket.result()  # lazy
        stats = server.stats()
        assert stats.full_batches == 1
        assert stats.manual_flushes == 1
        assert stats.lazy_flushes == 1
        assert stats.flushes == 3
        assert stats.errors == 0
        assert stats.pending == 0

    def test_failed_flush_resolves_tickets_with_error(self, fitted, monkeypatch):
        model, queries = fitted
        server = ModelServer(model, max_batch_size=8)
        registry = MetricsRegistry()
        tickets = [server.submit(q) for q in queries[:3]]

        def boom(*args, **kwargs):
            raise ConfigurationError("poisoned batch")

        monkeypatch.setattr(model, "predict_batch", boom)
        with obs.use_registry(registry):
            with pytest.raises(ConfigurationError, match="poisoned"):
                server.flush()
        for ticket in tickets:
            assert ticket.done
            with pytest.raises(ConfigurationError, match="poisoned"):
                ticket.result()
        stats = server.stats()
        assert stats.errors == 3
        assert stats.answered == 0
        assert stats.pending == 0
        snap = registry.snapshot()
        assert snap["serving.request.outcome.error"]["value"] == 3
        assert "serving.request.outcome.ok" not in snap

    def test_telemetry_mode_validated(self, fitted):
        model, _ = fitted
        with pytest.raises(ConfigurationError, match="telemetry"):
            ModelServer(model, telemetry="loud")

    def test_off_mode_skips_request_series(self, fitted):
        model, queries = fitted
        registry = MetricsRegistry()
        server = ModelServer(model, max_batch_size=8, telemetry="off")
        with obs.use_registry(registry):
            tickets = [server.submit(q) for q in queries[:4]]
            server.flush()
            [t.result() for t in tickets]
        snap = registry.snapshot()
        assert not any(name.startswith("serving.request.") for name in snap)


class TestServerStatsExport:
    def test_record_serving_stats_exports_errors_and_flushes(self, fitted):
        model, queries = fitted
        server = ModelServer(model, max_batch_size=4)
        for q in queries[:4]:
            server.submit(q)
        tracer = obs.RecordingTracer()
        registry = MetricsRegistry()
        with obs.use_tracer(tracer), obs.use_registry(registry):
            with obs.span("stats") as span:
                record_serving_stats(span, server.stats())
        record = tracer.to_records()[-1]
        for key in ("serving.errors", "serving.flushes", "serving.full_batches"):
            assert key in record["attributes"]
        assert record["attributes"]["serving.errors"] == 0
        assert record["attributes"]["serving.pending"] == 0
