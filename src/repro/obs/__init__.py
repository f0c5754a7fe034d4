"""Observability stack: span tracing, metrics, health probes, exporters.

Layered so each piece is independently usable:

* :mod:`repro.obs.trace` — nestable context-manager spans collected into
  an in-memory trace tree; a no-op tracer is the default, so leaving
  instrumentation in hot paths is near-free.
* :mod:`repro.obs.metrics` — counters / gauges / log-bucket histograms
  with a global default registry plus injectable instances for tests.
* :mod:`repro.obs.probes` — cheap numeric health probes (condition
  estimates, graph degree/component statistics, CG iteration counts,
  Schur block sizes) that attach to recording spans.
* :mod:`repro.obs.export` — JSONL files (with provenance headers),
  aligned-table reports, and an in-memory exporter for assertions.
* :mod:`repro.obs.environment` — the environment fingerprint every
  provenance-carrying artifact (trace header, bench record, metrics
  dump) embeds.
* :mod:`repro.obs.bench` — structured benchmark capture
  (:class:`~repro.obs.bench.BenchRecorder`), bench trajectories and
  the per-phase memory budget.
* :mod:`repro.obs.progress` — live progress telemetry: heartbeat and
  per-replicate-completion events streamed to stderr and/or an fsynced
  JSONL sink while experiments run.
* :mod:`repro.obs.ledger` — the SQLite run ledger ingesting every
  provenance-carrying artifact into one queryable history (``repro obs``
  CLI family).
* :mod:`repro.obs.trend` — multi-run history series and the one
  regression rule behind ``repro bench-compare`` and ``repro obs trend``,
  which judges each benchmark within one environment.
* :mod:`repro.obs.serving_telemetry` — per-request serving telemetry:
  vectorized latency recording and the query-drift watchdog.
* :mod:`repro.obs.slo` — declarative service-level objectives evaluated
  against metrics dumps or ledger runs (``repro obs slo``).
* :mod:`repro.obs.openmetrics` — OpenMetrics/Prometheus text exposition
  (``repro obs export-metrics``) plus a validating parser.
* :mod:`repro.obs.dashboard` — the live ``repro obs top`` terminal view
  over a running run's progress/metrics files.

Typical use::

    from repro import obs

    tracer = obs.RecordingTracer()
    with obs.use_tracer(tracer):
        solve_hard_criterion(weights, y, method="cg")
    print(obs.export.render_trace_report(tracer))
"""

from repro.obs import (
    bench,
    dashboard,
    export,
    openmetrics,
    probes,
    progress,
    serving_telemetry,
    slo,
    trend,
)
from repro.obs.environment import environment_fingerprint, fingerprint_digest
from repro.obs.ledger import RunLedger
from repro.obs.serving_telemetry import (
    DriftBaseline,
    DriftWatchdog,
    ServingTelemetry,
    fit_drift_baseline,
)
from repro.obs.progress import (
    NullProgress,
    ProgressEmitter,
    get_progress,
    progress_enabled,
    set_progress,
    use_progress,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    LogBucketHistogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.trace import (
    NoopSpan,
    NoopTracer,
    RecordingTracer,
    Span,
    get_tracer,
    set_tracer,
    span,
    tracing_enabled,
    use_tracer,
)

__all__ = [
    "bench",
    "dashboard",
    "export",
    "openmetrics",
    "probes",
    "progress",
    "serving_telemetry",
    "slo",
    "trend",
    "environment_fingerprint",
    "fingerprint_digest",
    "RunLedger",
    "ServingTelemetry",
    "DriftBaseline",
    "DriftWatchdog",
    "fit_drift_baseline",
    "ProgressEmitter",
    "NullProgress",
    "get_progress",
    "set_progress",
    "use_progress",
    "progress_enabled",
    "Span",
    "NoopSpan",
    "NoopTracer",
    "RecordingTracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "span",
    "tracing_enabled",
    "Counter",
    "Gauge",
    "LogBucketHistogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]
