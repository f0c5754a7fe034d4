"""Per-request serving telemetry: latency recording and query drift.

PR 7's serving stack counted *what* was served (``ServingStats`` /
``ServerStats``); this module records *how well*.  Two concerns live
here, both designed around the serving hot path's budget (~12 us/query
batched — a naive per-request ``span()`` would triple it):

:class:`ServingTelemetry`
    Batch-vectorized recording of request latency, queue wait, phase
    timings, and method/outcome counters into ``serving.request.*`` /
    ``serving.phase.*`` metrics.  Latency distributions go into
    :class:`~repro.obs.metrics.LogBucketHistogram` (bounded memory,
    exact cross-process merge, quantiles within a documented relative
    error).  The whole recorder is a no-op when constructed with
    ``enabled=False`` — the opt-out the <5% overhead gate in
    ``benchmarks/test_bench_serving.py`` measures against.

:class:`DriftWatchdog`
    The paper's hard-criterion consistency guarantee holds for queries
    that land inside the reference density's degree regime.  The
    watchdog freezes a baseline band of attachment-row degrees at fit
    time (:func:`fit_drift_baseline`) and, per served batch, flags
    queries whose degree falls outside it as ``serving.drift.*`` metrics
    that the SLO gate (:mod:`repro.obs.slo`) can alarm on.

Nothing here allocates spans: all output is counters/gauges/histograms
in the ambient :class:`~repro.obs.metrics.MetricsRegistry`, so it
composes with ``--metrics`` dumps, cross-process grafting, the
OpenMetrics exporter, and ``repro obs top``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = [
    "ServingTelemetry",
    "DriftBaseline",
    "DriftWatchdog",
    "fit_drift_baseline",
    "DRIFT_BAND",
]

#: Quantile band of fit-time attachment degrees considered "in regime".
#: Queries outside the band are exactly the ones for which the paper's
#: consistency analysis offers no guarantee.
DRIFT_BAND = (0.025, 0.975)


@dataclass(frozen=True)
class DriftBaseline:
    """Fit-time calibration the watchdog compares live queries against."""

    degree_lo: float
    degree_hi: float
    degree_median: float
    band: tuple[float, float] = DRIFT_BAND

    def to_dict(self) -> dict:
        return {
            "degree_lo": self.degree_lo,
            "degree_hi": self.degree_hi,
            "degree_median": self.degree_median,
            "band": list(self.band),
        }


def fit_drift_baseline(degrees, *, band: tuple[float, float] = DRIFT_BAND) -> DriftBaseline:
    """Calibrate a :class:`DriftBaseline` from reference-vertex degrees.

    ``degrees`` is the fitted graph's degree vector.
    """
    degrees = np.asarray(degrees, dtype=np.float64).ravel()
    if degrees.size == 0:
        raise ValueError("cannot calibrate a drift baseline from zero degrees")
    lo, hi = band
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"band must satisfy 0 <= lo < hi <= 1, got {band}")
    return DriftBaseline(
        degree_lo=float(np.quantile(degrees, lo)),
        degree_hi=float(np.quantile(degrees, hi)),
        degree_median=float(np.median(degrees)),
        band=(float(lo), float(hi)),
    )


class DriftWatchdog:
    """Flags served queries that left the fit-time degree regime.

    One watchdog per fitted model.  :meth:`observe` takes the degrees of
    an extracted query batch (``QueryRow.degree()`` — self weight plus
    attachment mass, the quantity the serving math divides by) and
    updates:

    ``serving.drift.observed`` / ``serving.drift.flagged``
        Counters of queries seen / flagged out-of-band.
    ``serving.drift.flag_fraction``
        Gauge: cumulative flagged/observed — the number SLO specs bound.
    ``serving.drift.degree_low`` / ``serving.drift.degree_high``
        Counters splitting the flags by which side of the band.
    """

    def __init__(self, baseline: DriftBaseline, *, registry: MetricsRegistry | None = None):
        self.baseline = baseline
        self._registry = registry
        self.observed = 0
        self.flagged = 0

    def _reg(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    @property
    def flag_fraction(self) -> float:
        return self.flagged / self.observed if self.observed else 0.0

    def observe(self, degrees) -> int:
        """Record one served batch's degrees; returns how many flagged."""
        degrees = np.asarray(degrees, dtype=np.float64).ravel()
        if degrees.size == 0:
            return 0
        if (
            float(degrees.min()) >= self.baseline.degree_lo
            and float(degrees.max()) <= self.baseline.degree_hi
        ):
            # Whole batch in regime — the hot-path common case: two
            # reductions decide it, no boolean masks allocated.
            n_flagged = n_low = n_high = 0
        else:
            n_low = int(np.count_nonzero(degrees < self.baseline.degree_lo))
            n_high = int(np.count_nonzero(degrees > self.baseline.degree_hi))
            n_flagged = n_low + n_high
        self.observed += int(degrees.size)
        self.flagged += n_flagged

        registry = self._reg()
        registry.counter("serving.drift.observed").inc(int(degrees.size))
        if n_flagged:
            registry.counter("serving.drift.flagged").inc(n_flagged)
            if n_low:
                registry.counter("serving.drift.degree_low").inc(n_low)
            if n_high:
                registry.counter("serving.drift.degree_high").inc(n_high)
        registry.gauge("serving.drift.flag_fraction").set(self.flag_fraction)
        return n_flagged


class ServingTelemetry:
    """Vectorized per-request metric recorder for the serving stack.

    All recording is *batch-granular*: the server keeps one
    ``perf_counter()`` per submitted request (a float append — the only
    per-request cost on the hot path) and hands whole arrays here at
    flush time, where a single :meth:`LogBucketHistogram.observe_many`
    pass buckets them.  With ``enabled=False`` every method returns
    immediately, which is what keeps the uninstrumented path inside the
    bench gate's 5% budget.
    """

    __slots__ = ("enabled", "_registry")

    def __init__(self, *, enabled: bool = True, registry: MetricsRegistry | None = None):
        self.enabled = bool(enabled)
        self._registry = registry

    def _reg(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    # ------------------------------------------------------------------
    # Request-level recording
    # ------------------------------------------------------------------

    def record_requests(
        self,
        method: str,
        n_queries: int,
        *,
        latencies_s=None,
        queue_waits_s=None,
    ) -> None:
        """Record one successfully served batch of ``n_queries`` requests."""
        if not self.enabled or n_queries <= 0:
            return
        registry = self._reg()
        registry.counter(f"serving.request.count.{method}").inc(n_queries)
        registry.counter("serving.request.outcome.ok").inc(n_queries)
        if latencies_s is not None:
            registry.log_histogram("serving.request.latency_s").observe_many(
                latencies_s
            )
        if queue_waits_s is not None:
            registry.log_histogram("serving.request.queue_wait_s").observe_many(
                queue_waits_s
            )

    def record_errors(self, method: str, n_queries: int) -> None:
        """Record a failed batch: every request in it errored."""
        if not self.enabled or n_queries <= 0:
            return
        registry = self._reg()
        registry.counter(f"serving.request.count.{method}").inc(n_queries)
        registry.counter("serving.request.outcome.error").inc(n_queries)

    def record_phase(self, phase: str, seconds: float) -> None:
        """Record one timed pass of a serving phase (extract/predict/...)."""
        if not self.enabled:
            return
        self._reg().log_histogram(f"serving.phase.{phase}_s").observe(seconds)

    def record_flush(self, reason: str) -> None:
        """Count one queue flush by trigger (``full``/``manual``/``lazy``)."""
        if not self.enabled:
            return
        self._reg().counter(f"serving.server.flush.{reason}").inc()

    def record_throughput(self, queries_per_second: float) -> None:
        """Publish the most recent batch-level throughput observation."""
        if not self.enabled:
            return
        self._reg().gauge("serving.request.throughput_qps").set(
            float(queries_per_second)
        )
