"""`ModelServer`: request batching in front of a fitted `GraphSSLModel`.

Production query traffic arrives one point at a time, but the model is
fastest when queries are served in batches (one vectorized extraction
plus amortized validation/dispatch).  ``ModelServer`` is the micro-
batching layer between the two: :meth:`~ModelServer.submit` enqueues a
single point and returns a :class:`PredictionTicket` immediately; the
queue is flushed through :meth:`GraphSSLModel.predict_batch` whenever it
reaches ``max_batch_size``, when :meth:`~ModelServer.flush` is called,
or lazily when any pending ticket's ``result()`` is read.

Because the model's per-query math is batch-independent (see
:mod:`repro.serving.model`), batching is *only* a latency/throughput
trade: every ticket resolves to exactly the value a standalone
``predict`` call would have produced.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.exceptions import ConfigurationError
from repro.obs.serving_telemetry import ServingTelemetry
from repro.serving.model import GraphSSLModel

__all__ = ["ModelServer", "PredictionTicket", "ServerStats", "TELEMETRY_MODES"]

TELEMETRY_MODES = ("full", "off")


class ServerStats(NamedTuple):
    """Cumulative request-batching counters for one server.

    ``flushes`` is the total; ``full_batches``/``manual_flushes``/
    ``lazy_flushes`` split it by trigger (queue hit ``max_batch_size`` /
    explicit :meth:`ModelServer.flush` / a pending ticket's ``result()``
    forced it).  ``errors`` counts tickets resolved with an exception
    instead of a prediction.
    """

    submitted: int
    answered: int
    errors: int
    flushes: int
    full_batches: int
    manual_flushes: int
    lazy_flushes: int

    @property
    def pending(self) -> int:
        return self.submitted - self.answered - self.errors


class PredictionTicket:
    """A handle for one submitted query; resolves when its batch flushes."""

    __slots__ = ("_server", "_value", "_error", "_done")

    def __init__(self, server: "ModelServer") -> None:
        self._server = server
        self._value = None
        self._error = None
        self._done = False

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> float:
        """The prediction, flushing the server's queue if still pending.

        If the ticket's batch failed, re-raises the exception that
        failed it (every ticket of a failed flush is resolved with the
        error — none stay pending forever).
        """
        if not self._done:
            self._server._flush("lazy")
        if self._error is not None:
            raise self._error
        return self._value

    def _resolve(self, value: float) -> None:
        self._value = value
        self._done = True

    def _resolve_error(self, error: BaseException) -> None:
        self._error = error
        self._done = True


class ModelServer:
    """Micro-batching front end for a fitted :class:`GraphSSLModel`.

    Parameters
    ----------
    model:
        A fitted model (``fit()`` must already have run).
    method:
        Serving method for every flushed batch (``"nw"``
        or ``"exact"``).
    max_batch_size:
        Auto-flush threshold: submitting the point that fills the queue
        to this size triggers a flush.
    n_jobs:
        Forwarded to :meth:`GraphSSLModel.predict_batch` on each flush.
    telemetry:
        ``"full"`` (default) records per-request latency/queue-wait
        distributions, flush-reason counters, and a throughput gauge
        under ``serving.request.*``; ``"off"`` is the low-overhead mode
        — the only per-request cost left is the queue append itself
        (the serving bench gates full-mode overhead at <5%).
    """

    #: Maps a flush trigger to its ServerStats counter key.
    _FLUSH_COUNTERS = {
        "full": "full_batches",
        "manual": "manual_flushes",
        "lazy": "lazy_flushes",
    }

    def __init__(
        self,
        model: GraphSSLModel,
        *,
        method: str = "nw",
        max_batch_size: int = 64,
        n_jobs: int | None = 1,
        telemetry: str = "full",
    ) -> None:
        if max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if telemetry not in TELEMETRY_MODES:
            raise ConfigurationError(
                f"unknown telemetry mode {telemetry!r}; known: {TELEMETRY_MODES}"
            )
        model._require_fitted()
        self.model = model
        self.method = model._validate_method(method)
        self.max_batch_size = int(max_batch_size)
        self.n_jobs = n_jobs
        self.telemetry = ServingTelemetry(enabled=telemetry == "full")
        self._queue: list[np.ndarray] = []
        self._tickets: list[PredictionTicket] = []
        self._submit_times: list[float] = []
        self._counters = {
            "submitted": 0,
            "answered": 0,
            "errors": 0,
            "flushes": 0,
            "full_batches": 0,
            "manual_flushes": 0,
            "lazy_flushes": 0,
        }

    def submit(self, x_point) -> PredictionTicket:
        """Enqueue one query point (``(d,)`` or ``(1, d)``)."""
        point = np.asarray(x_point, dtype=np.float64)
        if point.ndim == 1:
            point = point[None, :]
        # Full validation happens at flush time through the model's
        # serving boundary; this only normalizes the shape so the queue
        # can stack.
        if point.ndim != 2 or point.shape[0] != 1:
            raise ConfigurationError(
                f"submit() takes a single query point of shape (d,) or "
                f"(1, d); got shape {np.shape(x_point)}"
            )
        ticket = PredictionTicket(self)
        self._queue.append(point[0])
        self._tickets.append(ticket)
        self._counters["submitted"] += 1
        if self.telemetry.enabled:
            # The only per-request instrumentation on the hot path: one
            # clock read.  Latency/queue-wait arrays are derived from it
            # in a single vectorized pass at flush time.
            self._submit_times.append(time.perf_counter())
        if len(self._queue) >= self.max_batch_size:
            self._flush("full")
        return ticket

    def flush(self) -> int:
        """Serve every pending query; returns how many were answered."""
        return self._flush("manual")

    def _flush(self, reason: str) -> int:
        if not self._queue:
            return 0
        queue, tickets = self._queue, self._tickets
        submit_times = self._submit_times
        self._queue, self._tickets, self._submit_times = [], [], []
        batch = np.vstack(queue)
        started = time.perf_counter()
        try:
            with obs.span(
                "repro.serving.flush",
                method=self.method,
                n_queries=int(batch.shape[0]),
                reason=reason,
            ) as span:
                predictions = self.model.predict_batch(
                    batch, method=self.method, n_jobs=self.n_jobs
                )
                finished = time.perf_counter()
                for ticket, value in zip(tickets, predictions):
                    ticket._resolve(float(value))
                self._counters["answered"] += len(tickets)
                self._count_flush(reason)
                self._record_stats(span)
        except Exception as exc:
            # A failed batch must not strand its tickets: resolve every
            # unresolved one with the error (result() re-raises it) so
            # no caller blocks on a prediction that will never arrive,
            # then propagate.
            unresolved = [ticket for ticket in tickets if not ticket.done]
            for ticket in unresolved:
                ticket._resolve_error(exc)
            if unresolved:
                self._counters["errors"] += len(unresolved)
                self._count_flush(reason)
                self.telemetry.record_errors(self.method, len(unresolved))
            raise
        if self.telemetry.enabled:
            times = np.asarray(submit_times)
            if times.size == len(tickets):
                self.telemetry.record_requests(
                    self.method,
                    len(tickets),
                    latencies_s=finished - times,
                    queue_waits_s=started - times,
                )
            else:  # pragma: no cover - telemetry toggled mid-queue
                self.telemetry.record_requests(self.method, len(tickets))
            elapsed = finished - started
            if elapsed > 0:
                self.telemetry.record_throughput(len(tickets) / elapsed)
        obs.get_registry().counter("serving.server.flushes").inc()
        return len(tickets)

    def _count_flush(self, reason: str) -> None:
        self._counters["flushes"] += 1
        self._counters[self._FLUSH_COUNTERS[reason]] += 1
        self.telemetry.record_flush(reason)

    def _record_stats(self, span) -> None:
        if span.recording:
            from repro.obs.probes import record_serving_stats

            record_serving_stats(span, self.stats())

    def predict_many(self, x) -> np.ndarray:
        """Submit a whole workload point by point and return all results.

        Convenience driver (and the load-bench's batched path): the
        workload streams through the micro-batcher exactly as live
        traffic would, auto-flushing every ``max_batch_size`` points.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ConfigurationError(
                f"predict_many takes a 2-d workload, got shape {x.shape}"
            )
        tickets = [self.submit(row) for row in x]
        self.flush()
        return np.asarray([ticket.result() for ticket in tickets])

    def stats(self) -> ServerStats:
        """Cumulative batching counters since construction."""
        return ServerStats(**self._counters)
