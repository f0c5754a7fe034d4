"""`GraphSSLModel`: fit once on a reference graph, serve queries forever.

The transductive estimators in :mod:`repro.core` answer questions about
the vertices they were fitted on; predicting a *new* point means
rebuilding the graph and re-solving.  ``GraphSSLModel`` is the inductive
wrapper: :meth:`~GraphSSLModel.fit` builds the reference graph and
solves the criterion exactly once (through a per-model
:class:`~repro.linalg.workspace.SolveWorkspace`, which caches the
preconditioner exact serving reuses), and then
:meth:`~GraphSSLModel.predict` / :meth:`~GraphSSLModel.predict_batch`
answer out-of-sample queries without ever re-solving, by one of two
methods:

``"nw"`` (default)
    The Nadaraya-Watson/harmonic one-step rule over the fitted scores —
    O(row) per query, the paper's own Theorem II.1 device.
``"exact"``
    Exact incremental vertex insertion (a bordered PCG solve against
    the cached preconditioner; see :mod:`repro.serving.insertion`) —
    the ground-truth slow path, matching a from-scratch
    rebuild-and-resolve to solver tolerance.

The workspace picks its own backend at the measured crossover
(docs/SCALING.md): dense graphs and sparse graphs up to
:data:`~repro.linalg.workspace.FACTORIZE_MAX_VERTICES` vertices
factorize (``"exact"``); larger sparse graphs, whose sparse LU fills in
past the point where it pays, fit and serve through a cached Galerkin
V-cycle (``"multigrid"``).

Determinism contract: every per-query quantity is computed from that
query's own arrays only (see :mod:`repro.serving.queries`), so
``predict_batch`` is bit-identical to a loop of ``predict`` at every
``batch_size``; ``predict`` is ``predict_batch`` in one chunk.

Serving boundary: malformed query input (wrong dimensionality, wrong
feature count, non-numeric dtype, empty batch, non-finite values) raises
:class:`~repro.exceptions.ConfigurationError` — the caller handed us a
request that can never be valid — which the CLI maps to a one-line
``error:`` message and exit status 2.  Data-dependent failures on valid
input (a query outside every kernel's support) stay
:class:`~repro.exceptions.DataValidationError`, like the rest of the
library.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np
from scipy import sparse

from repro import obs
from repro.core.estimators import _resolve_bandwidth
from repro.exceptions import ConfigurationError, NotFittedError
from repro.graph.similarity import build_similarity_graph
from repro.kernels.base import RadialKernel
from repro.kernels.library import GaussianKernel
from repro.linalg.workspace import SolveWorkspace
from repro.obs.serving_telemetry import (
    DriftWatchdog,
    ServingTelemetry,
    fit_drift_baseline,
)
from repro.serving.extension import nw_extend
from repro.serving.insertion import ExactInserter
from repro.serving.queries import QueryExtractor

__all__ = ["GraphSSLModel", "ServingStats", "SERVING_METHODS"]

SERVING_METHODS = ("nw", "exact")


class ServingStats(NamedTuple):
    """Cumulative serving counters for one model (see ``stats()``)."""

    queries: int
    batches: int
    nw_queries: int
    exact_queries: int
    interval_queries: int
    exact_iterations: int


class GraphSSLModel:
    """Inductive graph-SSL model: ``fit()`` once, then ``predict(X_new)``.

    Parameters
    ----------
    lam:
        ``0.0`` (default) fits the hard criterion (Eq. 5); positive
        values fit the soft criterion.
    kernel, bandwidth:
        Radial kernel (default Gaussian) and bandwidth — a float or any
        rule name the transductive estimators accept (``"median"``
        default: it adapts to the pooled reference inputs).
    graph:
        Reference graph family: ``"full"`` (paper default), ``"knn"``
        or ``"epsilon"``.
    graph_params:
        Extra construction parameters (``k``/``mode`` for knn,
        ``radius`` for epsilon, ``construction`` to pin the dense,
        kd-tree or, for knn, RP-tree route).
    field_scale:
        Gaussian-field sigma used by credible intervals.
    telemetry:
        ``True`` (default) records per-batch phase timings
        (``serving.phase.*``) and query-drift statistics
        (``serving.drift.*``) on every serving path; ``False`` is
        the low-overhead mode — no clocks, no drift math (the serving
        bench gates full-mode overhead at <5% of batched throughput).
    """

    def __init__(
        self,
        *,
        lam: float = 0.0,
        kernel: RadialKernel | None = None,
        bandwidth="median",
        graph: str = "full",
        graph_params: dict | None = None,
        field_scale: float = 1.0,
        telemetry: bool = True,
    ) -> None:
        if lam < 0:
            raise ConfigurationError(f"lam must be >= 0, got {lam}")
        if field_scale <= 0:
            raise ConfigurationError(f"field_scale must be > 0, got {field_scale}")
        self.lam = float(lam)
        self.kernel = kernel or GaussianKernel()
        self.bandwidth = bandwidth
        self.graph = graph
        self.graph_params = dict(graph_params or {})
        self.field_scale = float(field_scale)
        self.telemetry = ServingTelemetry(enabled=telemetry)

        self.graph_ = None
        self.bandwidth_: float | None = None
        self.result_ = None
        self.scores_: np.ndarray | None = None
        self.n_labeled_: int | None = None
        self._y: np.ndarray | None = None
        self.drift_baseline_ = None
        self.drift_watchdog_: DriftWatchdog | None = None
        self._workspace: SolveWorkspace | None = None
        self._extractor: QueryExtractor | None = None
        self._inserter: ExactInserter | None = None
        self._counters = dict.fromkeys(
            (
                "queries",
                "batches",
                "nw_queries",
                "exact_queries",
                "interval_queries",
                "exact_iterations",
            ),
            0,
        )

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(self, x_labeled, y_labeled, x_unlabeled=None) -> "GraphSSLModel":
        """Build the reference graph and solve the criterion once.

        ``x_unlabeled`` may be omitted (serve directly off the labeled
        set); when given, the fitted scores cover the usual
        labeled-first transductive ordering.
        """
        from repro.utils.validation import check_labels, check_matrix_2d

        x_labeled = check_matrix_2d(x_labeled, "x_labeled")
        y_labeled = check_labels(y_labeled, name="y_labeled")
        if y_labeled.shape[0] != x_labeled.shape[0]:
            raise ConfigurationError(
                f"x_labeled has {x_labeled.shape[0]} rows but y_labeled "
                f"has {y_labeled.shape[0]} entries"
            )
        if x_unlabeled is None:
            x_unlabeled = np.zeros((0, x_labeled.shape[1]))
        else:
            x_unlabeled = check_matrix_2d(x_unlabeled, "x_unlabeled")
            if x_unlabeled.shape[1] != x_labeled.shape[1]:
                raise ConfigurationError(
                    f"x_unlabeled has {x_unlabeled.shape[1]} features but "
                    f"x_labeled has {x_labeled.shape[1]}"
                )
        x_all = np.vstack([x_labeled, x_unlabeled])
        n = x_labeled.shape[0]

        with obs.span(
            "repro.serving.fit",
            n_labeled=n,
            n_reference=int(x_all.shape[0]),
            lam=self.lam,
            graph=self.graph,
        ) as span:
            self.bandwidth_ = _resolve_bandwidth(self.bandwidth, x_all, n)
            self.graph_ = build_similarity_graph(
                x_all,
                graph=self.graph,
                kernel=self.kernel,
                bandwidth=self.bandwidth_,
                **self.graph_params,
            )
            self._workspace = SolveWorkspace(self.graph_.weights)
            if span.recording:
                # The choice and what it read: sparsity and N (n_reference).
                span.set_attribute("backend", self._workspace.backend)
                span.set_attribute("sparse", sparse.issparse(self.graph_.weights))
            # Kept for exact serving: the solve below and every insertion
            # share this one system and preconditioner.
            self._workspace.operator(self.lam, n)
            if self.lam == 0.0:
                result = self._workspace.solve_hard(y_labeled)
            else:
                result = self._workspace.solve_soft(y_labeled, self.lam)
            self.result_ = result
            self.scores_ = result.scores.copy()
            self.n_labeled_ = n
            self._y = y_labeled.copy()
            self._extractor = QueryExtractor(
                x_all,
                kernel=self.kernel,
                bandwidth=self.bandwidth_,
                construction=self.graph_.construction,
                params=self.graph_.params,
            )
            self._inserter = None
            self.drift_baseline_ = fit_drift_baseline(self._workspace.degrees)
            self.drift_watchdog_ = DriftWatchdog(self.drift_baseline_)
        return self

    @property
    def n_reference_(self) -> int:
        """Number of reference vertices (labeled + unlabeled)."""
        self._require_fitted()
        return int(self.scores_.shape[0])

    def _require_fitted(self) -> None:
        if self.scores_ is None or self._extractor is None:
            raise NotFittedError(
                f"{type(self).__name__} must be fit() before serving queries"
            )

    # ------------------------------------------------------------------
    # Serving boundary validation
    # ------------------------------------------------------------------

    def _validate_queries(self, x) -> np.ndarray:
        """Validate a query batch; malformed requests are ConfigurationError."""
        self._require_fitted()
        try:
            queries = np.asarray(x, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"query batch is not numeric: {exc}"
            ) from exc
        if queries.ndim != 2:
            raise ConfigurationError(
                f"query batch must be 2-d (n_queries, n_features); got "
                f"{queries.ndim}-d input of shape {queries.shape} "
                f"(wrap a single point as x[None, :])"
            )
        if queries.shape[0] == 0:
            raise ConfigurationError(
                "query batch is empty; submit at least one query point"
            )
        expected = self._extractor.x_reference.shape[1]
        if queries.shape[1] != expected:
            raise ConfigurationError(
                f"query batch has {queries.shape[1]} features but the model "
                f"was fitted on {expected}"
            )
        if not np.all(np.isfinite(queries)):
            raise ConfigurationError(
                "query batch contains non-finite values (NaN or inf)"
            )
        return np.ascontiguousarray(queries)

    def _check_interval_request(self, return_interval: bool, z: float) -> None:
        """Refuse an interval request before any query is served or counted."""
        if not return_interval:
            return
        if self.lam != 0.0:
            raise ConfigurationError(
                "credible intervals require a hard-criterion model (lam=0)"
            )
        if z <= 0:
            raise ConfigurationError(f"z must be > 0, got {z}")

    @staticmethod
    def _validate_method(method: str) -> str:
        if method not in SERVING_METHODS:
            raise ConfigurationError(
                f"unknown serving method {method!r}; known: {SERVING_METHODS}"
            )
        return method

    # ------------------------------------------------------------------
    # Prediction internals
    # ------------------------------------------------------------------

    def _ensure_inserter(self) -> ExactInserter:
        if self._inserter is None:
            if self._workspace is None:
                # An unpickled copy (see __getstate__) rebuilds lazily.
                self._workspace = SolveWorkspace(self.graph_.weights)
            self._inserter = ExactInserter(
                self._workspace, self._y, self.scores_, lam=self.lam
            )
        return self._inserter

    def _predict_rows(self, rows, method: str) -> np.ndarray:
        """Serve extracted query rows one at a time (the determinism core)."""
        out = np.empty(len(rows))
        if method == "nw":
            scores = self.scores_
            for i, row in enumerate(rows):
                out[i] = nw_extend(row, scores)
        else:
            inserter = self._ensure_inserter()
            for i, row in enumerate(rows):
                result = inserter.insert(row)
                out[i] = result.prediction
                self._counters["exact_iterations"] += result.iterations
        return out

    def _observe_drift(self, rows) -> None:
        """Feed one extracted batch's degrees to the drift watchdog.

        The observed quantity is ``QueryRow.degree()`` — self weight
        plus attachment mass, exactly what the serving math divides by.
        """
        if self.drift_watchdog_ is None or not rows:
            return
        self.drift_watchdog_.observe(self._extractor.last_degrees)

    def _serve_chunk(self, chunk: np.ndarray, method: str):
        """Extract + predict one chunk, instrumented.

        Returns ``(rows, predictions)``.  The telemetry cost is
        batch-granular — two clock reads, two histogram observations,
        and one vectorized drift pass per chunk — so per-request
        overhead vanishes as chunks grow.
        """
        if not self.telemetry.enabled:
            rows = self._extractor.extract(chunk)
            return rows, self._predict_rows(rows, method)
        t_start = time.perf_counter()
        rows = self._extractor.extract(chunk)
        t_extracted = time.perf_counter()
        predictions = self._predict_rows(rows, method)
        t_predicted = time.perf_counter()
        self.telemetry.record_phase("extract", t_extracted - t_start)
        self.telemetry.record_phase("predict", t_predicted - t_extracted)
        self._observe_drift(rows)
        return rows, predictions

    def _timed_variances(self, rows, method: str) -> np.ndarray:
        t_start = time.perf_counter()
        variances = self._variances(rows, method)
        self.telemetry.record_phase("interval", time.perf_counter() - t_start)
        return variances

    def _variances(self, rows, method: str) -> np.ndarray:
        inserter = self._ensure_inserter()
        out = np.empty(len(rows))
        exact = method == "exact"
        for i, row in enumerate(rows):
            out[i] = inserter.variance(
                row, field_scale=self.field_scale, exact=exact
            )
        return out

    def _record_stats(self, span) -> None:
        if span.recording:
            from repro.obs.probes import record_serving_stats

            record_serving_stats(span, self.stats())

    def _count(self, method: str, n_queries: int, *, batches: int, intervals: bool) -> None:
        self._counters["queries"] += n_queries
        self._counters["batches"] += batches
        self._counters[f"{method}_queries"] += n_queries
        if intervals:
            self._counters["interval_queries"] += n_queries
        registry = obs.get_registry()
        registry.counter("serving.queries").inc(n_queries)
        registry.counter("serving.batches").inc(batches)
        registry.counter(f"serving.{method}.queries").inc(n_queries)

    # ------------------------------------------------------------------
    # Public prediction API
    # ------------------------------------------------------------------

    def predict(self, x, *, method: str = "nw", return_interval: bool = False, z: float = 1.96):
        """Serve one query batch in a single shot: :meth:`predict_batch`
        in one chunk.

        Returns the ``(n_queries,)`` predictions, or with
        ``return_interval=True`` a ``(predictions, lower, upper)`` triple
        where the interval is the Gaussian-field ``mean ± z * sd`` of the
        exactly-inserted query vertex (hard-criterion models only).
        """
        return self.predict_batch(
            x, method=method, return_interval=return_interval, z=z
        )

    def predict_batch(
        self,
        x,
        *,
        method: str = "nw",
        batch_size: int | None = None,
        return_interval: bool = False,
        z: float = 1.96,
    ):
        """Serve a workload in micro-batches.

        ``batch_size`` bounds the memory of each extraction (default:
        one shot); results are bit-identical at every ``batch_size``,
        including to a plain loop of :meth:`predict`.
        """
        method = self._validate_method(method)
        queries = self._validate_queries(x)
        self._check_interval_request(return_interval, z)
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        total = queries.shape[0]
        size = total if batch_size is None else min(batch_size, total)
        starts = list(range(0, total, size))
        chunks = [queries[start : start + size] for start in starts]
        with obs.span(
            "repro.serving.predict_batch",
            method=method,
            n_queries=total,
            n_batches=len(chunks),
        ) as span:
            parts, kept_rows = [], []
            for chunk in chunks:
                rows, predicted = self._serve_chunk(chunk, method)
                parts.append(predicted)
                if return_interval:  # the variances reuse them
                    kept_rows.append(rows)
            predictions = np.concatenate(parts)
            self._count(
                method, total, batches=len(chunks), intervals=return_interval
            )
            self._record_stats(span)
            if not return_interval:
                return predictions
            variances = np.concatenate(
                [self._timed_variances(rows, method) for rows in kept_rows]
            )
            sd = np.sqrt(variances)
            return predictions, predictions - z * sd, predictions + z * sd

    # ------------------------------------------------------------------
    # Introspection & pickling
    # ------------------------------------------------------------------

    def query_weights(self, x) -> list:
        """The frozen-graph edge rows a query batch would attach with.

        Exposed so oracles (and curious users) can build the *same*
        extended graph the serving methods answer questions about.
        """
        return self._extractor.extract(self._validate_queries(x))

    def stats(self) -> ServingStats:
        """Cumulative serving counters since ``fit()``."""
        return ServingStats(**self._counters)

    def __getstate__(self):
        # Cached preconditioners (splu handles, V-cycles) don't pickle;
        # a copy rebuilds them lazily if it ever serves the exact path.
        state = self.__dict__.copy()
        state["_workspace"] = None
        state["_inserter"] = None
        return state
