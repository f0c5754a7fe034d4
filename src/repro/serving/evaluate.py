"""The ``repro serve-eval`` driver: serving throughput + parity in one table.

Builds a synthetic serving scenario — fit a reference graph, then answer
a stream of fresh query points drawn from the same input distribution —
and measures, per serving method:

* single-query throughput (a loop of ``predict`` on one point each:
  what an unbatched caller gets),
* batched throughput (the same workload streamed through a
  :class:`~repro.serving.server.ModelServer` micro-batcher),
* the maximum absolute deviation from the exact incremental-insertion
  prediction on a parity subsample (the accuracy cost of the fast
  methods; identically zero for ``method="exact"``).

Wall-clock numbers use ``time.perf_counter``; the deterministic parts
(dataset, fit, predictions) depend only on ``seed``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.exceptions import ConfigurationError
from repro.serving.model import SERVING_METHODS, GraphSSLModel
from repro.serving.server import ModelServer

__all__ = ["ServeEvalResult", "MethodReport", "run_serve_eval", "SERVE_EVAL_GRAPHS"]

#: Reference graph families ``serve-eval`` builds.  Both need only the
#: neighbour count ``k`` it already takes; an epsilon graph would also
#: need a radius.
SERVE_EVAL_GRAPHS = ("full", "knn")


@dataclass(frozen=True)
class MethodReport:
    """Throughput and parity numbers for one serving method."""

    method: str
    single_qps: float
    batched_qps: float
    speedup: float
    max_abs_dev_vs_exact: float
    parity_sample: int


@dataclass(frozen=True)
class ServeEvalResult:
    """Everything one ``serve-eval`` run measured."""

    n_reference: int
    n_labeled: int
    n_queries: int
    batch_size: int
    graph: str
    lam: float
    reports: list[MethodReport] = field(default_factory=list)

    def headers(self) -> list[str]:
        return [
            "method",
            "single q/s",
            "batched q/s",
            "speedup",
            "max |dev| vs exact",
        ]

    def to_rows(self) -> list[list]:
        return [
            [
                report.method,
                report.single_qps,
                report.batched_qps,
                report.speedup,
                report.max_abs_dev_vs_exact,
            ]
            for report in self.reports
        ]


def _resolve_methods(methods) -> tuple[str, ...]:
    if isinstance(methods, str):
        methods = ("all",) if methods == "all" else (methods,)
    resolved = []
    for method in methods:
        if method == "all":
            resolved.extend(SERVING_METHODS)
        elif method in SERVING_METHODS:
            resolved.append(method)
        else:
            raise ConfigurationError(
                f"unknown serving method {method!r}; known: "
                f"{SERVING_METHODS + ('all',)}"
            )
    deduped = tuple(dict.fromkeys(resolved))
    if not deduped:
        raise ConfigurationError("serve-eval needs at least one method")
    return deduped


def run_serve_eval(
    *,
    n_reference: int = 2000,
    n_labeled: int = 200,
    n_queries: int = 256,
    batch_size: int = 64,
    methods="all",
    graph: str = "knn",
    k: int = 10,
    lam: float = 0.0,
    parity_sample: int = 16,
    single_sample: int | None = None,
    seed=None,
    n_jobs: int | None = 1,
    telemetry: bool = True,
) -> ServeEvalResult:
    """Fit one reference graph and measure serving throughput + parity.

    Parameters
    ----------
    n_reference:
        Total reference vertices (labeled + unlabeled).
    n_labeled:
        Labeled vertices among them.
    n_queries:
        Fresh query points in the workload.
    batch_size:
        The :class:`ModelServer`'s auto-flush threshold.
    methods:
        A method name, an iterable of names, or ``"all"``.
    graph, k:
        Reference graph family, one of :data:`SERVE_EVAL_GRAPHS`
        (``knn`` default — the serving scale story), and its neighbour
        count.
    lam:
        Criterion (``0`` = hard).
    parity_sample:
        How many queries are re-answered by exact insertion for the
        deviation column (the slow path; keep it modest).
    single_sample:
        How many queries the single-query timing loop uses (default:
        min(64, n_queries) — enough to average Python dispatch overhead
        without dominating wall-clock).
    seed:
        Master seed for the dataset and query draw.
    n_jobs:
        Worker processes for the batched path's fan-out.
    telemetry:
        ``True`` (default) records per-request latency/queue-wait
        distributions, phase timings, and drift statistics under
        ``serving.request.*``/``serving.phase.*``/``serving.drift.*``
        (dump them with ``--metrics`` and gate them with
        ``repro obs slo``); ``False`` measures the uninstrumented path.
    """
    from repro.datasets.synthetic import make_regression_dataset, truncated_mvn_inputs
    from repro.utils.rng import as_rng

    if n_labeled < 1 or n_labeled >= n_reference:
        raise ConfigurationError(
            f"need 1 <= n_labeled < n_reference, got {n_labeled} of {n_reference}"
        )
    if n_queries < 1:
        raise ConfigurationError(f"n_queries must be >= 1, got {n_queries}")
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if parity_sample < 0:
        raise ConfigurationError(f"parity_sample must be >= 0, got {parity_sample}")
    if graph not in SERVE_EVAL_GRAPHS:
        raise ConfigurationError(
            f"serve-eval graph must be one of {SERVE_EVAL_GRAPHS}, got {graph!r}"
        )
    method_names = _resolve_methods(methods)
    if single_sample is None:
        single_sample = min(64, n_queries)
    single_sample = max(1, min(int(single_sample), n_queries))
    parity_sample = min(parity_sample, n_queries)

    rng = as_rng(seed)
    data = make_regression_dataset(
        n_labeled, n_reference - n_labeled, seed=rng
    )
    queries = truncated_mvn_inputs(n_queries, seed=rng)

    graph_params: dict = {}
    if graph == "knn":
        graph_params["k"] = k

    with obs.span(
        "repro.serving.serve_eval",
        n_reference=n_reference,
        n_queries=n_queries,
        batch_size=batch_size,
        graph=graph,
    ):
        model = GraphSSLModel(
            lam=lam, graph=graph, graph_params=graph_params, telemetry=telemetry
        )
        model.fit(data.x_labeled, data.y_labeled, data.x_unlabeled)

        exact_reference = None
        if parity_sample:
            exact_reference = model.predict_batch(
                queries[:parity_sample], method="exact"
            )

        reports = []
        progress = obs.get_progress()
        with progress.task("serve-eval", total=len(method_names)) as task:
            for position, method in enumerate(method_names):
                # Single-query path: one predict() call per point, the
                # cost an unbatched caller pays.
                t0 = time.perf_counter()
                single = np.asarray(
                    [
                        model.predict(queries[i : i + 1], method=method)[0]
                        for i in range(single_sample)
                    ]
                )
                single_elapsed = time.perf_counter() - t0

                # Batched path: the same workload through the
                # micro-batching server.
                jobs = 1 if method == "exact" else n_jobs
                server = ModelServer(
                    model,
                    method=method,
                    max_batch_size=batch_size,
                    n_jobs=jobs,
                    telemetry="full" if telemetry else "off",
                )
                t0 = time.perf_counter()
                batched = server.predict_many(queries)
                batched_elapsed = time.perf_counter() - t0

                if not np.array_equal(single, batched[:single_sample]):
                    raise AssertionError(
                        f"serving determinism violated: method {method!r} "
                        f"batched predictions differ from single-query ones"
                    )
                if exact_reference is not None:
                    deviation = float(
                        np.max(
                            np.abs(batched[:parity_sample] - exact_reference)
                        )
                    )
                else:
                    deviation = float("nan")

                single_qps = single_sample / max(single_elapsed, 1e-12)
                batched_qps = n_queries / max(batched_elapsed, 1e-12)
                reports.append(
                    MethodReport(
                        method=method,
                        single_qps=single_qps,
                        batched_qps=batched_qps,
                        speedup=batched_qps / max(single_qps, 1e-12),
                        max_abs_dev_vs_exact=deviation,
                        parity_sample=parity_sample,
                    )
                )
                task.replicate_done(position)

    return ServeEvalResult(
        n_reference=n_reference,
        n_labeled=n_labeled,
        n_queries=n_queries,
        batch_size=batch_size,
        graph=graph,
        lam=float(lam),
        reports=reports,
    )
