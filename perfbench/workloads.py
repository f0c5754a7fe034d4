"""The benchmark's four workloads: seeded inputs and one measured pass each.

A *pass* runs one workload in one of three modes:

* ``timing`` — untraced; yields the end-to-end metrics;
* ``traced`` — the same calls with benchmark-side spans around the
  program's public entry points (:func:`entry_points`); yields the
  per-layer metrics;
* ``memory`` — tracemalloc peaks per layer, nothing else.

The timing pass repeats the workload's set-up several times and
interleaves the measured work with the set-ups, so every median it
reports draws samples from the whole run rather than from one stretch
of it.  The traced and memory passes set up once.

The program only ever receives the generated arrays; every input is a
pure function of the workload's seed.
"""

from __future__ import annotations

import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from harness import (
    MIB,
    RESIDUAL_TOL,
    MemoryProbe,
    NullProbe,
    Tracer,
    knn_recall,
    percentile,
    relative_residual,
    run_open_loop,
    tail,
    time_matvec,
)

clock = time.perf_counter

#: The λ grid every pipeline workload sweeps, in solve order.
LAMBDAS = tuple(float(v) for v in np.logspace(-2, 1, 4))

#: kNN degree of every graph in the benchmark.
K = 10

#: Rows sampled (evenly spaced) for the brute-force recall estimate.
RECALL_ROWS = 1000

# Serving workloads --------------------------------------------------------

N_REFERENCE = 10_000
N_REFERENCE_LABELED = 500
#: Fixed serving bandwidth: the ``"median"`` rule's value on this data
#: (0.815–0.818 over seeds).  Passing it keeps the rule's ``N²``
#: pairwise-distance matrix (about 2 GB at ``N_REFERENCE``) out of the fit.
SERVING_BANDWIDTH = 0.82
MAX_BATCH = 256
#: serve-nw open-loop arrival rate: a quarter or less of the closed-loop
#: saturated rate (about 45k–80k q/s on a 2-CPU host), so the latency
#: reflects batching and serving cost rather than a growing queue.
OPEN_RATE = 10_000.0
#: The load generator flushes once the oldest queued request is this old.
FLUSH_AFTER_S = 0.002
#: Share of ``--seconds`` the serve-nw open-loop phase lasts, split into
#: this many stretches spread over the set-ups.  Latency percentiles are
#: taken per stretch and reported as their median, so one stall of the
#: host spoils one stretch's tail rather than the run's.
OPEN_SHARE = 0.5
OPEN_STRETCHES = 8
#: serve-nw closed-loop passes per second of ``--seconds`` (at least 3).
CLOSED_PASSES_PER_SECOND = 1.0
QUERY_POOL = 32_768
CLOSED_QUERIES = 16_384
NW_PARITY_SAMPLE = 256
EXACT_REQUESTS = 100
EXACT_PARITY_SAMPLE = 4


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineInputs:
    x: np.ndarray
    y_labeled: np.ndarray
    target: np.ndarray  # noiseless target at every vertex


@dataclass(frozen=True)
class ServingInputs:
    x_labeled: np.ndarray
    y_labeled: np.ndarray
    x_unlabeled: np.ndarray
    target: np.ndarray  # noiseless target at every reference vertex
    warmup: np.ndarray
    queries: np.ndarray


def _labels(rng, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``n = N/20`` labels ``sin(x₀) + 0.1·noise`` on the first vertices."""
    target = np.sin(x[:, 0])
    n_labeled = x.shape[0] // 20
    y = target[:n_labeled] + 0.1 * rng.normal(size=n_labeled)
    return y, target


def lowd_inputs(seed: int, n: int = 100_000) -> PipelineInputs:
    """Random-normal points in d=3."""
    rng = np.random.default_rng([seed, 1])
    x = rng.normal(size=(n, 3))
    return PipelineInputs(x, *_labels(rng, x))


def highd_inputs(seed: int, n: int = 4_000, dim: int = 256) -> PipelineInputs:
    """A 3-d latent manifold embedded in d=256: ``cos(z·W + b) + 0.01·noise``.

    The embedding ``(W, b)`` is part of the workload's definition and the
    same for every seed; the seed draws the latent points and the noise.
    """
    embedding = np.random.default_rng(256)
    w = 0.5 * embedding.normal(size=(3, dim))
    b = embedding.uniform(0.0, 2.0 * np.pi, size=dim)
    rng = np.random.default_rng([seed, 2])
    z = rng.uniform(0.0, 2.0 * np.pi, size=(n, 3))
    x = np.cos(z @ w + b) + 0.01 * rng.normal(size=(n, dim))
    return PipelineInputs(x, *_labels(rng, x))


def _truncated_mvn(rng, n: int, dim: int = 5) -> np.ndarray:
    """Mean 0.5, variance 0.1, covariance 0.05; coordinates outside [0, 1] → 0."""
    cov = np.full((dim, dim), 0.05)
    np.fill_diagonal(cov, 0.1)
    raw = rng.multivariate_normal(np.full(dim, 0.5), cov, size=n)
    return np.where((raw >= 0.0) & (raw <= 1.0), raw, 0.0)


def _regression(x: np.ndarray) -> np.ndarray:
    """``sigmoid(−1.35 + 2x₁ − x₂ + x₃ − x₄ + 2x₅)``."""
    logit = -1.35 + x @ np.array([2.0, -1.0, 1.0, -1.0, 2.0])
    return 1.0 / (1.0 + np.exp(-logit))


def serving_inputs(seed: int) -> ServingInputs:
    """The serving bench's 5-d regression data plus fresh query points."""
    rng = np.random.default_rng([seed, 3])
    x = _truncated_mvn(rng, N_REFERENCE)
    target = _regression(x)
    half_width = 0.1 * np.sqrt(3.0)
    y = target + rng.uniform(-half_width, half_width, size=N_REFERENCE)
    return ServingInputs(
        x_labeled=x[:N_REFERENCE_LABELED],
        y_labeled=y[:N_REFERENCE_LABELED],
        x_unlabeled=x[N_REFERENCE_LABELED:],
        target=target,
        warmup=_truncated_mvn(rng, MAX_BATCH),
        queries=_truncated_mvn(rng, QUERY_POOL),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipeline" or "serving"
    make_inputs: object
    setups: int  # set-ups in the timing pass
    sweeps: int = 0  # λ sweeps in the pipeline timing pass
    bandwidth: float = 0.0
    method: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline-lowd", "pipeline", lowd_inputs, setups=3, sweeps=5, bandwidth=0.5),
        Workload("pipeline-highd", "pipeline", highd_inputs, setups=3, sweeps=45, bandwidth=2.2),
        Workload("serve-nw", "serving", serving_inputs, setups=4, method="nw"),
        Workload("serve-exact", "serving", serving_inputs, setups=4, method="exact"),
    )
}


# ----------------------------------------------------------------------
# Pass plumbing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PassConfig:
    mode: str  # "timing", "traced" or "memory"
    setups: int  # set-ups; setup_s is their median
    sweeps: int  # pipeline λ sweeps, spread over the set-ups
    seconds: float  # the run's measuring budget (serve-nw phase lengths)


@dataclass
class PassResult:
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0  # the timed region, for the trace ledger
    covered_s: float = 0.0  # part of wall_s inside layer spans or idle


def entry_points():
    """``(owner, attribute, layer)`` for every call the traced pass spans."""
    from repro.graph import similarity
    from repro.linalg.workspace import SolveWorkspace
    from repro.serving.insertion import ExactInserter
    from repro.serving.model import GraphSSLModel
    from repro.serving.queries import QueryExtractor
    from repro.serving.server import ModelServer, PredictionTicket

    return (
        (similarity, "knn_graph", "pipeline.graph"),
        (SolveWorkspace, "__init__", "pipeline.workspace"),
        (SolveWorkspace, "hierarchy", "pipeline.hierarchy"),
        (SolveWorkspace, "solve_soft", "pipeline.sweep.solve"),
        (SolveWorkspace, "solve_hard", "pipeline.sweep.solve"),
        (GraphSSLModel, "fit", "serving.fit"),
        (GraphSSLModel, "predict_batch", "serving.solve"),
        (QueryExtractor, "extract", "serving.attach"),
        (ExactInserter, "insert", "serving.exact"),
        (ModelServer, "submit", "serving.respond"),
        (ModelServer, "flush", "serving.respond"),
        (PredictionTicket, "result", "serving.respond"),
    )


@contextmanager
def instrumented(tracer: Tracer | None):
    """Install the traced pass's spans for the timed region only."""
    if tracer is None:
        yield
        return
    for owner, attr, layer in entry_points():
        tracer.instrument(owner, attr, layer)
    try:
        yield
    finally:
        tracer.restore()


def peak_rss_mib() -> float:
    """The OS high-water mark of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spread(total: int, slots: int) -> list[int]:
    """Split ``total`` repetitions over ``slots`` set-ups, remainder last."""
    base, extra = divmod(total, slots)
    return [base + (1 if slot >= slots - extra else 0) for slot in range(slots)]


def _rmse(values, target) -> float:
    return float(np.sqrt(np.mean((np.asarray(values) - target) ** 2)))


def _graph_layers(x, weights, *, build_s, init_s, matvec_matrix) -> tuple[dict, float]:
    """Graph-layer metrics shared by every workload, plus one matvec's time."""
    rows = np.linspace(0, x.shape[0] - 1, min(RECALL_ROWS, x.shape[0])).astype(np.intp)
    matvec_s = time_matvec(matvec_matrix)
    return {
        "pipeline.graph.build_s": build_s,
        "pipeline.graph.nnz": float(weights.nnz),
        "pipeline.graph.recall": knn_recall(x, weights, K, rows),
        "pipeline.workspace.init_s": init_s,
        "host.csr_matvec_nnz_per_s": matvec_matrix.nnz / matvec_s,
    }, matvec_s


def _hierarchy_mib(hierarchy) -> float:
    if hasattr(hierarchy, "retained_bytes"):
        return hierarchy.retained_bytes() / MIB
    total = 0
    for level in hierarchy.levels:
        for m in (level.prolongation, level.weights, level.laplacian):
            total += m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    return total / MIB


def run(name: str, seed: int, cfg: PassConfig) -> PassResult:
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    tracer = Tracer(clock) if cfg.mode == "traced" else None
    probe = MemoryProbe() if cfg.mode == "memory" else NullProbe()
    if workload.kind == "pipeline":
        return _run_pipeline(workload, inputs, cfg, tracer, probe)
    return _run_serving(workload, inputs, cfg, tracer, probe)


# ----------------------------------------------------------------------
# Pipelines: points -> graph -> workspace -> hierarchy -> λ sweep
# ----------------------------------------------------------------------


@dataclass
class _Sweep:
    scores: list  # per λ; None where the solve raised
    solve_s: list  # per λ
    seconds: float
    residuals: list = field(default_factory=list)  # per λ; inf where it failed


def _sweep(workspace, y) -> _Sweep:
    """Solve the λ grid in order, timing each solve."""
    scores, solve_s = [], []
    start = clock()
    for lam in LAMBDAS:
        started = clock()
        try:
            scores.append(workspace.solve_soft(y, lam).scores)
        except Exception:
            scores.append(None)
        solve_s.append(clock() - started)
    return _Sweep(scores, solve_s, clock() - start)


def _check(sweep: _Sweep, workspace, y) -> None:
    """The true relative residual of every solve, on the assembled system."""
    n = y.shape[0]
    rhs = np.zeros(workspace.n_total)
    rhs[:n] = y
    for lam, f in zip(LAMBDAS, sweep.scores):
        residual = math.inf
        if f is not None and np.all(np.isfinite(f)):
            residual = relative_residual(workspace.soft_system(lam, n), f, rhs)
        sweep.residuals.append(residual)


def _run_pipeline(workload, inputs: PipelineInputs, cfg, tracer, probe) -> PassResult:
    from repro.graph import similarity
    from repro.linalg.workspace import SolveWorkspace

    x, y = inputs.x, inputs.y_labeled
    n = y.shape[0]
    setup_times, sweeps = [], []
    probe.start()
    with instrumented(tracer):
        for count in spread(cfg.sweeps, cfg.setups):
            graph = workspace = None  # release the previous set-up
            start = clock()
            with probe.layer("pipeline.graph.peak_mib"):
                graph = similarity.knn_graph(x, k=K, bandwidth=workload.bandwidth)
            workspace = SolveWorkspace(graph, backend="multigrid")
            with probe.layer("pipeline.hierarchy.peak_mib"):
                workspace.hierarchy()
            setup_times.append(clock() - start)
            for repeat in range(count):
                if repeat:  # a fresh workspace, so every sweep starts cold
                    workspace = SolveWorkspace(graph, backend="multigrid")
                    workspace.hierarchy()
                with probe.layer("pipeline.sweep.peak_mib"):
                    sweep = _sweep(workspace, y)
                _check(sweep, workspace, y)  # untimed, between sweeps
                if sweeps:  # only the last sweep's scores are kept
                    sweeps[-1].scores = []
                sweeps.append(sweep)
    rss = peak_rss_mib()
    probe.stop()

    # Correctness gate: every λ solve must meet the true residual bar.
    residuals = [r for sweep in sweeps for r in sweep.residuals]
    latencies = [
        seconds if residual <= RESIDUAL_TOL else math.inf
        for sweep in sweeps
        for seconds, residual in zip(sweep.solve_s, sweep.residuals)
    ]
    failed = sum(1 for r in residuals if not r <= RESIDUAL_TOL)
    last = sweeps[-1]
    rmses = [_rmse(f[n:], inputs.target[n:]) for f in last.scores if f is not None]

    # Per grid point, the median over sweeps; the tail is the slowest point.
    per_lambda = np.median(np.reshape(latencies, (len(sweeps), len(LAMBDAS))), axis=0)
    work_s = float(np.median([s.seconds for s in sweeps]))
    setup_s = float(np.median(setup_times))
    result = PassResult(attempted=len(latencies), failed=failed)
    result.e2e = {
        "time_to_solution_s": setup_s + work_s,
        "setup_s": setup_s,
        "work_s": work_s,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_tail_ms": float(per_lambda.max()) * 1e3,
        "rmse_unlabeled": min(rmses) if rmses else math.inf,
        "peak_rss_mib": rss,
    }
    result.notes = {
        "sweep_s": work_s,
        "sweeps": len(sweeps),
        "route": graph.params.get("construction"),
        "hierarchy_mode": workspace.stats().hierarchy_mode,
    }
    result.layers.update(probe.peaks_mib)
    result.wall_s = setup_times[-1] + last.seconds
    if tracer is not None:
        calls = tracer.calls
        stats = workspace.stats()
        hierarchy = workspace.hierarchy()  # cached: the one the sweep used
        graph_layers, matvec_s = _graph_layers(
            x,
            graph.weights,
            build_s=sum(calls.get("pipeline.graph", [])),
            init_s=sum(calls.get("pipeline.workspace", [])),
            matvec_matrix=workspace.laplacian,
        )
        solves_ms = np.asarray(calls["pipeline.sweep.solve"]) * 1e3
        result.layers.update(graph_layers)
        result.layers.update(
            {
                "pipeline.hierarchy.build_s": calls["pipeline.hierarchy"][0],
                "pipeline.hierarchy.levels": float(len(hierarchy.sizes) - 1),
                "pipeline.hierarchy.coarsest_size": float(hierarchy.sizes[-1]),
                "pipeline.hierarchy.retained_mib": _hierarchy_mib(hierarchy),
                "pipeline.sweep.solve_ms_p50": float(np.median(solves_ms)),
                "pipeline.sweep.solve_ms_max": float(solves_ms.max()),
                "pipeline.sweep.pcg_iterations": float(stats.pcg_iterations),
                "pipeline.sweep.iter_cost_matvecs": (
                    last.seconds / (stats.pcg_iterations * matvec_s)
                    if stats.pcg_iterations
                    else 0.0
                ),
                "pipeline.sweep.max_rel_residual": max(residuals),
            }
        )
        result.covered_s = sum(tracer.self_s.values())
    return result


# ----------------------------------------------------------------------
# Serving: fit, then requests through ModelServer
# ----------------------------------------------------------------------


@dataclass
class _Served:
    """Requests served so far, for the correctness gate and the report."""

    attempted: int = 0
    failed: int = 0
    latency_s: list = field(default_factory=list)  # one array per stretch
    queue_wait_s: list = field(default_factory=list)
    lag_s: list = field(default_factory=list)
    idle_s: float = 0.0
    closed_pass_s: list = field(default_factory=list)
    exact_s: float = 0.0
    checked: list = field(default_factory=list)  # (query rows or None, served values)
    server_stats: list = field(default_factory=list)


def _fit(workload, inputs: ServingInputs):
    from repro.serving import GraphSSLModel

    model = GraphSSLModel(
        graph="knn", graph_params={"k": K}, bandwidth=SERVING_BANDWIDTH
    )
    model.fit(inputs.x_labeled, inputs.y_labeled, inputs.x_unlabeled)
    if workload.method == "nw":
        model.predict_batch(inputs.warmup)
    else:  # builds the exact inserter
        model.predict_batch(inputs.warmup[:1], method="exact")
    return model


def _serve_nw(model, pool: np.ndarray, out: _Served, *, stretches: int, n_open: int, passes: int) -> None:
    """Open-loop stretches of ``n_open`` requests, then closed-loop passes."""
    from repro.serving import ModelServer

    for _ in range(stretches):
        server = ModelServer(model, method="nw", max_batch_size=MAX_BATCH)
        open_loop = run_open_loop(
            server, pool, rate=OPEN_RATE, n_requests=n_open, flush_after_s=FLUSH_AFTER_S
        )
        out.server_stats.append(server.stats())
        out.attempted += n_open
        out.failed += open_loop.failed
        out.latency_s.append(open_loop.latency_s)
        out.queue_wait_s.extend(open_loop.queue_wait_s)
        out.lag_s.extend(open_loop.lag_s)
        out.idle_s += open_loop.idle_s
        sample = np.arange(0, n_open, max(1, n_open // NW_PARITY_SAMPLE))
        out.checked.append((pool[sample % len(pool)], open_loop.values[sample]))
        out.checked.append((None, open_loop.values))

    closed = pool[:CLOSED_QUERIES]
    for _ in range(passes):
        server = ModelServer(model, method="nw", max_batch_size=MAX_BATCH)
        started = clock()
        tickets, answers = [], []
        for point in closed:
            try:
                tickets.append(server.submit(point))
            except Exception:
                tickets.append(None)
        try:
            server.flush()
        except Exception:
            pass  # every ticket of the failed batch carries the error
        for ticket in tickets:
            try:
                answers.append(ticket.result())
            except Exception:  # a refused request has no ticket
                answers.append(math.nan)
        out.closed_pass_s.append(clock() - started)
        values = np.asarray(answers)
        out.server_stats.append(server.stats())
        out.attempted += len(closed)
        out.failed += int(np.isnan(values).sum())
        stride = len(closed) // NW_PARITY_SAMPLE
        out.checked.append((closed[::stride], values[::stride]))
        out.checked.append((None, values))


def _serve_exact(model, queries: np.ndarray, out: _Served) -> None:
    """A single closed-loop client: submit, flush, await, next."""
    from repro.serving import ModelServer

    server = ModelServer(model, method="exact", max_batch_size=MAX_BATCH)
    values = np.full(len(queries), math.nan)
    latency = np.full(len(queries), math.inf)
    started = clock()
    for i, point in enumerate(queries):
        sent = clock()
        try:
            ticket = server.submit(point)
            out.queue_wait_s.append(clock() - sent)
            server.flush()
            values[i] = ticket.result()
            latency[i] = clock() - sent
        except Exception:
            out.failed += 1
    out.exact_s += clock() - started
    out.latency_s.append(latency)
    out.server_stats.append(server.stats())
    out.attempted += len(queries)
    sample = np.linspace(0, len(queries) - 1, min(EXACT_PARITY_SAMPLE, len(queries)))
    sample = sample.astype(np.intp)
    out.checked.append((queries[sample], values[sample]))
    out.checked.append((None, values))


def _serving_gate(model, workload, inputs: ServingInputs, served: _Served) -> int:
    """Failed served predictions: out of range, or not bit-equal to predict_batch."""
    if workload.method == "nw":
        low, high = float(model.scores_.min()), float(model.scores_.max())
    else:  # the hard criterion is harmonic: exact insertions stay within the labels
        low, high = float(inputs.y_labeled.min()), float(inputs.y_labeled.max())
    failed = 0
    for rows, values in served.checked:
        finite = values[np.isfinite(values)]
        if rows is None:
            failed += int(((finite < low) | (finite > high)).sum())
            continue
        expected = model.predict_batch(rows, method=workload.method)
        failed += int(((values != expected) & np.isfinite(values)).sum())
    return failed


def _run_serving(workload, inputs: ServingInputs, cfg, tracer, probe) -> PassResult:
    served = _Served()
    setup_times = []
    serve_wall = 0.0
    n_open = max(1, int(OPEN_RATE * cfg.seconds * OPEN_SHARE / OPEN_STRETCHES))
    stretches = spread(OPEN_STRETCHES, cfg.setups)
    passes = spread(max(3, int(CLOSED_PASSES_PER_SECOND * cfg.seconds)), cfg.setups)
    exact_starts = np.cumsum([0] + spread(EXACT_REQUESTS, cfg.setups))
    mark = None
    probe.start()
    with instrumented(tracer):
        for segment in range(cfg.setups):
            model = None  # release the previous set-up
            start = clock()
            with probe.layer("serving.fit.peak_mib"):
                model = _fit(workload, inputs)
            setup_times.append(clock() - start)
            if tracer is not None and mark is None:
                mark = tracer.mark()
            serve_start = clock()
            with probe.layer("serving.serve.peak_mib"):
                if workload.method == "nw":
                    _serve_nw(
                        model, inputs.queries, served,
                        stretches=stretches[segment], n_open=n_open, passes=passes[segment],
                    )
                else:
                    queries = inputs.queries[exact_starts[segment] : exact_starts[segment + 1]]
                    _serve_exact(model, queries, served)
            serve_wall += clock() - serve_start
    rss = peak_rss_mib()
    probe.stop()
    model_stats = model.stats()

    failed = served.failed + _serving_gate(model, workload, inputs, served)
    n = N_REFERENCE_LABELED
    if workload.method == "nw":
        work_s = float(np.median(served.closed_pass_s))
        throughput = CLOSED_QUERIES / work_s
        p50_s = float(np.median([percentile(s, 50) for s in served.latency_s]))
        tails = [tail(s) for s in served.latency_s]
        tail_s, tail_label = float(np.median([t for t, _ in tails])), tails[0][1]
    else:  # 100 requests: pooled, so p90 keeps ten samples beyond it
        work_s = served.exact_s
        throughput = EXACT_REQUESTS / work_s
        latencies = np.concatenate(served.latency_s)
        p50_s = percentile(latencies, 50)
        tail_s, tail_label = tail(latencies)
    setup_s = float(np.median(setup_times))
    result = PassResult(attempted=served.attempted, failed=failed)
    result.e2e = {
        "time_to_solution_s": setup_s + work_s,
        "setup_s": setup_s,
        "work_s": work_s,
        "latency_p50_ms": p50_s * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "rmse_unlabeled": _rmse(model.scores_[n:], inputs.target[n:]),
        "peak_rss_mib": rss,
    }
    result.notes = {
        "serve.throughput_qps": throughput,
        "serve.latency_p50_ms": result.e2e["latency_p50_ms"],
        f"serve.latency_{tail_label}_ms": result.e2e["latency_tail_ms"],
    }
    result.layers.update(probe.peaks_mib)
    result.wall_s = setup_times[-1] + serve_wall
    if tracer is not None:
        result.layers.update(
            _serving_layers(model, inputs, tracer, mark, served, model_stats)
        )
        result.covered_s = sum(tracer.self_s.values()) + served.idle_s
    return result


def _serving_layers(model, inputs, tracer, mark, served, model_stats):
    from repro.linalg.workspace import SolveWorkspace

    fit_calls = tracer.calls  # the fit's graph, workspace and solve spans
    self_s, calls = tracer.since(mark)
    weights = model.graph_.weights
    workspace = SolveWorkspace(weights)  # the fitted graph's public assembly
    x_ref = np.vstack([inputs.x_labeled, inputs.x_unlabeled])
    layers, _ = _graph_layers(
        x_ref,
        weights,
        build_s=sum(fit_calls.get("pipeline.graph", [])),
        init_s=sum(fit_calls.get("pipeline.workspace", [])),
        matvec_matrix=workspace.laplacian,
    )
    # The fit's one solve is the hard criterion: (D22 - W22) f_u = W21 y.
    n = inputs.y_labeled.shape[0]
    fit_solves_ms = np.asarray(fit_calls["pipeline.sweep.solve"]) * 1e3
    residual = relative_residual(
        workspace.hard_system(n),
        model.scores_[n:],
        np.asarray(weights[n:, :n] @ inputs.y_labeled).ravel(),
    )
    layers.update(
        {
            "pipeline.sweep.solve_ms_p50": float(np.median(fit_solves_ms)),
            "pipeline.sweep.solve_ms_max": float(fit_solves_ms.max()),
            "pipeline.sweep.pcg_iterations": float(model.result_.solve_info.iterations),
            "pipeline.sweep.max_rel_residual": residual,
        }
    )
    per_1k = 1e6 / served.attempted
    exact_ms = np.asarray(calls.get("serving.exact") or [0.0]) * 1e3
    server_stats = served.server_stats
    flushes = sum(s.flushes for s in server_stats)
    queue_wait = np.asarray(served.queue_wait_s, dtype=np.float64)
    queue_wait = queue_wait[np.isfinite(queue_wait)]
    lag = np.asarray(served.lag_s, dtype=np.float64)
    layers.update(
        {
            "serving.attach_ms_per_1k": self_s.get("serving.attach", 0.0) * per_1k,
            "serving.solve_ms_per_1k": (
                self_s.get("serving.solve", 0.0) + self_s.get("serving.exact", 0.0)
            )
            * per_1k,
            "serving.respond_ms_per_1k": self_s.get("serving.respond", 0.0) * per_1k,
            "serving.batch_size_mean": sum(s.answered for s in server_stats) / max(flushes, 1),
            "serving.flushes_full": float(sum(s.full_batches for s in server_stats)),
            "serving.flushes_timer": float(sum(s.manual_flushes for s in server_stats)),
            "serving.queue_wait_ms_p50": (
                percentile(queue_wait, 50) * 1e3 if queue_wait.size else 0.0
            ),
            "serving.exact.solve_ms_p50": float(np.median(exact_ms)),
            "serving.exact.iterations_per_query": (
                model_stats.exact_iterations / model_stats.exact_queries
                if model_stats.exact_queries
                else 0.0
            ),
            "serving.generator_lag_ms_p99": percentile(lag, 99) * 1e3 if lag.size else 0.0,
        }
    )
    return layers
