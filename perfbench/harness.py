"""Measurement helpers shared by the benchmark's workloads.

Nothing here imports the program under test: each helper takes the
program's objects (a server, a sparse matrix, a class to instrument) as
arguments, so the unit tests in ``tests/`` drive them with stand-ins and
a synthetic clock.
"""

from __future__ import annotations

import functools
import math
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

#: A tail percentile is reported only when at least this many samples lie
#: beyond it.
MIN_TAIL_SAMPLES = 10

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.0, 90.0)

#: Largest true relative residual ``‖A f − b‖ / ‖b‖`` a λ solve may leave.
RESIDUAL_TOL = 1e-8

MIB = 1024.0 * 1024.0


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def tail_percentile(n_samples: int) -> float | None:
    """The highest percentile of :data:`TAIL_LADDER` with ≥ 10 samples beyond it.

    ``None`` when even the lowest rung leaves fewer than ten samples
    beyond it; callers then report the maximum.
    """
    for pct in TAIL_LADDER:
        if n_samples * (100.0 - pct) / 100.0 >= MIN_TAIL_SAMPLES:
            return pct
    return None


def percentile(values, pct: float) -> float:
    """Nearest-rank (lower) percentile; ``inf`` entries (failures) sort last.

    Never interpolates, so a single infinite sample cannot turn a
    neighbouring rank into ``nan``, and p90 of 100 samples leaves exactly
    ten beyond it.
    """
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, pct, method="lower"))


def tail(values) -> tuple[float, str]:
    """``(value, label)`` of the tail percentile rule, e.g. ``(3.1, "p99")``."""
    values = np.asarray(values, dtype=np.float64)
    pct = tail_percentile(values.size)
    if pct is None:
        return float(values.max()), "max"
    return percentile(values, pct), f"p{pct:g}"


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------


def relative_residual(system, solution, rhs) -> float:
    """True relative residual ``‖A x − b‖ / ‖b‖`` of a computed solution."""
    rhs = np.asarray(rhs, dtype=np.float64)
    residual = np.asarray(system @ np.asarray(solution, dtype=np.float64)).ravel() - rhs
    return float(np.linalg.norm(residual) / np.linalg.norm(rhs))


def knn_recall(x: np.ndarray, weights, k: int, rows) -> float:
    """Share of each sampled row's true k nearest neighbours the graph keeps.

    Exact neighbours come from brute force: a blocked Gram-matrix pass
    short-lists ``k + 8`` candidates, whose distances are then recomputed
    from coordinate differences so rounding in the Gram identity cannot
    reorder near ties.  ``weights`` is the graph's CSR weight matrix; a
    neighbour counts as kept when row ``i`` has an edge to it.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.intp)
    n = x.shape[0]
    short = min(n - 1, k + 8)
    sq_norms = np.einsum("ij,ij->i", x, x)
    block = max(1, int(4_000_000 // max(n, 1)))
    hits = 0
    for start in range(0, rows.size, block):
        chunk = rows[start : start + block]
        d2 = sq_norms[chunk, None] + sq_norms[None, :] - 2.0 * (x[chunk] @ x.T)
        d2[np.arange(chunk.size), chunk] = np.inf
        candidates = np.argpartition(d2, short - 1, axis=1)[:, :short]
        for j, i in enumerate(chunk):
            cand = candidates[j]
            exact = ((x[cand] - x[i]) ** 2).sum(axis=1)
            true_nbrs = cand[np.lexsort((cand, exact))[:k]]
            kept = weights.indices[weights.indptr[i] : weights.indptr[i + 1]]
            hits += int(np.isin(true_nbrs, kept).sum())
    return hits / (rows.size * k)


def time_matvec(matrix, repeats: int = 31) -> float:
    """Median seconds of one ``matrix @ v`` over ``repeats`` calls."""
    v = np.ones(matrix.shape[1])
    matrix @ v
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        matrix @ v
        times.append(time.perf_counter() - start)
    return float(np.median(times))


# ----------------------------------------------------------------------
# Tracing and memory
# ----------------------------------------------------------------------


class Tracer:
    """Benchmark-side spans around the program's public entry points.

    :meth:`instrument` replaces an attribute (a module function or a
    class method) by a wrapper that records a span under a layer name;
    :meth:`restore` puts every original back.  Spans nest on a stack, so
    each keeps its self time (duration minus time covered by child
    spans); per-layer totals and per-call durations are kept in memory.
    The wrapper is a plain function, not a context manager, because the
    serving layers are entered several times per request.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, list[float]] = {}
        self._children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def instrument(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        clock, children, self_s = self.clock, self._children, self.self_s
        durations = self.calls.setdefault(name, [])
        self_s.setdefault(name, 0.0)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                duration = clock() - start
                durations.append(duration)
                self_s[name] += duration - children.pop()
                if children:
                    children[-1] += duration

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def mark(self) -> tuple[dict, dict]:
        """A snapshot for :meth:`since`."""
        return dict(self.self_s), {name: len(c) for name, c in self.calls.items()}

    def since(self, mark) -> tuple[dict, dict]:
        """Self-time totals and per-call durations recorded after ``mark``."""
        self_before, counts_before = mark
        self_s = {
            name: total - self_before.get(name, 0.0)
            for name, total in self.self_s.items()
        }
        calls = {
            name: durations[counts_before.get(name, 0) :]
            for name, durations in self.calls.items()
        }
        return self_s, calls


class MemoryProbe:
    """Per-layer tracemalloc peaks, for the dedicated memory pass only.

    ``layer(name)`` records the traced-allocation peak above the level
    at entry.  Layers must not nest: each entry resets the peak.
    """

    def __init__(self):
        self.peaks_mib: dict[str, float] = {}

    def start(self) -> None:
        tracemalloc.start()

    def stop(self) -> None:
        tracemalloc.stop()

    @contextmanager
    def layer(self, name: str):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            peak = (tracemalloc.get_traced_memory()[1] - base) / MIB
            self.peaks_mib[name] = max(self.peaks_mib.get(name, 0.0), peak)


class NullProbe:
    """The probe of the timing and traced passes: records nothing."""

    def __init__(self):
        self.peaks_mib: dict[str, float] = {}

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def layer(self, name: str):
        return nullcontext()


# ----------------------------------------------------------------------
# Open-loop load generation
# ----------------------------------------------------------------------


@dataclass
class OpenLoopResult:
    """Per-request accounting of one open-loop phase.

    ``latency_s`` runs from each request's *due* time to the moment its
    batch's flush returned (``inf`` for refused or failed requests);
    ``lag_s`` is how late the generator submitted it; ``queue_wait_s``
    is enqueue to the start of the flush that served it.
    """

    latency_s: np.ndarray
    lag_s: np.ndarray
    queue_wait_s: np.ndarray
    values: np.ndarray
    batch_sizes: list[int] = field(default_factory=list)
    failed: int = 0
    idle_s: float = 0.0


def run_open_loop(
    server,
    queries: np.ndarray,
    *,
    rate: float,
    n_requests: int,
    flush_after_s: float,
    clock=time.perf_counter,
) -> OpenLoopResult:
    """Submit ``n_requests`` on a fixed schedule of ``rate`` per second.

    Request ``i`` is due at ``t0 + i / rate`` and cycles through
    ``queries``.  While waiting for the next due time the generator
    flushes the server once the *oldest queued* request has waited
    ``flush_after_s`` since it was enqueued.  Keying the timer on enqueue
    rather than due time matters: once the generator runs late every
    due time is already stale, and a due-keyed timer would flush after
    every single request.
    """
    # Plain lists, and tickets dropped once read: the generator must stay
    # cheap, and a growing set of live objects would lengthen the
    # collector's pauses inside the measured phase.
    latency = [math.inf] * n_requests
    lag = [math.nan] * n_requests
    queue_wait = [math.nan] * n_requests
    values = [math.nan] * n_requests
    enqueued = [0.0] * n_requests
    tickets: list = [None] * n_requests
    result = OpenLoopResult(latency, lag, queue_wait, values)
    pending: list[int] = []

    def resolve(flush_start: float, done_at: float) -> None:
        result.batch_sizes.append(len(pending))
        for j in pending:
            queue_wait[j] = flush_start - enqueued[j]
            ticket, tickets[j] = tickets[j], None
            try:
                values[j] = ticket.result()
            except Exception:
                result.failed += 1
                continue
            latency[j] = done_at - (t0 + j / rate)
        pending.clear()

    def timer_flush() -> float:
        start = clock()
        try:
            server.flush()
        except Exception:
            pass  # the server resolved every ticket of the batch with the error
        end = clock()
        resolve(start, end)
        return end - start

    t0 = clock()
    for i in range(n_requests):
        due = t0 + i / rate
        waited_from = clock()
        busy = 0.0
        while True:
            now = clock()
            if pending and now - enqueued[pending[0]] >= flush_after_s:
                busy += timer_flush()
                continue
            if now >= due:
                break
        result.idle_s += max(0.0, now - waited_from - busy)
        enqueued[i] = now
        lag[i] = now - due
        try:
            ticket = server.submit(queries[i % len(queries)])
        except Exception:
            result.failed += 1
            continue
        tickets[i] = ticket
        pending.append(i)
        if ticket.done:  # this request filled the batch and flushed it
            resolve(now, clock())
    while pending:
        waited_from = clock()
        now = waited_from
        while now - enqueued[pending[0]] < flush_after_s:
            now = clock()
        result.idle_s += now - waited_from
        timer_flush()
    for name in ("latency_s", "lag_s", "queue_wait_s", "values"):
        setattr(result, name, np.asarray(getattr(result, name), dtype=np.float64))
    return result
