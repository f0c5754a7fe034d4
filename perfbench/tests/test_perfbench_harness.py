"""Tests for the benchmark's own helpers (run with ``pytest perfbench/tests``)."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

import run
from harness import (
    RESIDUAL_TOL,
    Tracer,
    knn_recall,
    percentile,
    relative_residual,
    run_open_loop,
    tail,
    tail_percentile,
)
from workloads import WORKLOADS, spread


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (999, 90.0), (100, 90.0), (99, None), (4, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_falls_back_to_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, "max")


def test_tail_p90_on_a_hundred_samples():
    values = np.arange(1, 101, dtype=float)
    assert tail(values) == (90.0, "p90")
    assert (values > 90.0).sum() == 10


def test_failures_sort_last_in_percentiles():
    values = [1.0, 2.0, math.inf]
    assert percentile(values, 50) == 2.0
    assert percentile(values, 100) == math.inf


# ----------------------------------------------------------------------
# Open-loop load generator on a synthetic clock
# ----------------------------------------------------------------------


class FakeClock:
    """Advances by ``tick`` on every read; ``advance`` models work done."""

    def __init__(self, tick=1e-6):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now

    def advance(self, seconds):
        self.now += seconds


class FakeTicket:
    def __init__(self):
        self.done = False
        self.value = None
        self.error = None

    def result(self):
        if self.error is not None:
            raise self.error
        return self.value


class FakeServer:
    """A micro-batcher whose flush costs ``fixed + per_query × batch``."""

    def __init__(self, clock, *, max_batch=64, fixed=0.0, per_query=0.0, fail=False):
        self.clock = clock
        self.max_batch = max_batch
        self.fixed = fixed
        self.per_query = per_query
        self.fail = fail
        self.queue = []
        self.flushes = 0

    def submit(self, point):
        ticket = FakeTicket()
        self.queue.append((ticket, float(point[0])))
        if len(self.queue) >= self.max_batch:
            self.flush()
        return ticket

    def flush(self):
        batch, self.queue = self.queue, []
        if not batch:
            return 0
        self.flushes += 1
        self.clock.advance(self.fixed + self.per_query * len(batch))
        for ticket, value in batch:
            ticket.done = True
            if self.fail:
                ticket.error = RuntimeError("batch failed")
            else:
                ticket.value = 2.0 * value
        if self.fail:
            raise RuntimeError("batch failed")
        return len(batch)


QUERIES = np.arange(10, dtype=float)[:, None]


def test_open_loop_latency_runs_from_due_time():
    clock = FakeClock()
    server = FakeServer(clock, fixed=1e-4)
    result = run_open_loop(
        server, QUERIES, rate=1000.0, n_requests=50, flush_after_s=0.002, clock=clock
    )
    assert result.failed == 0
    assert sum(result.batch_sizes) == 50
    # Light load: batched by the 2 ms timer, and submitted late only by a
    # flush that ran just before the due time.
    assert result.lag_s.max() < 1e-4 + 1e-5
    assert 1 < np.mean(result.batch_sizes) <= 3
    # Each latency covers the lag, the queue wait and the flush.
    assert np.all(result.latency_s >= result.lag_s + result.queue_wait_s + 1e-4)
    assert result.latency_s.max() < 0.002 + 1e-3 + 1e-4
    assert np.array_equal(result.values, 2.0 * QUERIES[np.arange(50) % 10, 0])
    assert result.idle_s > 0.0


def test_open_loop_timer_keys_on_enqueue_not_due_time():
    # Flushes cost far more than the arrival interval, so the generator
    # falls behind.  A timer keyed on due time would then flush after
    # every request; keyed on enqueue time, batches keep growing.
    clock = FakeClock()
    server = FakeServer(clock, max_batch=10_000, fixed=1e-3, per_query=1.5e-4)
    result = run_open_loop(
        server, QUERIES, rate=10_000.0, n_requests=2_000, flush_after_s=0.002, clock=clock
    )
    assert result.failed == 0
    assert result.lag_s.max() > 0.01  # the generator did fall behind
    assert server.flushes < 2_000 / 10
    assert np.mean(result.batch_sizes) > 10
    # Latency from the due time includes the generator's lateness.
    assert np.all(result.latency_s >= result.lag_s)


def test_open_loop_failed_requests_miss_every_limit():
    clock = FakeClock()
    server = FakeServer(clock, fail=True)
    result = run_open_loop(
        server, QUERIES, rate=1000.0, n_requests=20, flush_after_s=0.002, clock=clock
    )
    assert result.failed == 20
    assert np.all(np.isinf(result.latency_s))


def test_open_loop_refused_submissions_count_as_failed():
    clock = FakeClock()

    class Refusing(FakeServer):
        def submit(self, point):
            raise ValueError("refused")

    result = run_open_loop(
        Refusing(clock), QUERIES, rate=1000.0, n_requests=5, flush_after_s=0.002, clock=clock
    )
    assert result.failed == 5
    assert np.all(np.isinf(result.latency_s))


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------


def _soft_system(n=200, n_labeled=20, lam=0.5):
    main = np.full(n, 2.0)
    main[[0, -1]] = 1.0
    laplacian = sparse.diags([main, -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1], format="csr")
    indicator = np.zeros(n)
    indicator[:n_labeled] = 1.0
    rhs = np.zeros(n)
    rhs[:n_labeled] = np.sin(np.arange(n_labeled))
    return (lam * laplacian + sparse.diags(indicator)).tocsr(), rhs


def test_residual_check_accepts_an_exact_solution():
    system, rhs = _soft_system()
    solution = spsolve(system.tocsc(), rhs)
    assert relative_residual(system, solution, rhs) < 1e-12


def test_residual_check_rejects_a_perturbed_solution():
    system, rhs = _soft_system()
    solution = spsolve(system.tocsc(), rhs)
    perturbed = solution.copy()
    perturbed[7] += 1e-6
    assert not relative_residual(system, perturbed, rhs) <= RESIDUAL_TOL
    perturbed[7] = math.nan
    assert not relative_residual(system, perturbed, rhs) <= RESIDUAL_TOL


# ----------------------------------------------------------------------
# Tracing, recall, workload plumbing
# ----------------------------------------------------------------------


def test_tracer_self_time_excludes_children_and_restores():
    clock = FakeClock(tick=0.0)

    class Layer:
        def outer(self):
            clock.advance(1.0)
            self.inner()
            clock.advance(1.0)

        def inner(self):
            clock.advance(3.0)

    original = Layer.outer
    tracer = Tracer(clock)
    tracer.instrument(Layer, "outer", "outer")
    tracer.instrument(Layer, "inner", "inner")
    Layer().outer()
    tracer.restore()
    assert tracer.self_s == {"outer": pytest.approx(2.0), "inner": pytest.approx(3.0)}
    assert tracer.calls["outer"] == [pytest.approx(5.0)]
    assert Layer.outer is original


def test_knn_recall_is_one_for_exact_graph_and_drops_with_missing_edges():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(300, 4))
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    nbrs = np.argsort(d2, axis=1)[:, :5]
    rows = np.repeat(np.arange(300), 5)
    exact = sparse.csr_matrix((np.ones(rows.size), (rows, nbrs.ravel())), shape=(300, 300))
    sample = np.arange(0, 300, 3)
    assert knn_recall(x, exact, 5, sample) == 1.0
    pruned = sparse.csr_matrix(
        (np.ones(300 * 4), (np.repeat(np.arange(300), 4), nbrs[:, :4].ravel())), shape=(300, 300)
    )
    assert knn_recall(x, pruned, 5, sample) == pytest.approx(0.8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_deterministic_per_seed(name):
    make = WORKLOADS[name].make_inputs
    first, again, other = make(3), make(3), make(4)
    for field_name in first.__dataclass_fields__:
        a, b, c = (getattr(v, field_name) for v in (first, again, other))
        assert np.array_equal(a, b), field_name
        assert not np.array_equal(a, c), field_name


def test_spread_puts_the_remainder_last():
    assert spread(1, 3) == [0, 0, 1]
    assert spread(30, 3) == [10, 10, 10]
    assert spread(7, 3) == [2, 2, 3]


def test_benchmark_manifest_matches_the_printed_metrics():
    manifest = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in manifest["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.LAYER_UNITS
