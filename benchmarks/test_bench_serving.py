"""Bench: serving throughput — single-query loop vs micro-batched server.

Fits one knn reference graph at N = 10,000 (the serving scale story:
per-query attachment is a kd-tree lookup, never an O(N^2) rebuild) and
serves the same fresh-query workload two ways:

* ``serving_single_query_n10000`` — a loop of one-point ``predict``
  calls: the per-request cost an unbatched caller pays (validation,
  span, extraction dispatch per query);
* ``serving_batched_n10000`` — the identical workload streamed through
  :class:`~repro.serving.server.ModelServer`, which amortizes all of
  that across ``BATCH_SIZE``-query flushes.

Both timings land in the session :class:`BenchRecorder` (so ``obs
trend`` gates them run-over-run) and in per-bench JSON twins next to the
``.txt`` table.  Acceptance: batched throughput must be at least 5x the
single-query path — batching is the serving layer's whole performance
thesis, so its erosion is a hard failure, not a trend note.

The determinism contract (batched == looped, bitwise) is asserted here
on the real N=10^4 workload too; see tests/test_serving_determinism.py
for the exhaustive small-scale matrix.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from conftest import REPEATS, publish

from repro.datasets.synthetic import make_regression_dataset, truncated_mvn_inputs
from repro.experiments.report import ascii_table
from repro.obs.bench import BenchRecord
from repro.serving import GraphSSLModel, ModelServer
from repro.utils.timing import collect_timings

N_REFERENCE = 10_000
N_LABELED = 500
K_NEIGHBOURS = 10
BATCH_SIZE = 256
#: Full workload streamed through the server per timed pass.
N_QUERIES = 2048
#: Queries in the single-call loop per timed pass (kept modest so one
#: pass stays in seconds; qps normalizes the comparison).
N_SINGLE = 128

REQUIRED_SPEEDUP = 5.0


def test_bench_serving_throughput(bench, results_dir):
    rng = np.random.default_rng(42)
    data = make_regression_dataset(N_LABELED, N_REFERENCE - N_LABELED, seed=rng)
    queries = truncated_mvn_inputs(N_QUERIES, seed=rng)

    model = GraphSSLModel(graph="knn", graph_params={"k": K_NEIGHBOURS})
    _, fit_record = bench.measure(
        "serving_fit_n10000", lambda: model.fit(
            data.x_labeled, data.y_labeled, data.x_unlabeled
        ),
        repeats=1,
    )

    single_values, single_record = bench.measure(
        "serving_single_query_n10000",
        lambda: np.asarray(
            [
                model.predict(queries[i : i + 1])[0]
                for i in range(N_SINGLE)
            ]
        ),
        repeats=REPEATS,
    )

    def batched_pass() -> np.ndarray:
        server = ModelServer(model, max_batch_size=BATCH_SIZE)
        return server.predict_many(queries)

    batched_values, batched_record = bench.measure(
        "serving_batched_n10000", batched_pass, repeats=REPEATS
    )

    # Determinism at scale: the batched stream answers the loop's
    # queries with the loop's exact bits.
    assert np.array_equal(batched_values[:N_SINGLE], single_values)

    single_qps = N_SINGLE / single_record.min_s
    batched_qps = N_QUERIES / batched_record.min_s
    speedup = batched_qps / single_qps

    rows = [
        ["fit (once)", "-", f"{fit_record.min_s:.2f}s", "-"],
        ["single predict()", N_SINGLE, f"{single_qps:,.0f} q/s", "1.00x"],
        [
            f"batched (batch={BATCH_SIZE})",
            N_QUERIES,
            f"{batched_qps:,.0f} q/s",
            f"{speedup:.2f}x",
        ],
    ]
    table = ascii_table(["path", "queries/pass", "throughput", "speedup"], rows)
    text = (
        f"serving throughput: N={N_REFERENCE:,} knn(k={K_NEIGHBOURS}) "
        f"reference graph, method=nw\n{table}\n"
        f"acceptance: batched >= {REQUIRED_SPEEDUP:g}x single-query"
    )
    publish(results_dir, "serving_throughput", text, record=batched_record)
    single_record.write_json(results_dir / "serving_single_query.json")

    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched serving is only {speedup:.2f}x the single-query path "
        f"(gate: {REQUIRED_SPEEDUP:g}x)"
    )


#: Telemetry may cost at most this fraction of batched throughput,
#: judged on the median of per-pair overheads.
MAX_TELEMETRY_OVERHEAD = 0.05

#: Alternating (off, full) timing pairs.  One pass takes about 30 ms, so
#: the 5% budget is about 1.5 ms: a ratio of minima taken seconds apart
#: moves by more than that with host load, while the two passes of one
#: pair share it.
TELEMETRY_PAIRS = max(15, REPEATS)

#: Delay added to the negative control's "full" leg, as a fraction of the
#: median telemetry-off pass: twice the budget, so a gate that cannot see
#: it fails the control.
CONTROL_DELAY = 0.10


def _paired_overhead(off_pass, full_pass, pairs):
    """Time ``pairs`` back-to-back (off, full) pairs, alternating which
    leg runs first.  Returns the median of the per-pair overheads
    ``full/off - 1`` and each leg's samples."""
    samples = {"off": [], "full": []}
    legs = {"off": off_pass, "full": full_pass}
    order = ["off", "full"]
    for _ in range(pairs):
        for leg in order:
            timings, _ = collect_timings(legs[leg], 1)
            samples[leg] += timings
        order.reverse()
    overhead = statistics.median(
        full / off - 1.0 for off, full in zip(samples["off"], samples["full"])
    )
    return overhead, samples


def test_bench_serving_telemetry_overhead(bench, results_dir):
    """PR 8's hot-path budget: full request telemetry (latency/queue-wait
    histograms, phase timings, drift watchdog) must stay under
    ``MAX_TELEMETRY_OVERHEAD`` of batched throughput at N=10^4.

    Two identical workloads, one on a model with telemetry on (the
    default) and one on the opt-out (``telemetry=False``; each server
    records through its model's telemetry), timed in
    :data:`TELEMETRY_PAIRS` alternating pairs; the gate reads the median
    of the per-pair overheads, so load that shifts both passes of a pair
    cancels.  A negative control runs the same
    comparison against a "full" leg delayed by :data:`CONTROL_DELAY` of
    an off pass and must fail the gate.  Predictions are asserted
    bitwise identical — telemetry is observation, never behavior.
    """
    rng = np.random.default_rng(42)
    data = make_regression_dataset(N_LABELED, N_REFERENCE - N_LABELED, seed=rng)
    queries = truncated_mvn_inputs(N_QUERIES, seed=rng)

    instrumented = GraphSSLModel(graph="knn", graph_params={"k": K_NEIGHBOURS})
    instrumented.fit(data.x_labeled, data.y_labeled, data.x_unlabeled)
    bare = GraphSSLModel(
        graph="knn", graph_params={"k": K_NEIGHBOURS}, telemetry=False
    )
    bare.fit(data.x_labeled, data.y_labeled, data.x_unlabeled)

    def full_pass() -> np.ndarray:
        server = ModelServer(instrumented, max_batch_size=BATCH_SIZE)
        return server.predict_many(queries)

    def off_pass() -> np.ndarray:
        server = ModelServer(bare, max_batch_size=BATCH_SIZE)
        return server.predict_many(queries)

    assert np.array_equal(full_pass(), off_pass())

    overhead, samples = _paired_overhead(off_pass, full_pass, TELEMETRY_PAIRS)
    records = {
        leg: BenchRecord.from_samples(
            f"serving_batched_telemetry_{leg}_n10000",
            samples[leg],
            environment=bench.environment,
            scale=bench.scale,
        )
        for leg in ("off", "full")
    }
    for record in records.values():
        bench.add(record)

    delay = CONTROL_DELAY * statistics.median(samples["off"])

    def delayed_full_pass() -> np.ndarray:
        values = full_pass()
        time.sleep(delay)
        return values

    control, _ = _paired_overhead(off_pass, delayed_full_pass, TELEMETRY_PAIRS)

    off_qps = N_QUERIES / records["off"].median_s
    full_qps = N_QUERIES / records["full"].median_s
    rows = [
        ["telemetry off", f"{off_qps:,.0f} q/s", "-"],
        ["telemetry full", f"{full_qps:,.0f} q/s", f"{100 * overhead:+.2f}%"],
        [
            f"control: full + {100 * CONTROL_DELAY:g}% delay",
            "-",
            f"{100 * control:+.2f}%",
        ],
    ]
    table = ascii_table(["mode", "throughput (median)", "median pair overhead"], rows)
    text = (
        f"serving telemetry overhead: N={N_REFERENCE:,} "
        f"knn(k={K_NEIGHBOURS}), batch={BATCH_SIZE}, "
        f"{N_QUERIES} queries/pass\n{table}\n"
        f"acceptance: median of {TELEMETRY_PAIRS} alternating pair overheads "
        f"< {100 * MAX_TELEMETRY_OVERHEAD:g}%, and the delayed control fails it"
    )
    publish(results_dir, "serving_telemetry_overhead", text, record=records["full"])
    records["off"].write_json(results_dir / "serving_batched_telemetry_off.json")

    assert control >= MAX_TELEMETRY_OVERHEAD, (
        f"the gate missed a {100 * CONTROL_DELAY:g}% delay: the control read "
        f"{100 * control:.2f}% (budget: {100 * MAX_TELEMETRY_OVERHEAD:g}%)"
    )
    assert overhead < MAX_TELEMETRY_OVERHEAD, (
        f"full serving telemetry costs {100 * overhead:.2f}% of batched "
        f"throughput in the median pair (budget: {100 * MAX_TELEMETRY_OVERHEAD:g}%)"
    )
