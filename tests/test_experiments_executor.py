"""Tests for the parallel replicate executor.

The contract under test: for a fixed master seed, ``run_replicates`` at
any ``n_jobs`` returns a :class:`ReplicateSummary` *exactly* equal to
the serial result (same seed stream, same ordering, same floats), and
observability (span subtrees, metric counters) survives the process
boundary.  Unpicklable callables must degrade to serial with a warning,
never crash.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import obs
from repro.exceptions import ConfigurationError
from repro.experiments.executor import (
    ParallelFallbackWarning,
    default_chunksize,
    execute_replicates,
    resolve_n_jobs,
)
from repro.experiments.runner import run_replicates
from repro.utils.rng import spawn_seeds


def _draw_replicate(rng):
    """Module-level (picklable) replicate: metrics derived from the stream."""
    return {"u": float(rng.random()), "v": float(rng.normal())}


def _counting_replicate(rng):
    """Replicate that exercises worker-side spans and metrics."""
    registry = obs.get_registry()
    registry.counter("test.replicate_calls").inc()
    registry.log_histogram("test.draws").observe(rng.random())
    with obs.span("test.inner", kind="work") as span:
        value = float(rng.random())
        if span.recording:
            span.set_attribute("value", value)
    return {"value": value}


class TestResolveNJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1

    def test_minus_one_uses_cpu_count(self):
        assert resolve_n_jobs(-1) >= 1

    def test_invalid_values_raise(self):
        for bad in (0, -2, -100):
            with pytest.raises(ConfigurationError):
                resolve_n_jobs(bad)

    def test_positive_passthrough(self):
        assert resolve_n_jobs(4) == 4


class TestDefaultChunksize:
    def test_targets_four_chunks_per_worker(self):
        assert default_chunksize(100, 4) == 7
        assert default_chunksize(8, 2) == 1

    def test_never_below_one(self):
        assert default_chunksize(1, 16) == 1
        assert default_chunksize(0, 4) == 1


class TestSeedStreamStability:
    def test_spawn_seeds_survive_pickling(self):
        """SeedSequence children generate identical streams after a
        process-boundary round-trip (what workers actually receive)."""
        for seed_seq in spawn_seeds(42, 5):
            shipped = pickle.loads(pickle.dumps(seed_seq))
            local = np.random.default_rng(seed_seq).random(8)
            remote = np.random.default_rng(shipped).random(8)
            assert np.array_equal(local, remote)

    def test_spawn_seeds_deterministic(self):
        a = [s.generate_state(4) for s in spawn_seeds(7, 3)]
        b = [s.generate_state(4) for s in spawn_seeds(7, 3)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestParallelParity:
    def test_summary_exactly_equals_serial(self):
        serial = run_replicates(_draw_replicate, n_replicates=12, seed=99)
        parallel = run_replicates(_draw_replicate, n_replicates=12, seed=99, n_jobs=2)
        assert parallel == serial  # dataclass equality: means/stds/sems/values
        assert parallel.values == serial.values  # exact tuples, not approx

    def test_parity_across_job_counts(self):
        results = [
            run_replicates(_draw_replicate, n_replicates=9, seed=5, n_jobs=n)
            for n in (1, 2, 4)
        ]
        assert results[0] == results[1] == results[2]

    def test_replicate_ordering_preserved(self):
        """values tuples are in replicate-index order, not completion order."""
        serial = run_replicates(_draw_replicate, n_replicates=16, seed=3)
        parallel = run_replicates(_draw_replicate, n_replicates=16, seed=3, n_jobs=4)
        assert parallel.values["u"] == serial.values["u"]

    def test_executor_returns_outcomes_in_order(self):
        seeds = spawn_seeds(11, 6)
        outcomes = execute_replicates(
            _draw_replicate, seeds, n_jobs=2, record_spans=False
        )
        assert outcomes is not None
        assert [o.index for o in outcomes] == list(range(6))

    def test_serial_request_returns_none(self):
        seeds = spawn_seeds(0, 3)
        assert execute_replicates(_draw_replicate, seeds, n_jobs=1) is None


class TestPicklingFallback:
    def test_lambda_falls_back_with_warning(self):
        with pytest.warns(ParallelFallbackWarning, match="cannot be pickled"):
            summary = run_replicates(
                lambda rng: {"x": float(rng.random())},
                n_replicates=4,
                seed=1,
                n_jobs=2,
            )
        # The fallback still produces the correct serial result.
        reference = run_replicates(
            lambda rng: {"x": float(rng.random())}, n_replicates=4, seed=1
        )
        assert summary == reference

    def test_closure_falls_back_with_warning(self):
        offset = 10.0

        def replicate(rng):
            return {"x": offset + rng.random()}

        with pytest.warns(ParallelFallbackWarning):
            summary = run_replicates(replicate, n_replicates=3, seed=0, n_jobs=2)
        assert summary.n_replicates == 3


class TestObservabilityAcrossProcesses:
    def test_span_subtrees_are_merged(self):
        tracer = obs.RecordingTracer()
        with obs.use_tracer(tracer), obs.use_registry():
            with obs.span("experiment"):
                run_replicates(_counting_replicate, n_replicates=4, seed=0, n_jobs=2)
        names = [s.name for s in tracer.iter_spans()]
        assert names.count("repro.replicate") == 4
        assert names.count("test.inner") == 4
        # Worker subtrees are grafted under the span open at merge time.
        root = tracer.roots[0]
        assert root.name == "experiment"
        replicates = [c for c in root.children if c.name == "repro.replicate"]
        assert len(replicates) == 4
        for rep in replicates:
            assert [c.name for c in rep.children] == ["test.inner"]
            assert "metric.value" in rep.attributes

    def test_replicate_span_attributes_match_serial(self):
        def collect(n_jobs):
            tracer = obs.RecordingTracer()
            with obs.use_tracer(tracer), obs.use_registry():
                run_replicates(
                    _counting_replicate, n_replicates=3, seed=8, n_jobs=n_jobs
                )
            return [
                s.attributes
                for s in tracer.iter_spans()
                if s.name == "repro.replicate"
            ]

        serial = collect(1)
        parallel = collect(2)
        assert [a["metric.value"] for a in parallel] == [
            a["metric.value"] for a in serial
        ]
        assert [a["index"] for a in parallel] == [0, 1, 2]

    def test_metrics_merged_into_parent_registry(self):
        def draws(n_jobs):
            with obs.use_registry() as registry:
                run_replicates(
                    _counting_replicate, n_replicates=5, seed=2, n_jobs=n_jobs
                )
            assert registry.counter("test.replicate_calls").value == 5
            assert registry.counter("replicates.completed").value == 5
            return registry.log_histogram("test.draws")

        serial, parallel = draws(1), draws(2)
        assert parallel.count == serial.count == 5
        # bucket counts add across workers, so the merge is exact
        assert parallel.buckets == serial.buckets
        assert parallel.zero_count == serial.zero_count
        assert (parallel.min, parallel.max) == (serial.min, serial.max)

    def test_no_spans_recorded_when_tracing_disabled(self):
        with obs.use_registry():
            summary = run_replicates(
                _counting_replicate, n_replicates=3, seed=2, n_jobs=2
            )
        assert summary.n_replicates == 3


class TestRegistryStateMerge:
    def test_counter_gauge_histogram_roundtrip(self):
        source = obs.MetricsRegistry()
        source.counter("c").inc(3)
        source.gauge("g").set(1.5)
        for value in (1.0, 2.0, 3.0):
            source.log_histogram("h").observe(value)

        target = obs.MetricsRegistry()
        target.counter("c").inc(1)
        target.merge_state(source.to_state())
        assert target.counter("c").value == 4
        assert target.gauge("g").value == 1.5
        merged = target.log_histogram("h")
        assert merged.count == 3
        assert merged.total == 6.0
        assert merged.min == 1.0 and merged.max == 3.0

    def test_kind_conflict_raises(self):
        source = obs.MetricsRegistry()
        source.counter("name").inc()
        target = obs.MetricsRegistry()
        target.gauge("name").set(1.0)
        with pytest.raises(TypeError):
            target.merge_state(source.to_state())

    def test_unknown_kind_raises(self):
        target = obs.MetricsRegistry()
        with pytest.raises(ValueError, match="unknown kind"):
            target.merge_state({"x": {"kind": "mystery", "value": 1}})
        # so is the "histogram" kind found in older dumps
        with pytest.raises(ValueError, match="unknown kind 'histogram'"):
            target.merge_state({"h": {"kind": "histogram", "count": 1}})


class TestAdoptRecords:
    def test_adopts_under_open_span(self):
        worker = obs.RecordingTracer()
        with obs.use_tracer(worker):
            with obs.span("outer", index=0):
                with obs.span("inner"):
                    pass

        parent = obs.RecordingTracer()
        with obs.use_tracer(parent):
            with obs.span("session"):
                parent.adopt_records(worker.to_records())
        session = parent.roots[0]
        assert [c.name for c in session.children] == ["outer"]
        outer = session.children[0]
        assert outer.depth == 1
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.children[0].depth == 2
        assert outer.attributes == {"index": 0}

    def test_adopts_as_roots_without_open_span(self):
        worker = obs.RecordingTracer()
        with obs.use_tracer(worker):
            with obs.span("solo"):
                pass
        parent = obs.RecordingTracer()
        parent.adopt_records(worker.to_records())
        assert [r.name for r in parent.roots] == ["solo"]
        assert parent.roots[0].parent_id is None

    def test_durations_and_ids_preserved_and_reassigned(self):
        worker = obs.RecordingTracer()
        with obs.use_tracer(worker):
            with obs.span("timed"):
                pass
        duration = worker.roots[0].duration

        parent = obs.RecordingTracer()
        with obs.use_tracer(parent):
            with obs.span("session"):
                parent.adopt_records(worker.to_records())
        adopted = parent.roots[0].children[0]
        assert adopted.duration == duration
        assert adopted.span_id == 2  # fresh id from the parent's counter
