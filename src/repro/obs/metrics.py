"""Counters, gauges, and log-bucket histograms with an injectable registry.

The default registry is process-global (:func:`get_registry`) so library
code can record without plumbing a registry argument through every call;
tests inject a fresh :class:`MetricsRegistry` via :func:`use_registry` to
stay isolated from each other.  Recording is cheap — a dict lookup plus a
float update — so instrumented paths record unconditionally.

There is one histogram type, :class:`LogBucketHistogram`: its memory is
bounded by the range of the observed values, its quantiles carry a
relative-error bound, and worker states merge into it exactly.

    from repro import obs

    registry = obs.get_registry()
    registry.counter("solves.hard").inc()
    registry.log_histogram("solver.cg.iterations").observe(42)
"""

from __future__ import annotations

import math
from contextlib import contextmanager

__all__ = [
    "Counter",
    "Gauge",
    "LogBucketHistogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]


class Counter:
    """Monotonically increasing count (events, dropped samples, ...)."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}

    def to_state(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def merge_state(self, state: dict) -> None:
        self.inc(float(state.get("value", 0.0)))


class Gauge:
    """Last-written value (current problem size, active lambda, ...)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = math.nan

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict:
        return {"value": self.value}

    def to_state(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def merge_state(self, state: dict) -> None:
        value = float(state.get("value", math.nan))
        if not math.isnan(value):
            self.value = value


class LogBucketHistogram:
    """Log-bucketed distribution with relative-error-bounded quantiles.

    Used for every distribution the package records, from per-request
    latencies to solver iteration counts and system sizes.  Raw samples
    are not kept (a long-lived server observes millions of latencies);
    observations are counted into geometric buckets instead.  Bucket
    ``i`` covers ``(gamma^(i-1), gamma^i]`` with
    ``gamma = (1 + a) / (1 - a)`` for the configured relative accuracy
    ``a``, so:

    * memory is bounded by the *dynamic range* of the values, never the
      observation count (~490 buckets span 1 ns to 10^12 s at the
      default 5% accuracy);
    * :meth:`quantile` answers with guaranteed relative error ``<= a``:
      the estimate for a bucket is ``2 * gamma^i / (gamma + 1)``, whose
      worst-case relative deviation from any true value in the bucket is
      exactly ``a``;
    * :meth:`merge_state` is *exact* — bucket counts add — so grafting
      worker registries (:meth:`MetricsRegistry.merge_state`) loses
      nothing.

    Non-positive observations (a clock that went backwards, a zero-cost
    path) land in a dedicated zero bucket reported as ``0.0``.
    """

    __slots__ = (
        "name",
        "relative_error",
        "count",
        "total",
        "min",
        "max",
        "zero_count",
        "_buckets",
        "_log_gamma",
        "_pending",
        "_scalars",
        "_n_pending",
    )

    kind = "log_histogram"

    #: Default quantile relative-error bound (see class docstring).
    DEFAULT_RELATIVE_ERROR = 0.05

    #: Bucket indexes are clamped to this range so adversarial values
    #: (denormals, 1e300) cannot grow the table without bound.
    MIN_INDEX = -1000
    MAX_INDEX = 1000

    #: Deferred-bucketing buffer cap (values, not bytes): observations
    #: queue here and fold into buckets in one vectorized pass once the
    #: pool reaches this size (or on any read), so memory stays bounded
    #: while recording pays only the exact scalar aggregates.
    PENDING_LIMIT = 8192

    def __init__(self, name: str, *, relative_error: float | None = None):
        if relative_error is None:
            relative_error = self.DEFAULT_RELATIVE_ERROR
        if not 0.0 < relative_error < 1.0:
            raise ValueError(
                f"relative_error must be in (0, 1), got {relative_error}"
            )
        self.name = name
        self.relative_error = float(relative_error)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.zero_count = 0
        self._buckets: dict[int, int] = {}
        self._log_gamma = math.log(self.gamma)
        self._pending: list = []
        self._scalars: list[float] = []
        self._n_pending = 0

    @property
    def gamma(self) -> float:
        return (1.0 + self.relative_error) / (1.0 - self.relative_error)

    @property
    def buckets(self) -> dict[int, int]:
        """The bucket table, with any deferred observations folded in."""
        self._drain()
        return self._buckets

    def _representative(self, index: int) -> float:
        gamma = self.gamma
        return 2.0 * gamma**index / (gamma + 1.0)

    def observe(self, value: float) -> None:
        """Record one value; bucketing is deferred like :meth:`observe_many`."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if 0.0 < value < math.inf:
            self._scalars.append(value)
            self._n_pending += 1
            if self._n_pending >= self.PENDING_LIMIT:
                self._drain()
        else:
            self.zero_count += 1

    def observe_many(self, values) -> None:
        """Vectorized :meth:`observe` for a whole batch of values.

        This is the serving hot path, so the expensive part — log,
        clamp, unique, dict updates — is *deferred*: only the exact
        scalar aggregates (count/sum/min/max/zero) are paid here, and
        the batch queues for one big vectorized bucketing pass at the
        next read (or when :data:`PENDING_LIMIT` values accumulate).
        Every query method drains first, so deferral is unobservable.
        """
        import numpy as np

        raw = values
        values = np.asarray(raw, dtype=np.float64)
        if values.ndim != 1:
            values = values.ravel()
        n = int(values.size)
        if n == 0:
            return
        self.count += n
        total = float(values.sum())
        self.total += total
        vmin = float(values.min())
        vmax = float(values.max())
        if vmin < self.min:
            self.min = vmin
        if vmax > self.max:
            self.max = vmax
        if vmin > 0.0 and math.isfinite(total):
            # All-positive fast path (the serving case).  Copy when the
            # buffer would alias caller memory that may mutate before
            # the deferred drain runs.
            positive = values.copy() if values is raw or values.base is not None else values
        else:
            positive = values[(values > 0.0) & np.isfinite(values)]
            self.zero_count += n - int(positive.size)
            if positive.size == 0:
                return
        self._pending.append(positive)
        self._n_pending += int(positive.size)
        if self._n_pending >= self.PENDING_LIMIT:
            self._drain()

    def _drain(self) -> None:
        """Fold every queued value into the bucket table (vectorized)."""
        if not self._n_pending:
            return
        import numpy as np

        chunks = self._pending
        if self._scalars:
            chunks.append(np.array(self._scalars))
            self._scalars.clear()
        positive = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        chunks.clear()
        self._n_pending = 0
        indexes = np.ceil(np.log(positive) / self._log_gamma).astype(np.int64)
        np.clip(indexes, self.MIN_INDEX, self.MAX_INDEX, out=indexes)
        unique, counts = np.unique(indexes, return_counts=True)
        buckets = self._buckets
        for index, bucket_count in zip(unique.tolist(), counts.tolist()):
            buckets[index] = buckets.get(index, 0) + bucket_count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, within ``relative_error`` of exact.

        Uses the same nearest-rank convention as sorting the raw
        observations and taking ``sorted[ceil(q * count) - 1]``; the
        returned value is the flagged bucket's representative, which is
        within the documented relative error of that exact observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zero_count:
            return 0.0
        cumulative = self.zero_count
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                return self._representative(index)
        return self.max  # only reachable through float edge cases

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "relative_error": self.relative_error,
            "zero_count": self.zero_count,
            # JSON object keys must be strings; ingesting code converts
            # back with int().
            "buckets": {str(index): count for index, count in sorted(self.buckets.items())},
        }

    def to_state(self) -> dict:
        return {
            "kind": self.kind,
            "relative_error": self.relative_error,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "zero_count": self.zero_count,
            "buckets": {str(index): count for index, count in self.buckets.items()},
        }

    def merge_state(self, state: dict) -> None:
        """Fold another log-bucket histogram's state in — exactly.

        Bucket counts add, so cross-process grafting via
        :meth:`MetricsRegistry.merge_state` preserves every quantile
        guarantee.  Merging states recorded at a different
        ``relative_error`` raises: their buckets are incommensurable.
        """
        other_error = float(state.get("relative_error", self.relative_error))
        if not math.isclose(other_error, self.relative_error):
            raise ValueError(
                f"log histogram {self.name!r} uses relative_error="
                f"{self.relative_error}, cannot merge state recorded at "
                f"{other_error}"
            )
        count = int(state.get("count", 0))
        if count == 0:
            return
        self.count += count
        self.total += float(state.get("total", 0.0))
        self.min = min(self.min, float(state.get("min", math.inf)))
        self.max = max(self.max, float(state.get("max", -math.inf)))
        self.zero_count += int(state.get("zero_count", 0))
        for key, bucket_count in (state.get("buckets") or {}).items():
            index = int(key)
            self.buckets[index] = self.buckets.get(index, 0) + int(bucket_count)


class MetricsRegistry:
    """Get-or-create home for named metrics.

    A name is bound to one metric kind for the registry's lifetime;
    asking for the same name as a different kind is a bug and raises.
    """

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | LogBucketHistogram] = {}

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def log_histogram(self, name: str) -> LogBucketHistogram:
        return self._get_or_create(name, LogBucketHistogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """``{name: {"kind": ..., **metric summary}}`` for every metric."""
        return {
            name: {"kind": metric.kind, **metric.snapshot()}
            for name, metric in sorted(self._metrics.items())
        }

    def to_state(self) -> dict[str, dict]:
        """Full-fidelity, mergeable dump of every metric.

        Unlike :meth:`snapshot` (a human-facing summary), the state dump
        round-trips through :meth:`merge_state`: counters keep their
        totals, gauges their last value, histograms their exact
        count/sum/min/max plus bucket table.  This is how worker
        processes ship their metric deltas back to the parent registry.
        """
        return {name: metric.to_state() for name, metric in self._metrics.items()}

    def merge_state(self, state: dict[str, dict]) -> None:
        """Fold a :meth:`to_state` dump (e.g. from a worker) into this registry.

        Counters add, gauges take the incoming value (last write wins,
        matching their single-process semantics), histogram bucket
        counts add, so the merge is exact.  Any other kind raises
        ``ValueError``; merging a name that exists here under a
        different kind raises ``TypeError``, same as mixed-kind access
        does.
        """
        kinds = {cls.kind: cls for cls in (Counter, Gauge, LogBucketHistogram)}
        for name, metric_state in state.items():
            cls = kinds.get(metric_state.get("kind"))
            if cls is None:
                raise ValueError(
                    f"metric {name!r} has unknown kind {metric_state.get('kind')!r}"
                )
            self._get_or_create(name, cls).merge_state(metric_state)


_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _DEFAULT


def set_registry(registry: MetricsRegistry) -> None:
    """Install ``registry`` as the process-global default."""
    global _DEFAULT
    _DEFAULT = registry


@contextmanager
def use_registry(registry: MetricsRegistry | None = None):
    """Temporarily install a registry (a fresh one by default).

    The previous registry is restored on exit, so tests never leak
    metrics into each other through the global default.
    """
    if registry is None:
        registry = MetricsRegistry()
    previous = _DEFAULT
    set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
