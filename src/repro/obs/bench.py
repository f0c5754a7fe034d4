"""Structured benchmark capture: records, trajectories and memory budgets.

The benchmark harness used to emit free-text tables only; this module is
the machine-readable twin.  A :class:`BenchRecorder` captures, per
benchmark:

* repeated wall-clock timings with min/median/mean summaries (the *min*
  is the noise-robust statistic regressions are judged on);
* peak and net ``tracemalloc`` memory from one dedicated profiled pass —
  kept separate from the timing passes so the ~2x tracemalloc slowdown
  never pollutes the timings;
* solver-health evidence harvested from the span trace of the profiled
  pass (``solver.method`` / iterations / nnz / fill ratio — see
  :mod:`repro.obs.probes`);
* the :func:`~repro.obs.environment.environment_fingerprint`, so two
  runs can be checked for comparability before their numbers are.

Records serialize as one JSON document per benchmark plus a session
trajectory file ``BENCH_<run_id>.json``.  Trajectories are judged by
the one regression rule in :mod:`repro.obs.trend`, behind both
``python -m repro bench-compare`` and ``python -m repro obs trend``.

The module also hosts the *memory budget* gate the out-of-core pipeline
is held to: a :class:`MemoryBudget` wraps named phases of a run in
tracemalloc + RSS bookkeeping and raises :class:`MemoryBudgetExceeded`
the moment a phase's traced peak crosses its declared byte budget, so a
memory regression fails the benchmark instead of silently fitting in a
bigger machine.  :func:`prune_bench_runs` keeps result directories from
growing without bound by dropping trajectory files fully superseded by
newer runs of the same benchmarks.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ReproError
from repro.obs.environment import environment_fingerprint
from repro.obs.trace import RecordingTracer, use_tracer

__all__ = [
    "BenchRecord",
    "BenchRecorder",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "PhaseUsage",
    "load_bench_run",
    "prune_bench_runs",
    "render_bench_report",
    "solver_health_from_trace",
]

RECORD_SCHEMA = "repro.bench.record/v1"
RUN_SCHEMA = "repro.bench.run/v1"

#: Raw timing samples stored per record (summaries stay exact beyond this).
MAX_STORED_SAMPLES = 64


def _default_run_id() -> str:
    return time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"-{os.getpid()}"


@dataclass
class BenchRecord:
    """One benchmark's captured evidence (see module docstring)."""

    name: str
    min_s: float
    median_s: float
    mean_s: float
    repeats: int
    samples_s: list[float] = field(default_factory=list)
    memory: dict = field(default_factory=dict)
    solver_health: dict = field(default_factory=dict)
    environment: dict = field(default_factory=environment_fingerprint)
    scale: str = "quick"
    created_unix: float = field(default_factory=time.time)

    @classmethod
    def from_samples(cls, name: str, samples, *, repeats: int | None = None, **kwargs) -> "BenchRecord":
        """Build a record from raw timing samples, computing the summaries.

        ``repeats`` defaults to ``len(samples)``; pass it explicitly when
        the samples are a capped subset of a larger population (e.g.
        pytest-benchmark rounds).
        """
        samples = [float(s) for s in samples]
        if not samples:
            raise ValueError(f"benchmark {name!r} needs at least one timing sample")
        return cls(
            name=name,
            min_s=min(samples),
            median_s=statistics.median(samples),
            mean_s=statistics.fmean(samples),
            repeats=len(samples) if repeats is None else int(repeats),
            samples_s=samples[:MAX_STORED_SAMPLES],
            **kwargs,
        )

    def to_dict(self) -> dict:
        return {
            "schema": RECORD_SCHEMA,
            "name": self.name,
            "scale": self.scale,
            "repeats": self.repeats,
            "timings_s": {
                "min": self.min_s,
                "median": self.median_s,
                "mean": self.mean_s,
                "samples": list(self.samples_s),
            },
            "memory": dict(self.memory),
            "solver_health": dict(self.solver_health),
            "environment": dict(self.environment),
            "created_unix": self.created_unix,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchRecord":
        timings = data.get("timings_s") or {}
        return cls(
            name=data["name"],
            min_s=float(timings.get("min", math.nan)),
            median_s=float(timings.get("median", math.nan)),
            mean_s=float(timings.get("mean", math.nan)),
            repeats=int(data.get("repeats", len(timings.get("samples", ())) or 1)),
            samples_s=[float(s) for s in timings.get("samples", ())],
            memory=dict(data.get("memory") or {}),
            solver_health=dict(data.get("solver_health") or {}),
            environment=dict(data.get("environment") or {}),
            scale=data.get("scale", "quick"),
            created_unix=float(data.get("created_unix", 0.0)),
        )

    def write_json(self, path) -> Path:
        """Write this record as one standalone JSON document (atomically)."""
        from repro.obs.export import atomic_write_text

        return atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    def summary(self) -> str:
        """One-line human summary (the text twin for micro-benchmarks)."""
        peak = self.memory.get("peak_bytes")
        mem = f", peak {peak / 1e6:.2f} MB" if peak is not None else ""
        solves = self.solver_health.get("solves", 0)
        return (
            f"{self.name}: min {_fmt_ms(self.min_s)} / median {_fmt_ms(self.median_s)} / "
            f"mean {_fmt_ms(self.mean_s)} over {self.repeats} repeat(s){mem}, "
            f"{solves} solve(s)"
        )


def solver_health_from_trace(trace) -> dict:
    """Aggregate ``solver.*`` span attributes into one health dict.

    Counts only spans carrying ``solver.method`` (the top-level solve
    spans that :func:`repro.obs.probes.record_solve_info` annotates), so
    inner iterative-solver spans are not double-counted.
    """
    from repro.obs.export import to_records

    health: dict = {"solves": 0, "methods": {}, "iterations_total": 0, "converged_all": True}
    nnz_max = fill_ratio_max = None
    for record in to_records(trace):
        attributes = record.get("attributes") or {}
        method = attributes.get("solver.method")
        if method is None:
            continue
        health["solves"] += 1
        health["methods"][method] = health["methods"].get(method, 0) + 1
        health["iterations_total"] += int(attributes.get("solver.iterations", 0))
        if attributes.get("solver.converged") is False:
            health["converged_all"] = False
        nnz = attributes.get("solver.nnz")
        if nnz is not None:
            nnz_max = max(int(nnz), nnz_max or 0)
        fill_ratio = attributes.get("solver.fill_ratio")
        if fill_ratio is not None:
            fill_ratio_max = max(float(fill_ratio), fill_ratio_max or 0.0)
    if nnz_max is not None:
        health["nnz_max"] = nnz_max
    if fill_ratio_max is not None:
        health["fill_ratio_max"] = fill_ratio_max
    return health


def _profiled_pass(fn):
    """Run ``fn`` once in an unbudgeted :class:`MemoryBudget` phase under
    a recording tracer.

    Returns ``(result, memory, solver_health)``.  The phase's tracemalloc
    rule applies: a caller already profiling is left undisturbed.
    """
    tracer = RecordingTracer()
    with use_tracer(tracer):
        result, usage = MemoryBudget().measure("profiled_pass", fn)
    memory = {
        "peak_bytes": usage.peak_traced_bytes,
        "net_bytes": usage.net_traced_bytes,
    }
    return result, memory, solver_health_from_trace(tracer)


class MemoryBudgetExceeded(ReproError, RuntimeError):
    """Raised when a :class:`MemoryBudget` phase crosses its byte budget.

    Carries the offending :class:`PhaseUsage` so the failure message and
    any post-mortem report show exactly which phase blew the budget and
    by how much.
    """

    def __init__(self, message: str, usage: "PhaseUsage"):
        super().__init__(message)
        self.usage = usage


@dataclass(frozen=True)
class PhaseUsage:
    """Measured memory footprint of one :class:`MemoryBudget` phase.

    ``peak_traced_bytes``/``net_traced_bytes`` come from tracemalloc
    (python-level allocations above the phase's baseline — the number
    budgets are declared against, because it is reproducible across
    machines).  ``rss_growth_bytes`` is how much the process high-water
    RSS rose during the phase: a lifetime maximum, so it stays zero when
    an earlier phase already reached higher, and includes allocator and
    BLAS overhead tracemalloc cannot see.
    """

    name: str
    budget_bytes: int | None
    peak_traced_bytes: int
    net_traced_bytes: int
    rss_growth_bytes: int
    duration_s: float

    @property
    def within(self) -> bool | None:
        """Whether the traced peak fit the budget (``None``: no budget)."""
        if self.budget_bytes is None:
            return None
        return self.peak_traced_bytes <= self.budget_bytes

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "budget_bytes": self.budget_bytes,
            "peak_traced_bytes": self.peak_traced_bytes,
            "net_traced_bytes": self.net_traced_bytes,
            "rss_growth_bytes": self.rss_growth_bytes,
            "duration_s": self.duration_s,
            "within": self.within,
        }

    def summary(self) -> str:
        budget = "-" if self.budget_bytes is None else _fmt_mb(self.budget_bytes)
        verdict = {True: "ok", False: "EXCEEDED", None: "unbudgeted"}[self.within]
        return (
            f"{self.name}: peak {_fmt_mb(self.peak_traced_bytes)} MB "
            f"/ budget {budget} MB ({verdict}), "
            f"rss +{_fmt_mb(self.rss_growth_bytes)} MB, {self.duration_s:.1f}s"
        )


def _rss_high_water_bytes() -> int:
    """Process lifetime peak RSS in bytes (0 where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.  Treat small values
    # as KB — no real python process has a sub-16MB peak RSS in bytes.
    return int(peak) * 1024 if peak < 2**24 else int(peak)


class MemoryBudget:
    """Per-phase peak-memory gate for large-``N`` benchmark runs.

    Usage::

        gate = MemoryBudget(rss_factor=3.0)
        with gate.phase("graph", budget_bytes=200 * 2**20):
            graph = approx_knn_graph(x, k)
        gate.assert_within("graph", measured_baseline * 0.4)  # post-hoc

    Each phase measures the tracemalloc peak above the phase's own
    baseline and raises :class:`MemoryBudgetExceeded` at phase exit when
    it crosses ``budget_bytes`` (unless ``enforce=False``, in which case
    violations are only recorded).  The traced peak is the gated number
    because it is machine-independent; as a safety net, RSS *growth*
    during the phase is additionally gated at ``rss_factor *
    budget_bytes`` to catch untraced allocations (BLAS scratch, allocator
    slack) an order of magnitude out of line.

    ``assert_within`` re-judges an already-recorded phase against a
    budget computed only *after* the phase ran (e.g. a fraction of a
    measured baseline).  Phases accumulate in :attr:`phases`;
    :meth:`to_dict` serializes them for a bench record's ``memory``
    field.

    Tracing already active (an enclosing profiler) is left running and
    undisturbed, otherwise it is started and stopped per phase.
    ``BenchRecorder``'s profiled pass is one unbudgeted phase, so do not
    nest budget phases inside ``BenchRecorder.measure(profile=True)`` —
    both reset the shared tracemalloc peak; time the phase with
    ``profile=False`` instead.
    """

    def __init__(self, *, rss_factor: float = 3.0, enforce: bool = True):
        if not rss_factor > 0:
            raise ValueError(f"rss_factor must be positive, got {rss_factor}")
        self.rss_factor = float(rss_factor)
        self.enforce = bool(enforce)
        self.phases: list[PhaseUsage] = []

    @contextlib.contextmanager
    def phase(self, name: str, budget_bytes: int | float | None = None):
        """Measure (and gate) one named phase of work."""
        import tracemalloc

        if budget_bytes is not None:
            budget_bytes = int(budget_bytes)
            if budget_bytes <= 0:
                raise ValueError(
                    f"budget_bytes must be positive, got {budget_bytes}"
                )
        owns_tracemalloc = not tracemalloc.is_tracing()
        if owns_tracemalloc:
            tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        rss_before = _rss_high_water_bytes()
        started = time.perf_counter()
        try:
            yield self
            current, peak = tracemalloc.get_traced_memory()
        finally:
            if owns_tracemalloc:
                tracemalloc.stop()
        usage = PhaseUsage(
            name=name,
            budget_bytes=budget_bytes,
            peak_traced_bytes=max(0, int(peak - baseline)),
            net_traced_bytes=int(current - baseline),
            rss_growth_bytes=max(0, _rss_high_water_bytes() - rss_before),
            duration_s=time.perf_counter() - started,
        )
        self.phases.append(usage)
        self._judge(usage)

    def measure(self, name: str, fn, *, budget_bytes: int | float | None = None):
        """Run ``fn()`` inside a budgeted phase; returns ``(result, usage)``."""
        with self.phase(name, budget_bytes=budget_bytes):
            result = fn()
        return result, self.phases[-1]

    def assert_within(self, name: str, budget_bytes: int | float) -> PhaseUsage:
        """Re-gate the most recent phase ``name`` against a post-hoc budget.

        For budgets derivable only after the fact (a fraction of a
        baseline measured by the phase itself).  Replaces the stored
        usage with the budgeted version and returns it.
        """
        budget_bytes = int(budget_bytes)
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        for i in range(len(self.phases) - 1, -1, -1):
            if self.phases[i].name == name:
                usage = PhaseUsage(
                    name=name,
                    budget_bytes=budget_bytes,
                    peak_traced_bytes=self.phases[i].peak_traced_bytes,
                    net_traced_bytes=self.phases[i].net_traced_bytes,
                    rss_growth_bytes=self.phases[i].rss_growth_bytes,
                    duration_s=self.phases[i].duration_s,
                )
                self.phases[i] = usage
                self._judge(usage)
                return usage
        raise KeyError(f"no recorded phase named {name!r}")

    def _judge(self, usage: PhaseUsage) -> None:
        if usage.budget_bytes is None or not self.enforce:
            return
        if usage.peak_traced_bytes > usage.budget_bytes:
            raise MemoryBudgetExceeded(
                f"phase {usage.name!r} traced peak "
                f"{usage.peak_traced_bytes / 2**20:.1f} MiB exceeds budget "
                f"{usage.budget_bytes / 2**20:.1f} MiB",
                usage,
            )
        rss_limit = int(self.rss_factor * usage.budget_bytes)
        if usage.rss_growth_bytes > rss_limit:
            raise MemoryBudgetExceeded(
                f"phase {usage.name!r} RSS growth "
                f"{usage.rss_growth_bytes / 2**20:.1f} MiB exceeds "
                f"{self.rss_factor:g}x budget "
                f"{rss_limit / 2**20:.1f} MiB",
                usage,
            )

    @property
    def ok(self) -> bool:
        """True when every budgeted phase recorded so far fit its budget."""
        return all(usage.within is not False for usage in self.phases)

    def to_dict(self) -> dict:
        """Serializable snapshot (drop into a record's ``memory`` field)."""
        return {
            "rss_factor": self.rss_factor,
            "phases": [usage.to_dict() for usage in self.phases],
            "ok": self.ok,
        }

    def report(self) -> str:
        """Multi-line human summary, one line per phase."""
        return "\n".join(usage.summary() for usage in self.phases)


def prune_bench_runs(directory, *, keep: int = 3) -> list[Path]:
    """Delete ``BENCH_*.json`` trajectories fully superseded by newer runs.

    Walks the directory's trajectory files newest-first (by recorded
    ``created_unix``, falling back to mtime) and keeps a file as long as
    *any* benchmark name it contains has been seen fewer than ``keep``
    times among already-kept newer files.  A file is deleted only when
    every benchmark in it already has ``keep`` newer retained runs — so
    trend analysis keeps a ``keep``-deep history per benchmark while the
    results directory stops growing linearly with CI runs.  Unreadable
    or schema-less files are left untouched.  Returns the deleted paths.
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    directory = Path(directory)
    candidates = []
    for path in directory.glob("BENCH_*.json"):
        try:
            run = load_bench_run(path)
            names = {record["name"] for record in run.get("benchmarks", ())}
        except (ValueError, KeyError, OSError, json.JSONDecodeError):
            continue
        if not names:
            continue
        created = float(run.get("created_unix") or 0.0) or path.stat().st_mtime
        candidates.append((created, path, names))
    candidates.sort(key=lambda item: item[0], reverse=True)

    seen: dict[str, int] = {}
    deleted: list[Path] = []
    for _, path, names in candidates:
        if any(seen.get(name, 0) < keep for name in names):
            for name in names:
                seen[name] = seen.get(name, 0) + 1
        else:
            path.unlink()
            deleted.append(path)
    return deleted


class BenchRecorder:
    """Collects :class:`BenchRecord` objects for one benchmark session.

    ``measure(name, fn)`` runs one profiled pass (memory + solver health;
    it doubles as warmup) followed by ``repeats`` clean timing passes,
    and returns ``(result, record)`` where ``result`` is the profiled
    pass's return value.  ``write_run(directory)`` serializes the session
    as ``BENCH_<run_id>.json``.
    """

    def __init__(self, *, scale: str = "quick", run_id: str | None = None,
                 environment: dict | None = None):
        self.scale = scale
        self.run_id = run_id or _default_run_id()
        self.environment = environment or environment_fingerprint()
        self.records: list[BenchRecord] = []
        self.created_unix = time.time()

    def measure(self, name: str, fn, *, repeats: int = 3, profile: bool = True):
        """Benchmark ``fn`` and register the record; returns ``(result, record)``."""
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        from repro.utils.timing import collect_timings

        if profile:
            result, memory, health = _profiled_pass(fn)
            timings, _ = collect_timings(fn, repeats)
        else:
            memory, health = {}, {}
            timings, result = collect_timings(fn, repeats)
        record = BenchRecord.from_samples(
            name, timings, memory=memory, solver_health=health,
            environment=self.environment, scale=self.scale,
        )
        self.add(record)
        return result, record

    def from_pytest_benchmark(self, name: str, stats, fn=None, *, profile: bool = True) -> BenchRecord:
        """Import a pytest-benchmark ``Stats`` object as a record.

        ``stats`` is ``benchmark.stats.stats`` after the fixture ran; its
        min/median/mean and round count are taken as-is (its calibration
        already de-noised them).  When ``fn`` is given and ``profile`` is
        true, one extra profiled pass supplies memory and solver health.
        """
        memory, health = {}, {}
        if profile and fn is not None:
            _, memory, health = _profiled_pass(fn)
        record = BenchRecord(
            name=name,
            min_s=float(stats.min),
            median_s=float(stats.median),
            mean_s=float(stats.mean),
            repeats=int(stats.rounds),
            samples_s=[float(s) for s in list(stats.data)[:MAX_STORED_SAMPLES]],
            memory=memory,
            solver_health=health,
            environment=self.environment,
            scale=self.scale,
        )
        self.add(record)
        return record

    def add(self, record: BenchRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def to_run(self) -> dict:
        """The session trajectory document (``repro.bench.run/v1``)."""
        return {
            "schema": RUN_SCHEMA,
            "run_id": self.run_id,
            "scale": self.scale,
            "created_unix": self.created_unix,
            "environment": dict(self.environment),
            "benchmarks": [record.to_dict() for record in self.records],
        }

    def write_run(self, directory) -> Path:
        """Write ``BENCH_<run_id>.json`` under ``directory`` (atomically)."""
        from repro.obs.export import atomic_write_text

        path = Path(directory) / f"BENCH_{self.run_id}.json"
        return atomic_write_text(
            path, json.dumps(self.to_run(), indent=2, sort_keys=True) + "\n"
        )


def load_bench_run(path) -> dict:
    """Read a ``BENCH_*.json`` trajectory (or a single-record JSON).

    A single benchmark record is wrapped into a one-entry run so both
    artifact shapes work with ``bench-report`` / ``bench-compare``.
    Raises ``ValueError`` for JSON that is neither.
    """
    path = Path(path)
    data = json.loads(path.read_text())
    if isinstance(data, dict) and isinstance(data.get("benchmarks"), list):
        return data
    if isinstance(data, dict) and ("timings_s" in data or data.get("schema") == RECORD_SCHEMA):
        return {
            "schema": RUN_SCHEMA,
            "run_id": data.get("name", path.stem),
            "scale": data.get("scale", "quick"),
            "created_unix": data.get("created_unix", 0.0),
            "environment": data.get("environment") or {},
            "benchmarks": [data],
        }
    raise ValueError(
        f"{path} is not a bench run or record (expected a 'benchmarks' list "
        f"or a '{RECORD_SCHEMA}' document)"
    )


def _fmt_ms(seconds: float) -> str:
    if seconds != seconds:
        return "-"
    return f"{seconds * 1e3:.4g}ms"


def _fmt_mb(value) -> str:
    if value is None:
        return "-"
    return f"{value / 1e6:.2f}"


def render_bench_report(run: dict) -> str:
    """Human-readable table for one trajectory (``repro bench-report``)."""
    from repro.experiments.report import ascii_table

    env = run.get("environment") or {}
    lines = [
        f"bench run {run.get('run_id', '?')} (scale={run.get('scale', '?')}, "
        f"{len(run.get('benchmarks', ()))} benchmarks)",
        f"environment: python {env.get('python', '?')}, numpy {env.get('numpy', '?')}, "
        f"scipy {env.get('scipy', '?')}, {env.get('cpu_count', '?')} cpus, "
        f"git {str(env.get('git_sha'))[:12]}",
        "",
    ]
    rows = []
    for data in run.get("benchmarks", ()):
        record = BenchRecord.from_dict(data)
        methods = ",".join(
            f"{method}x{count}" for method, count in sorted(record.solver_health.get("methods", {}).items())
        )
        rows.append(
            [
                record.name,
                record.repeats,
                _fmt_ms(record.min_s),
                _fmt_ms(record.median_s),
                _fmt_ms(record.mean_s),
                _fmt_mb(record.memory.get("peak_bytes")),
                record.solver_health.get("solves", 0),
                methods or "-",
            ]
        )
    lines.append(
        ascii_table(
            ["benchmark", "repeats", "min", "median", "mean", "peak MB", "solves", "methods"],
            rows,
        )
    )
    return "\n".join(lines)
