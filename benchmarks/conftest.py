"""Shared benchmark configuration.

Every figure bench regenerates its paper artifact at a reduced replicate
count by default (so the whole harness runs in minutes on a laptop) and
at the paper's full scale when ``REPRO_BENCH_SCALE=paper`` is set.  Each
bench publishes two artifacts under ``benchmarks/results/``: the
human-readable ``.txt`` table it always produced, and a JSON *twin* — a
``repro.obs.bench.BenchRecord`` with timings, tracemalloc peak memory,
solver health, and the environment fingerprint (see
``docs/BENCHMARKING.md``).  At session end the recorder writes the
machine-readable trajectory ``BENCH_<runid>.json`` into
``benchmarks/results/``; ``python -m repro bench-compare OLD.json
NEW.json`` turns two or more of those into a perf regression gate, and
``python -m repro obs ingest benchmarks/results/BENCH_*.json`` folds
them into the run ledger for ``obs history`` / ``obs trend``.  Both
gates apply one rule (:func:`repro.obs.trend.trend_runs`, sustain 1 for
``bench-compare``): a benchmark's newest measurement against its best
earlier one, among the measurements from the newest one's environment
only.

Fast benches time ``REPRO_BENCH_REPEATS`` passes (default 3) so the
regression gate has real minima to compare; heavy figure regenerations
pass ``repeats=1`` and are reported informationally only (the rule's
minimum-repeat requirement exempts them from gating).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.obs.bench import BenchRecorder, prune_bench_runs

RESULTS_DIR = Path(__file__).parent / "results"

#: "quick" (default) or "paper" (the paper's replicate counts; slow).
SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")

#: Timing repeats for fast benches (heavy ones pass repeats=1 explicitly).
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))

#: Trajectory retention: after each session the results directory keeps
#: the newest ``KEEP_RUNS`` trajectories per benchmark id and deletes
#: ``BENCH_*.json`` files fully superseded by newer runs (0 disables).
KEEP_RUNS = int(os.environ.get("REPRO_BENCH_KEEP_RUNS", "3"))


def replicates(quick: int, paper: int) -> int:
    """Pick the replicate count for the active scale."""
    return paper if SCALE == "paper" else quick


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench():
    """Session-wide :class:`BenchRecorder`; writes the trajectory at exit."""
    recorder = BenchRecorder(scale=SCALE)
    yield recorder
    if recorder.records:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = recorder.write_run(RESULTS_DIR)
        print(f"\nwrote bench trajectory: {path} ({len(recorder)} records)")
        if KEEP_RUNS > 0:
            pruned = prune_bench_runs(RESULTS_DIR, keep=KEEP_RUNS)
            if pruned:
                print(
                    f"pruned {len(pruned)} superseded bench trajectories "
                    f"(keeping {KEEP_RUNS} runs per benchmark)"
                )


def publish(results_dir: Path, name: str, text: str, record=None) -> None:
    """Print a regenerated artifact and persist it to the results dir.

    With a :class:`~repro.obs.bench.BenchRecord`, also writes the
    machine-readable JSON twin next to the ``.txt``.
    """
    print(f"\n{text}\n")
    (results_dir / f"{name}.txt").write_text(text + "\n")
    if record is not None:
        record.write_json(results_dir / f"{name}.json")
