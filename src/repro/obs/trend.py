"""The one benchmark regression rule, and per-benchmark history series.

Both gates, ``python -m repro bench-compare FILE...`` (``sustain=1``) and
``python -m repro obs trend`` (``--sustain``, default 2), judge run dicts
with :func:`trend_runs`:

* :func:`history_series` — one benchmark's time-ordered trajectory
  across every run that measured it, each point carrying the noise-aware
  stats a :class:`~repro.obs.bench.BenchRecord` stores (min / median /
  mean over repeats, peak memory, solver health) plus run provenance
  (git sha, environment digest).
* :func:`trend_runs` — the regression rule.  A benchmark's *home
  environment* is the ``env_digest`` of its newest measurement; only
  measurements from that environment are judged, and the others are
  counted as set aside, because a timing from another machine or
  toolchain says nothing about the code.  Among the home measurements,
  the benchmark **regresses** when its last ``sustain`` gate-eligible
  measurements *all* exceed ``(1 + threshold) ×`` the best earlier one,
  and **improves** when the newest is below ``1 / (1 + threshold) ×``
  it.  With ``sustain=1`` and two runs this is the pairwise old-vs-new
  verdict; ``sustain >= 2`` keeps one noisy run from tripping the gate.
  Taking the *best* prior min as the baseline makes the gate monotone:
  a slow creep across many runs is caught even though no adjacent pair
  regresses.

A measurement with fewer than ``min_repeats`` timing samples, or a
non-finite or zero min, is shown but never gates: a single sample cannot
separate a regression from scheduler noise, and a benchmark seen in only
one run has nothing to be judged against.  Everything here is a pure
function of the loaded run dicts, so a verdict is reproducible from the
files or the ledger alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs.bench import BenchRecord

__all__ = [
    "HistoryPoint",
    "TrendEntry",
    "TrendReport",
    "history_series",
    "trend_runs",
    "render_history",
    "render_trend_report",
]


@dataclass(frozen=True)
class HistoryPoint:
    """One benchmark measurement inside one run."""

    run_id: str
    created_unix: float
    git_sha: str | None
    env_digest: str | None
    record: BenchRecord


@dataclass(frozen=True)
class TrendEntry:
    """One benchmark's verdict over the run series.

    ``status`` is ``"regression"`` (sustained), ``"improvement"``,
    ``"ok"``, or ``"informational"`` (not enough gate-eligible history in
    the home environment).  ``ratio`` is latest-vs-baseline; an
    informational entry shows it ungated when the home environment holds
    two finite measurements.  ``n_runs`` counts the home environment's
    measurements and ``n_set_aside`` the others, which never enter the
    verdict.
    """

    name: str
    n_runs: int
    n_gating: int
    n_set_aside: int
    baseline_min_s: float
    latest_min_s: float
    ratio: float
    status: str


@dataclass
class TrendReport:
    """The full multi-run verdict :func:`trend_runs` produces."""

    threshold: float
    min_repeats: int
    sustain: int
    entries: list[TrendEntry] = field(default_factory=list)

    @property
    def regressions(self) -> list[TrendEntry]:
        return [entry for entry in self.entries if entry.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _ordered_runs(runs) -> list[dict]:
    return sorted(runs, key=lambda run: float(run.get("created_unix", 0.0)))


def history_series(runs, name: str) -> list[HistoryPoint]:
    """``name``'s time-ordered measurements across the given run dicts."""
    from repro.obs.environment import fingerprint_digest

    points = []
    for run in _ordered_runs(runs):
        for data in run.get("benchmarks", ()):
            if data.get("name") != name:
                continue
            record = BenchRecord.from_dict(data)
            environment = record.environment or run.get("environment") or {}
            points.append(
                HistoryPoint(
                    run_id=str(run.get("run_id", "?")),
                    created_unix=float(
                        data.get("created_unix") or run.get("created_unix") or 0.0
                    ),
                    git_sha=environment.get("git_sha"),
                    env_digest=fingerprint_digest(environment) if environment else None,
                    record=record,
                )
            )
    points.sort(key=lambda point: point.created_unix)
    return points


def trend_runs(runs, *, threshold: float = 0.15, min_repeats: int = 3,
               sustain: int = 2) -> TrendReport:
    """Judge every benchmark's series by the one rule (module docstring).

    ``threshold`` is the relative min-timing tolerance, ``min_repeats``
    the timing samples a measurement needs to gate, and ``sustain`` how
    many consecutive latest measurements must all regress against the
    best earlier one before the gate trips.  A benchmark needs at least
    ``sustain + 1`` gate-eligible measurements in its home environment
    to be judged at all; with fewer its entry is ``informational``.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if min_repeats < 1:
        raise ValueError(f"min_repeats must be >= 1, got {min_repeats}")
    if sustain < 1:
        raise ValueError(f"sustain must be >= 1, got {sustain}")
    ordered = _ordered_runs(runs)
    names = sorted(
        {data.get("name") for run in ordered for data in run.get("benchmarks", ())}
        - {None}
    )
    report = TrendReport(threshold=threshold, min_repeats=min_repeats, sustain=sustain)
    for name in names:
        points = history_series(ordered, name)
        home = [p for p in points if p.env_digest == points[-1].env_digest]
        usable = [
            p for p in home
            if math.isfinite(p.record.min_s) and p.record.min_s > 0
        ]
        eligible = [p for p in usable if p.record.repeats >= min_repeats]
        gated = len(eligible) > sustain
        # An ungated series still shows its newest usable measurement
        # against the best earlier one.
        series, window = (eligible, sustain) if gated else (usable, 1)
        baseline = min((p.record.min_s for p in series[:-window]), default=math.nan)
        latest = series[-1].record.min_s if series else points[-1].record.min_s
        ratio = latest / baseline
        if not gated:
            status = "informational"
        elif all(p.record.min_s > baseline * (1.0 + threshold) for p in series[-window:]):
            status = "regression"
        elif ratio < 1.0 / (1.0 + threshold):
            status = "improvement"
        else:
            status = "ok"
        report.entries.append(
            TrendEntry(
                name=name,
                n_runs=len(home),
                n_gating=len(eligible),
                n_set_aside=len(points) - len(home),
                baseline_min_s=baseline,
                latest_min_s=latest,
                ratio=ratio,
                status=status,
            )
        )
    return report


def _fmt_ms(seconds: float) -> str:
    if seconds != seconds:
        return "-"
    return f"{seconds * 1e3:.4g}ms"


def render_history(name: str, points) -> str:
    """Aligned trajectory table for ``repro obs history <bench>``."""
    from repro.experiments.report import ascii_table

    if not points:
        return f"no history for benchmark {name!r}"
    rows = []
    for point in points:
        record = point.record
        peak = record.memory.get("peak_bytes")
        rows.append(
            [
                point.run_id,
                str(point.git_sha or "-")[:12],
                str(point.env_digest or "-"),
                record.repeats,
                _fmt_ms(record.min_s),
                _fmt_ms(record.median_s),
                _fmt_ms(record.mean_s),
                "-" if peak is None else f"{peak / 1e6:.2f}",
                record.solver_health.get("solves", 0),
            ]
        )
    header = (
        f"history for {name}: {len(points)} measurement(s) across "
        f"{len({p.run_id for p in points})} run(s)"
    )
    return header + "\n" + ascii_table(
        ["run", "git", "env", "repeats", "min", "median", "mean", "peak MB", "solves"],
        rows,
    )


def render_trend_report(report: TrendReport) -> str:
    """Aligned verdict table for ``repro bench-compare`` and ``repro obs trend``."""
    from repro.experiments.report import ascii_table

    rows = []
    for entry in report.entries:
        delta = "-" if entry.ratio != entry.ratio else f"{(entry.ratio - 1.0) * 100:+.1f}%"
        rows.append(
            [
                entry.name,
                f"{entry.n_gating}/{entry.n_runs}",
                entry.n_set_aside,
                _fmt_ms(entry.baseline_min_s),
                _fmt_ms(entry.latest_min_s),
                delta,
                entry.status,
            ]
        )
    lines = [
        ascii_table(
            ["benchmark", "gating/runs", "set aside", "baseline min", "latest min",
             "delta", "status"],
            rows,
        )
    ]
    set_aside = sum(entry.n_set_aside for entry in report.entries)
    if set_aside:
        lines.append(
            f"{set_aside} measurement(s) set aside: recorded in another "
            f"environment than their benchmark's newest"
        )
    lines.append(
        f"{len(report.regressions)} regression(s) at threshold "
        f"{report.threshold:.0%} (sustain {report.sustain}, "
        f"min {report.min_repeats} repeats to gate)"
    )
    return "\n".join(lines)
