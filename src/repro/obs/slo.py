"""Declarative serving SLOs, evaluated against metric snapshots.

A service-level objective spec is a small TOML (or JSON) document:

.. code-block:: toml

    [latency]                       # serving.request.latency_s quantiles
    p50_max_s = 0.005
    p95_max_s = 0.050
    p99_max_s = 0.250

    [errors]                        # outcome.error / (ok + error)
    max_rate = 0.01

    [throughput]                    # serving.request.throughput_qps gauge
    min_qps = 500.0

    [drift]                         # serving.drift.flag_fraction gauge
    max_flag_fraction = 0.10

``repro obs slo SPEC --metrics-dump metrics.json`` (or ``--ledger ... --run
...``) evaluates every objective against the run's metric snapshots and
exits 1 on any breach — the CI serving-smoke gate.  Every section is
optional, but an objective whose metric is *absent* from the snapshot
counts as breached: an SLO you cannot observe is not being met.

Each section accepts a ``metric`` key to point the objective at a
non-default metric name, so specs can gate bespoke histograms too.  Specs
parse with :mod:`tomllib` (or :mod:`json` for ``.json`` files), and
:func:`load_slo_spec` type-checks every value: thresholds must be finite
real numbers and metric names non-empty strings.
"""

from __future__ import annotations

import json
import math
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ConfigurationError

__all__ = [
    "SLOCheck",
    "SLOReport",
    "load_slo_spec",
    "evaluate_slo",
    "DEFAULT_METRICS",
]

#: Default metric each objective section reads.
DEFAULT_METRICS = {
    "latency": "serving.request.latency_s",
    "errors.ok": "serving.request.outcome.ok",
    "errors.error": "serving.request.outcome.error",
    "throughput": "serving.request.throughput_qps",
    "drift": "serving.drift.flag_fraction",
}

_SECTION_KEYS = {
    "latency": {"metric", "p50_max_s", "p95_max_s", "p99_max_s"},
    "errors": {"ok_metric", "error_metric", "max_rate"},
    "throughput": {"metric", "min_qps"},
    "drift": {"metric", "max_flag_fraction"},
}

#: Keys naming a metric; every other key is a numeric threshold.
_METRIC_KEYS = {"metric", "ok_metric", "error_metric"}


@dataclass(frozen=True)
class SLOCheck:
    """One evaluated objective: target vs. observed."""

    objective: str
    metric: str
    target: float
    observed: float | None
    ok: bool
    detail: str = ""


@dataclass
class SLOReport:
    """Every check of one spec evaluation."""

    checks: list[SLOCheck] = field(default_factory=list)

    @property
    def breached(self) -> bool:
        return any(not check.ok for check in self.checks)

    @property
    def breaches(self) -> list[SLOCheck]:
        return [check for check in self.checks if not check.ok]

    def render(self) -> str:
        if not self.checks:
            return "SLO spec contains no objectives"
        lines = []
        for check in self.checks:
            status = "ok    " if check.ok else "BREACH"
            observed = (
                "absent" if check.observed is None else f"{check.observed:.6g}"
            )
            line = (
                f"{status} {check.objective:<22} {check.metric:<34} "
                f"observed={observed} target={check.target:.6g}"
            )
            if check.detail:
                line += f"  ({check.detail})"
            lines.append(line)
        verdict = "BREACHED" if self.breached else "met"
        lines.append(
            f"{len(self.checks)} objective(s), "
            f"{len(self.breaches)} breached -> SLO {verdict}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------- parsing


def load_slo_spec(path) -> dict:
    """Load and validate an SLO spec (TOML or JSON).

    ``.json`` files parse as JSON; everything else goes through
    :mod:`tomllib`.  Unknown sections or keys, and values of the wrong
    type (a ``bool`` or string threshold, a non-string metric name),
    raise :class:`ConfigurationError` — a typo in a spec must not
    silently weaken the gate.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read SLO spec {path}: {exc}") from exc
    if path.suffix == ".json":
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    else:
        try:
            spec = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigurationError(f"{path} is not valid TOML: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigurationError(f"SLO spec {path} must be a table of sections")
    for section, keys in spec.items():
        if section not in _SECTION_KEYS:
            raise ConfigurationError(
                f"SLO spec {path}: unknown section [{section}]; known: "
                f"{sorted(_SECTION_KEYS)}"
            )
        if not isinstance(keys, dict):
            raise ConfigurationError(
                f"SLO spec {path}: [{section}] must be a table"
            )
        unknown = set(keys) - _SECTION_KEYS[section]
        if unknown:
            raise ConfigurationError(
                f"SLO spec {path}: unknown key(s) {sorted(unknown)} in "
                f"[{section}]; known: {sorted(_SECTION_KEYS[section])}"
            )
        for key, value in keys.items():
            _check_value(path, section, key, value)
    if not spec:
        raise ConfigurationError(f"SLO spec {path} defines no objectives")
    return spec


def _check_value(path, section: str, key: str, value) -> None:
    if key in _METRIC_KEYS:
        if not isinstance(value, str) or not value:
            raise ConfigurationError(
                f"SLO spec {path}: [{section}] {key} must be a non-empty "
                f"metric name string, got {value!r}"
            )
    elif (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ConfigurationError(
            f"SLO spec {path}: [{section}] {key} must be a finite number, "
            f"got {value!r}"
        )


# -------------------------------------------------------------- evaluation


def _numeric(snapshot, key: str) -> float | None:
    if not isinstance(snapshot, dict):
        return None
    value = snapshot.get(key)
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else value


def _check_latency(spec: dict, metrics: dict, checks: list[SLOCheck]) -> None:
    metric = spec.get("metric", DEFAULT_METRICS["latency"])
    snapshot = metrics.get(metric)
    for key, quantile in (("p50_max_s", "p50"), ("p95_max_s", "p95"), ("p99_max_s", "p99")):
        if key not in spec:
            continue
        target = float(spec[key])
        observed = _numeric(snapshot, quantile)
        checks.append(
            SLOCheck(
                objective=f"latency.{quantile}",
                metric=metric,
                target=target,
                observed=observed,
                ok=observed is not None and observed <= target,
                detail="" if observed is not None else "metric absent from snapshot",
            )
        )


def _check_errors(spec: dict, metrics: dict, checks: list[SLOCheck]) -> None:
    if "max_rate" not in spec:
        return
    ok_metric = spec.get("ok_metric", DEFAULT_METRICS["errors.ok"])
    error_metric = spec.get("error_metric", DEFAULT_METRICS["errors.error"])
    target = float(spec["max_rate"])
    n_ok = _numeric(metrics.get(ok_metric), "value")
    n_error = _numeric(metrics.get(error_metric), "value")
    if n_ok is None and n_error is None:
        checks.append(
            SLOCheck(
                objective="errors.rate",
                metric=error_metric,
                target=target,
                observed=None,
                ok=False,
                detail="no request outcomes in snapshot",
            )
        )
        return
    # A missing error counter with traffic present means zero errors —
    # counters are created on first increment.
    n_ok = n_ok or 0.0
    n_error = n_error or 0.0
    total = n_ok + n_error
    rate = n_error / total if total else 0.0
    checks.append(
        SLOCheck(
            objective="errors.rate",
            metric=error_metric,
            target=target,
            observed=rate,
            ok=rate <= target,
            detail=f"{int(n_error)} of {int(total)} requests",
        )
    )


def _check_threshold(
    spec: dict,
    metrics: dict,
    checks: list[SLOCheck],
    *,
    section: str,
    key: str,
    objective: str,
    minimum: bool,
) -> None:
    if key not in spec:
        return
    metric = spec.get("metric", DEFAULT_METRICS[section])
    target = float(spec[key])
    observed = _numeric(metrics.get(metric), "value")
    if observed is None:
        ok = False
        detail = "metric absent from snapshot"
    else:
        ok = observed >= target if minimum else observed <= target
        detail = ""
    checks.append(
        SLOCheck(
            objective=objective,
            metric=metric,
            target=target,
            observed=observed,
            ok=ok,
            detail=detail,
        )
    )


def evaluate_slo(spec: dict, metrics: dict[str, dict]) -> SLOReport:
    """Evaluate a loaded spec against ``{name: snapshot}`` metrics.

    ``metrics`` is the ``metrics`` object of a ``repro.metrics/v1`` dump,
    :meth:`MetricsRegistry.snapshot` output, or
    :meth:`RunLedger.metric_values` — all the same shape.
    """
    report = SLOReport()
    if "latency" in spec:
        _check_latency(spec["latency"], metrics, report.checks)
    if "errors" in spec:
        _check_errors(spec["errors"], metrics, report.checks)
    if "throughput" in spec:
        _check_threshold(
            spec["throughput"],
            metrics,
            report.checks,
            section="throughput",
            key="min_qps",
            objective="throughput.qps",
            minimum=True,
        )
    if "drift" in spec:
        _check_threshold(
            spec["drift"],
            metrics,
            report.checks,
            section="drift",
            key="max_flag_fraction",
            objective="drift.flag_fraction",
            minimum=False,
        )
    return report
