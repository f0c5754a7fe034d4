"""OpenMetrics text exposition for the metrics registry — and its parser.

Anything that scrapes Prometheus can scrape us: :func:`render_openmetrics`
turns a registry snapshot (or the ``metrics`` object of a
``repro.metrics/v1`` JSON dump) into the OpenMetrics text format:

* counters expose one ``<name>_total`` sample,
* gauges expose their value directly,
* :class:`~repro.obs.metrics.LogBucketHistogram` metrics expose a
  ``histogram`` family with cumulative ``le`` buckets at the log-bucket
  upper bounds, because their buckets are exact.

Any other kind raises ``ValueError``, including the ``histogram`` kind
that dumps from older versions carry.

:func:`parse_openmetrics` is the validating inverse — strict enough to
serve as a ``promtool``-free format lint in CI (``repro obs
lint-metrics``): it checks name syntax, TYPE-before-samples ordering,
counter monotonic-from-zero values, ``le`` cumulativity, ``summary``
quantile ranges (for expositions written by other programs), the
mandatory ``# EOF`` terminator, and label escaping, and returns the
parsed families for round-trip tests.

Registry metric names use dots (``serving.request.latency_s``); the
exposition sanitizes them to the OpenMetrics charset
(``serving_request_latency_s``) and keeps the sanitized name stable so
dashboards can rely on it.
"""

from __future__ import annotations

import math
import re

__all__ = [
    "render_openmetrics",
    "parse_openmetrics",
    "sanitize_metric_name",
    "OpenMetricsError",
    "MetricFamily",
    "Sample",
]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)"
    r"(?: (?P<timestamp>\S+))?$"
)
#: Sample-name suffixes each family type may expose.
_ALLOWED_SUFFIXES = {
    "counter": ("_total",),
    "gauge": ("",),
    "summary": ("", "_sum", "_count"),
    "histogram": ("_bucket", "_sum", "_count"),
}


class OpenMetricsError(ValueError):
    """The exposition text violates the OpenMetrics format."""


class Sample:
    """One exposition sample: name, labels, float value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str], value: float):
        self.name = name
        self.labels = labels
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sample({self.name!r}, {self.labels!r}, {self.value!r})"


class MetricFamily:
    """One ``# TYPE`` family and the samples that follow it."""

    __slots__ = ("name", "type", "samples")

    def __init__(self, name: str, type: str):
        self.name = name
        self.type = type
        self.samples: list[Sample] = []


def sanitize_metric_name(name: str) -> str:
    """Map a registry metric name onto the OpenMetrics charset.

    Dots (the registry's namespacing convention) and any other invalid
    character become underscores; a leading digit gets a ``_`` prefix.
    The mapping is deterministic, so the exposed name is stable across
    exports.
    """
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not sanitized or not re.match(r"[a-zA-Z_:]", sanitized[0]):
        sanitized = "_" + sanitized
    return sanitized


def escape_label_value(value: str) -> str:
    """Backslash-escape a label value per the OpenMetrics ABNF."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label_value(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:
                raise OpenMetricsError(
                    f"invalid escape sequence \\{nxt} in label value"
                )
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _sample_line(name: str, labels: dict[str, str], value: float) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{escape_label_value(val)}"' for key, val in labels.items()
        )
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def _render_counter(name: str, data: dict, lines: list[str]) -> None:
    lines.append(f"# TYPE {name} counter")
    lines.append(_sample_line(f"{name}_total", {}, data.get("value", 0.0)))


def _render_gauge(name: str, data: dict, lines: list[str]) -> None:
    lines.append(f"# TYPE {name} gauge")
    lines.append(_sample_line(name, {}, data.get("value", math.nan)))


def _render_histogram(name: str, data: dict, lines: list[str]) -> None:
    lines.append(f"# TYPE {name} histogram")
    count = int(data.get("count", 0))
    relative_error = float(data.get("relative_error", 0.05))
    gamma = (1.0 + relative_error) / (1.0 - relative_error)
    cumulative = int(data.get("zero_count", 0))
    if cumulative:
        lines.append(_sample_line(f"{name}_bucket", {"le": "0"}, cumulative))
    buckets = data.get("buckets") or {}
    for index in sorted(int(key) for key in buckets):
        cumulative += int(buckets[str(index)])
        upper = _format_value(gamma**index)
        lines.append(_sample_line(f"{name}_bucket", {"le": upper}, cumulative))
    lines.append(_sample_line(f"{name}_bucket", {"le": "+Inf"}, count))
    lines.append(_sample_line(f"{name}_sum", {}, float(data.get("sum", 0.0))))
    lines.append(_sample_line(f"{name}_count", {}, count))


_RENDERERS = {
    "counter": _render_counter,
    "gauge": _render_gauge,
    "log_histogram": _render_histogram,
}


def render_openmetrics(snapshot: dict[str, dict]) -> str:
    """Render a registry snapshot as OpenMetrics text exposition.

    ``snapshot`` is :meth:`MetricsRegistry.snapshot` output or the
    ``metrics`` object of a ``repro.metrics/v1`` dump: a mapping of
    metric name to a dict carrying ``kind`` plus the kind's summary
    fields.  Unknown kinds raise ``ValueError`` (a dump from a newer
    writer should fail loudly, not silently drop series).
    """
    lines: list[str] = []
    for raw_name in sorted(snapshot):
        data = snapshot[raw_name]
        kind = data.get("kind")
        renderer = _RENDERERS.get(kind)
        if renderer is None:
            raise ValueError(
                f"metric {raw_name!r} has unknown kind {kind!r}; cannot expose"
            )
        renderer(sanitize_metric_name(raw_name), data, lines)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _parse_labels(text: str | None) -> dict[str, str]:
    if not text:
        return {}
    labels: dict[str, str] = {}
    # Split on commas not inside quotes, walking the string once so
    # escaped quotes inside values survive.
    items: list[str] = []
    depth_quote = False
    current = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and depth_quote and i + 1 < len(text):
            current.append(ch)
            current.append(text[i + 1])
            i += 2
            continue
        if ch == '"':
            depth_quote = not depth_quote
            current.append(ch)
        elif ch == "," and not depth_quote:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    if depth_quote:
        raise OpenMetricsError(f"unterminated label value in {{{text}}}")
    if current:
        items.append("".join(current))
    for item in items:
        if "=" not in item:
            raise OpenMetricsError(f"malformed label pair {item!r}")
        key, _, value = item.partition("=")
        if not _LABEL_OK.match(key):
            raise OpenMetricsError(f"invalid label name {key!r}")
        if len(value) < 2 or not (value.startswith('"') and value.endswith('"')):
            raise OpenMetricsError(f"label value for {key!r} is not quoted")
        if key in labels:
            raise OpenMetricsError(f"duplicate label name {key!r}")
        labels[key] = _unescape_label_value(value[1:-1])
    return labels


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError as exc:
        raise OpenMetricsError(f"invalid sample value {text!r}") from exc


def _check_family(family: MetricFamily) -> None:
    """Per-family semantic validation once all its samples are in."""
    if family.type == "counter":
        for sample in family.samples:
            if sample.value < 0 or math.isnan(sample.value):
                raise OpenMetricsError(
                    f"counter {family.name} has non-monotonic-from-zero "
                    f"value {sample.value}"
                )
    elif family.type == "summary":
        for sample in family.samples:
            if sample.name == family.name and "quantile" in sample.labels:
                q = _parse_value(sample.labels["quantile"])
                if not 0.0 <= q <= 1.0:
                    raise OpenMetricsError(
                        f"summary {family.name} quantile {q} outside [0, 1]"
                    )
    elif family.type == "histogram":
        buckets = [
            sample
            for sample in family.samples
            if sample.name == f"{family.name}_bucket"
        ]
        if not buckets:
            raise OpenMetricsError(f"histogram {family.name} has no buckets")
        uppers = []
        counts = []
        for sample in buckets:
            if "le" not in sample.labels:
                raise OpenMetricsError(
                    f"histogram {family.name} bucket without le label"
                )
            uppers.append(_parse_value(sample.labels["le"]))
            counts.append(sample.value)
        if uppers != sorted(uppers):
            raise OpenMetricsError(
                f"histogram {family.name} le bounds are not ascending"
            )
        if counts != sorted(counts):
            raise OpenMetricsError(
                f"histogram {family.name} bucket counts are not cumulative"
            )
        if not math.isinf(uppers[-1]):
            raise OpenMetricsError(
                f"histogram {family.name} is missing the +Inf bucket"
            )
        count_samples = [
            sample.value
            for sample in family.samples
            if sample.name == f"{family.name}_count"
        ]
        if count_samples and counts[-1] != count_samples[0]:
            raise OpenMetricsError(
                f"histogram {family.name} +Inf bucket ({counts[-1]}) does "
                f"not equal _count ({count_samples[0]})"
            )


def parse_openmetrics(text: str) -> dict[str, MetricFamily]:
    """Parse and validate OpenMetrics exposition text.

    Returns ``{family_name: MetricFamily}``.  Raises
    :class:`OpenMetricsError` on format violations — this is the lint
    behind ``repro obs lint-metrics`` and the round-trip half of the
    exporter's tests.
    """
    families: dict[str, MetricFamily] = {}
    current: MetricFamily | None = None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        raise OpenMetricsError("exposition does not end with # EOF")
    for number, line in enumerate(lines, start=1):
        if line == "# EOF":
            if number != len(lines):
                raise OpenMetricsError(f"line {number}: content after # EOF")
            continue
        if not line.strip():
            raise OpenMetricsError(f"line {number}: blank lines are not allowed")
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("TYPE", "HELP", "UNIT"):
                raise OpenMetricsError(f"line {number}: malformed comment {line!r}")
            _, keyword, name = parts[0], parts[1], parts[2]
            if not _NAME_OK.match(name):
                raise OpenMetricsError(f"line {number}: invalid metric name {name!r}")
            if keyword == "TYPE":
                family_type = parts[3] if len(parts) > 3 else ""
                if family_type not in _ALLOWED_SUFFIXES:
                    raise OpenMetricsError(
                        f"line {number}: unknown family type {family_type!r}"
                    )
                if name in families:
                    raise OpenMetricsError(
                        f"line {number}: duplicate TYPE for {name}"
                    )
                if current is not None:
                    _check_family(current)
                current = MetricFamily(name, family_type)
                families[name] = current
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise OpenMetricsError(f"line {number}: malformed sample {line!r}")
        sample_name = match.group("name")
        if current is None or not _belongs_to(sample_name, current):
            raise OpenMetricsError(
                f"line {number}: sample {sample_name!r} precedes its TYPE "
                f"declaration or belongs to no declared family"
            )
        labels = _parse_labels(match.group("labels"))
        value = _parse_value(match.group("value"))
        current.samples.append(Sample(sample_name, labels, value))
    if current is not None:
        _check_family(current)
    return families


def _belongs_to(sample_name: str, family: MetricFamily) -> bool:
    return any(
        sample_name == family.name + suffix
        for suffix in _ALLOWED_SUFFIXES[family.type]
    )
