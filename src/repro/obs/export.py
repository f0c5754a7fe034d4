"""Trace exporters: JSONL files, human-readable tables, in-memory lists.

The JSONL format is one flat span record per line (pre-order), each with
``span_id`` / ``parent_id`` / ``depth`` so the tree is reconstructable::

    {"span_id": 1, "parent_id": null, "depth": 0, "name": "repro.replicate",
     "start_wall": 1733..., "duration_s": 0.012, "attributes": {...}}

Since the provenance unification with the benchmark records (see
:mod:`repro.obs.bench`), :func:`write_jsonl` prepends one *header* line
(``"type": "header"``) carrying the environment fingerprint and creation
time.  :func:`load_jsonl` returns span records only — header lines are
skipped, so traces written before the header existed load identically —
and :func:`load_header` retrieves the provenance when present.

:func:`render_trace_report` aggregates records by span name into an
aligned table (count / total / mean / max durations) plus per-name
numeric-attribute summaries — this backs ``python -m repro trace-report``.
The per-span tree (``trace-report --tree``) is
:func:`repro.obs.ledger.render_span_tree`.

Durability: whole-file dumps (:func:`write_jsonl`,
:func:`dump_metrics_json`) go through :func:`atomic_write_text` —
written to a temp file in the target directory, fsynced, then renamed —
so a crash mid-write never leaves a truncated artifact under the final
name.  Streaming writers use :class:`JsonlSink`, which flushes and
fsyncs every record, so an interrupted process leaves a readable prefix;
:func:`load_jsonl` correspondingly tolerates (with a
:class:`PartialArtifactWarning`) a trailing half-written line.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from pathlib import Path

__all__ = [
    "PartialArtifactWarning",
    "to_records",
    "atomic_write_text",
    "JsonlSink",
    "write_jsonl",
    "load_jsonl",
    "load_header",
    "dump_metrics_json",
    "InMemoryExporter",
    "render_trace_report",
]


class PartialArtifactWarning(UserWarning):
    """A JSONL artifact ended mid-record (interrupted writer); the readable
    prefix was loaded and the partial trailing line skipped."""

#: Schema tag on the JSONL header line.
TRACE_SCHEMA = "repro.trace/v1"


def _is_header(record: dict) -> bool:
    return record.get("type") == "header"


def _json_default(value):
    """Coerce numpy scalars (and other oddballs) to plain JSON types."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def atomic_write_text(path, text: str) -> Path:
    """Write ``text`` to ``path`` via temp-file + fsync + rename.

    The temp file lives in the destination directory so the rename is
    atomic on POSIX; readers either see the old file or the complete new
    one, never a truncated intermediate.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        with tmp.open("w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
    finally:
        if tmp.exists():  # rename failed; don't litter
            tmp.unlink(missing_ok=True)
    return path


class JsonlSink:
    """Append-structured JSONL writer that survives being killed.

    Every :meth:`write` serialises one record, flushes, and fsyncs, so
    the file on disk is always a readable prefix of the stream — the
    durability contract progress telemetry and the run ledger's
    partial-run detection rely on.  Not for hot paths: an fsync per
    record is deliberate (progress events are seconds apart).
    """

    def __init__(self, path, *, fsync: bool = True):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._handle = self.path.open("w")

    def write(self, record: dict) -> None:
        if self._handle is None:
            raise ValueError(f"JsonlSink({self.path}) is closed")
        self._handle.write(json.dumps(record, default=_json_default))
        self._handle.write("\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def to_records(trace) -> list[dict]:
    """Normalize a tracer, span iterable, or record list to record dicts."""
    if hasattr(trace, "to_records"):
        return trace.to_records()
    records = []
    for entry in trace:
        records.append(entry if isinstance(entry, dict) else entry.to_record())
    return records


def write_jsonl(trace, path, *, header: bool = True) -> Path:
    """Write one span record per line; returns the resolved path.

    Unless ``header=False``, the first line is a provenance header with
    the environment fingerprint — the same dict benchmark records embed,
    so traces and bench artifacts share one provenance format.  The file
    lands atomically (temp + rename): a crash mid-export cannot leave a
    truncated trace under the final name.
    """
    from repro.obs.environment import environment_fingerprint

    lines = []
    if header:
        head = {
            "type": "header",
            "schema": TRACE_SCHEMA,
            "created_unix": time.time(),
            "environment": environment_fingerprint(),
        }
        lines.append(json.dumps(head, default=_json_default))
    for record in to_records(trace):
        lines.append(json.dumps(record, default=_json_default))
    return atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def load_jsonl(path) -> list[dict]:
    """Read span records written by :func:`write_jsonl`.

    Header lines are skipped, so files from before the header existed and
    files carrying one load to the same span-record list; use
    :func:`load_header` for the provenance record itself.

    A file whose *last* line does not parse — after at least one line
    that did — is treated as the readable prefix of an interrupted
    streaming writer: the partial line is skipped with a
    :class:`PartialArtifactWarning`.  An unparseable line followed by
    further content, or a file whose very first line is unparseable, is
    real corruption and still raises.
    """
    path = Path(path)
    with path.open() as handle:
        lines = [
            (number, line.strip())
            for number, line in enumerate(handle, start=1)
            if line.strip()
        ]
    records = []
    for position, (number, line) in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if position == len(lines) - 1 and position > 0:
                warnings.warn(
                    f"{path}:{number}: skipping partial trailing line "
                    f"(interrupted writer)",
                    PartialArtifactWarning,
                    stacklevel=2,
                )
                break
            raise
        if not (isinstance(record, dict) and _is_header(record)):
            records.append(record)
    return records


def load_header(path) -> dict | None:
    """The provenance header of a JSONL trace, or None on old files."""
    path = Path(path)
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                record = json.loads(line)
                if isinstance(record, dict) and _is_header(record):
                    return record
                return None
    return None


def dump_metrics_json(registry, path, *, command: str | None = None) -> Path:
    """Write a metrics-registry snapshot as one provenance-carrying JSON.

    Backs the CLI's ``--metrics PATH`` flag; the document embeds the
    environment fingerprint so metric dumps, traces, and bench records
    all answer "where did this number come from" the same way.
    """
    from repro.obs.environment import environment_fingerprint

    payload = {
        "schema": "repro.metrics/v1",
        "command": command,
        "created_unix": time.time(),
        "environment": environment_fingerprint(),
        "metrics": registry.snapshot(),
    }
    return atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    )


class InMemoryExporter:
    """Collects span records in a list — for assertions in tests."""

    def __init__(self):
        self.records: list[dict] = []

    def export(self, trace) -> list[dict]:
        batch = to_records(trace)
        self.records.extend(batch)
        return batch

    def names(self) -> list[str]:
        return [record["name"] for record in self.records]

    def find(self, name: str) -> list[dict]:
        return [record for record in self.records if record["name"] == name]

    def clear(self) -> None:
        self.records.clear()


def render_trace_report(trace) -> str:
    """Aggregate a trace into aligned summary tables.

    One table of span durations grouped by name, and one of numeric
    attribute statistics grouped by ``span name / attribute`` — the
    latter is where solver health (iterations, condition estimates,
    degree statistics) surfaces.
    """
    from repro.experiments.report import ascii_table

    records = [r for r in to_records(trace) if "name" in r]
    if not records:
        return "empty trace (0 spans)"

    by_name: dict[str, list[float]] = {}
    attr_values: dict[tuple[str, str], list[float]] = {}
    for record in records:
        duration = record.get("duration_s")
        by_name.setdefault(record["name"], []).append(
            float(duration) if duration is not None else math.nan
        )
        for key, value in (record.get("attributes") or {}).items():
            if isinstance(value, bool):
                value = float(value)
            if isinstance(value, (int, float)) and math.isfinite(value):
                attr_values.setdefault((record["name"], key), []).append(float(value))

    span_rows = []
    for name in sorted(by_name):
        durations = [d for d in by_name[name] if not math.isnan(d)]
        count = len(by_name[name])
        total = sum(durations)
        mean = total / len(durations) if durations else math.nan
        peak = max(durations) if durations else math.nan
        span_rows.append([name, count, f"{total:.6f}", f"{mean:.6f}", f"{peak:.6f}"])

    lines = [
        f"trace report: {len(records)} spans, {len(by_name)} distinct names",
        "",
        ascii_table(["span", "count", "total_s", "mean_s", "max_s"], span_rows),
    ]

    if attr_values:
        attr_rows = []
        for (name, key) in sorted(attr_values):
            values = attr_values[(name, key)]
            attr_rows.append(
                [
                    f"{name} / {key}",
                    len(values),
                    f"{min(values):.4g}",
                    f"{sum(values) / len(values):.4g}",
                    f"{max(values):.4g}",
                ]
            )
        lines.extend(["", ascii_table(["attribute", "n", "min", "mean", "max"], attr_rows)])
    return "\n".join(lines)
