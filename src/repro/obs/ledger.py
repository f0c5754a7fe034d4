"""SQLite-backed run ledger: a persistent, queryable history of runs.

Every provenance-carrying artifact the stack produces — ``BENCH_*.json``
trajectories and single-record twins, JSONL span traces with headers,
metrics dumps, progress event streams — is a loose file until it lands
here.  The ledger (stdlib :mod:`sqlite3`, no dependencies) ingests them
all into one ``.sqlite`` file keyed three ways:

* **run id** — the artifact's own identity (``<utc-timestamp>-<pid>``);
* **git sha** — which code produced it;
* **environment digest** — which machine/toolchain produced it
  (:func:`~repro.obs.environment.fingerprint_digest`), so queries can
  refuse to compare numbers across incomparable environments.

Ingestion is idempotent per ``(run_id, kind)``: re-ingesting an artifact
replaces its rows, so pointing ``repro obs ingest`` at a glob repeatedly
is safe.  Progress streams additionally determine the run's *status*:
a stream whose tasks all reached an ``end`` event is ``complete``, any
other readable prefix is ``partial`` — interrupted runs stay visible
instead of vanishing with their process.

Query API highlights (each backing one ``repro obs`` CLI verb):
:meth:`RunLedger.runs`, :meth:`RunLedger.show`,
:meth:`RunLedger.history` (per-benchmark time series across N runs),
:meth:`RunLedger.bench_runs` (feeds :func:`repro.obs.trend.trend_runs`,
the multi-run regression gate), and :meth:`RunLedger.span_records`
(reconstructs a stored trace for span-tree rendering with memory
attribution).
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path

from repro.obs.environment import fingerprint_digest
from repro.obs.export import to_records

__all__ = ["LEDGER_SCHEMA_VERSION", "IngestResult", "RunLedger", "render_span_tree"]

#: Bumped when the table layout changes; stored in ``ledger_meta``.
LEDGER_SCHEMA_VERSION = 1

_TABLES = """
CREATE TABLE IF NOT EXISTS ledger_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_key INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id TEXT NOT NULL,
    kind TEXT NOT NULL,
    schema TEXT,
    created_unix REAL,
    ingested_unix REAL NOT NULL,
    status TEXT NOT NULL DEFAULT 'complete',
    scale TEXT,
    git_sha TEXT,
    env_digest TEXT,
    environment_json TEXT,
    source_path TEXT,
    n_records INTEGER NOT NULL DEFAULT 0,
    UNIQUE (run_id, kind)
);
CREATE TABLE IF NOT EXISTS bench_records (
    run_key INTEGER NOT NULL REFERENCES runs(run_key) ON DELETE CASCADE,
    name TEXT NOT NULL,
    scale TEXT,
    repeats INTEGER,
    min_s REAL,
    median_s REAL,
    mean_s REAL,
    peak_bytes INTEGER,
    net_bytes INTEGER,
    solves INTEGER,
    created_unix REAL,
    record_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_bench_records_name ON bench_records(name);
CREATE TABLE IF NOT EXISTS spans (
    run_key INTEGER NOT NULL REFERENCES runs(run_key) ON DELETE CASCADE,
    span_id INTEGER,
    parent_id INTEGER,
    depth INTEGER,
    name TEXT,
    start_wall REAL,
    duration_s REAL,
    peak_bytes INTEGER,
    net_bytes INTEGER,
    attributes_json TEXT
);
CREATE INDEX IF NOT EXISTS idx_spans_run ON spans(run_key);
CREATE TABLE IF NOT EXISTS metric_values (
    run_key INTEGER NOT NULL REFERENCES runs(run_key) ON DELETE CASCADE,
    name TEXT NOT NULL,
    command TEXT,
    value_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS progress_events (
    run_key INTEGER NOT NULL REFERENCES runs(run_key) ON DELETE CASCADE,
    seq INTEGER,
    type TEXT NOT NULL,
    task TEXT,
    replicate_index INTEGER,
    completed INTEGER,
    total INTEGER,
    elapsed_s REAL,
    eta_s REAL,
    payload_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_progress_run ON progress_events(run_key);
"""


@dataclass(frozen=True)
class IngestResult:
    """What one :meth:`RunLedger.ingest` call stored."""

    run_id: str
    kind: str  # "bench" | "trace" | "metrics" | "progress"
    n_records: int
    status: str
    replaced: bool


class RunLedger:
    """One SQLite ledger file; usable as a context manager."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA foreign_keys = ON")
        with self._conn:
            self._conn.executescript(_TABLES)
            self._conn.execute(
                "INSERT OR IGNORE INTO ledger_meta (key, value) VALUES (?, ?)",
                ("schema_version", str(LEDGER_SCHEMA_VERSION)),
            )
        stored = self._conn.execute(
            "SELECT value FROM ledger_meta WHERE key = 'schema_version'"
        ).fetchone()
        if stored and int(stored["value"]) != LEDGER_SCHEMA_VERSION:
            raise ValueError(
                f"{self.path} uses ledger schema v{stored['value']}, "
                f"this build expects v{LEDGER_SCHEMA_VERSION}"
            )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ---------------------------------------------------------------- ingest

    def ingest(self, path) -> IngestResult:
        """Ingest one artifact file, dispatching on its content.

        Recognizes bench runs and single bench records (``.json``),
        metrics dumps (``.json`` with the ``repro.metrics/v1`` schema),
        span traces and progress streams (``.jsonl``, told apart by the
        header schema; headerless JSONL is treated as a legacy trace).
        Raises ``ValueError`` for anything else.
        """
        path = Path(path)
        if path.suffix == ".jsonl":
            return self._ingest_jsonl(path)
        data = json.loads(path.read_text())
        if isinstance(data, dict) and data.get("schema") == "repro.metrics/v1":
            return self._ingest_metrics(data, path)
        if isinstance(data, dict) and (
            isinstance(data.get("benchmarks"), list)
            or "timings_s" in data
            or str(data.get("schema", "")).startswith("repro.bench")
        ):
            from repro.obs.bench import load_bench_run

            return self._ingest_bench_run(load_bench_run(path), path)
        raise ValueError(f"{path}: not a recognized repro artifact")

    def _replace_run(self, run_id: str, kind: str, **columns) -> tuple[int, bool]:
        existing = self._conn.execute(
            "SELECT run_key FROM runs WHERE run_id = ? AND kind = ?", (run_id, kind)
        ).fetchone()
        if existing:
            self._conn.execute(
                "DELETE FROM runs WHERE run_key = ?", (existing["run_key"],)
            )
        environment = columns.pop("environment", None) or {}
        cursor = self._conn.execute(
            """
            INSERT INTO runs (run_id, kind, schema, created_unix, ingested_unix,
                              status, scale, git_sha, env_digest, environment_json,
                              source_path, n_records)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (
                run_id,
                kind,
                columns.get("schema"),
                columns.get("created_unix"),
                time.time(),
                columns.get("status", "complete"),
                columns.get("scale"),
                environment.get("git_sha"),
                fingerprint_digest(environment) if environment else None,
                json.dumps(environment, sort_keys=True, default=str),
                columns.get("source_path"),
                columns.get("n_records", 0),
            ),
        )
        return cursor.lastrowid, existing is not None

    def _ingest_bench_run(self, run: dict, path: Path) -> IngestResult:
        records = run.get("benchmarks", [])
        with self._conn:
            run_key, replaced = self._replace_run(
                str(run.get("run_id", path.stem)),
                "bench",
                schema=run.get("schema"),
                created_unix=run.get("created_unix"),
                scale=run.get("scale"),
                environment=run.get("environment") or {},
                source_path=str(path),
                n_records=len(records),
            )
            for data in records:
                timings = data.get("timings_s") or {}
                memory = data.get("memory") or {}
                health = data.get("solver_health") or {}
                self._conn.execute(
                    """
                    INSERT INTO bench_records (run_key, name, scale, repeats,
                        min_s, median_s, mean_s, peak_bytes, net_bytes, solves,
                        created_unix, record_json)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    (
                        run_key,
                        data.get("name"),
                        data.get("scale"),
                        data.get("repeats"),
                        timings.get("min"),
                        timings.get("median"),
                        timings.get("mean"),
                        memory.get("peak_bytes"),
                        memory.get("net_bytes"),
                        health.get("solves"),
                        data.get("created_unix"),
                        json.dumps(data, sort_keys=True, default=str),
                    ),
                )
        return IngestResult(
            run_id=str(run.get("run_id", path.stem)),
            kind="bench",
            n_records=len(records),
            status="complete",
            replaced=replaced,
        )

    def _ingest_metrics(self, data: dict, path: Path) -> IngestResult:
        metrics = data.get("metrics") or {}
        run_id = data.get("run_id") or path.stem
        with self._conn:
            run_key, replaced = self._replace_run(
                str(run_id),
                "metrics",
                schema=data.get("schema"),
                created_unix=data.get("created_unix"),
                environment=data.get("environment") or {},
                source_path=str(path),
                n_records=len(metrics),
            )
            for name, value in metrics.items():
                self._conn.execute(
                    "INSERT INTO metric_values (run_key, name, command, value_json) "
                    "VALUES (?, ?, ?, ?)",
                    (
                        run_key,
                        str(name),
                        data.get("command"),
                        json.dumps(value, sort_keys=True, default=str),
                    ),
                )
        return IngestResult(
            run_id=str(run_id), kind="metrics", n_records=len(metrics),
            status="complete", replaced=replaced,
        )

    def _ingest_jsonl(self, path: Path) -> IngestResult:
        from repro.obs.export import load_header, load_jsonl
        from repro.obs.progress import PROGRESS_SCHEMA

        header = load_header(path) or {}
        records = load_jsonl(path)
        if header.get("schema") == PROGRESS_SCHEMA:
            return self._ingest_progress(header, records, path)
        return self._ingest_trace(header, records, path)

    def _ingest_trace(self, header: dict, records: list, path: Path) -> IngestResult:
        run_id = str(header.get("run_id") or path.stem)
        with self._conn:
            run_key, replaced = self._replace_run(
                run_id,
                "trace",
                schema=header.get("schema", "repro.trace/v1"),
                created_unix=header.get("created_unix"),
                environment=header.get("environment") or {},
                source_path=str(path),
                n_records=len(records),
            )
            for record in records:
                if not isinstance(record, dict):
                    continue
                attributes = record.get("attributes") or {}
                self._conn.execute(
                    """
                    INSERT INTO spans (run_key, span_id, parent_id, depth, name,
                        start_wall, duration_s, peak_bytes, net_bytes, attributes_json)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    (
                        run_key,
                        record.get("span_id"),
                        record.get("parent_id"),
                        record.get("depth"),
                        record.get("name"),
                        record.get("start_wall"),
                        record.get("duration_s"),
                        attributes.get("memory.peak_bytes"),
                        attributes.get("memory.net_bytes"),
                        json.dumps(attributes, sort_keys=True, default=str),
                    ),
                )
        return IngestResult(
            run_id=run_id, kind="trace", n_records=len(records),
            status="complete", replaced=replaced,
        )

    def _ingest_progress(self, header: dict, events: list, path: Path) -> IngestResult:
        run_id = str(header.get("run_id") or path.stem)
        started: dict[str, int] = {}
        ended: dict[str, str] = {}
        for event in events:
            if not isinstance(event, dict):
                continue
            task = str(event.get("task", "?"))
            if event.get("type") == "start":
                started[task] = started.get(task, 0) + 1
                ended.pop(task, None)
            elif event.get("type") == "end":
                ended[task] = str(event.get("status", "complete"))
        interrupted = (
            not events
            or set(started) != set(ended)
            or any(status != "complete" for status in ended.values())
        )
        status = "partial" if interrupted else "complete"
        with self._conn:
            run_key, replaced = self._replace_run(
                run_id,
                "progress",
                schema=header.get("schema"),
                created_unix=header.get("created_unix"),
                status=status,
                environment=header.get("environment") or {},
                source_path=str(path),
                n_records=len(events),
            )
            for event in events:
                if not isinstance(event, dict):
                    continue
                self._conn.execute(
                    """
                    INSERT INTO progress_events (run_key, seq, type, task,
                        replicate_index, completed, total, elapsed_s, eta_s,
                        payload_json)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    (
                        run_key,
                        event.get("seq"),
                        str(event.get("type", "?")),
                        event.get("task"),
                        event.get("index"),
                        event.get("completed"),
                        event.get("total"),
                        event.get("elapsed_s"),
                        event.get("eta_s"),
                        json.dumps(event, sort_keys=True, default=str),
                    ),
                )
        return IngestResult(
            run_id=run_id, kind="progress", n_records=len(events),
            status=status, replaced=replaced,
        )

    # ---------------------------------------------------------------- queries

    def runs(self, *, kind: str | None = None) -> list[dict]:
        """Every ingested run, oldest first; optionally one artifact kind."""
        query = (
            "SELECT run_id, kind, schema, created_unix, status, scale, git_sha, "
            "env_digest, source_path, n_records FROM runs"
        )
        params: tuple = ()
        if kind is not None:
            query += " WHERE kind = ?"
            params = (kind,)
        query += " ORDER BY created_unix, run_id"
        return [dict(row) for row in self._conn.execute(query, params)]

    def _run_key(self, run_id: str, kind: str | None = None) -> sqlite3.Row:
        query = "SELECT * FROM runs WHERE run_id = ?"
        params: list = [run_id]
        if kind is not None:
            query += " AND kind = ?"
            params.append(kind)
        rows = self._conn.execute(query + " ORDER BY kind", params).fetchall()
        if not rows:
            raise KeyError(f"no ingested run with id {run_id!r}")
        return rows[0]

    def metric_values(self, run_id: str) -> dict[str, dict]:
        """One run's ingested metrics, as ``{name: snapshot dict}``.

        The snapshots are exactly what the run's ``repro.metrics/v1``
        dump carried, so they feed :func:`repro.obs.slo.evaluate_slo`
        and the OpenMetrics exporter the same way a dump file does.
        Raises ``KeyError`` if the run id has no ingested metrics.
        """
        row = self._run_key(run_id, "metrics")
        return {
            r["name"]: json.loads(r["value_json"])
            for r in self._conn.execute(
                "SELECT name, value_json FROM metric_values WHERE run_key = ?",
                (row["run_key"],),
            )
        }

    def show(self, run_id: str) -> dict:
        """Everything stored about one run id (possibly several kinds)."""
        rows = self._conn.execute(
            "SELECT * FROM runs WHERE run_id = ? ORDER BY kind", (run_id,)
        ).fetchall()
        if not rows:
            raise KeyError(f"no ingested run with id {run_id!r}")
        out: dict = {"run_id": run_id, "artifacts": []}
        for row in rows:
            entry = dict(row)
            entry["environment"] = json.loads(entry.pop("environment_json") or "{}")
            run_key = entry.pop("run_key")
            if row["kind"] == "bench":
                entry["benchmarks"] = [
                    dict(r)
                    for r in self._conn.execute(
                        "SELECT name, repeats, min_s, median_s, mean_s, peak_bytes, "
                        "solves FROM bench_records WHERE run_key = ? ORDER BY name",
                        (run_key,),
                    )
                ]
            elif row["kind"] == "trace":
                entry["span_count"] = self._conn.execute(
                    "SELECT COUNT(*) AS n FROM spans WHERE run_key = ?", (run_key,)
                ).fetchone()["n"]
            elif row["kind"] == "metrics":
                entry["metrics"] = {
                    r["name"]: json.loads(r["value_json"])
                    for r in self._conn.execute(
                        "SELECT name, value_json FROM metric_values WHERE run_key = ?",
                        (run_key,),
                    )
                }
            elif row["kind"] == "progress":
                entry["tasks"] = [
                    dict(r)
                    for r in self._conn.execute(
                        """
                        SELECT task,
                               MAX(completed) AS completed,
                               MAX(total) AS total,
                               MAX(elapsed_s) AS elapsed_s,
                               SUM(type = 'heartbeat') AS heartbeats,
                               MAX(CASE WHEN type = 'end' THEN payload_json END)
                                   AS end_json
                        FROM progress_events WHERE run_key = ?
                        GROUP BY task ORDER BY MIN(seq)
                        """,
                        (run_key,),
                    )
                ]
            out["artifacts"].append(entry)
        return out

    def bench_runs(self) -> list[dict]:
        """Reconstructed bench-run dicts (for :mod:`repro.obs.trend`)."""
        runs = []
        for row in self._conn.execute(
            "SELECT * FROM runs WHERE kind = 'bench' ORDER BY created_unix, run_id"
        ):
            benchmarks = [
                json.loads(r["record_json"])
                for r in self._conn.execute(
                    "SELECT record_json FROM bench_records WHERE run_key = ?",
                    (row["run_key"],),
                )
            ]
            runs.append(
                {
                    "run_id": row["run_id"],
                    "created_unix": row["created_unix"],
                    "scale": row["scale"],
                    "environment": json.loads(row["environment_json"] or "{}"),
                    "benchmarks": benchmarks,
                }
            )
        return runs

    def bench_names(self) -> list[str]:
        return [
            row["name"]
            for row in self._conn.execute(
                "SELECT DISTINCT name FROM bench_records ORDER BY name"
            )
        ]

    def history(self, name: str):
        """``name``'s time-ordered measurements across all bench runs."""
        from repro.obs.trend import history_series

        return history_series(self.bench_runs(), name)

    def span_records(self, run_id: str) -> list[dict]:
        """A stored trace's flat span records, ready for the renderers."""
        row = self._run_key(run_id, "trace")
        return [
            {
                "span_id": r["span_id"],
                "parent_id": r["parent_id"],
                "depth": r["depth"],
                "name": r["name"],
                "start_wall": r["start_wall"],
                "duration_s": r["duration_s"],
                "attributes": json.loads(r["attributes_json"] or "{}"),
            }
            for r in self._conn.execute(
                "SELECT * FROM spans WHERE run_key = ? ORDER BY rowid",
                (row["run_key"],),
            )
        ]

    def progress_events(self, run_id: str) -> list[dict]:
        row = self._run_key(run_id, "progress")
        return [
            json.loads(r["payload_json"])
            for r in self._conn.execute(
                "SELECT payload_json FROM progress_events WHERE run_key = ? "
                "ORDER BY seq, rowid",
                (row["run_key"],),
            )
        ]


def render_span_tree(trace, *, max_spans: int = 200, max_attr_width: int = 100) -> str:
    """Indented span tree (one row per span, pre-order) with memory columns.

    ``trace`` is a tracer, spans or span records (anything
    :func:`repro.obs.export.to_records` accepts).  Per-span
    ``memory.peak_bytes`` / ``memory.net_bytes`` render as aligned MB
    columns; other attributes stay inline, elided at ``max_attr_width``
    so the table stays readable (the ledger's ``spans`` table keeps the
    full values).  Backs ``trace-report --tree`` and ``obs span-tree``.
    """
    records = to_records(trace)
    rows = []
    shown = [r for r in records if "name" in r][:max_spans]
    labels = ["  " * int(r.get("depth") or 0) + str(r["name"]) for r in shown]
    # The table right-aligns cells; equal-width labels keep the indents.
    width = max(map(len, labels), default=0)
    for record, label in zip(shown, labels):
        attrs = dict(record.get("attributes") or {})
        peak = attrs.pop("memory.peak_bytes", None)
        net = attrs.pop("memory.net_bytes", None)
        attr_text = ", ".join(f"{k}={v}" for k, v in attrs.items())
        if len(attr_text) > max_attr_width:
            attr_text = attr_text[: max_attr_width - 3] + "..."
        duration = record.get("duration_s")
        rows.append(
            [
                label.ljust(width),
                "-" if duration is None else f"{duration:.6f}",
                "-" if peak is None else f"{peak / 1e6:.2f}",
                "-" if net is None else f"{net / 1e6:+.2f}",
                attr_text,
            ]
        )
    if not rows:
        return "empty trace (0 spans)"
    from repro.experiments.report import ascii_table

    out = ascii_table(["span", "duration_s", "peak MB", "net MB", "attributes"], rows)
    total = sum(1 for r in records if "name" in r)
    if total > len(shown):
        out += f"\n... {total - len(shown)} more spans"
    return out
