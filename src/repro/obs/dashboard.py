"""``repro obs top``: a live terminal view over a running run's files.

The progress emitter (:mod:`repro.obs.progress`) fsyncs every JSONL
event, and metrics dumps are written atomically — so the files of a
*running* ``serve-eval`` or experiment are always readable prefixes.
This dashboard needs nothing else: :func:`run_top` re-reads those files
on an interval (no sockets, no threads, no dependencies) and renders

* one progress bar per task: completion, replicate rate, elapsed, ETA;
* a workspace panel when the dump carries ``workspace.*`` counters:
  solve counts (and how many were multigrid) and factor-cache hit rate;
* a serving panel when the metrics dump carries ``serving.*`` series:
  request throughput, latency quantiles from the log-bucket histogram,
  queue wait, outcome counts, and the drift watchdog's flag fraction.

:func:`render_top` is the pure renderer — events + metrics in, one
string out — which is what the tests drive; :func:`run_top` is the
refresh loop behind the CLI verb.  A missing file means "not started
yet", not an error: the dashboard waits, so ``repro obs top`` can be
pointed at the paths *before* the run starts.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

__all__ = ["render_top", "run_top", "read_progress_events", "read_metrics_dump"]

#: Width of the progress bar's fill area, in characters.
BAR_WIDTH = 28


def _fmt_seconds(seconds) -> str:
    if seconds is None:
        return "?"
    seconds = float(seconds)
    if seconds < 0:
        return "?"
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def _fmt_quantity(value: float) -> str:
    if value != value:  # NaN
        return "?"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def read_progress_events(path) -> list[dict] | None:
    """The readable prefix of a progress JSONL stream, or None if absent.

    A partial trailing line (interrupted or mid-write emitter) is
    expected while tailing a live file, so the partial-artifact warning
    is suppressed here — the next refresh will see the full line.
    """
    from repro.obs.export import PartialArtifactWarning, load_jsonl

    path = Path(path)
    if not path.exists():
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialArtifactWarning)
        try:
            return load_jsonl(path)
        except (ValueError, OSError):
            # A torn first line right at file creation; treat like absent.
            return None


def read_metrics_dump(path) -> dict | None:
    """The ``metrics`` object of a ``repro.metrics/v1`` dump, or None."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (ValueError, OSError):
        return None
    if not isinstance(payload, dict):
        return None
    metrics = payload.get("metrics")
    return metrics if isinstance(metrics, dict) else None


def _task_states(events: list[dict]) -> dict[str, dict]:
    """Latest per-task state, in first-seen order."""
    tasks: dict[str, dict] = {}
    for event in events:
        name = event.get("task")
        if name is None:
            continue
        state = tasks.setdefault(
            name,
            {"completed": 0, "total": None, "elapsed_s": 0.0, "eta_s": None, "status": "running"},
        )
        if event.get("total") is not None:
            state["total"] = event["total"]
        if event.get("completed") is not None:
            state["completed"] = event["completed"]
        if event.get("elapsed_s") is not None:
            state["elapsed_s"] = event["elapsed_s"]
        if "eta_s" in event:
            state["eta_s"] = event["eta_s"]
        if event.get("type") == "end":
            state["status"] = event.get("status", "complete")
    return tasks


def _bar(completed: int, total) -> str:
    if not total:
        return "[" + "?" * BAR_WIDTH + "]"
    fraction = min(1.0, max(0.0, completed / total))
    filled = int(round(fraction * BAR_WIDTH))
    return "[" + "#" * filled + "-" * (BAR_WIDTH - filled) + "]"


def _render_tasks(tasks: dict[str, dict], lines: list[str]) -> None:
    lines.append("tasks")
    for name, state in tasks.items():
        completed, total = state["completed"], state["total"]
        elapsed = float(state["elapsed_s"] or 0.0)
        rate = completed / elapsed if elapsed > 0 else 0.0
        pct = f"{100.0 * completed / total:5.1f}%" if total else "    ?"
        suffix = (
            f"{completed}/{total if total is not None else '?'} {pct}  "
            f"{rate:.2f}/s  elapsed {_fmt_seconds(elapsed)}"
        )
        if state["status"] == "running":
            suffix += f"  eta {_fmt_seconds(state['eta_s'])}"
        else:
            suffix += f"  {state['status']}"
        lines.append(f"  {name:<20} {_bar(completed, total)} {suffix}")


def _metric(metrics: dict, name: str, key: str = "value"):
    snapshot = metrics.get(name)
    if not isinstance(snapshot, dict):
        return None
    value = snapshot.get(key)
    if value is None:
        return None
    value = float(value)
    return None if value != value else value


def _render_serving(metrics: dict, lines: list[str]) -> None:
    latency = metrics.get("serving.request.latency_s")
    throughput = _metric(metrics, "serving.request.throughput_qps")
    n_ok = _metric(metrics, "serving.request.outcome.ok")
    n_error = _metric(metrics, "serving.request.outcome.error")
    drift = _metric(metrics, "serving.drift.flag_fraction")
    margin = _metric(metrics, "serving.drift.nystrom_margin_min")
    if not any(value is not None for value in (throughput, n_ok, n_error, drift)) and latency is None:
        return
    lines.append("serving")
    if throughput is not None:
        lines.append(f"  throughput      {_fmt_quantity(throughput)} q/s")
    if isinstance(latency, dict) and latency.get("count"):
        parts = []
        for key in ("p50", "p95", "p99"):
            value = latency.get(key)
            if value is not None and value == value:
                parts.append(f"{key} {float(value) * 1e3:.3g}ms")
        if parts:
            lines.append(f"  latency         {'  '.join(parts)}")
    queue_wait = metrics.get("serving.request.queue_wait_s")
    if isinstance(queue_wait, dict) and queue_wait.get("count"):
        p95 = queue_wait.get("p95")
        if p95 is not None and p95 == p95:
            lines.append(f"  queue wait p95  {float(p95) * 1e3:.3g}ms")
    if n_ok is not None or n_error is not None:
        total = (n_ok or 0.0) + (n_error or 0.0)
        rate = (n_error or 0.0) / total if total else 0.0
        lines.append(
            f"  requests        {int(n_ok or 0)} ok, {int(n_error or 0)} "
            f"error ({100.0 * rate:.2f}% errors)"
        )
    if drift is not None:
        flagged = _metric(metrics, "serving.drift.flagged") or 0.0
        observed = _metric(metrics, "serving.drift.observed") or 0.0
        line = (
            f"  drift           {100.0 * drift:.2f}% flagged "
            f"({int(flagged)}/{int(observed)})"
        )
        if margin is not None:
            line += f", nystrom margin min {margin:+.3f}"
        lines.append(line)


def _render_workspace(metrics: dict, lines: list[str]) -> None:
    solves = _metric(metrics, "workspace.solves")
    multigrid = _metric(metrics, "workspace.multigrid_solves")
    if solves is None and multigrid is None:
        return
    lines.append("workspace")
    if solves is not None:
        line = f"  solves          {int(solves)}"
        if multigrid is not None:
            line += f" ({int(multigrid)} multigrid)"
        lines.append(line)
    hits = _metric(metrics, "workspace.factor.hits")
    misses = _metric(metrics, "workspace.factor.misses")
    if hits is not None or misses is not None:
        traffic = (hits or 0.0) + (misses or 0.0)
        rate = (hits or 0.0) / traffic if traffic else 0.0
        lines.append(
            f"  factor cache    {int(hits or 0)} hit / {int(misses or 0)} "
            f"miss ({100.0 * rate:.0f}%)"
        )


def render_top(
    events: list[dict] | None,
    metrics: dict | None = None,
    *,
    progress_path=None,
    metrics_path=None,
) -> str:
    """Render one dashboard frame from loaded events + metric snapshots.

    Pure function of its inputs (paths only decorate the header), so
    tests can assert on frames without touching the refresh loop.
    """
    lines: list[str] = []
    header = "repro obs top"
    if progress_path is not None:
        header += f" — {progress_path}"
    lines.append(header)
    lines.append("=" * len(header))
    if events is None:
        lines.append(
            f"waiting for progress stream"
            f"{f' at {progress_path}' if progress_path is not None else ''} ..."
        )
    else:
        tasks = _task_states(events)
        if tasks:
            _render_tasks(tasks, lines)
        else:
            lines.append("progress stream open, no task events yet")
    if metrics is not None:
        _render_workspace(metrics, lines)
        _render_serving(metrics, lines)
    elif metrics_path is not None:
        lines.append(f"waiting for metrics dump at {metrics_path} ...")
    return "\n".join(lines) + "\n"


def _all_ended(events: list[dict] | None) -> bool:
    if not events:
        return False
    tasks = _task_states(events)
    return bool(tasks) and all(
        state["status"] != "running" for state in tasks.values()
    )


def run_top(
    progress_path,
    metrics_path=None,
    *,
    interval: float = 1.0,
    max_refreshes: int | None = None,
    stream=None,
    clear: bool | None = None,
) -> int:
    """Tail progress/metrics files and re-render until the run ends.

    Exits 0 when every task in the stream has ended (or after
    ``max_refreshes`` frames — the bound the CLI's ``--refreshes`` flag
    and the tests use).  ``clear`` defaults to "only when the stream is
    a terminal", so piped output stays an append-only frame log.
    """
    import sys

    if stream is None:
        stream = sys.stdout
    if clear is None:
        clear = hasattr(stream, "isatty") and stream.isatty()
    refreshes = 0
    while True:
        events = read_progress_events(progress_path)
        metrics = read_metrics_dump(metrics_path) if metrics_path is not None else None
        frame = render_top(
            events,
            metrics,
            progress_path=progress_path,
            metrics_path=metrics_path if metrics is None else None,
        )
        if clear:
            stream.write("\x1b[2J\x1b[H")
        stream.write(frame)
        stream.flush()
        refreshes += 1
        if _all_ended(events):
            return 0
        if max_refreshes is not None and refreshes >= max_refreshes:
            return 0
        time.sleep(interval)
