"""``repro obs top``: frame rendering and the tail-refresh loop.

:func:`render_top` is pure (events + metrics in, one frame out), so most
coverage is direct string assertions; :func:`run_top` is driven with
``max_refreshes`` against real files on disk — including a file that
appears *between* refreshes, the "point it at the paths before the run
starts" contract.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.obs.dashboard import (
    read_metrics_dump,
    read_progress_events,
    render_top,
    run_top,
)
from repro.obs.metrics import MetricsRegistry


def progress_events(*, ended=True) -> list[dict]:
    events = [
        {"type": "start", "task": "serve-eval", "total": 4, "completed": 0,
         "elapsed_s": 0.0, "eta_s": None},
        {"type": "replicate", "task": "serve-eval", "total": 4, "completed": 2,
         "elapsed_s": 1.0, "eta_s": 1.0, "index": 2, "status": "ok"},
    ]
    if ended:
        events.append(
            {"type": "end", "task": "serve-eval", "total": 4, "completed": 4,
             "elapsed_s": 2.0, "status": "complete"}
        )
    return events


def serving_metrics() -> dict:
    reg = MetricsRegistry()
    reg.log_histogram("serving.request.latency_s").observe_many(
        np.full(50, 0.002)
    )
    reg.log_histogram("serving.request.queue_wait_s").observe_many(
        np.full(50, 0.0004)
    )
    reg.counter("serving.request.outcome.ok").inc(49)
    reg.counter("serving.request.outcome.error").inc(1)
    reg.gauge("serving.request.throughput_qps").set(880.0)
    reg.counter("serving.drift.observed").inc(50)
    reg.counter("serving.drift.flagged").inc(3)
    reg.gauge("serving.drift.flag_fraction").set(0.06)
    return reg.snapshot()


def write_jsonl(path, events) -> None:
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


class TestRenderTop:
    def test_waiting_frame_when_no_stream(self):
        frame = render_top(None, progress_path="run.jsonl")
        assert "waiting for progress stream" in frame
        assert "run.jsonl" in frame

    def test_running_task_shows_bar_pct_rate_eta(self):
        frame = render_top(progress_events(ended=False))
        assert "serve-eval" in frame
        assert "2/4" in frame
        assert "50.0%" in frame
        assert "2.00/s" in frame
        assert "eta 1.0s" in frame
        assert "[" in frame and "#" in frame

    def test_ended_task_shows_status_not_eta(self):
        frame = render_top(progress_events(ended=True))
        assert "complete" in frame
        assert "eta" not in frame

    def test_serving_panel(self):
        frame = render_top(progress_events(), serving_metrics())
        assert "880 q/s" in frame
        # 2ms lands on the sketch's bucket representative (alpha=5%)
        assert "p50 1.92ms" in frame
        assert "49 ok, 1 error (2.00% errors)" in frame
        assert "6.00% flagged (3/50)" in frame

    def test_no_serving_metrics_no_panel(self):
        reg = MetricsRegistry()
        reg.counter("unrelated").inc()
        frame = render_top(progress_events(), reg.snapshot())
        assert "serving" not in frame

    def test_waiting_for_metrics_dump(self):
        frame = render_top(progress_events(), None, metrics_path="m.json")
        assert "waiting for metrics dump at m.json" in frame


class TestFileReaders:
    def test_missing_progress_file_is_none(self, tmp_path):
        assert read_progress_events(tmp_path / "absent.jsonl") is None

    def test_partial_trailing_line_tolerated_silently(self, tmp_path, recwarn):
        path = tmp_path / "p.jsonl"
        path.write_text(
            json.dumps(progress_events()[0]) + "\n" + '{"type": "repl'
        )
        events = read_progress_events(path)
        assert len(events) == 1
        assert not recwarn.list  # PartialArtifactWarning suppressed

    def test_missing_or_invalid_metrics_dump_is_none(self, tmp_path):
        assert read_metrics_dump(tmp_path / "absent.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert read_metrics_dump(bad) is None

    def test_metrics_dump_reads_metrics_object(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"metrics": serving_metrics()}))
        assert "serving.request.throughput_qps" in read_metrics_dump(path)


class TestRunTop:
    def test_exits_zero_when_all_tasks_ended(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, progress_events(ended=True))
        stream = io.StringIO()
        code = run_top(path, interval=0.0, stream=stream)
        assert code == 0
        assert "complete" in stream.getvalue()

    def test_max_refreshes_bounds_a_live_run(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, progress_events(ended=False))
        stream = io.StringIO()
        code = run_top(path, interval=0.0, max_refreshes=3, stream=stream)
        assert code == 0
        assert stream.getvalue().count("repro obs top") == 3

    def test_waits_for_file_to_appear(self, tmp_path):
        path = tmp_path / "late.jsonl"
        stream = io.StringIO()
        code = run_top(path, interval=0.0, max_refreshes=2, stream=stream)
        assert code == 0
        assert "waiting for progress stream" in stream.getvalue()

    def test_clear_codes_only_when_requested(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, progress_events(ended=True))
        plain, cleared = io.StringIO(), io.StringIO()
        run_top(path, interval=0.0, stream=plain, clear=False)
        run_top(path, interval=0.0, stream=cleared, clear=True)
        assert "\x1b[2J" not in plain.getvalue()
        assert "\x1b[2J" in cleared.getvalue()


class TestCliVerb:
    def test_obs_top_renders_and_exits(self, tmp_path, capsys):
        progress = tmp_path / "p.jsonl"
        write_jsonl(progress, progress_events(ended=True))
        dump = tmp_path / "m.json"
        dump.write_text(json.dumps({"metrics": serving_metrics()}))
        code = main(
            [
                "obs", "top", str(progress),
                "--metrics-dump", str(dump),
                "--interval", "0",
                "--refreshes", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve-eval" in out
        assert "880 q/s" in out


def workspace_metrics() -> dict:
    reg = MetricsRegistry()
    reg.counter("workspace.solves").inc(20)
    reg.counter("workspace.multigrid_solves").inc(20)
    reg.counter("workspace.factorizations").inc(1)
    return reg.snapshot()


class TestWorkspacePanel:
    def test_panel_shows_solve_counts(self):
        frame = render_top(progress_events(), workspace_metrics())
        assert "workspace" in frame
        assert "solve path" not in frame
        assert "solves          20 (20 multigrid)" in frame
        assert "factorizations  1" in frame

    def test_no_workspace_metrics_no_panel(self):
        frame = render_top(progress_events(), serving_metrics())
        assert "workspace" not in frame

    def test_live_workspace_metrics_round_trip(self, tmp_path):
        # a real multigrid sweep's dump, through the file reader
        import scipy.sparse as sparse

        from repro.linalg.workspace import SolveWorkspace
        from repro.obs.export import dump_metrics_json
        from repro.obs.metrics import use_registry

        rng = np.random.default_rng(3)
        x = rng.normal(size=(120, 2))
        diffs = x[:, None, :] - x[None, :, :]
        weights = np.exp(-(diffs**2).sum(axis=2))
        np.fill_diagonal(weights, 0.0)
        registry = MetricsRegistry()
        with use_registry(registry):
            ws = SolveWorkspace(sparse.csr_matrix(weights), backend="multigrid")
            ws.sweep_soft(np.sign(x[:40, 0]), [0.1, 1.0])
        dump = dump_metrics_json(registry, tmp_path / "m.json")
        metrics = read_metrics_dump(dump)
        frame = render_top(progress_events(), metrics)
        assert "solves          2 (2 multigrid)" in frame

    def test_live_exact_factorizations(self):
        # the counter a real exact solve writes is the one the panel reads
        from repro.linalg.workspace import SolveWorkspace
        from repro.obs.metrics import use_registry

        x = np.random.default_rng(4).normal(size=(60, 2))
        weights = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        registry = MetricsRegistry()
        with use_registry(registry):
            SolveWorkspace(weights, backend="exact").solve_hard(np.sign(x[:20, 0]))
        frame = render_top(progress_events(), registry.snapshot())
        assert "solves          1\n" in frame
        assert "factorizations  1\n" in frame
