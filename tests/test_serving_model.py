"""Unit tests for the serving model, micro-batching server, and CLI verb.

Covers the serving *boundary* (malformed queries are
:class:`~repro.exceptions.ConfigurationError`, mapped by the CLI to a
one-line ``error:`` + exit 2 — the PR-4 convention), the counter
surfaces, ticket lifecycle, and the ``repro serve-eval`` verb.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets.synthetic import make_regression_dataset, truncated_mvn_inputs
from repro.exceptions import ConfigurationError, NotFittedError
from repro.linalg.solvers import SPDFactorization
from repro.serving import (
    SERVING_METHODS,
    GraphSSLModel,
    ModelServer,
    run_serve_eval,
)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(5)
    data = make_regression_dataset(25, 75, seed=rng)
    model = GraphSSLModel(graph="full")
    model.fit(data.x_labeled, data.y_labeled, data.x_unlabeled)
    queries = truncated_mvn_inputs(6, seed=rng)
    return model, queries


class TestConstructionAndFit:
    def test_negative_lam_rejected(self):
        with pytest.raises(ConfigurationError, match="lam"):
            GraphSSLModel(lam=-0.5)

    def test_nonpositive_field_scale_rejected(self):
        with pytest.raises(ConfigurationError, match="field_scale"):
            GraphSSLModel(field_scale=0.0)

    def test_n_components_knob_removed(self):
        with pytest.raises(TypeError):
            GraphSSLModel(n_components=8)

    def test_unfitted_model_refuses_queries(self):
        with pytest.raises(NotFittedError):
            GraphSSLModel().predict(np.zeros((1, 3)))

    def test_unfitted_model_refuses_server(self):
        with pytest.raises(NotFittedError):
            ModelServer(GraphSSLModel())

    def test_label_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="rows"):
            GraphSSLModel().fit(np.zeros((4, 2)), np.zeros(3))

    def test_unlabeled_feature_mismatch(self):
        with pytest.raises(ConfigurationError, match="features"):
            GraphSSLModel().fit(
                np.random.default_rng(0).normal(size=(4, 2)),
                np.zeros(4),
                np.zeros((3, 5)),
            )

    def test_soft_fit_solves_one_right_hand_side(self, monkeypatch):
        """A soft fit is one factorization and one back-substitution: the
        model's workspace runs the ``exact`` backend, which builds no
        rank-``n_labeled`` continuation basis for a single λ."""
        columns = []
        solve = SPDFactorization.solve

        def counting_solve(factor, rhs):
            rhs = np.asarray(rhs)
            columns.append(1 if rhs.ndim == 1 else rhs.shape[1])
            return solve(factor, rhs)

        monkeypatch.setattr(SPDFactorization, "solve", counting_solve)
        x = np.random.default_rng(7).normal(size=(400, 3))
        model = GraphSSLModel(lam=0.5, graph="full")
        model.fit(x[:40], np.sin(x[:40, 0]), x[40:])
        assert columns == [1]

    def test_fit_returns_self_and_exposes_state(self, fitted):
        model, _ = fitted
        assert model.n_labeled_ == 25
        assert model.n_reference_ == 100
        assert model.scores_.shape == (100,)
        assert model.bandwidth_ > 0


class TestServingBoundary:
    """Malformed queries raise ConfigurationError at the boundary."""

    def test_one_dimensional_query_rejected(self, fitted):
        model, _ = fitted
        with pytest.raises(ConfigurationError, match=r"x\[None, :\]"):
            model.predict(np.zeros(5))

    def test_empty_batch_rejected(self, fitted):
        model, _ = fitted
        with pytest.raises(ConfigurationError, match="empty"):
            model.predict(np.zeros((0, 5)))

    def test_wrong_feature_count_rejected(self, fitted):
        model, _ = fitted
        with pytest.raises(ConfigurationError, match="features"):
            model.predict(np.zeros((2, 4)))

    def test_non_numeric_batch_rejected(self, fitted):
        model, _ = fitted
        with pytest.raises(ConfigurationError, match="numeric"):
            model.predict([["a", "b", "c", "d", "e"]])

    def test_non_finite_batch_rejected(self, fitted):
        model, _ = fitted
        bad = np.zeros((2, 5))
        bad[1, 3] = np.nan
        with pytest.raises(ConfigurationError, match="non-finite"):
            model.predict(bad)

    def test_unknown_method_rejected(self, fitted):
        model, queries = fitted
        with pytest.raises(ConfigurationError, match="unknown serving method"):
            model.predict(queries, method="kriging")

    def test_nystrom_method_rejected_at_every_entry_point(self, fitted):
        model, queries = fitted
        known = r"\('nw', 'exact'\)"
        with pytest.raises(ConfigurationError, match=known):
            model.predict(queries, method="nystrom")
        with pytest.raises(ConfigurationError, match=known):
            model.predict_batch(queries, method="nystrom")
        with pytest.raises(ConfigurationError, match=known):
            ModelServer(model, method="nystrom")

    def test_bad_batch_size_rejected(self, fitted):
        model, queries = fitted
        with pytest.raises(ConfigurationError, match="batch_size"):
            model.predict_batch(queries, batch_size=0)

    def test_interval_requires_hard_criterion(self):
        rng = np.random.default_rng(9)
        data = make_regression_dataset(15, 30, seed=rng)
        soft = GraphSSLModel(lam=0.3)
        soft.fit(data.x_labeled, data.y_labeled, data.x_unlabeled)
        with pytest.raises(ConfigurationError, match="hard-criterion"):
            soft.predict(
                truncated_mvn_inputs(2, seed=rng), return_interval=True
            )

    def test_interval_requires_positive_z(self, fitted):
        model, queries = fitted
        with pytest.raises(ConfigurationError, match="z must be"):
            model.predict(queries, return_interval=True, z=0.0)

    @pytest.mark.parametrize("entry", ["predict", "predict_batch"])
    @pytest.mark.parametrize(
        "lam, z, reason", [(0.5, 1.96, "hard-criterion"), (0.0, -1.0, "z must be")]
    )
    def test_refused_interval_request_serves_and_counts_nothing(
        self, entry, lam, z, reason, monkeypatch
    ):
        from repro import obs
        from repro.serving.insertion import ExactInserter

        rng = np.random.default_rng(11)
        data = make_regression_dataset(15, 30, seed=rng)
        model = GraphSSLModel(lam=lam)
        model.fit(data.x_labeled, data.y_labeled, data.x_unlabeled)
        inserts = []
        original = ExactInserter.insert

        def counted(self, row):
            inserts.append(row)
            return original(self, row)

        monkeypatch.setattr(ExactInserter, "insert", counted)
        registry = obs.get_registry()
        names = ("serving.queries", "serving.batches")
        before = model.stats(), [registry.counter(name).value for name in names]
        with pytest.raises(ConfigurationError, match=reason):
            getattr(model, entry)(
                truncated_mvn_inputs(5, seed=rng),
                method="exact",
                return_interval=True,
                z=z,
            )
        assert inserts == []
        assert model.stats() == before[0]
        assert [registry.counter(name).value for name in names] == before[1]


class TestCountersAndState:
    def test_stats_counters_advance(self, fitted):
        model, queries = fitted
        before = model.stats()
        model.predict(queries, method="nw")
        model.predict_batch(queries, method="exact", batch_size=2)
        after = model.stats()
        assert after.queries == before.queries + 2 * len(queries)
        assert after.nw_queries == before.nw_queries + len(queries)
        assert after.exact_queries == before.exact_queries + len(queries)
        assert after.batches == before.batches + 1 + 3

    def test_exact_iterations_accumulate(self, fitted):
        model, queries = fitted
        before = model.stats().exact_iterations
        model.predict(queries, method="exact")
        assert model.stats().exact_iterations > before

    @pytest.mark.parametrize("method", ["nw", "exact"])
    def test_batch_intervals_extract_each_chunk_once(self, fitted, method, monkeypatch):
        from repro.serving.queries import QueryExtractor

        model, _ = fitted
        queries = truncated_mvn_inputs(8, seed=np.random.default_rng(21))
        expected = model.predict(queries, method=method, return_interval=True)
        calls = []
        original = QueryExtractor.extract

        def spy(self, batch):
            calls.append(len(batch))
            return original(self, batch)

        monkeypatch.setattr(QueryExtractor, "extract", spy)
        got = model.predict_batch(
            queries, method=method, batch_size=4, return_interval=True
        )
        assert calls == [4, 4]
        for served, reference in zip(got, expected):
            np.testing.assert_array_equal(served, reference)

    def test_pickle_roundtrip_drops_factorizations(self, fitted):
        import pickle

        model, queries = fitted
        clone = pickle.loads(pickle.dumps(model))
        assert clone._workspace is None and clone._inserter is None
        # The clone still serves — including the exact path, which
        # rebuilds its workspace lazily.
        for method in SERVING_METHODS:
            np.testing.assert_array_equal(
                clone.predict(queries, method=method),
                model.predict(queries, method=method),
            )

    def test_query_weights_rows_are_frozen_graph_rows(self, fitted):
        model, queries = fitted
        rows = model.query_weights(queries)
        assert len(rows) == len(queries)
        for row in rows:
            assert row.indices.shape == row.weights.shape
            assert np.all(np.isfinite(row.weights))
            assert row.total >= 0


class TestModelServer:
    def test_ticket_lifecycle_and_auto_flush(self, fitted):
        model, queries = fitted
        server = ModelServer(model, max_batch_size=3)
        tickets = [server.submit(q) for q in queries[:3]]
        # The third submit filled the batch -> auto-flush resolved all.
        assert all(t.done for t in tickets)
        stats = server.stats()
        assert stats.full_batches == 1 and stats.flushes == 1
        assert stats.pending == 0

    def test_pending_ticket_resolves_lazily(self, fitted):
        model, queries = fitted
        server = ModelServer(model, max_batch_size=50)
        ticket = server.submit(queries[0])
        assert not ticket.done
        value = ticket.result()  # triggers the flush
        assert ticket.done
        assert value == pytest.approx(
            float(model.predict(queries[:1])[0]), abs=0
        )

    def test_submit_rejects_multi_point_input(self, fitted):
        model, queries = fitted
        server = ModelServer(model)
        with pytest.raises(ConfigurationError, match="single query point"):
            server.submit(queries[:2])

    def test_bad_max_batch_size(self, fitted):
        model, _ = fitted
        with pytest.raises(ConfigurationError, match="max_batch_size"):
            ModelServer(model, max_batch_size=0)

    def test_flush_on_empty_queue_is_a_noop(self, fitted):
        model, _ = fitted
        server = ModelServer(model)
        assert server.flush() == 0


class TestServeEvalDriver:
    def test_runs_and_reports_every_method(self):
        result = run_serve_eval(
            n_reference=80,
            n_labeled=20,
            n_queries=12,
            batch_size=4,
            parity_sample=4,
            seed=0,
        )
        assert [r.method for r in result.reports] == list(SERVING_METHODS)
        for report in result.reports:
            assert report.single_qps > 0 and report.batched_qps > 0
        exact = next(r for r in result.reports if r.method == "exact")
        assert exact.max_abs_dev_vs_exact == pytest.approx(0.0, abs=1e-12)
        assert len(result.to_rows()) == len(SERVING_METHODS)
        assert len(result.headers()) == 5

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError, match="n_labeled"):
            run_serve_eval(n_reference=10, n_labeled=10)
        with pytest.raises(ConfigurationError, match="unknown serving method"):
            run_serve_eval(n_reference=30, n_labeled=5, methods="krige")

    def test_rejects_epsilon_graph_before_building_data(self, monkeypatch):
        import repro.datasets.synthetic as synthetic

        def unreachable(*args, **kwargs):
            raise AssertionError("serve-eval got past graph validation")

        monkeypatch.setattr(synthetic, "make_regression_dataset", unreachable)
        monkeypatch.setattr(GraphSSLModel, "fit", unreachable)
        with pytest.raises(ConfigurationError, match="'full', 'knn'"):
            run_serve_eval(graph="epsilon")


class TestServeEvalCli:
    def test_verb_registered_with_defaults(self):
        args = build_parser().parse_args(["serve-eval"])
        assert args.command == "serve-eval"
        assert args.n_ref == 2000 and args.queries == 256
        assert args.method == "all" and args.graph == "knn"
        assert callable(args.handler)

    @pytest.mark.parametrize(
        "flag",
        [["--method", "nystrom"], ["--graph", "epsilon"]],
        ids=["method-nystrom", "graph-epsilon"],
    )
    def test_parser_rejects_removed_choices(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve-eval", *flag])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_small_run_prints_table(self, capsys):
        code = main(
            [
                "serve-eval", "--n-ref", "80", "--n-labeled", "20",
                "--queries", "12", "--batch-size", "4",
                "--parity-sample", "4", "--method", "nw", "--seed", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving evaluation" in out
        assert "nw" in out

    def test_driver_configuration_error_exits_two(self, capsys):
        code = main(
            ["serve-eval", "--n-ref", "10", "--n-labeled", "10", "--seed", "0"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_csv_twin_written(self, capsys, tmp_path):
        csv_path = tmp_path / "serve.csv"
        code = main(
            [
                "serve-eval", "--n-ref", "60", "--n-labeled", "15",
                "--queries", "8", "--batch-size", "4", "--method", "nw",
                "--parity-sample", "0", "--seed", "0",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        assert "method" in csv_path.read_text().splitlines()[0]

    def test_progress_jsonl_written(self, tmp_path, capsys):
        jsonl = tmp_path / "progress.jsonl"
        code = main(
            [
                "serve-eval", "--n-ref", "60", "--n-labeled", "15",
                "--queries", "8", "--batch-size", "4", "--method", "nw",
                "--parity-sample", "0", "--seed", "0",
                "--progress-jsonl", str(jsonl),
            ]
        )
        assert code == 0
        lines = jsonl.read_text().splitlines()
        assert lines, "progress JSONL should not be empty"
