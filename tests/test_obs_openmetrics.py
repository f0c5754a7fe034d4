"""OpenMetrics exposition: golden format, parse-back, and the parser's teeth.

The golden file (``tests/data/golden_serving.prom``) pins the exact text
a fixed registry renders to — any formatting drift (bucket bounds,
suffix conventions, sample ordering) fails byte-for-byte.  The parser
tests then prove the exposition is *valid* OpenMetrics by our own
validator, and that the validator actually rejects malformed input
rather than rubber-stamping whatever the renderer emits.

The hypothesis test at the bottom is satellite 3's other half: the
log-bucket histogram's quantile error stays within its advertised
relative bound on arbitrary positive samples.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import LogBucketHistogram, MetricsRegistry
from repro.obs.openmetrics import (
    OpenMetricsError,
    escape_label_value,
    parse_openmetrics,
    render_openmetrics,
    sanitize_metric_name,
)

GOLDEN = Path(__file__).parent / "data" / "golden_serving.prom"


def golden_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("serving.request.count.nw").inc(5)
    reg.counter("serving.request.outcome.ok").inc(5)
    reg.counter("serving.drift.flagged").inc(2)
    reg.gauge("serving.request.throughput_qps").set(1234.5)
    reg.gauge("serving.drift.nystrom_margin_min").set(-0.25)
    hist = reg.log_histogram("solve.residual")
    for value in (0.25, 0.5, 0.75, 1.0):
        hist.observe(value)
    reg.log_histogram("serving.request.latency_s").observe_many(
        np.array([0.001, 0.002, 0.004, 0.008, 0.0])
    )
    return reg


class TestGoldenFormat:
    def test_exposition_matches_golden_file(self):
        assert render_openmetrics(golden_registry().snapshot()) == GOLDEN.read_text()

    def test_golden_file_is_valid(self):
        families = parse_openmetrics(GOLDEN.read_text())
        assert set(families) == {
            "serving_drift_flagged",
            "serving_drift_nystrom_margin_min",
            "serving_request_count_nw",
            "serving_request_latency_s",
            "serving_request_outcome_ok",
            "serving_request_throughput_qps",
            "solve_residual",
        }

    def test_ends_with_eof(self):
        assert render_openmetrics({}).endswith("# EOF\n")


class TestParseBackRoundTrip:
    def test_counter_and_gauge_values_survive(self):
        families = parse_openmetrics(render_openmetrics(golden_registry().snapshot()))
        counter = families["serving_request_count_nw"]
        assert counter.type == "counter"
        assert counter.samples[0].value == 5
        gauge = families["serving_drift_nystrom_margin_min"]
        assert gauge.type == "gauge"
        assert gauge.samples[0].value == -0.25

    def test_histogram_buckets_cumulative_and_complete(self):
        families = parse_openmetrics(render_openmetrics(golden_registry().snapshot()))
        family = families["serving_request_latency_s"]
        assert family.type == "histogram"
        buckets = [
            s for s in family.samples
            if s.name == "serving_request_latency_s_bucket"
        ]
        counts = [s.value for s in buckets]
        assert counts == sorted(counts)
        assert buckets[0].labels["le"] == "0"  # zero bucket leads
        assert buckets[-1].labels["le"] == "+Inf"
        count = next(
            s.value for s in family.samples
            if s.name == "serving_request_latency_s_count"
        )
        assert buckets[-1].value == count == 5

    def test_summary_quantiles(self):
        """The exporter writes no summaries, but lint-metrics also reads
        expositions written by other programs, so the parser keeps
        accepting summary families."""
        exposed = render_openmetrics(golden_registry().snapshot())
        assert "summary" not in exposed
        families = parse_openmetrics(
            "# TYPE rpc_duration_s summary\n"
            'rpc_duration_s{quantile="0.5"} 0.25\n'
            'rpc_duration_s{quantile="0.99"} 1\n'
            "rpc_duration_s_sum 2.5\n"
            "rpc_duration_s_count 4\n"
            "# EOF\n"
        )
        family = families["rpc_duration_s"]
        assert family.type == "summary"
        quantiles = {
            s.labels["quantile"]: s.value
            for s in family.samples
            if "quantile" in s.labels
        }
        assert quantiles == {"0.5": 0.25, "0.99": 1.0}


class TestNameAndLabelHandling:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("serving.request.latency_s") == (
            "serving_request_latency_s"
        )
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("a-b c") == "a_b_c"

    def test_label_value_escaping_round_trips(self):
        tricky = 'back\\slash "quote" new\nline'
        escaped = escape_label_value(tricky)
        assert "\n" not in escaped
        text = (
            "# TYPE t gauge\n"
            f't{{k="{escaped}"}} 1\n'
            "# EOF\n"
        )
        families = parse_openmetrics(text)
        assert families["t"].samples[0].labels["k"] == tricky


class TestParserRejections:
    def assert_invalid(self, text: str, match: str):
        with pytest.raises(OpenMetricsError, match=match):
            parse_openmetrics(text)

    def test_missing_eof(self):
        self.assert_invalid("# TYPE t gauge\nt 1\n", "EOF")

    def test_sample_before_type(self):
        self.assert_invalid("t 1\n# TYPE t gauge\n# EOF\n", "TYPE")

    def test_duplicate_type(self):
        self.assert_invalid(
            "# TYPE t gauge\n# TYPE t gauge\nt 1\n# EOF\n", "duplicate"
        )

    def test_negative_counter(self):
        self.assert_invalid(
            "# TYPE t counter\nt_total -1\n# EOF\n", "non-monotonic"
        )

    def test_quantile_out_of_range(self):
        self.assert_invalid(
            '# TYPE t summary\nt{quantile="1.5"} 1\nt_sum 1\nt_count 1\n# EOF\n',
            "quantile",
        )

    def test_non_cumulative_buckets(self):
        self.assert_invalid(
            "# TYPE t histogram\n"
            't_bucket{le="1"} 5\n'
            't_bucket{le="2"} 3\n'
            't_bucket{le="+Inf"} 5\n'
            "t_sum 1\nt_count 5\n# EOF\n",
            "cumulative",
        )

    def test_inf_bucket_must_match_count(self):
        self.assert_invalid(
            "# TYPE t histogram\n"
            't_bucket{le="1"} 3\n'
            't_bucket{le="+Inf"} 3\n'
            "t_sum 1\nt_count 4\n# EOF\n",
            "count",
        )

    def test_unknown_render_kind_raises(self):
        with pytest.raises(ValueError, match="kind"):
            render_openmetrics({"x": {"kind": "mystery", "value": 1}})


class TestCliExportAndLint:
    @pytest.fixture()
    def dump(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        path.write_text(
            json.dumps(
                {"schema": "repro.metrics/v1", "metrics": golden_registry().snapshot()}
            )
        )
        return path

    def test_export_then_lint_round_trip(self, dump, tmp_path, capsys):
        from repro.cli import main

        prom = tmp_path / "out.prom"
        assert main(["obs", "export-metrics", str(dump), "-o", str(prom)]) == 0
        assert prom.read_text().endswith("# EOF\n")
        assert main(["obs", "lint-metrics", str(prom)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_export_to_stdout(self, dump, capsys):
        from repro.cli import main

        assert main(["obs", "export-metrics", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE serving_request_latency_s histogram" in out

    def test_export_rejects_pre_change_histogram_kind(self, tmp_path, capsys):
        """Dumps from before the registry had one histogram type carry
        ``kind: "histogram"`` entries; exporting one fails cleanly."""
        import json

        from repro.cli import main

        dump = tmp_path / "old.json"
        dump.write_text(
            json.dumps(
                {
                    "schema": "repro.metrics/v1",
                    "metrics": {
                        "solves.hard": {"kind": "counter", "value": 2.0},
                        "solves.hard.system_size": {
                            "kind": "histogram", "count": 2, "sum": 40.0,
                            "min": 20.0, "max": 20.0, "mean": 20.0,
                            "p50": 20.0, "p90": 20.0, "p95": 20.0, "p99": 20.0,
                        },
                    },
                }
            )
        )
        prom = tmp_path / "old.prom"
        assert main(["obs", "export-metrics", str(dump), "-o", str(prom)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:")
        assert "metric 'solves.hard.system_size' has unknown kind 'histogram'" in line
        assert not prom.exists()

    def test_lint_rejects_invalid_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.prom"
        bad.write_text("t 1\n")  # no TYPE, no EOF
        assert main(["obs", "lint-metrics", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_lint_missing_file_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "lint-metrics", str(tmp_path / "absent.prom")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestLogBucketRelativeErrorProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=1e-9,
                max_value=1e9,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=400,
        ),
        st.sampled_from([0.25, 0.5, 0.75, 0.9, 0.99]),
    )
    def test_quantile_relative_error_bound(self, values, q):
        hist = LogBucketHistogram("h")
        hist.observe_many(np.asarray(values))
        # nearest-rank exact quantile — the estimator the sketch bounds
        ranked = sorted(values)
        rank = max(1, int(np.ceil(q * len(ranked))))
        exact = ranked[rank - 1]
        approx = hist.quantile(q)
        assert abs(approx - exact) <= hist.relative_error * exact + 1e-12
