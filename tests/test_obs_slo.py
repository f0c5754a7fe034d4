"""SLO specs: parsing, evaluation semantics, and the CLI gate's exit codes.

The contract under test: ``repro obs slo`` exits 0 when every objective
is met, 1 on any breach (including an objective whose metric is absent
— an SLO you cannot observe is not being met), and 2 on configuration
errors (unreadable spec, unknown keys, mistyped values, no metrics
source).  The ledger error paths live here too: a corrupt ``--ledger``
file or a no-matching-runs query is a one-line ``error:`` + exit 2,
never a traceback.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import evaluate_slo, load_slo_spec


def serving_metrics(*, p99=0.02, errors=0, qps=900.0, drift=0.05) -> dict:
    reg = MetricsRegistry()
    reg.log_histogram("serving.request.latency_s").observe_many(
        np.full(100, p99 / 2.0)
    )
    reg.log_histogram("serving.request.latency_s").observe(p99)
    reg.counter("serving.request.outcome.ok").inc(100)
    if errors:
        reg.counter("serving.request.outcome.error").inc(errors)
    reg.gauge("serving.request.throughput_qps").set(qps)
    reg.gauge("serving.drift.flag_fraction").set(drift)
    return reg.snapshot()


def write_spec(tmp_path, text: str, suffix: str = ".toml"):
    spec = tmp_path / f"slo{suffix}"
    spec.write_text(text)
    return spec


class TestTomlSubsetParser:
    """SLO specs use a subset of TOML: ``[section]`` tables of scalar
    keys.  :mod:`tomllib` parses the file; :func:`load_slo_spec`
    rejects whatever falls outside the subset."""

    def test_sections_numbers_strings_bools(self, tmp_path):
        data = load_slo_spec(
            write_spec(
                tmp_path,
                "# header comment\n"
                "[latency]\n"
                'metric = "custom.lat"  # trailing comment\n'
                "p99_max_s = 0.25\n"
                "[drift]\n"
                "max_flag_fraction = 0.1\n"
                "[throughput]\n"
                "min_qps = 500\n",
            )
        )
        assert data["latency"]["metric"] == "custom.lat"
        assert data["latency"]["p99_max_s"] == 0.25
        assert data["drift"]["max_flag_fraction"] == 0.1
        assert data["throughput"]["min_qps"] == 500  # integers are numbers too

    def test_key_outside_section_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown section"):
            load_slo_spec(write_spec(tmp_path, "p99_max_s = 1.0\n"))

    def test_unterminated_string_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not valid TOML"):
            load_slo_spec(write_spec(tmp_path, '[latency]\nmetric = "oops\n'))

    def test_non_scalar_value_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="finite number"):
            load_slo_spec(write_spec(tmp_path, "[latency]\np99_max_s = [1, 2]\n"))


#: (suffix, spec text, section, key, message) for mistyped spec values.
MISTYPED_SPECS = [
    (".toml", "[errors]\nmax_rate = true\n", "errors", "max_rate", "finite number"),
    (".toml", '[latency]\np99_max_s = "fast"\n', "latency", "p99_max_s", "finite number"),
    (".toml", "[latency]\np99_max_s = nan\n", "latency", "p99_max_s", "finite number"),
    (".toml", "[latency]\nmetric = 7\np99_max_s = 1.0\n", "latency", "metric", "metric name"),
    (".toml", '[errors]\nerror_metric = ""\nmax_rate = 0.1\n', "errors", "error_metric", "metric name"),
    (".json", '{"errors": {"max_rate": true}}', "errors", "max_rate", "finite number"),
    (".json", '{"latency": {"p99_max_s": "fast"}}', "latency", "p99_max_s", "finite number"),
    (".json", '{"latency": {"p99_max_s": null}}', "latency", "p99_max_s", "finite number"),
    (".json", '{"latency": {"p99_max_s": [1, 2]}}', "latency", "p99_max_s", "finite number"),
    (".json", '{"errors": {"ok_metric": null, "max_rate": 0.1}}', "errors", "ok_metric", "metric name"),
]


class TestSpecLoading:
    def test_unknown_section_rejected(self, tmp_path):
        spec = tmp_path / "s.toml"
        spec.write_text("[latencee]\np99_max_s = 1.0\n")
        with pytest.raises(ConfigurationError, match=r"unknown section"):
            load_slo_spec(spec)

    def test_unknown_key_rejected(self, tmp_path):
        spec = tmp_path / "s.toml"
        spec.write_text("[latency]\np42_max_s = 1.0\n")
        with pytest.raises(ConfigurationError, match=r"unknown key"):
            load_slo_spec(spec)

    def test_empty_spec_rejected(self, tmp_path):
        spec = tmp_path / "s.toml"
        spec.write_text("# nothing here\n")
        with pytest.raises(ConfigurationError, match="no objectives"):
            load_slo_spec(spec)

    def test_json_spec_loads(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"throughput": {"min_qps": 10.0}}))
        assert load_slo_spec(spec) == {"throughput": {"min_qps": 10.0}}

    def test_missing_file_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_slo_spec(tmp_path / "absent.toml")

    @pytest.mark.parametrize("suffix,text,section,key,message", MISTYPED_SPECS)
    def test_mistyped_value_rejected(self, tmp_path, suffix, text, section, key, message):
        spec = write_spec(tmp_path, text, suffix)
        with pytest.raises(ConfigurationError) as excinfo:
            load_slo_spec(spec)
        error = str(excinfo.value)
        assert str(spec) in error
        assert f"[{section}] {key}" in error
        assert message in error


class TestEvaluation:
    def test_all_objectives_met(self):
        spec = {
            "latency": {"p99_max_s": 1.0},
            "errors": {"max_rate": 0.05},
            "throughput": {"min_qps": 100.0},
            "drift": {"max_flag_fraction": 0.5},
        }
        report = evaluate_slo(spec, serving_metrics())
        assert not report.breached
        assert len(report.checks) == 4
        assert "SLO met" in report.render()

    def test_latency_breach(self):
        report = evaluate_slo(
            {"latency": {"p99_max_s": 1e-9}}, serving_metrics()
        )
        assert report.breached
        assert report.breaches[0].objective == "latency.p99"

    def test_absent_metric_is_a_breach(self):
        report = evaluate_slo({"throughput": {"min_qps": 1.0}}, {})
        assert report.breached
        assert report.breaches[0].observed is None
        assert "absent" in report.breaches[0].detail

    def test_missing_error_counter_with_traffic_means_zero_errors(self):
        report = evaluate_slo(
            {"errors": {"max_rate": 0.0}}, serving_metrics(errors=0)
        )
        assert not report.breached
        assert report.checks[0].observed == 0.0

    def test_no_outcomes_at_all_is_a_breach(self):
        report = evaluate_slo({"errors": {"max_rate": 1.0}}, {})
        assert report.breached

    def test_error_rate_computed(self):
        report = evaluate_slo(
            {"errors": {"max_rate": 0.01}}, serving_metrics(errors=10)
        )
        assert report.breached
        assert report.checks[0].observed == pytest.approx(10 / 110)

    def test_custom_metric_key(self):
        metrics = {"my.gauge": {"kind": "gauge", "value": 0.9}}
        report = evaluate_slo(
            {"drift": {"metric": "my.gauge", "max_flag_fraction": 0.5}}, metrics
        )
        assert report.breached


class TestCliGate:
    @pytest.fixture()
    def dump(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(
            json.dumps({"schema": "repro.metrics/v1", "metrics": serving_metrics()})
        )
        return path

    def test_met_spec_exits_zero(self, dump, tmp_path, capsys):
        spec = tmp_path / "slo.toml"
        spec.write_text("[latency]\np99_max_s = 10.0\n")
        code = main(["obs", "slo", str(spec), "--metrics-dump", str(dump)])
        assert code == 0
        assert "SLO met" in capsys.readouterr().out

    def test_breached_spec_exits_one(self, dump, tmp_path, capsys):
        spec = tmp_path / "slo.toml"
        spec.write_text(
            "[latency]\np99_max_s = 0.000000001\n[throughput]\nmin_qps = 1e12\n"
        )
        code = main(["obs", "slo", str(spec), "--metrics-dump", str(dump)])
        assert code == 1
        assert "BREACHED" in capsys.readouterr().out

    def test_no_source_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "slo.toml"
        spec.write_text("[latency]\np99_max_s = 1.0\n")
        code = main(["obs", "slo", str(spec)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_both_sources_exits_two(self, dump, tmp_path, capsys):
        spec = tmp_path / "slo.toml"
        spec.write_text("[latency]\np99_max_s = 1.0\n")
        code = main(
            [
                "obs", "slo", str(spec),
                "--metrics-dump", str(dump),
                "--ledger", str(tmp_path / "l.sqlite"),
            ]
        )
        assert code == 2

    def test_unknown_key_exits_two(self, dump, tmp_path, capsys):
        spec = tmp_path / "slo.toml"
        spec.write_text("[latency]\ntypo_max_s = 1.0\n")
        code = main(["obs", "slo", str(spec), "--metrics-dump", str(dump)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix,text,section,key,message", MISTYPED_SPECS)
    def test_mistyped_value_exits_two(
        self, dump, tmp_path, capsys, suffix, text, section, key, message
    ):
        spec = write_spec(tmp_path, text, suffix)
        code = main(["obs", "slo", str(spec), "--metrics-dump", str(dump)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err_lines = captured.err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: ")
        assert f"[{section}] {key}" in err_lines[0]


class TestLedgerErrorPaths:
    """Satellite 6: obs verbs never traceback on bad ledgers or queries."""

    def test_corrupt_ledger_exits_two(self, tmp_path, capsys):
        bogus = tmp_path / "not_a_db.sqlite"
        bogus.write_text("this is not sqlite\n")
        code = main(["obs", "runs", "--ledger", str(bogus)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_corrupt_ledger_slo_exits_two(self, tmp_path, capsys):
        bogus = tmp_path / "not_a_db.sqlite"
        bogus.write_text("junk\n")
        spec = tmp_path / "slo.toml"
        spec.write_text("[latency]\np99_max_s = 1.0\n")
        code = main(["obs", "slo", str(spec), "--ledger", str(bogus)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_history_without_matching_runs_exits_two(self, tmp_path, capsys):
        ledger = tmp_path / "empty.sqlite"
        code = main(
            ["obs", "history", "no_such_bench", "--ledger", str(ledger)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_trend_on_empty_ledger_exits_cleanly(self, tmp_path, capsys):
        ledger = tmp_path / "empty.sqlite"
        code = main(["obs", "trend", "--ledger", str(ledger)])
        assert code in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    def test_slo_ledger_without_metrics_runs_exits_two(self, tmp_path, capsys):
        ledger = tmp_path / "fresh.sqlite"
        spec = tmp_path / "slo.toml"
        spec.write_text("[latency]\np99_max_s = 1.0\n")
        code = main(["obs", "slo", str(spec), "--ledger", str(ledger)])
        assert code == 2
        assert "no ingested metrics runs" in capsys.readouterr().err
