"""CLI contract: exit codes, report schema, determinism."""

import json

import pytest

from flagdyn import classification as cls
from flagdyn import cli


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out = run(["verify", "--samples", "3", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "all"
        assert len(payload["cases"]) > 40
        assert all(c["pass"] for c in payload["cases"])
        for c in payload["cases"]:
            assert set(c) >= {"id", "anchor", "pass", "residual"}

    def test_single_suite(self, capsys):
        code, out = run(["verify", "--suite", "classification", "--samples", "2",
                         "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["suite"] == "classification"

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _ = run(["verify", "--suite", "nope"], capsys)
        assert code == 2

    def test_corrupted_expected_value_fails(self, capsys, monkeypatch):
        monkeypatch.setitem(cls.EXPECTED, "dim-h-t", 5)
        code, out = run(["verify", "--suite", "classification", "--samples", "2"],
                        capsys)
        assert code == 1
        assert "subalgebra-table" in out and "FAIL" in out

    def test_json_output_is_deterministic(self, capsys):
        _, out1 = run(["verify", "--suite", "dynamics", "--seed", "5",
                       "--format", "json"], capsys)
        _, out2 = run(["verify", "--suite", "dynamics", "--seed", "5",
                       "--format", "json"], capsys)
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out = run(["verify", "--suite", "classification", "--samples", "2",
                         "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "id,anchor,pass,residual"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _ = run(["verify", "--suite", "dynamics", "--format", "json",
                       "--out", str(target)], capsys)
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["cases"]

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_is_usage_error(self, capsys, samples):
        code, out = run(["verify", "--samples", samples], capsys)
        assert code == 2 and out == ""


class TestOracle:
    def test_degeneration_prints_matrix_and_limit(self, capsys):
        code, out = run(["oracle", "degeneration-t1", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        t_small = [c for c in payload["cases"] if c["id"].endswith("t=1/10")]
        assert len(t_small) == 1
        case = t_small[0]
        assert case["matrix"] == [["1", "-2", "-20"], ["1", "-2", "-20"],
                                  ["-1/10", "1/10", "1"]]
        assert case["limit"] == "beta"

    def test_human_format_shows_extras(self, capsys):
        code, out = run(["oracle", "degeneration-a2"], capsys)
        assert code == 0
        assert "alpha" in out
        assert "matrix" in out

    def test_subalgebra_table(self, capsys):
        code, out = run(["oracle", "subalgebra-table", "--format", "json"], capsys)
        assert code == 0
        assert all(c["pass"] for c in json.loads(out)["cases"])

    def test_unknown_case_is_usage_error(self, capsys):
        code, _ = run(["oracle", "not-a-case"], capsys)
        assert code == 2

    def test_degeneration_cases_in_parameter_order(self, capsys):
        _, out = run(["oracle", "degeneration-a1", "--format", "json"], capsys)
        ids = [c["id"] for c in json.loads(out)["cases"]]
        assert ids == [f"degeneration-a1-t={t}" for t in ("1", "1/2", "1/10", "1/100")]


class TestSimulate:
    def test_identity_map_constant_trajectory(self, capsys):
        code, out = run(["simulate", "--matrix", "1,0,0,1", "-n", "5",
                         "--start", "0,0,0"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,x,y,z"
        assert len(lines) == 7
        for line in lines[1:]:
            assert line.split(",")[1:] == ["0", "0", "0"]

    def test_writes_csv_file(self, capsys, tmp_path):
        target = tmp_path / "orbit.csv"
        code, _ = run(["simulate", "-n", "10", "--out", str(target)], capsys)
        assert code == 0
        assert target.read_text().startswith("step,x,y,z\n")

    def test_invalid_matrix_is_usage_error(self, capsys):
        code, _ = run(["simulate", "--matrix", "2,0,0,1"], capsys)
        assert code == 2
        code, _ = run(["simulate", "--matrix", "1,0,0"], capsys)
        assert code == 2


class TestLyapunov:
    def test_cat_map_unstable_rate(self, capsys):
        code, out = run(["lyapunov", "--matrix", "2,1,1,1", "-n", "200",
                         "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        rate_u = next(c for c in payload["cases"] if c["id"] == "rate-u")
        assert abs(rate_u["measured"] - 0.9624) < 1e-3
        ph = next(c for c in payload["cases"] if c["id"] == "partially-hyperbolic")
        assert ph["pass"] and ph["n"] == 1

    def test_invalid_tolerance_is_usage_error(self, capsys):
        for tol in ("-1", "0", "nan", "inf"):
            code, out = run(["lyapunov", "-n", "20", "--tol", tol], capsys)
            assert code == 2 and out == "", tol


@pytest.mark.parametrize("argv", [
    ["verify", "--tol", "1e-6"],
    ["oracle", "bracket-table", "--seed", "1"],
    ["oracle", "bracket-table", "--samples", "1"],
    ["oracle", "bracket-table", "--tol", "1e-6"],
    ["simulate", "-n", "1", "--seed", "1"],
    ["simulate", "-n", "1", "--samples", "1"],
    ["simulate", "-n", "1", "--tol", "1e-6"],
    ["simulate", "-n", "1", "--format", "json"],
    ["lyapunov", "-n", "20", "--seed", "1"],
    ["lyapunov", "-n", "20", "--samples", "1"],
])
def test_option_the_subcommand_does_not_read_is_usage_error(capsys, argv):
    code, out = run(argv, capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    "simulate --start 1,2", "simulate --translation 1,2", "simulate --start nan,0,0",
    "simulate --start inf,0,0", "simulate --matrix 2,1,1,1e400", "simulate -n -5",
    "lyapunov -n 0", "lyapunov -n -3", "verify --out /nonexistent/x.json",
    "simulate --out /nonexistent/x.csv", "simulate -n 1 --out /"])
def test_malformed_input_is_usage_error(capsys, argv):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("error:") == 1 and "Traceback" not in captured.err


class TestEnvOverrides:
    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("FLAGDYN_SEED", "17")
        parser = cli.build_parser()
        args = parser.parse_args(["verify"])
        assert args.seed == 17

    def test_format_from_environment(self, monkeypatch):
        monkeypatch.setenv("FLAGDYN_FORMAT", "json")
        parser = cli.build_parser()
        args = parser.parse_args(["verify"])
        assert args.fmt == "json"

    @pytest.mark.parametrize("name, value", [("SEED", "abc"), ("SAMPLES", "0"),
                                             ("FORMAT", "xml")])
    def test_malformed_value_is_usage_error(self, capsys, monkeypatch, name, value):
        monkeypatch.setenv("FLAGDYN_" + name, value)
        code, out = run(["verify", "--suite", "classification"], capsys)
        assert code == 2 and out == ""
