"""CLI contract: exit codes, report schema, determinism."""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flagdyn import checks
from flagdyn import classification as cls
from flagdyn import cli
from flagdyn import dynamics as dyn
from children import child_env


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
        code = cli.main(["verify", "--suite", "nope"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("error:") == 1

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

    @pytest.mark.parametrize("argv", [
        ["verify", "--format", "json", "--seed", "0"],
        ["verify", "--suite", "lie-core", "--samples", "5", "--format", "json", "--seed", "7"],
        ["simulate", "--matrix", "3,2,1,1", "-n", "5000"],
        ["simulate", "--matrix", "3,2,1,1", "--translation", "0.5,1.5,0.3", "-n", "5000",
         "--out", "orbit.csv"]])
    def test_output_does_not_depend_on_the_cpu_count(self, argv, tmp_path):
        # one process pinned to one CPU, so neither run_checks nor simulate
        # forks a worker, and one on every CPU this process may use; each in
        # its own directory, where a relative --out lands
        cpu = min(os.sched_getaffinity(0))
        pin = f"import os, sys; os.sched_setaffinity(0, {{{cpu}}}); "
        runs = []
        for prefix, where in ((pin, tmp_path / "pinned"), ("import sys; ", tmp_path / "free")):
            where.mkdir()
            proc = subprocess.run([sys.executable, "-c", prefix + "from flagdyn import cli; "
                                   "sys.exit(cli.main(sys.argv[1:]))", *argv],
                                  cwd=where, env=child_env(), capture_output=True, text=True)
            out = where / "orbit.csv"
            runs.append((proc.stdout, proc.stderr, proc.returncode,
                         out.read_text() if out.exists() else None))
        pinned, free = runs
        assert (pinned[0] or pinned[3]) and pinned[1] == ""
        assert pinned == free

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

    # sha256 of the report at each seed.  Its residuals pass through libm
    # `log` and `hypot`, so the digests hold for this platform (x86_64,
    # Python 3.11.7); a change that moves an anchor or a residual updates
    # its digest and says why in CHANGES.md
    REPORT_DIGESTS = {0: "b164487f7af69b6988a13280260deb872941668b114ae99d39860a637cbce9c3",
                      39: "ce9cedb4fe9cd7e544d3f2be2de38a96cd61d96a1c4603f5510873d967886011"}

    @pytest.mark.parametrize("seed", [0, 39])
    def test_report_is_what_run_checks_returns(self, capsys, seed):
        code, out = run(["verify", "--format", "json", "--seed", str(seed)], capsys)
        cases = checks.run_checks(seed=seed)
        assert json.loads(out)["cases"] == cases
        assert code == (0 if all(c["pass"] for c in cases) else 1)
        assert hashlib.sha256(out.encode()).hexdigest() == self.REPORT_DIGESTS[seed]

    @pytest.mark.parametrize("argv", [["verify", "--suite", "dynamics", "--format", "json"],
                                      ["--help"]], ids=["verify", "help"])
    def test_a_reader_that_has_gone_before_the_last_flush_gets_exit_2(self, argv):
        # the output is shorter than stdout's buffer, so its bytes reach the
        # pipe only at the last flush, after the read end is closed
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "flagdyn.cli", *argv], env=child_env(),
                                  stdout=write, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert proc.stderr.decode() == "error: [Errno 32] Broken pipe\n"


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

    @pytest.mark.parametrize("case, oracle", [("subalgebra-table", cls.verify_subalgebra_table),
                                              ("bracket-table", cls.tresse_bracket_suite)])
    def test_report_is_what_the_oracle_returns(self, capsys, case, oracle):
        _, out = run(["oracle", case, "--format", "json"], capsys)
        assert json.loads(out)["cases"] == sorted(oracle(), key=lambda c: c["id"])

    def test_unknown_case_is_usage_error(self, capsys):
        code = cli.main(["oracle", "not-a-case"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("error:") == 1

    def test_degeneration_cases_in_parameter_order(self, capsys):
        _, out = run(["oracle", "degeneration-a1", "--format", "json"], capsys)
        ids = [c["id"] for c in json.loads(out)["cases"]]
        assert ids == [f"degeneration-a1-t={t}" for t in ("1", "1/2", "1/10", "1/100")]

    # sha256 of each case's report: exact text, and residuals that are
    # quotients of square roots of float sums
    REPORT_DIGESTS = {
        "bracket-table": "01f2a7c66288be7193ddb44663b8e4bf3df08305c2a315f0ebb294a65359ae02",
        "degeneration-a1": "a4222c3b45bb101d6bf0202f91be701e259e465949c72f8b635a91605bf7eeba",
        "degeneration-a2": "cf2c826f1a6ee20fcd250f4f52b0b7cda8c8d5872ac9d4a73204d3868ef14bff",
        "degeneration-t1": "5d5ea7edea103ad82bee2e63dedeb927bdee78554dbe7012420f964a266d6278",
        "degeneration-t2": "61f2b9650c61eb61f7eedd2583e618d90fee34684ecd06733d6adcabb6704694",
        "subalgebra-table": "1b10f7ab3635d61f1fd7f22017b101ed169857b9854a7b9c9dfc1e1275573645"}

    @pytest.mark.parametrize("case", sorted(cli._ORACLE_CASES))
    def test_oracle_bytes_are_pinned(self, capsys, case):
        code, out = run(["oracle", case, "--format", "json"], capsys)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == self.REPORT_DIGESTS[case]


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

    def test_stdout_and_out_file_are_the_same_bytes(self, capsys, tmp_path):
        argv = ["simulate", "--matrix", "3,2,1,1", "--start", "0.3,-1.7,2.2",
                "--translation", "0.5,-1,0.25", "-n", "50"]
        _, out = run(argv, capsys)
        target = tmp_path / "orbit.csv"
        run([*argv, "--out", str(target)], capsys)
        assert target.read_bytes() == out.encode()

    def test_a_reader_that_stops_early_ends_a_split_run(self):
        # the caller's write fails once the reader stops reading; it kills
        # and reaps the workers that still run, and none outlives it
        proc = subprocess.Popen([sys.executable, "-m", "flagdyn.cli", "simulate", "-n", "100000"],
                                env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        proc.stdout.read(100)
        proc.stdout.close()
        try:
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, 9)
                proc.wait()
        assert code == 2
        assert proc.stderr.read().decode() == "error: [Errno 32] Broken pipe\n"
        proc.stderr.close()

    def test_signed_zero_start_prints_no_negative_zero(self, capsys):
        code, out = run(["simulate", "--matrix=-2,-1,-1,-1", "--start=-0,-0,-0",
                         "--translation=-0,-0,-0", "-n", "3"], capsys)
        assert code == 0
        assert out == "step,x,y,z\n" + "".join(f"{k},0,0,0\n" for k in range(4))

    def test_start_on_a_far_face_prints_its_box_representative(self, capsys):
        # -1e-20 + 1 rounds to 1.0, outside [0, 1): the point is (0, 0.25, 0)
        code, out = run(["simulate", "--start=-1e-20,0.25,-1e-20", "-n", "1"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "0,0,0.25,0"

    # sha256 of each benchmark matrix's orbit CSV: a change of the float
    # kernel that moves one byte of the output fails here
    @pytest.mark.parametrize("matrix, digest", [
        ("2,1,1,1", "b48aed11e69d0b567d3cd87a5355435aa5e8ce039351364997c1c162ceeb1ad0"),
        ("3,2,1,1", "4bd1af9308b952772e781cbb6360740bd4e3afada7ebdb0c90e1d889d19f34ac"),
        ("5,2,2,1", "18098b0021c39b239e4f6991c3cd65927d2448701a294c1b1dbaa886c4d2237f"),
        ("1,1,1,2", "f7300d792065c2771431878fe6e663be6d07104aa8cbc143286c75dff8513de0"),
        ("3,1,2,1", "99910e0caf5654bc3c50e39a8f6cf66b7703999a26ea333ab32c483453313d18")])
    def test_orbit_bytes_are_pinned(self, capsys, matrix, digest):
        code, out = run(["simulate", "--matrix", matrix, "--start",
                         "0.123456,0.654321,0.211111", "-n", "5000"], capsys)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_invalid_matrix_is_usage_error(self, capsys):
        code, _ = run(["simulate", "--matrix", "2,0,0,1"], capsys)
        assert code == 2
        code, _ = run(["simulate", "--matrix", "1,0,0"], capsys)
        assert code == 2
        # float() rounds this entry to the integer 2**53
        code = cli.main(["simulate", "--matrix", "1,9007199254740993.5,0,1", "-n", "1"])
        assert code == 2
        assert "linear part entries must be integers" in capsys.readouterr().err

    def test_matrix_entries_are_read_as_exact_ints(self):
        # 2**53 + 1 would round to 2**53 through float(); a zero with a huge
        # exponent reads at once
        assert cli._matrix("1,0,9007199254740993,1") == ((1, 0), (9007199254740993, 1))
        assert cli._matrix("2.0,1e0,0e-99999999,5_0e8") == ((2, 1), (0, 5000000000))

    def test_translation_not_exactly_half_integral_is_usage_error(self, capsys):
        # the second value is 0.5 once rounded to a float
        for value in ("0.50000000000001,0,0", "0.50000000000000001,0,0"):
            code = cli.main(["simulate", "--translation", value, "-n", "1"])
            err = capsys.readouterr().err
            assert code == 2
            assert "translation does not normalize the lattice" in err


def _run_closing(fd, argv, how="closed"):
    """flagdyn in a child whose descriptor fd (1 or 2) is closed before it
    starts, or, for how="read-only", open on a file it cannot write, as a
    launcher script can leave it; the other two are pipes, read as text."""
    def close():
        if how == "closed":
            os.close(fd)
        else:
            os.dup2(os.open(os.devnull, os.O_RDONLY), fd)

    return subprocess.run([sys.executable, "-m", "flagdyn.cli", *argv], env=child_env(),
                          capture_output=True, text=True, preexec_fn=close, timeout=60)


class TestClosedStreams:
    @pytest.mark.parametrize("how", ["closed", "read-only"])
    @pytest.mark.parametrize("argv", [["verify", "--suite", "dynamics"], ["simulate", "-n", "3"],
                                      ["--help"]], ids=["verify", "simulate", "help"])
    def test_output_for_a_closed_stdout_exits_2(self, argv, how):
        proc = _run_closing(1, argv, how)
        assert proc.returncode == 2
        assert proc.stderr == "error: [Errno 9] Bad file descriptor\n"

    def test_an_out_file_is_written_with_stdout_closed(self, capsys, tmp_path):
        target = tmp_path / "orbit.csv"
        proc = _run_closing(1, ["simulate", "-n", "3", "--out", str(target)])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert target.read_text() == run(["simulate", "-n", "3"], capsys)[1]

    @pytest.mark.parametrize("how", ["closed", "read-only"])
    @pytest.mark.parametrize("argv", [["simulate", "--matrix", "1,1,1,1", "-n", "3"],
                                      ["verify", "--seed", "x"]],
                             ids=["configuration", "usage"])
    def test_an_error_with_stderr_closed_exits_2(self, argv, how):
        proc = _run_closing(2, argv, how)
        assert (proc.returncode, proc.stdout) == (2, "")

    def test_a_run_with_stderr_closed_keeps_its_exit_code(self, capsys):
        proc = _run_closing(2, ["simulate", "-n", "3"])
        assert (proc.returncode, proc.stdout) == (0, run(["simulate", "-n", "3"], capsys)[1])


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

    # sha256 of the default report, the cat map at 200 steps.  Its rates pass
    # through libm `log` and `hypot`, so the digest holds for this platform
    # (x86_64, Python 3.11.7)
    def test_lyapunov_bytes_are_pinned(self, capsys):
        code, out = run(["lyapunov", "--format", "json"], capsys)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
            "ed28e8c1048272514f39e3c8d8908a0e38df37cd83c04573a23aff7a7f6ff0f0")

    @pytest.mark.parametrize("matrix", ["2,1,1,1", "3,2,1,1", "5,2,2,1", "1,1,1,2", "3,1,2,1"])
    def test_exact_fields_are_the_exact_rates(self, capsys, matrix):
        code, out = run(["lyapunov", "--matrix", matrix, "-n", "20", "--format", "json"],
                        capsys)
        assert code == 0
        exact = {c["id"]: c["exact"] for c in json.loads(out)["cases"] if "exact" in c}
        m = tuple(map(int, matrix.split(",")))
        rate_u, rate_s, _ = dyn.NilMap.of((m[:2], m[2:])).exact_rates()
        assert exact == {"rate-u": rate_u, "rate-s": rate_s, "rate-c": 0.0}

    @pytest.mark.parametrize("option, value, cause", [
        ("--translation", "0.5,0.5,4503599627370496",
         "the 1e-06 perturbation was lost to float rounding at this scale"),
        ("--matrix", "1180591620717411303424,34359738367,34359738369,1",
         "sqrt(tr^2 - 4) rounds to |tr| at this scale, so the splitting of the "
         "linear part is below float resolution"),
        # determinant exactly 1, though float() would round the first entry
        ("--matrix", "9007199254740993,9007199254740992,1,1",
         "sqrt(tr^2 - 4) rounds to |tr| at this scale"),
        # trace 3, but entries of 1.7e7: unrefused, rate-u was off by 0.93
        ("--matrix", "4096,1,-16764929,-4093",
         "one step rounds the 1e-06 perturbation by up to 1.4e+01 of its size "
         "(row sums up to 16769025, eigen-directions at sine 1.3e-07)"),
        # trace 3 and entries of 1.3e6: unrefused, rate-s was off by 1.7e-3
        ("--matrix", "1150,1,-1319051,-1147",
         "one step rounds the 1e-06 perturbation by up to 3.0e-01 of its size")])
    def test_value_lost_to_float_rounding_is_named(self, capsys, option, value, cause):
        code = cli.main(["lyapunov", option, value])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {cause}")


def test_start_up_imports_no_code_generation_machinery():
    # the records are slotted classes, so the CLI's set-up loads neither
    # dataclasses nor what it pulls in, and the fork helper loads tempfile
    # only when it splits; -S keeps `site` from loading any of these names
    # first, and only what the import adds is compared
    code = ("import sys; before = set(sys.modules); "
            "import flagdyn.cli; flagdyn.cli.build_parser(); "
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env=child_env()).stdout
    added = set(out.split())
    assert "flagdyn.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "tempfile"}


def test_multipliers_of_large_entries_pass_the_relative_gate(capsys):
    # entries of 1e6 and 2e6, and of 6.5e4 on a trace-3 map: the exact
    # multipliers and the measured rates agree, and the rounding bound of one
    # step (6.7e-4, 1.3e-3 and 3.3e-3) stays below the refusal
    for matrix in ("1000001,1000000,1,1", "2000001,2000000,1,1", "256,1,-64769,-253"):
        code, out = run(["lyapunov", "-n", "20", "--matrix", matrix], capsys)
        assert code == 0 and out.endswith("4/4 checks passed\n"), matrix


def _trace_three_beyond_floats():
    """A trace-3 matrix of determinant 1 whose entries are finite floats but
    whose row sums are not: [[K, -B], [(K^2 - 3K + 1) / B, 3 - K]] with
    B = 11^296 and K^2 - 3K + 1 = 0 mod B."""
    b = 11 ** 296
    s = 4  # a square root of 5 mod 11, lifted by Newton's step mod B
    while s * s % b != 5:
        s = (s * s + 5) * pow(2 * s, -1, b) % b
    k = (3 + s) * pow(2, -1, b) % b
    return f"{k},{-b},{(k * k - 3 * k + 1) // b},{3 - k}"


# trace 3 and det 1, with eigen-directions equal as floats
TRACE_THREE_EQUAL_DIRECTIONS = ("100000000000000000000,1,"
                                "-9999999999999999999700000000000000000001,-99999999999999999997")
TRACE_THREE_BEYOND_FLOATS = _trace_three_beyond_floats()


@pytest.mark.parametrize("matrix", [
    "100000001,100000000,1,1", "10000000001,10000000000,1,1",
    "5000000001,5000000000,1,1", "3000000001,1000000000,3,1",
    TRACE_THREE_EQUAL_DIRECTIONS,
    pytest.param(TRACE_THREE_BEYOND_FLOATS, id="trace-three-beyond-floats")])
def test_multipliers_beyond_float_precision_are_usage_errors(capsys, matrix):
    code = cli.main(["lyapunov", "-n", "20", "--matrix", matrix])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("error:") == 1 and "Traceback" not in captured.err


def test_refusal_prints_a_huge_row_sum_in_a_short_line(capsys):
    # its row sum has 309 digits: exact, the one error line took 481 characters
    code = cli.main(["lyapunov", "-n", "20", "--matrix", TRACE_THREE_BEYOND_FLOATS])
    err = capsys.readouterr().err
    assert code == 2 and "(row sums up to 1.932e+308," in err
    assert len(err) <= 200


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
    ["lyapunov", "-n", "20", "--tol", "1e-6"],
])
def test_option_the_subcommand_does_not_read_is_usage_error(capsys, argv):
    code, out = run(argv, capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    "simulate --start 1,2", "simulate --translation 1,2", "simulate --start nan,0,0",
    "simulate --start inf,0,0", "simulate --matrix 2,1,1,1e400", "simulate -n -5",
    "lyapunov -n 0", "lyapunov -n -3", "verify --out /nonexistent/x.json",
    "simulate --out /nonexistent/x.csv", "simulate -n 1 --out /",
    # coordinates whose group-law products overflow to inf or nan
    "simulate -n 2 --start 1e300,1e300,0", "simulate -n 2 --translation 1e308,0,0",
    "lyapunov -n 5 --translation 0.5,0.5,1e308",
    # nonzero, but a float zero; Fraction would build 10**99999999
    "simulate -n 1 --translation 0.5,0,1e-99999999",
    # row sums past 2**52: one step leaves the coordinates' range
    pytest.param(f"simulate -n 3 --matrix {TRACE_THREE_BEYOND_FLOATS}",
                 id="simulate -n 3 --matrix trace-three-beyond-floats"),
    f"simulate -n 3 --matrix {TRACE_THREE_EQUAL_DIRECTIONS}",
    # a path that no file name encoding holds: stopped before any work
    pytest.param("simulate -n 1 --out=\ud800", id="simulate -n 1 --out=U+D800"),
    pytest.param("verify --out=\ud800", id="verify --out=U+D800")])
def test_malformed_input_is_usage_error(capsys, argv):
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("error:") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("option, value, message", [
    ("--start", "1,2,x", "expected 3 finite comma-separated numbers, got '1,2,x'"),
    ("--matrix", "2,1,1,a", "expected 4 finite comma-separated numbers, got '2,1,1,a'"),
    ("--translation", "0,0,", "expected 3 finite comma-separated numbers, got '0,0,'"),
    # read as options; test_signed_zero_start_prints_no_negative_zero runs --opt=value
    ("--matrix", "-2,1,1,-1", "expected one argument"),
    ("--start", "-0.5,0.25,0.1", "expected one argument"),
    ("--translation", "-0.5,0.5,0", "expected one argument")])
def test_unreadable_number_option_is_named_with_its_cause(capsys, option, value, message):
    assert cli.main(["simulate", "-n", "1", option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: argument {option}: {message}\n" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "dynamics", "--samples", "1"],
    ["oracle", "bracket-table"],
    ["lyapunov", "-n", "20"],
    ["simulate", "-n", "3"]], ids=lambda argv: argv[0])
def test_empty_out_means_stdout(capsys, monkeypatch, tmp_path, argv):
    # every command reads an empty --out as no --out at all
    monkeypatch.chdir(tmp_path)
    expected = run(argv, capsys)
    code = cli.main([*argv, "--out="])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (*expected, "")
    assert expected[0] == 0 and expected[1]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "classification"],
    ["oracle", "bracket-table"],
    ["lyapunov", "-n", "20"]], ids=lambda argv: argv[0])
def test_output_does_not_read_the_environment(capsys, monkeypatch, tmp_path, argv):
    # variables named like the options change no default: the same exit
    # code, stdout and stderr as without them, and no file
    monkeypatch.chdir(tmp_path)
    without = cli.main(argv), *capsys.readouterr()
    for name, value in {"SEED": "5", "FORMAT": "json", "SAMPLES": "1",
                        "OUT": "report.json"}.items():
        monkeypatch.setenv("FLAGDYN_" + name, value)
    assert (cli.main(argv), *capsys.readouterr()) == without
    assert list(tmp_path.iterdir()) == []


_ENVIRONMENT = {"environ", "environb", "getenv", "putenv"}


def test_src_reads_no_environment():
    # output is a function of argv: no module of src touches os.environ,
    # os.environb, os.getenv or os.putenv, or imports them from os
    src = Path(cli.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
                        and isinstance(node.value, ast.Name) and node.value.id == "os"), path.name
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                assert not {a.name for a in node.names} & _ENVIRONMENT, path.name


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract over argv
# ---------------------------------------------------------------------------

# Lone surrogates U+DC80 to U+DCFF, as an argv holds for bytes that are not
# UTF-8; no NUL, which no argv holds.
_text = st.text(st.one_of(
    st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
    st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF)), max_size=8)
_number = st.one_of(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).map(str),
    st.floats().map(repr),
    st.sampled_from(["1e308", "-1e308", "1e400", "nan", "inf", "-0", "1e-300", "2**53"]))
_garbage = st.one_of(_text, _number,
                     st.lists(_number, min_size=2, max_size=5).map(",".join))


def _or_garbage(valid):
    """Mostly well-formed values, so that runs get past parsing."""
    return st.one_of(valid, valid, _garbage)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_coordinate = st.one_of(_finite, st.sampled_from([1e308, -1e300, 2.0 ** 60, 0.5]))
_point = st.lists(_coordinate, min_size=3, max_size=3).map(
    lambda v: ",".join(map(repr, v)))
# Absolute paths only where nothing can be written; the run happens inside
# a fresh temporary directory.
_out = st.one_of(st.just("report.csv"), st.just("report.csv"),
                 st.sampled_from(["", ".", "..", "/", "/nonexistent/x.json"]),
                 _text.filter(lambda name: "/" not in name))
_VALUES = {
    "seed": _or_garbage(st.integers().map(str)),
    "format": _or_garbage(st.sampled_from(["json", "csv", "human"])),
    "out": _out,
    "suite": _or_garbage(st.sampled_from(checks.suites())),
    "matrix": _or_garbage(st.sampled_from([
        "2,1,1,1", "3,2,1,1", "1,0,0,1", "1,1,0,1", "0,-1,1,0",
        "1180591620717411303424,34359738367,34359738369,1",
        TRACE_THREE_EQUAL_DIRECTIONS])),
    "translation": _or_garbage(st.one_of(st.just("0.5,0.5,0"), _point)),
    "start": _or_garbage(_point),
}


def _at_most(limit):
    """Tokens that do not parse as an int above `limit`, so that a run stays
    cheap whatever it parses to."""
    def ok(text):
        try:
            return int(text) <= limit
        except ValueError:
            return True
    return _or_garbage(st.integers(min_value=1, max_value=limit).map(str)).filter(ok)


_READS = {
    "verify": ["suite", "seed", "format", "out"],
    "oracle": ["format", "out"],
    "simulate": ["matrix", "translation", "start", "out"],
    "lyapunov": ["matrix", "translation", "format", "out"],
}
# options drawn apart from _READS, with values bounded so that runs stay cheap
_BOUNDED = {"verify": ["samples"], "simulate": ["steps"], "lyapunov": ["steps"]}


def test_fuzz_table_lists_the_options_of_each_subcommand():
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    accepted = {name: sorted(opt[2:] for action in parser._actions
                             for opt in action.option_strings
                             if opt.startswith("--") and opt != "--help")
                for name, parser in subcommands.items()}
    assert accepted == {name: sorted(reads + _BOUNDED.get(name, []))
                        for name, reads in _READS.items()}


@st.composite
def invocations(draw):
    command = draw(st.one_of(*[st.sampled_from(sorted(_READS))] * 5, _text))
    argv = [command]
    if command == "oracle":
        argv.append(draw(_or_garbage(st.sampled_from(sorted(cli._ORACLE_CASES)))))
    names = st.sampled_from(sorted(_VALUES))
    if command in _READS:
        names = st.one_of(*[st.sampled_from(_READS[command])] * 3, names)
    for name in draw(st.lists(names, max_size=3)):
        # One token, so that a value starting with "-" still reads as one.
        argv.append(f"--{name}={draw(_VALUES[name])}")
    # Bound the cost: at most 2 samples, at most 50 steps.
    if command == "verify":
        argv += ["--samples", draw(_at_most(2))]
    if command in ("simulate", "lyapunov"):
        argv += ["-n", draw(_at_most(50))]
    return argv


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_fuzzed_invocation_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(tmp)
        try:
            code = cli.main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
