import argparse
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nnpoly
from nnpoly.cli import main
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_bound_n3(capsys):
    code, out = run(capsys, "bound", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["safe_a_sq"] == "1"
    assert [r["k"] for r in payload["rows"]] == [1, 2, 3]


def test_bound_with_nu(capsys):
    code, out = run(capsys, "bound", "--n", "3", "--nu")
    payload = json.loads(out)
    assert all("nu" in r for r in payload["rows"][:-1])


def test_certify_verdict_true(capsys):
    code, out = run(capsys, "certify", "--n", "2", "--a-sq", "2")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_certify_accepts_nu_sharpened_cap(capsys):
    # 4/7 = 4/nu(4,2) lies above the mu-formula cap 1/3
    code, out = run(capsys, "certify", "--n", "4", "--a-sq", "4/7")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_certify_defaults_to_certified_cap(capsys):
    # the census certifies 4/nu(3,k) = 4/3, above the mu-formula cap 1
    code, out = run(capsys, "certify", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["a_sq"] == payload["config"]["a_sq"] == "4/3"
    assert payload["verdict"] is True


def test_certify_verdict_false_exits_2(capsys):
    code, out = run(capsys, "certify", "--n", "2", "--a-sq", "100")
    assert code == 2
    assert json.loads(out)["verdict"] is False


def test_witness_cycle_exits_2(capsys):
    code, out = run(capsys, "witness-cycle", "--n", "2", "--a", "1")
    assert code == 2
    payload = json.loads(out)
    assert payload["entry"] == [1, 3]
    assert payload["value"] == "-1"


def test_falsify_found(capsys):
    code, out = run(capsys, "falsify", "--coeffs=-1,0,1", "--m", "1")
    assert code == 2
    assert json.loads(out)["found"] is True


def test_falsify_inconclusive(capsys):
    code, out = run(capsys, "falsify", "--coeffs", "1,2,1", "--m", "2")
    assert code == 0
    assert json.loads(out)["found"] is False


def test_enumerate_count(capsys):
    code, out = run(capsys, "enumerate", "--n", "3", "--j", "3", "--count")
    assert code == 0
    assert json.loads(out)["count"] == 9


@pytest.mark.parametrize("n, j", [(2, 1), (2, 4), (3, 3), (4, 2), (4, 4)])
def test_enumerate_count_matches_listing(capsys, n, j):
    _, out = run(capsys, "enumerate", "--n", str(n), "--j", str(j), "--count")
    count = json.loads(out)["count"]
    _, out = run(capsys, "enumerate", "--n", str(n), "--j", str(j))
    assert count == len(out.splitlines()) == n ** (j - 1)


def test_enumerate_count_does_not_walk(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "enumerate", "--n", "10", "--j", "9", "--count")
    assert code == 0 and json.loads(out)["count"] == 10**8
    assert time.perf_counter() - start < 5  # walking 10^8 paths takes minutes


def test_enumerate_listing(capsys):
    code, out = run(capsys, "enumerate", "--n", "2", "--j", "2")
    assert out.splitlines() == ["1,1,2", "1,2,2"]


def test_enumerate_streams_each_line_as_drawn(capsys, monkeypatch):
    # a failure part way through leaves the lines drawn before it written
    def two_then_fail(n, j, cap):
        yield (1, 1, 2)
        yield (1, 2, 2)
        raise OSError("disk full")

    monkeypatch.setattr(nnpoly.cli.paths, "enumerate_monomials", two_then_fail)
    code = main(["enumerate", "--n", "2", "--j", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "1,1,2\n1,2,2\n"
    assert captured.err == "error: disk full\n"


def test_refused_listing_creates_no_file(tmp_path, capsys):
    dest = tmp_path / "paths.txt"
    code = main(["enumerate", "--n", "2000", "--j", "2000", "--out", str(dest)])
    assert code == 1
    assert "exceeds cap" in capsys.readouterr().err
    assert not dest.exists()


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 14.9 GiB"), "Unable to allocate 14.9 GiB"),
    (MemoryError(), "out of memory"),
], ids=["numpy_message", "bare"])
def test_memory_error_is_resource_error(capsys, monkeypatch, exc, message):
    # the kernel raises as numpy does when it cannot allocate; nothing is allocated
    def out_of_memory(n):
        raise exc

    monkeypatch.setattr(nnpoly.cli.bracket, "bracket_optimal_a", out_of_memory)
    code = main(["search-a", "--n", "1000"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, name", [
    (["bound", "--n", "400"],
     "mu(400,%d)" % next(k for k in range(1, 401) if nnpoly.mu(400, k) >= 10**640)),
    (["bound", "--n", "2", "--d", ",".join(["1/1" + "0" * 400] * 5)],
     "the denominator of cap_sq at k = 1"),
], ids=["mu", "cap_denominator"])
def test_report_past_digit_limit_names_the_quantity(capsys, argv, name):
    # the interpreter's limit on writing an int as text, lowered from 4300
    # so that a small table passes it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (f"error: {name} has more than 640 digits, "
                            "the interpreter's limit for writing an integer as text\n")


def test_nu_command(capsys):
    code, out = run(capsys, "nu", "--n", "3", "--k", "2")
    payload = json.loads(out)
    assert payload["nu"] == 3 and payload["mu"] == 4


def test_jll_failing_list_exits_2(capsys):
    code, out = run(capsys, "jll", "--spectrum", "1,i,-i")
    assert code == 2
    assert json.loads(out)["all_hold"] is False


def test_jll_csv_format(capsys):
    code, out = run(capsys, "jll", "--spectrum", "1,1", "--format", "csv")
    assert code == 0
    assert out.startswith("k,m,lhs,rhs,holds")


def test_jll_from_matrix_file(tmp_path, capsys):
    path = tmp_path / "A.csv"
    path.write_text("1,2\n3,1\n")
    code, out = run(capsys, "jll", "--matrix-file", str(path))
    assert code == 0
    assert json.loads(out)["all_hold"] is True


def test_transform(capsys):
    code, out = run(capsys, "transform", "--coeffs", "1,1,-1,1,1",
                    "--spectrum", "2,0")
    assert code == 0
    vals = json.loads(out)["values"]
    assert vals == [[23.0, 0.0], [1.0, 0.0]]


def test_search_a(capsys):
    code, out = run(capsys, "search-a", "--n", "2", "--starts", "2", "--iterations", "30")
    assert code == 0
    payload = json.loads(out)
    assert Fraction(payload["a_lo"]) <= Fraction(payload["a_hi"])
    assert "witness" in payload


def test_search_a_n3_report_is_pinned(capsys):
    # the whole report, byte for byte: a_hi is the cyclic shift's closed form 2 + 10^-9
    golden = (Path(__file__).parent / "data" / "search_a_n3_seed0.json").read_text()
    code, out = run(capsys, "search-a", "--n", "3", "--seed", "0")
    assert code == 0
    assert out == golden


def test_search_a_ignores_the_float_search_budget(capsys):
    # --seed, --starts and --iterations still parse, and change nothing
    outs = {run(capsys, "search-a", "--n", "3", *argv)
            for argv in (["--seed", "0"],
                         ["--seed", "1", "--starts", "2", "--iterations", "20"],
                         ["--seed", "7", "--starts", "0"])}
    assert len(outs) == 1 and outs.pop()[0] == 0


@pytest.mark.parametrize("argv,config", [
    (["search-a", "--n", "2"], {"n": "2"}),
    # the parse-only float-search flags change no report, so no config
    (["search-a", "--n", "2", "--starts", "0", "--seed", "3"], {"n": "2"}),
    (["bound", "--n", "3"], {"n": "3", "nu": "False", "d": "1,1,1,1,1,1,1"}),
    (["bound", "--n", "3", "--d", "2,2,2,1,2,2,0.5"],
     {"n": "3", "nu": "False", "d": "2,2,2,1,2,2,1/2"}),
    (["falsify", "--coeffs=1,2,1", "--m", "2"], {"coeffs": "1,2,1", "m": "2"}),
], ids=["search_a_default", "search_a_budget", "bound_default", "bound_weights", "falsify"])
def test_report_config_is_the_full_configuration(capsys, argv, config):
    # every option that can change a report is in its config, resolved
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"] == config


def test_falsify_huge_coefficient_is_exact(capsys):
    # 1e400 overflows a float; falsify reads and decides it exactly
    code = main(["falsify", "--coeffs=-1,0,1e400", "--m", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert (payload["poly"][2], payload["value"]) == (str(10**400), "-1")


def test_byte_identical_reports(capsys):
    _, out1 = run(capsys, "certify", "--n", "3", "--a-sq", "1")
    _, out2 = run(capsys, "certify", "--n", "3", "--a-sq", "1")
    assert out1 == out2


def test_report_roundtrip_reverifies(capsys):
    from nnpoly.witness import WitnessReport

    _, out = run(capsys, "witness-cycle", "--n", "3", "--a", "2/3")
    j = json.loads(out)
    rep = WitnessReport(
        poly=[Fraction(c) for c in j["poly"]],
        m=j["m"],
        matrix=[[Fraction(x) for x in row] for row in j["matrix"]],
        entry=tuple(j["entry"]),
        value=Fraction(j["value"]),
        method=j["method"],
    )
    assert rep.reverify()


def test_malformed_rational_is_usage_error(capsys):
    code = main(["certify", "--n", "2", "--a-sq", "nonsense"])
    assert code == 1
    capsys.readouterr()
    # an empty --a-sq is malformed too, not a request for the default
    code = main(["certify", "--n", "3", "--a-sq="])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: Invalid literal for Fraction")
    assert captured.err.count("\n") == 1


def test_cap_exceeded_is_resource_error(capsys):
    code = main(["enumerate", "--n", "10", "--j", "12", "--count", "--cap", "1000"])
    assert code == 1


CENSUS_REFUSAL = "error: n = 2000 is past the census limit n <= 11\n"


@pytest.mark.parametrize("argv,message", [
    (["nu", "--n", "2000", "--k", "1"], CENSUS_REFUSAL),
    # the one command that lists paths keeps --cap, and its hint
    (["enumerate", "--n", "2000", "--j", "2000", "--count"],
     "error: n^(j-1) = 2000^1999 exceeds cap 100000000 (raise --cap to override)\n"),
    (["certify", "--n", "2000"], CENSUS_REFUSAL),
    (["bound", "--n", "2000", "--nu"], CENSUS_REFUSAL),
], ids=["nu", "enumerate_count", "certify", "bound_nu"])
def test_census_sized_n_fails_with_cap_message(capsys, monkeypatch, argv, message):
    # the default a^2 of certify takes seconds at this n, so it must not run
    # before the cap check
    def too_slow(*args, **kwargs):
        raise AssertionError("default a^2 computed before the cap check")

    monkeypatch.setattr(nnpoly.bracket, "safe_a_squared", too_slow)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == message


def test_certify_has_no_cap_flag(capsys):
    # the census is guarded by its own size limit, so there is no --cap to raise
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--n", "3", "--cap", "5"])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --cap 5\n")


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, _ = run(capsys, "bound", "--n", "2", "--out", str(dest))
    assert code == 0
    assert json.loads(dest.read_text())["safe_a_sq"] == "2"


def test_shared_parser_keeps_no_state(tmp_path, capsys):
    # one parser serves every main() call of a process; nothing a call
    # parses may reach the next one
    from nnpoly.cli import build_parser

    assert build_parser() is build_parser()
    code, out = run(capsys, "certify", "--n", "3", "--a-sq", "1")
    assert code == 0 and json.loads(out)["a_sq"] == "1"
    code, out = run(capsys, "certify", "--n", "3")
    assert code == 0 and json.loads(out)["a_sq"] == "4/3"

    dest = tmp_path / "report.json"
    code, out = run(capsys, "bound", "--n", "2", "--out", str(dest))
    assert code == 0 and out == ""
    dest.unlink()
    code, out = run(capsys, "bound", "--n", "2")
    assert code == 0 and json.loads(out)["safe_a_sq"] == "2"
    assert not dest.exists()

    with pytest.raises(SystemExit) as exc:
        main(["certify", "--n", "3", "--bogus"])
    assert exc.value.code == 1
    capsys.readouterr()
    code, out = run(capsys, "nu", "--n", "3", "--k", "1")
    assert code == 0 and json.loads(out)["nu"] == 3


@pytest.mark.parametrize("argv", [
    ["certify", "--n", "x"],
    ["certify"],
    ["bound", "--n", "3", "--bogus"],
    ["no-such-command"],
    # jll and transform take exactly one of --spectrum and --matrix-file
    ["jll"],
    ["transform", "--coeffs=1"],
    ["jll", "--spectrum", "1", "--matrix-file", "A.csv"],
    ["transform", "--coeffs=1", "--spectrum", "1", "--matrix-file", "A.csv"],
])
def test_usage_error_exits_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["bound", "--n", "1"],
    ["bound", "--n", "1", "--nu"],
    ["certify", "--n", "1"],
    ["certify", "--n", "0", "--a-sq", "1"],
    ["nu", "--n", "1", "--k", "1"],
    ["nu", "--n", "-3", "--k", "1"],
])
def test_small_n_rejected(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: n must be >= 2\n"


@pytest.mark.parametrize("argv,message", [
    (["bound", "--n", "3", "--d", "1,2"], "d must have length 2n+1"),
    (["bound", "--n", "2", "--d=1,-1,1,1,1"], "coefficient d[1] must be positive"),
], ids=["short_d", "negative_weight"])
def test_bound_rejects_bad_weights(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("flag,value", [("--starts", "-2"), ("--iterations", "-4")],
                         ids=["falsify_starts", "falsify_iterations"])
def test_falsify_rejects_the_removed_budget_flags(capsys, flag, value):
    # falsify has no search budget: the flags are unknown, at any value
    with pytest.raises(SystemExit) as exc:
        main(["falsify", "--coeffs=1,-3,1", "--m", "2", flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.endswith(f"error: unrecognized arguments: {flag} {value}\n")


@pytest.mark.parametrize("argv", [
    ["certify", "--n", "3", "--a-sq", "1/0"],
    ["witness-cycle", "--n", "2", "--a", "1", "--t", "1/0"],
    ["falsify", "--coeffs=1/0,1", "--m", "1"],
    ["bound", "--n", "2", "--d", "1/0,1,1,1,1"],
    ["jll", "--matrix-file", "{zero_cell_csv}"],
], ids=["certify", "witness_cycle", "falsify", "bound", "jll_matrix_file"])
def test_zero_denominator_is_usage_error(tmp_path, capsys, argv):
    matrix_file = tmp_path / "m.csv"
    matrix_file.write_text("1,1/0\n0,1\n")
    code = main([a.format(zero_cell_csv=matrix_file) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: zero denominator in Fraction(1, 0)\n"


@pytest.mark.parametrize("flag", ["--k-max", "--m-max"])
def test_jll_empty_table_is_usage_error(capsys, flag):
    code = main(["jll", "--spectrum", "1", flag, "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: k_max and m_max must be >= 1\n"


def test_falsify_exact_families_decide_alone(capsys):
    # no search budget: the exact families alone decide; 1 - 3t + t^2 < 0
    # on (0.38, 2.62), so the Jordan row q_0 = p(t) hits
    code, out = run(capsys, "falsify", "--coeffs=1,-3,1", "--m", "2")
    assert code == 2
    payload = json.loads(out)
    assert payload["found"] is True and payload["method"] == "jordan-family"


@pytest.mark.parametrize("coeffs,code,golden", [
    # a family member falsifies it
    ("1e300,0,0,0,-1e300,0,0,0,0,0,0,1e300", 2, "falsify_overflow_found.json"),
    # no family member does: every row is decided, and none is negative
    ("1e300,0,0,0,0,0,0,0,0,0,0,0,1e300", 0, "falsify_overflow_none.json"),
], ids=["found", "none"])
def test_falsify_overflow_is_silent(coeffs, code, golden):
    # coefficients past the float range are decided exactly, with no
    # warning, even under -W error
    argv = [sys.executable, "-W", "error", "-m", "nnpoly.cli", "falsify",
            f"--coeffs={coeffs}", "--m", "3"]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nnpoly.__file__))}
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert proc.stderr == ""
    assert proc.stdout == (Path(__file__).parent / "data" / golden).read_text()


@pytest.mark.parametrize("argv,message", [
    (["jll", "--spectrum", "1e200", "--k-max", "1", "--m-max", "2"],
     "power sum s_2 is too large for float arithmetic"),
    (["jll", "--spectrum", ",".join(["5e153"] * 10), "--k-max", "1", "--m-max", "2"],
     "row k=1, m=2 is too large for float arithmetic"),
    (["transform", "--coeffs=1e400", "--spectrum", "1"],
     "coefficient of x^0 is too large for float arithmetic"),
    # the CSV report has no JSON encoder to refuse inf and nan: jll_check does
    (["jll", "--format", "csv", "--spectrum", "1e308,1e308", "--k-max", "1", "--m-max", "1"],
     "row k=1, m=1 is too large for float arithmetic"),
    (["jll", "--format", "csv", "--spectrum", "nan"],
     "power sum s_1 is not finite in float arithmetic"),
    (["jll", "--spectrum", "inf"],
     "power sum s_1 is too large for float arithmetic"),
    (["jll", "--spectrum", "1,2", "--tol", "-1"], "tol must be a finite number >= 0"),
], ids=["jll_power_sum", "jll_row", "transform_coeff", "jll_csv_inf_sum", "jll_csv_nan",
        "jll_inf_entry", "jll_negative_tol"])
def test_spectrum_float_overflow_is_usage_error(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["jll"], ["transform", "--coeffs=1"]],
                         ids=["jll", "transform"])
def test_oversized_matrix_file_entry_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "A.csv"
    path.write_text("1,1e400\n0,1\n")
    code = main([*command, "--matrix-file", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: a matrix entry is too large for float arithmetic\n"


def test_non_finite_report_is_usage_error(tmp_path, capsys):
    # p(1e400) is inf - inf = nan, and NaN is not JSON: no report is written
    out = tmp_path / "report.json"
    for extra in ([], ["--out", str(out)]):
        code = main(["transform", "--coeffs=1,0,1", "--spectrum", "1e400", *extra])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: the report holds an inf or nan float, which is not valid JSON\n"
    assert not out.exists()


def test_finite_float_reports_are_unchanged(capsys):
    code, out = run(capsys, "transform", "--coeffs=1,1", "--spectrum", "1e308,-2")
    assert code == 0
    assert out == json.dumps(
        {"config": {"coeffs": "1,1"}, "values": [[1e308, 0.0], [-1.0, 0.0]]}, indent=2) + "\n"


def test_certify_and_search_never_import_numpy_ma():
    # np.unique imports numpy.ma on first use, at 12-16 ms and about 1.5 MB;
    # search-a computes the census too, so the census must not pay for it
    script = (
        "import contextlib, io, sys\n"
        "from nnpoly import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['certify', '--n', '4'])\n"
        "    cli.main(['search-a', '--n', '2'])\n"
        "if 'numpy.ma' in sys.modules:\n"
        "    raise SystemExit('numpy.ma was imported')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nnpoly.__file__))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def readme_cli_examples():
    """The argument lists of the `nnpoly ...` lines in README's CLI block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("nnpoly ")]


def test_readme_cli_block_is_found():
    # every subcommand has an example, so an unparsed block cannot pass as empty
    assert {argv[0] for argv in readme_cli_examples()} == {
        "bound", "certify", "enumerate", "nu", "witness-cycle", "falsify", "search-a", "jll",
        "transform"}


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
def test_readme_cli_examples_run(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == (2 if argv[0] in ("witness-cycle", "falsify", "jll") else 0)
    if argv[0] == "enumerate":  # a path listing, one path a line
        lines = out.splitlines()
        assert lines and all(line.startswith("1,") and line.endswith(",2") for line in lines)
    else:
        json.loads(out)


def test_certify_reads_a_decimal_a_sq_exactly(capsys):
    # the CLI parses its text to a Fraction before the exact door reads it
    code, out = run(capsys, "certify", "--n", "3", "--a-sq", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["a_sq"] == payload["config"]["a_sq"] == "1/2"
    assert payload["verdict"] is True


# one normal run of each subcommand; the usage errors below are built on it
NORMAL_RUNS = {
    "bound": ["--n", "3"],
    "certify": ["--n", "3", "--a-sq", "1"],
    "enumerate": ["--n", "3", "--j", "3"],
    "nu": ["--n", "3", "--k", "2"],
    "falsify": ["--coeffs=-1,0,1", "--m", "1"],
    "witness-cycle": ["--n", "2", "--a", "1"],
    "search-a": ["--n", "3"],
    "jll": ["--spectrum", "1,i,-i"],
    "transform": ["--coeffs", "1,1", "--spectrum", "2,0"],
}
MALFORMED_INT = {
    "bound": ["--n", "x"],
    "certify": ["--n", "3.5"],
    "enumerate": ["--n", "3", "--j", "x"],
    "nu": ["--n", "3", "--k", "two"],
    "falsify": ["--coeffs=-1,0,1", "--m", "1/2"],
    "witness-cycle": ["--n", "", "--a", "1"],
    "search-a": ["--n", "3", "--seed", "x"],
    "jll": ["--spectrum", "1", "--k-max", "x"],
    "transform": ["--coeffs", "1,1", "--spectrum"],  # no int flag: a flag missing its value
}


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), a usage error's exit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_argv_tables_cover_every_subcommand():
    assert list(NORMAL_RUNS) == list(MALFORMED_INT) == list(nnpoly.cli.COMMANDS)


@pytest.mark.parametrize("argv", [
    *([name, *extra] for name in NORMAL_RUNS for extra in (
        ["--help"],
        [],  # a required flag missing
        MALFORMED_INT[name],
        [*NORMAL_RUNS[name], "extra"],
        NORMAL_RUNS[name],
    )),
    [],
    ["-h"],
    ["bogus"],
    ["--out", "x", "search-a", "--n", "3"],
], ids=" ".join)
def test_one_command_parser_matches_the_full_parser(tmp_path, capsys, monkeypatch, argv):
    # main with each call's own one-command parser, against main with the
    # full parser for every call: same stdout, stderr and exit code
    monkeypatch.chdir(tmp_path)  # no --out may land in the checkout
    got = outcome(capsys, argv)
    full = nnpoly.cli.build_parser()
    monkeypatch.setattr(nnpoly.cli, "build_parser", lambda command=None: full)
    assert got == outcome(capsys, argv)
    assert list(tmp_path.iterdir()) == []


def subcommands(parser):
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return set(action.choices)


def test_a_call_builds_only_its_own_subcommand(capsys, monkeypatch):
    build_parser = nnpoly.cli.build_parser
    built = []

    def recording(*args):
        built.append(build_parser(*args))
        return built[-1]

    monkeypatch.setattr(nnpoly.cli, "build_parser", recording)
    code, out = run(capsys, "nu", "--n", "3", "--k", "2")
    assert code == 0 and json.loads(out)["nu"] == 3
    assert [subcommands(p) for p in built] == [{"nu"}]
    assert subcommands(build_parser()) == set(nnpoly.cli.COMMANDS)
