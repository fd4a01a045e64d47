import json
import os
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
    code, out = run(capsys, "falsify", "--coeffs", "1,2,1", "--m", "2",
                    "--starts", "2", "--iterations", "20")
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
    code, out = run(capsys, "search-a", "--n", "2", "--steps", "4",
                    "--starts", "2", "--iterations", "30")
    assert code == 0
    payload = json.loads(out)
    assert Fraction(payload["a_lo"]) <= Fraction(payload["a_hi"])
    assert "witness" in payload


def test_search_a_n3_report_is_pinned(capsys):
    # recorded before the exact kernel moved onto integers, and re-recorded
    # only when its config changed; the exact probe bisection reproduces the
    # report the bisection with float searches gave, byte for byte
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
    (["search-a", "--n", "2", "--steps", "0"],
     {"n": "2", "steps": "0", "tol": "1/1000"}),
    (["search-a", "--n", "2", "--steps", "3", "--tol", "0.25", "--starts", "0"],
     {"n": "2", "steps": "3", "tol": "1/4"}),
    # one tolerance, one config, however it is written
    (["search-a", "--n", "2", "--steps", "0", "--tol", "0.5"],
     {"n": "2", "steps": "0", "tol": "1/2"}),
    (["search-a", "--n", "2", "--steps", "0", "--tol", "1/2"],
     {"n": "2", "steps": "0", "tol": "1/2"}),
    (["search-a", "--n", "2", "--steps", "0", "--tol", "2/4"],
     {"n": "2", "steps": "0", "tol": "1/2"}),
    (["bound", "--n", "3"], {"n": "3", "nu": "False", "d": "1,1,1,1,1,1,1"}),
    (["bound", "--n", "3", "--d", "2,2,2,1,2,2,0.5"],
     {"n": "3", "nu": "False", "d": "2,2,2,1,2,2,1/2"}),
], ids=["search_a_default", "search_a_budget", "search_a_tol_decimal",
        "search_a_tol_fraction", "search_a_tol_unreduced", "bound_default",
        "bound_weights"])
def test_report_config_is_the_full_configuration(capsys, argv, config):
    # every option that can change a report is in its config, resolved
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"] == config


def test_falsify_float_overflow_is_usage_error(capsys):
    code = main(["falsify", "--coeffs=-1,0,1e400", "--m", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: coefficient of x^2 is too large for the float search\n"


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


def test_cap_exceeded_is_resource_error(capsys):
    code = main(["enumerate", "--n", "10", "--j", "12", "--count", "--cap", "1000"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["nu", "--n", "2000", "--k", "1"],
    ["enumerate", "--n", "2000", "--j", "2000", "--count"],
    ["certify", "--n", "2000"],
    ["bound", "--n", "2000", "--nu"],
], ids=["nu", "enumerate_count", "certify", "bound_nu"])
def test_census_sized_n_fails_with_cap_message(capsys, monkeypatch, argv):
    # the default a^2 of certify takes seconds at this n, so it must not run
    # before the cap check
    def too_slow(*args, **kwargs):
        raise AssertionError("default a^2 computed before the cap check")

    monkeypatch.setattr(nnpoly.cli.families, "safe_a_squared", too_slow)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: n^(j-1) = 2000^1999 exceeds cap 100000000 "
                            "(raise --cap to override)\n")


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


@pytest.mark.parametrize("argv,message", [
    (["falsify", "--coeffs=1,-3,1", "--m", "2", "--starts", "-2"],
     "starts and iterations must be >= 0"),
    (["falsify", "--coeffs=1,-3,1", "--m", "2", "--iterations", "-4"],
     "starts and iterations must be >= 0"),
    (["search-a", "--n", "2", "--steps", "-3"], "steps must be >= 0"),
    (["search-a", "--n", "2", "--tol=-1", "--steps", "3"], "tol must be >= 0"),
], ids=["falsify_starts", "falsify_iterations", "search_a_steps", "search_a_tol"])
def test_negative_search_budget_rejected(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["certify", "--n", "3", "--a-sq", "1/0"],
    ["witness-cycle", "--n", "2", "--a", "1", "--t", "1/0"],
    ["search-a", "--n", "2", "--tol", "1/0"],
    ["falsify", "--coeffs=1/0,1", "--m", "1"],
    ["bound", "--n", "2", "--d", "1/0,1,1,1,1"],
    ["jll", "--matrix-file", "{zero_cell_csv}"],
], ids=["certify", "witness_cycle", "search_a", "falsify", "bound", "jll_matrix_file"])
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


def test_zero_search_budget_runs_probes_only(capsys):
    code, out = run(capsys, "falsify", "--coeffs=1,-3,1", "--m", "2",
                    "--starts", "0", "--iterations", "0")
    assert code == 2
    assert json.loads(out)["found"] is True


@pytest.mark.parametrize("coeffs,starts,code,golden", [
    # a probe matrix already falsifies it; the float search never runs
    ("1e300,0,0,0,-1e300,0,0,0,0,0,0,1e300", "2", 2, "falsify_overflow_probe.json"),
    # no witness exists: every start runs, and objectives overflow to inf and nan
    ("1e300,0,0,0,0,0,0,0,0,0,0,0,1e300", "9", 0, "falsify_overflow_search.json"),
], ids=["probe", "search"])
def test_falsify_overflow_is_silent(coeffs, starts, code, golden):
    # the reports were recorded before the float search moved onto numpy;
    # overflow inside the batched kernel must not warn, even with -W error
    argv = [sys.executable, "-W", "error", "-m", "nnpoly.cli", "falsify",
            f"--coeffs={coeffs}", "--m", "3", "--starts", starts, "--iterations", "20"]
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
