import json
import time
from pathlib import Path

import pytest

from nnpoly.cli import main
from nnpoly.linalg import format_matrix_csv
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
    path.write_text(format_matrix_csv([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]]))
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
    # recorded before the exact kernel moved onto integers; the float
    # search and the exact re-verification must reproduce it byte for byte
    golden = (Path(__file__).parent / "data" / "search_a_n3_seed0.json").read_text()
    code, out = run(capsys, "search-a", "--n", "3", "--seed", "0")
    assert code == 0
    assert out == golden


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


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, _ = run(capsys, "bound", "--n", "2", "--out", str(dest))
    assert code == 0
    assert json.loads(dest.read_text())["safe_a_sq"] == "2"


@pytest.mark.parametrize("argv", [
    ["certify", "--n", "x"],
    ["certify"],
    ["bound", "--n", "3", "--bogus"],
    ["no-such-command"],
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
