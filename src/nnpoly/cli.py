"""Command-line entry point.

Exit codes: 0 = verified / report produced, 2 = falsified or check failed
(so pipelines can branch on both directions), 1 = usage or resource error.
Every JSON report embeds the resolved configuration; rationals are emitted
in canonical "p/q" form, so identical invocations give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from . import bracket, families, linalg, niep, paths, witness

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FALSIFIED = 2


def _emit(payload, args, text=None):
    if text is None:
        try:
            text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        except ValueError:  # inf or nan: JSON has no literal for them
            raise ValueError("the report holds an inf or nan float, "
                             "which is not valid JSON") from None
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_dict(args, keys):
    return {k: str(getattr(args, k.replace("-", "_"))) for k in keys}


def cmd_bound(args):
    d = linalg.parse_poly(args.d) if args.d else [Fraction(1)] * (2 * args.n + 1)
    nu_values = paths.all_nu(args.n, cap=args.cap) if args.nu else None
    table = families.bound_table(args.n, d=d, nu_values=nu_values)
    cfg = {**_config_dict(args, ["n", "nu"]), "d": ",".join(map(linalg.format_scalar, d))}
    payload = {"config": cfg, **table.to_json()}
    _emit(payload, args)
    return EXIT_OK


def cmd_certify(args):
    a_sq = (Fraction(args.a_sq) if args.a_sq
            else paths.census_cap(args.n, args.cap) or families.safe_a_squared(args.n))
    report = paths.build_certificate(args.n, a_sq, cap=args.cap)
    payload = {"config": {"n": str(args.n), "a_sq": str(a_sq)}, **report.to_json()}
    _emit(payload, args)
    return EXIT_OK if report.verdict else EXIT_FALSIFIED


def cmd_enumerate(args):
    if args.count:
        total = paths.count_monomials(args.n, args.j, cap=args.cap)
        _emit({"config": _config_dict(args, ["n", "j"]), "count": total}, args)
    else:
        gen = paths.enumerate_monomials(args.n, args.j, cap=args.cap)
        _emit(None, args, text="".join(",".join(map(str, m)) + "\n" for m in gen))
    return EXIT_OK


def cmd_nu(args):
    nu = paths.exact_nu(args.n, args.k, cap=args.cap)
    payload = {
        "config": _config_dict(args, ["n", "k"]),
        "n": args.n, "k": args.k, "nu": nu, "mu": families.mu(args.n, args.k),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_falsify(args):
    coeffs = linalg.parse_poly(args.coeffs)
    rep = witness.search_witness(
        coeffs, args.m, starts=args.starts, iterations=args.iterations, seed=args.seed
    )
    cfg = _config_dict(args, ["coeffs", "m", "starts", "iterations", "seed"])
    if rep is None:
        _emit({"config": cfg, "found": False, "note": "inconclusive, not a membership proof"}, args)
        return EXIT_OK
    _emit({"config": cfg, "found": True, **rep.to_json()}, args)
    return EXIT_FALSIFIED


def cmd_witness_cycle(args):
    rep = witness.cycle_witness(args.n, Fraction(args.a), Fraction(args.t))
    cfg = _config_dict(args, ["n", "a", "t"])
    _emit({"config": cfg, **rep.to_json()}, args)
    return EXIT_FALSIFIED  # non-membership shown


def cmd_search_a(args):
    tol = Fraction(args.tol)
    est = bracket.bracket_optimal_a(args.n, steps=args.steps, tol=tol)
    cfg = {**_config_dict(args, ["n", "steps"]), "tol": linalg.format_scalar(tol)}
    _emit({"config": cfg, **est.to_json()}, args)
    return EXIT_OK


def _load_spectrum(args):
    if args.spectrum is not None:
        return niep.parse_spectrum(args.spectrum)
    with open(args.matrix_file) as fh:
        A = linalg.parse_matrix_csv(fh.read())
    try:
        M = np.array(A, dtype=float)
    except OverflowError:
        raise ValueError("a matrix entry is too large for float arithmetic") from None
    return list(np.linalg.eigvals(M))


def cmd_jll(args):
    values = _load_spectrum(args)
    report = niep.jll_check(values, k_max=args.k_max, m_max=args.m_max, tol=args.tol)
    if args.format == "csv":
        _emit(None, args, text=niep.jll_report_csv(report))
    else:
        payload = {
            "config": _config_dict(args, ["k_max", "m_max", "tol"]),
            "n": report["n"],
            "s_real": report["s_real"],
            "s_nonneg": report["s_nonneg"],
            "rows": [
                {"k": k, "m": m, "lhs": lhs, "rhs": rhs, "holds": holds}
                for k, m, lhs, rhs, holds in report["rows"]
            ],
            "all_hold": report["all_hold"],
        }
        _emit(payload, args)
    return EXIT_OK if report["all_hold"] else EXIT_FALSIFIED


def cmd_transform(args):
    coeffs = linalg.parse_poly(args.coeffs)
    values = _load_spectrum(args)
    out = niep.transform_list(coeffs, values)
    payload = {
        "config": _config_dict(args, ["coeffs"]),
        "values": [[v.real, v.imag] for v in out],
    }
    _emit(payload, args)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR; argparse's own code 2 would read
    as "falsified"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser():
    """The one parser of the process, built on first use; parse_args keeps
    no state in it between calls."""
    parser = _Parser(
        prog="nnpoly",
        description="Polynomials preserving nonnegative matrices: certified "
        "coefficient bounds, exhaustive proof checking, witness search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cap=False, out=True):
        if out:
            p.add_argument("--out", help="write the report to a file")
        if cap:
            p.add_argument("--cap", type=int, default=paths.DEFAULT_CAP,
                           help="enumeration size guard")

    def spectrum_input(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--spectrum", help='comma-separated, e.g. "1,i,-i"')
        group.add_argument("--matrix-file", help="CSV matrix; its eigenvalues are used")

    p = sub.add_parser("bound", help="per-k cap table and certified a^2 cap")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", help="comma-separated positive weights d_0..d_2n")
    p.add_argument("--nu", action="store_true",
                   help="sharpen with exact pre-image counts (census of M_n)")
    common(p, cap=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("certify", help="exhaustive proof check for p_a at order n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a-sq", help='rational cap on a^2, e.g. "2" or "4/3" (default: certified cap)')
    common(p, cap=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("enumerate", help="list path monomials 1 -> ... -> 2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True, help="path length (edges)")
    p.add_argument("--count", action="store_true")
    common(p, cap=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("nu", help="exact maximal pre-image count of cycle deletion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p, cap=True)
    p.set_defaults(func=cmd_nu)

    p = sub.add_parser("falsify", help="search for a nonnegative matrix with p(A) < 0 somewhere")
    p.add_argument("--coeffs", required=True, help="constant term first")
    p.add_argument("--m", type=int, required=True, help="matrix order")
    p.add_argument("--starts", type=int, default=16)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("witness-cycle", help="structured witness: p_a fails at order n+1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True, help="rational, e.g. 1 or 7/5")
    p.add_argument("--t", default="1", help="scale of the shift matrix")
    common(p)
    p.set_defaults(func=cmd_witness_cycle)

    p = sub.add_parser(
        "search-a", help="bracket the optimal coefficient for p_a: certified cap "
        "below, bisection on exact probe matrices above")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, default=32, help="bisection steps")
    p.add_argument("--tol", default="1/1000",
                   help="stop once the bisection interval is at most tol")
    # parsed and ignored: no float search runs, so they cannot change a
    # report; they go when the benchmark's search workload stops passing
    # them (ROADMAP item 7)
    for flag in ("--seed", "--starts", "--iterations"):
        p.add_argument(flag, type=int, help=argparse.SUPPRESS)
    common(p)
    p.set_defaults(func=cmd_search_a)

    p = sub.add_parser("jll", help="trace power inequalities on a spectrum list")
    spectrum_input(p)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--tol", type=float, default=niep.DEFAULT_TOL)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    common(p)
    p.set_defaults(func=cmd_jll)

    p = sub.add_parser("transform", help="apply a polynomial to a spectrum list")
    p.add_argument("--coeffs", required=True)
    spectrum_input(p)
    common(p)
    p.set_defaults(func=cmd_transform)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except paths.EnumerationCapExceeded as exc:
        print(f"error: {exc} (raise --cap to override)", file=sys.stderr)
        return EXIT_ERROR
    except ZeroDivisionError as exc:  # Fraction("1/0") in a rational argument
        print(f"error: zero denominator in {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
