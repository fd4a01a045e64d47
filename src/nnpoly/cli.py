"""Command-line entry point.

Exit codes: 0 = verified / report produced, 2 = falsified or check failed
(so pipelines can branch on both directions), 1 = usage or resource error.
Every JSON report embeds the resolved configuration; rationals are emitted
in canonical "p/q" form, so identical invocations give identical bytes.
A call builds the parser of only the subcommand it runs; --help, an
unknown subcommand or an option before the subcommand builds all nine.
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


def _emit(payload, args, lines=None):
    """Write payload as one JSON text, or else each of lines as it is drawn."""
    if lines is None:
        try:
            lines = [json.dumps(payload, indent=2, allow_nan=False) + "\n"]
        except ValueError:  # inf or nan: JSON has no literal for them
            raise ValueError("the report holds an inf or nan float, "
                             "which is not valid JSON") from None
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _config_dict(args, keys):
    return {k: str(getattr(args, k)) for k in keys}


def cmd_bound(args):
    d = linalg.parse_poly(args.d) if args.d else [Fraction(1)] * (2 * args.n + 1)
    nu_values = paths.all_nu(args.n) if args.nu else None
    table = families.bound_table(args.n, d=d, nu_values=nu_values)
    cfg = {**_config_dict(args, ["n", "nu"]), "d": ",".join(map(linalg.format_scalar, d))}
    payload = {"config": cfg, **table.to_json()}
    _emit(payload, args)
    return EXIT_OK


def cmd_certify(args):
    a_sq = Fraction(args.a_sq) if args.a_sq is not None else (  # the census guard runs first
        paths.census_cap(args.n) or bracket.certified_cap(args.n)[0])
    report = paths.build_certificate(args.n, a_sq)
    payload = {"config": {"n": str(args.n), "a_sq": str(a_sq)}, **report.to_json()}
    _emit(payload, args)
    return EXIT_OK if report.verdict else EXIT_FALSIFIED


def cmd_enumerate(args):
    total = paths.count_monomials(args.n, args.j, cap=args.cap)  # before --out is opened
    if args.count:
        _emit({"config": _config_dict(args, ["n", "j"]), "count": total}, args)
    else:
        gen = paths.enumerate_monomials(args.n, args.j, cap=args.cap)
        line = ",".join(["%d"] * (args.j + 1)) + "\n"  # a path has j + 1 vertices
        _emit(None, args, (line % m for m in gen))  # streamed, one path at a time
    return EXIT_OK


def cmd_nu(args):
    nu = paths.exact_nu(args.n, args.k)
    payload = {
        "config": _config_dict(args, ["n", "k"]),
        "n": args.n, "k": args.k, "nu": nu, "mu": families.mu(args.n, args.k),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_falsify(args):
    rep = witness.family_witness(linalg.parse_poly(args.coeffs), args.m)
    cfg = _config_dict(args, ["coeffs", "m"])
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
    est = bracket.bracket_optimal_a(args.n)
    _emit({"config": _config_dict(args, ["n"]), **est.to_json()}, args)
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
        _emit(None, args, [niep.jll_report_csv(report)])
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


def _bound_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", help="comma-separated positive weights d_0..d_2n")
    p.add_argument("--nu", action="store_true",
                   help="sharpen with exact pre-image counts (census of M_n)")
    p.set_defaults(func=cmd_bound)


def _certify_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a-sq", help='rational cap on a^2, e.g. "2" or "4/3" (default: certified cap)')
    p.set_defaults(func=cmd_certify)


def _enumerate_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True, help="path length (edges)")
    p.add_argument("--count", action="store_true")
    p.add_argument("--cap", type=int, default=paths.DEFAULT_CAP,
                   help="enumeration size guard")
    p.set_defaults(func=cmd_enumerate)


def _nu_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_nu)


def _falsify_args(p):
    p.add_argument("--coeffs", required=True, help="constant term first")
    p.add_argument("--m", type=int, required=True, help="matrix order")
    p.set_defaults(func=cmd_falsify)


def _witness_cycle_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True, help="rational, e.g. 1 or 7/5")
    p.add_argument("--t", default="1", help="scale of the shift matrix")
    p.set_defaults(func=cmd_witness_cycle)


def _search_a_args(p):
    p.add_argument("--n", type=int, required=True)
    # parsed and ignored: no float search runs, so they cannot change a
    # report; they go when the benchmark's search workload stops passing
    # them (ROADMAP item 8)
    for flag in ("--seed", "--starts", "--iterations"):
        p.add_argument(flag, type=int, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_search_a)


def _spectrum_input(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spectrum", help='comma-separated, e.g. "1,i,-i"')
    group.add_argument("--matrix-file", help="CSV matrix; its eigenvalues are used")


def _jll_args(p):
    _spectrum_input(p)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--tol", type=float, default=niep.DEFAULT_TOL)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_jll)


def _transform_args(p):
    p.add_argument("--coeffs", required=True)
    _spectrum_input(p)
    p.set_defaults(func=cmd_transform)


# name -> (help, function adding the arguments but --out), in the order
# --help lists them
COMMANDS = {
    "bound": ("per-k cap table and certified a^2 cap", _bound_args),
    "certify": ("exhaustive proof check for p_a at order n", _certify_args),
    "enumerate": ("list path monomials 1 -> ... -> 2", _enumerate_args),
    "nu": ("exact maximal pre-image count of cycle deletion", _nu_args),
    "falsify": ("decide exactly whether a matrix tI + N or a scaled cycle "
                "of order <= m has p(A) < 0 somewhere", _falsify_args),
    "witness-cycle": ("structured witness: p_a fails at order n+1", _witness_cycle_args),
    "search-a": ("bracket the optimal coefficient for p_a: certified cap "
                 "below, the cyclic shift's closed form above", _search_a_args),
    "jll": ("trace power inequalities on a spectrum list", _jll_args),
    "transform": ("apply a polynomial to a spectrum list", _transform_args),
}


@functools.cache
def build_parser(command=None):
    """The parser of the process for one subcommand, or for all of them
    with no argument, built on first use; parse_args keeps no state in it
    between calls.  A one-command parser is the full parser with the other
    subcommands left out, so it parses that command's argv the same way."""
    parser = _Parser(
        prog="nnpoly",
        description="Polynomials preserving nonnegative matrices: certified "
        "coefficient bounds, exhaustive proof checking, exact witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS if command is None else [command]:
        help_text, add_args = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.add_argument("--out", help="write the report to a file")
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # a call builds only its own subcommand's parser; --help, an unknown
    # subcommand or an option first need the full one
    parser = build_parser(argv[0]) if argv and argv[0] in COMMANDS else build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # the full parser reports them, its usage naming every subcommand
        build_parser().parse_args(argv)
    try:
        return args.func(args)
    except paths.EnumerationCapExceeded as exc:
        hint = " (raise --cap to override)" if "cap" in vars(args) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_ERROR
    except ZeroDivisionError as exc:  # Fraction("1/0") in a rational argument
        print(f"error: zero denominator in {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError, MemoryError) as exc:  # numpy's MemoryError names its size
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
