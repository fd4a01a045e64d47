"""Record the census reference tables that the benchmark's oracle checks.

Run once from the repository root, on a commit whose enumeration is the
brute-force reference:

    PYTHONPATH=src python3 perfbench/make_reference.py > perfbench/reference.json

For n = 2..8 it stores, per k, the class count |M_{n,k}|, whether cycle
duplication is injective, nu(n,k) and mu(n,k), together with the mu-formula
cap on a^2 and the nu-sharpened cap that `search-a` certifies.
"""

import json

from nnpoly import bracket, families, paths

N_MAX = 8


def table(n):
    report = paths.build_certificate(n, families.safe_a_squared(n)).to_json()
    return {
        "per_k": [
            {k: row[k] for k in ("k", "count", "phi_injective", "nu", "mu")}
            for row in report["per_k"]
        ],
        "safe_a_sq": str(families.safe_a_squared(n)),
        "certified_cap": str(bracket.certified_cap(n)[0]) if n <= bracket.NU_FEASIBLE_LIMIT else None,
    }


if __name__ == "__main__":
    print(json.dumps({str(n): table(n) for n in range(2, N_MAX + 1)}, indent=1))
