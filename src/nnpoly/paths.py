"""Path-monomial proof engine.

A monomial of length j over n vertices is the path 1 = i_0 -> i_1 -> ...
-> i_j = 2 in the complete directed graph on {1..n}; its value under a
matrix A is the ordered product of the traversed entries.  Monomials are
formal: the vertex sequence is the identity, never the numeric value.

For monomials of length n a repeated vertex is forced, so each one
carries a minimal cycle length k in 1..n-1.  Duplicating the first
k-cycle in place gives the injective map into length n+k; deleting it
gives the map into length n-k whose pre-images are bounded by mu(n,k).
Verifying those two facts over all of M_n, plus the coefficient cap,
certifies that p_a preserves nonnegativity at order n.  The census of M_n
visits one path per orbit of the relabelings of vertices 3..n and weighs
it by the orbit size, which is exact because every map involved commutes
with relabeling.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .families import mu
from .linalg import exact_powers, is_nonneg, order_of

DEFAULT_CAP = 10**8


class EnumerationCapExceeded(Exception):
    pass


def _check_cap(n: int, j: int, cap: int):
    total = n ** (j - 1)
    if total > cap:
        raise EnumerationCapExceeded(
            f"n^(j-1) = {n}^{j - 1} = {total} exceeds cap {cap}"
        )
    return total


def count_monomials(n: int, j: int, cap: int = DEFAULT_CAP) -> int:
    """n^(j-1), the number of paths enumerate_monomials yields, under the
    same guards."""
    if n < 2 or j < 1:
        raise ValueError("need n >= 2 and j >= 1")
    return _check_cap(n, j, cap)


def enumerate_monomials(n: int, j: int, cap: int = DEFAULT_CAP):
    """All n^(j-1) vertex sequences (1, i_1, ..., i_{j-1}, 2), lexicographic."""
    count_monomials(n, j, cap)
    for interior in itertools.product(range(1, n + 1), repeat=j - 1):
        yield (1, *interior, 2)


def path_from_index(n: int, j: int, idx: int):
    """idx-th path in the lexicographic order of enumerate_monomials."""
    digits = []
    for _ in range(j - 1):
        idx, d = divmod(idx, n)
        digits.append(d + 1)
    return (1, *reversed(digits), 2)


def monomial_value(m, A):
    val = A[0][0] * 0 + 1
    for s, t in zip(m, m[1:]):
        val = val * A[s - 1][t - 1]
    return val


def min_cycle_length(m) -> int:
    """Smallest q - p over repeated vertices m[p] == m[q], p < q."""
    best = None
    last = {}
    for q, v in enumerate(m):
        if v in last and (best is None or q - last[v] < best):
            best = q - last[v]
        last[v] = q
    if best is None:
        raise ValueError("path has no repeated vertex")
    return best


def first_cycle(m, k: int):
    """(start, k) for the leftmost cycle of the minimal length k.

    The segment is automatically simple: a proper sub-cycle would repeat a
    vertex at distance < k, contradicting minimality.
    """
    if min_cycle_length(m) != k:
        raise ValueError(f"k={k} is not the minimal cycle length")
    for p in range(len(m) - k):
        if m[p] == m[p + k]:
            seg = m[p : p + k]
            if len(set(seg)) != k:
                raise AssertionError("first k-cycle must be simple")
            return (p, k)
    raise AssertionError("unreachable")


def phi(m, cyc):
    """Duplicate the cycle segment in place; length grows by k."""
    p, k = cyc
    if p + k >= len(m) or m[p] != m[p + k]:
        raise ValueError("invalid cycle location")
    return m[: p + k] + m[p : p + k] + m[p + k :]


def psi(m, cyc):
    """Delete the cycle segment where it first appears; length shrinks by k."""
    p, k = cyc
    if p + k >= len(m) or m[p] != m[p + k]:
        raise ValueError("invalid cycle location")
    return m[:p] + m[p + k :]


# -- census of M_n, one path per relabeling orbit ----------------------------
#
# Relabeling vertices 3..n (1 and 2 are the fixed endpoints) commutes with
# min_cycle_length, first_cycle, phi and psi, so every question the proof
# asks about M_n is asked once per orbit.  An orbit's canonical member has
# its labels >= 3 in first-occurrence order 3, 4, ...; with r such labels
# it stands for the falling factorial (n-2)_r paths.


def _orbit_sizes(n):
    """(n-2)_r for r = 0..n-2."""
    sizes = [1]
    for r in range(n - 2):
        sizes.append(sizes[-1] * (n - 2 - r))
    return sizes


def _orbit_representatives(n):
    """(path, r) for one path of length n per orbit, r its labels >= 3.

    Depth-first: each interior vertex is 1, 2, a label >= 3 already used,
    or the next unused one.
    """
    stack = [((1,), 0)]
    while stack:
        m, r = stack.pop()
        if len(m) == n:
            yield m + (2,), r
            continue
        for v in range(1, min(r + 3, n) + 1):
            stack.append((m + (v,), r + (v == r + 3)))


def _canonical(m):
    """The orbit's canonical member: labels >= 3 renumbered 3, 4, ... in
    order of first occurrence."""
    relabel = {1: 1, 2: 2}
    for v in m:
        if v not in relabel:
            relabel[v] = len(relabel) + 1
    return tuple(relabel[v] for v in m)


def _census(n: int, cap: int = DEFAULT_CAP):
    """{k: (|M_{n,k}|, phi injective on M_{n,k}, nu(n,k))} over all of M_n.

    phi(m) inserts the cycle after its first occurrence, so it keeps both
    the vertex set and the first-occurrence order: phi of a canonical path
    is canonical and in an orbit of the same size.  Hence phi is injective
    on a class iff its representatives have distinct phi images.  psi
    commutes with relabeling, so a canonical target g with r_g labels >= 3
    has sum over representatives m with canon(psi(m)) = g of
    (n-2)_{r_m} / (n-2)_{r_g} pre-images, each term an exact integer.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_cap(n, n, cap)
    return _census_of(n)


@functools.cache
def _census_of(n):
    """_census without the guards, computed once per n and read-only, since
    every caller shares the one result."""
    size = _orbit_sizes(n)
    tally = {}  # k -> [count, representatives, phi images, psi target -> weight]
    for m, r in _orbit_representatives(n):
        k = min_cycle_length(m)
        cyc = first_cycle(m, k)
        entry = tally.get(k)
        if entry is None:
            entry = tally[k] = [0, 0, set(), Counter()]
        entry[0] += size[r]
        entry[1] += 1
        entry[2].add(phi(m, cyc))
        entry[3][_canonical(psi(m, cyc))] += size[r]
    # a canonical g uses the labels 1..max(g), so r_g = max(g) - 2
    return MappingProxyType({
        k: (count, len(phis) == reps,
            max(w // size[max(g) - 2] for g, w in psis.items()))
        for k, (count, reps, phis, psis) in sorted(tally.items())
    })


def partition_stats(n: int, cap: int = DEFAULT_CAP):
    """[(k, |M_{n,k}|)] for k = 1..n-1; counts sum to n^(n-1)."""
    return [(k, count) for k, (count, _, _) in _census(n, cap).items()]


def exact_nu(n: int, k: int, cap: int = DEFAULT_CAP) -> int:
    """Exact maximal pre-image cardinality of the cycle-deletion map on M_{n,k}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range 1..{n - 1}")
    return _census(n, cap)[k][2]


def all_nu(n: int, cap: int = DEFAULT_CAP):
    return [nu for _, _, nu in _census(n, cap).values()]


@dataclass
class CertificateReport:
    n: int
    a_sq: Fraction
    per_k: list  # (k, count, phi_injective, nu, mu)
    verdict: bool

    def to_json(self):
        return {
            "n": self.n,
            "a_sq": str(self.a_sq),
            "per_k": [
                {"k": k, "count": c, "phi_injective": inj, "nu": nu, "mu": m}
                for k, c, inj, nu, m in self.per_k
            ],
            "verdict": self.verdict,
        }


def build_certificate(n: int, a_sq, cap: int = DEFAULT_CAP) -> CertificateReport:
    """Census all of M_n and check every ingredient of the membership proof.

    Verdict true means: the minimal-cycle classes partition M_n, cycle
    duplication is injective on each class, every exact pre-image count is
    within mu(n,k), and a_sq clears 4/mu(n,k) for every k plus the diagonal
    cap 4.  Together these certify p_a at a = sqrt(a_sq).
    """
    a_sq = Fraction(a_sq)
    if not a_sq > 0:
        raise ValueError("a_sq must be positive")
    stats = _census(n, cap)
    per_k = []
    ok = sum(cnt for cnt, _, _ in stats.values()) == n ** (n - 1)
    ok &= set(stats) == set(range(1, n))
    for k, (cnt, inj, nu) in stats.items():
        m = mu(n, k)
        per_k.append((k, cnt, inj, nu, m))
        ok &= inj and nu <= m and a_sq <= Fraction(4, m)
    ok &= a_sq <= 4  # diagonal entries, the mu(n,n) = 1 row
    return CertificateReport(n=n, a_sq=a_sq, per_k=per_k, verdict=bool(ok))


def numeric_decomposition_check(n: int, a_sq, A, cap: int = DEFAULT_CAP) -> bool:
    """Exact check of the decomposition of entry (1,2) on a concrete matrix.

    For every monomial m of length n with class k, the termwise piece
    value(psi)/mu - a*value(m) + value(phi) must be nonnegative; since a
    enters only linearly this is tested squared (value(psi)/mu + value(phi))^2
    >= a_sq * value(m)^2, exact in rationals.  Budgets: each psi-image is
    consumed at most mu(n,k) times (total weight <= 1) and each phi-image at
    most once.  Finally the a-free part of the sum must fit inside the
    positive entries sum_{j != n} (A^j)_{1,2}.
    """
    if order_of(A) != n:
        raise ValueError("matrix order must equal n")
    if not is_nonneg(A):
        raise ValueError("matrix must be entrywise nonnegative")
    a_sq = Fraction(a_sq)
    stats = {}
    for m in enumerate_monomials(n, n, cap):
        k = min_cycle_length(m)
        cyc = first_cycle(m, k)
        f, g = phi(m, cyc), psi(m, cyc)
        vm, vf, vg = (monomial_value(x, A) for x in (m, f, g))
        if vf * vg != vm * vm:
            return False
        mk = mu(n, k)
        lhs = vg / mk + vf
        if lhs < 0 or lhs * lhs < a_sq * vm * vm:
            return False
        if k not in stats:
            stats[k] = [Fraction(0), set(), Counter()]
        entry = stats[k]
        entry[0] += lhs
        if f in entry[1]:
            return False  # phi-image consumed twice
        entry[1].add(f)
        entry[2][g] += 1
    covered = Fraction(0)
    for k, (lhs_sum, _, psis) in stats.items():
        if max(psis.values()) > mu(n, k):
            return False  # psi-image budget exceeded
        covered += lhs_sum
    S, _, E = _p_a_parts(n, A)
    return covered <= Fraction(S[0][1], E)


def _p_a_parts(n: int, A):
    """(S, N, E) with sum_{j != n} A^j = S/E and A^n = N/E, where S and N
    are integer matrices and E = D^(2n) for A = B/D; so p_a(A) = (S - a*N)/E.

    S = sum_{j != n} B^j D^(2n-j) and N = B^n D^n, from one pass of powers.
    """
    D, powers = exact_powers(A, 2 * n)
    scale = [D**i for i in range(2 * n + 1)]
    m = len(A)
    S = [[sum(P[r][c] * scale[2 * n - j] for j, P in enumerate(powers) if j != n)
          for c in range(m)] for r in range(m)]
    N = [[x * scale[n] for x in row] for row in powers[n]]
    return S, N, scale[2 * n]


def verify_certificate_on_matrix(n: int, a_sq, A) -> bool:
    """End-to-end sanity: certificate verdict implies p_a(A) >= 0 entrywise.

    a = sqrt(a_sq) may be irrational, so entries s - a*b (s, b >= 0 exact
    rationals) are signed via s >= 0 and s^2 >= a_sq * b^2.  On the integer
    parts S, N of _p_a_parts, with a_sq = p/q, that is s >= 0 and
    s^2 * q >= p * b^2.
    """
    a_sq = Fraction(a_sq)
    p, q = a_sq.numerator, a_sq.denominator
    S, N, _ = _p_a_parts(n, A)
    return all(
        s >= 0 and s * s * q >= p * b * b
        for rs, rb in zip(S, N) for s, b in zip(rs, rb)
    )
