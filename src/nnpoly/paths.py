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

Each path fact is computed once, on arrays.  One breadth-first walk,
cached per n, holds one path per orbit as a row of an (R, n+1) int8 array,
with its labels >= 3, its minimal cycle length k and the start p of its
first k-cycle, carried from each prefix to its children as the walk grows,
so phi and psi are built at (p, k) and no path is rescanned.  Its last
level is written straight into (k, p) order, so each class is one slice of
rows and each p one run inside it, lexicographic inside the run.  It feeds
the census, computed once per n, whose classes are tallied with sorts and
sums, the phi images, two slice copies per run, by byte keys and the psi
images by one int64 key each, packed as they are relabeled, and the
decomposition check's plan, also cached per n:
the walk's rows, each with its n edges as int16 indices into the flattened
matrix, psi(m)'s n-k edges first and its first k-cycle's last, and one
int16 relabeling table of (n-2)! * n^2 entries, every permutation of 3..n
in lexicographic order.  The check expands the rows through that table in
chunks that run across label counts, values psi(m) and the cycle of each
path as products of its two runs of edge values with exact object-array
products and keeps no per-path state.  min_cycle_length, first_cycle, phi
and psi are the per-path references the tests pin the arrays to.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from types import MappingProxyType

import numpy as np

from .families import mu
from .linalg import _scaled_ints, exact_powers, is_nonneg, order_of, poly_numerator

DEFAULT_CAP = 10**8

# The largest n the census walks.  Its walk has one row per relabeling
# orbit of M_n, R(n) rows: R(10) = 562,594 take 0.12-0.15 s at a 51 MB peak
# RSS and R(11) = 3,535,026 take 0.76-1.03 s at 161 MB (certify in a fresh
# Python 3.11 process with numpy 2.4, shared 2-core Linux machine);
# R(12) = 23,430,839 is refused.
CENSUS_N_MAX = 11


class EnumerationCapExceeded(Exception):
    pass


def count_monomials(n: int, j: int, cap: int = DEFAULT_CAP) -> int:
    """n^(j-1), the number of paths enumerate_monomials yields, under the
    same guards."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if j < 1:
        raise ValueError("j must be >= 1")
    # n^(j-1) >= 2^((j-1)(b-1)) for b the bit length of n: when that passes
    # the cap, the power is never built, as it may be too long to print
    if (j - 1) * (n.bit_length() - 1) > cap.bit_length():
        raise EnumerationCapExceeded(f"n^(j-1) = {n}^{j - 1} exceeds cap {cap}")
    total = n ** (j - 1)
    if total > cap:
        raise EnumerationCapExceeded(
            f"n^(j-1) = {n}^{j - 1} = {total} exceeds cap {cap}"
        )
    return total


def enumerate_monomials(n: int, j: int, cap: int = DEFAULT_CAP):
    """All n^(j-1) vertex sequences (1, i_1, ..., i_{j-1}, 2), lexicographic."""
    count_monomials(n, j, cap)
    for interior in itertools.product(range(1, n + 1), repeat=j - 1):
        yield (1, *interior, 2)


def monomial_value(m, A):
    return prod(A[s - 1][t - 1] for s, t in zip(m, m[1:]))


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


BLOCK = 1 << 14  # rows per step of the walk's last level and check and the census's relabeling


@functools.cache
def _cycle_walk(n):
    """(M, r, k, p) for the canonical paths of the orbits of M_n, cached per
    n and read-only: row i of the (R, n+1) int8 array M is one path, the rows
    sorted by (k, p) and lexicographic inside each (k, p) run, so each class
    k is a run of runs, one per p; r[i] counts its labels >= 3, k[i] is its
    minimal cycle length and p[i] the start of its leftmost k-cycle, so that
    (p[i], k[i]) == first_cycle(M[i], k[i]).  All four arrays are int8.

    Breadth-first: a prefix with r labels >= 3 has the children 1..min(r+3,
    n), which are 1, 2, the labels already used and the next unused one,
    each prefix's children right after one another, so the rows stay in
    lexicographic order.  A prefix carries its (k, p) and the last position
    of each label, so appending v at column q closes the cycle q - last[v],
    and only a shorter one replaces k, keeping p the leftmost start; the
    fixed edge into 2 at column n closes the last.  The last level is
    written straight into (k, p) order: a stable argsort of its children's
    (k, p) keys orders them, and BLOCK rows at a time each child's row is
    gathered from its parent prefix, with v in column n-1, so M is written
    once and never permuted; the order and parent indices are int32, as
    R(n) < 2^31.  _check_cycles then checks the cycle of every row.
    """
    M = np.zeros((1, n + 1), np.int8)
    M[:, 0], M[:, n] = 1, 2
    r = np.zeros(1, np.int8)
    # last[i, v] is label v's last column in prefix i; -n-1, unseen, closes no cycle
    last = np.full((1, n + 1), -n - 1, np.int8)
    last[:, 1] = 0
    k, p = np.full(1, n + 1, np.int8), np.zeros(1, np.int8)  # k > n: no cycle yet
    labels = np.arange(1, n + 1, dtype=np.int8)
    for q in range(1, n):
        width = np.minimum(r + 3, n)
        child = labels <= width[:, None]  # the children of each prefix, in row order
        v = np.broadcast_to(labels, child.shape)[child]
        k, p = np.repeat(k, width), np.repeat(p, width)
        at = last[:, 1:][child]  # column q closes the cycle q - at; only a shorter one counts
        shorter = q - at < k
        k[shorter], p[shorter] = q - at[shorter], at[shorter]
        del child
        if q == n - 1:
            break
        M, r = np.repeat(M, width, axis=0), np.repeat(r, width)
        last = np.repeat(last, width, axis=0)
        M[:, q] = v
        np.maximum(r, v - 2, out=r)  # the labels are in first-occurrence order
        last[np.arange(len(v)), v] = q
    at = np.repeat(last[:, 2], width)
    at[v == 2] = n - 1  # the fixed edge into 2 at column n closes n - at
    shorter = n - at < k
    k[shorter], p[shorter] = n - at[shorter], at[shorter]
    del at, last
    key = k * np.int16(n + 2) + p  # k <= n + 1 and p <= n
    order = np.argsort(key, kind="stable").astype(np.int32)  # R(n) < 2^31
    del key
    k, p = k[order], p[order]
    parent = np.repeat(np.arange(len(M), dtype=np.int32), width)
    prefix, prefix_r = M, r
    M, r = np.empty((len(v), n + 1), np.int8), np.empty(len(v), np.int8)
    for lo in range(0, len(v), BLOCK):
        hi = lo + BLOCK
        i = order[lo:hi]
        up = parent[i]
        np.take(prefix, up, axis=0, out=M[lo:hi])
        M[lo:hi, n - 1] = v[i]
        np.maximum(prefix_r[up], v[i] - 2, out=r[lo:hi])
    del order, v, parent, prefix, prefix_r
    _check_cycles(M, k, p)
    for a in (M, r, k, p):
        a.flags.writeable = False
    return M, r, k, p


def _check_cycles(M, k, p):
    """Raise AssertionError unless each row of M repeats a label and has no
    label twice inside its window M[p:p+k].  A leftmost minimal k-cycle is
    simple, since a repeat inside it would close a shorter cycle; k > n,
    the walk's mark for a row that closed no cycle, fails too.  Consecutive
    rows of one (k, p) are checked together, BLOCK rows at a time: their
    windows are one slice of columns, and its columns d apart are compared
    for each d < k."""
    n = M.shape[1] - 1
    cut = (np.flatnonzero((k[1:] != k[:-1]) | (p[1:] != p[:-1])) + 1).tolist()
    for a, z in zip([0, *cut], [*cut, len(M)]):
        c, s = int(k[a]), int(p[a])
        if c > n:
            raise AssertionError("first k-cycle must be simple")
        for lo in range(a, z, BLOCK):
            w = M[lo : min(lo + BLOCK, z), s : s + c]
            for d in range(1, c):
                if (w[:, d:] == w[:, :-d]).any():
                    raise AssertionError("first k-cycle must be simple")


def _distinct_rows(X):
    """True when the rows of X, a C-contiguous int8 array, are pairwise
    distinct.  X is sorted in place by each row's bytes as one np.void key,
    so equal rows become neighbours and rows of any length stay apart; a key
    that packs a row into one int64 would wrap and merge rows once (labels +
    1)^length passes 2^63."""
    keys = X.view(np.dtype((np.void, X.shape[1]))).ravel()
    keys.sort(kind="stable")
    return bool((keys[1:] != keys[:-1]).all())


def _pack_canonical(key, columns, n):
    """Set key, an int64 array, to the base-(n+1) packing of its rows, given
    as columns of labels 1..n, with each row's labels >= 3 renumbered 3, 4,
    ... in order of first occurrence: one sweep over the columns, with a flat
    table of the new label of each label each row has met so far.  No label
    is 0, so rows of one length share a key exactly when their canonical
    forms agree, as long as (n+1)^length < 2^63."""
    cell = np.arange(len(key)) * (n + 1)  # label v of row i is at cell[i] + v
    table = np.tile(np.array([0, 1, 2] + [0] * (n - 2), np.int8), len(key))
    top, at = np.full(len(key), 2, np.int8), np.empty_like(cell)
    key[:] = 0
    for col in columns:
        np.add(cell, col, out=at)
        t = table[at]
        new = t == 0
        top += new
        label = np.where(new, top, t)
        table[at] = label
        key *= n + 1
        key += label


def _census(n: int):
    """{k: (|M_{n,k}|, phi injective on M_{n,k}, nu(n,k))} over all of M_n.

    phi(m) inserts the cycle after its first occurrence, so it keeps both
    the vertex set and the first-occurrence order: phi of a canonical path
    is canonical and in an orbit of the same size.  Hence phi is injective
    on a class iff its representatives have distinct phi images.  psi
    commutes with relabeling, so a canonical target g with r_g labels >= 3
    has sum over representatives m with canon(psi(m)) = g of
    (n-2)_{r_m} / (n-2)_{r_g} pre-images, each term an exact integer.
    Refused past CENSUS_N_MAX, before anything is walked.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > CENSUS_N_MAX:
        raise EnumerationCapExceeded(
            f"n = {n} is past the census limit n <= {CENSUS_N_MAX}")
    return _census_of(n)


@functools.cache
def _census_of(n):
    """_census without the guards, computed once per n and read-only, since
    every caller shares the one result.

    Each class k is tallied on its rows m of _cycle_walk with array
    operations, one class at a time; the walk is in (k, p) order, so m is a
    slice of it, a view and not a copy, and its rows of one p are one run.
    The phi images, phi(m) = m[:p+k] + m[p:], are written run by run, as two
    slice copies, into a preallocated int8 array, sorted in place by
    _distinct_rows, to see that they are distinct, and dropped: they have up
    to 2n-1 interior labels, too many to pack into an int64.  The psi
    images, psi(m)[j] = m[j if j < p else j+k], are kept only BLOCK rows at
    a time: one np.where forms their n-k-1 interior columns from m, and
    _pack_canonical folds them, relabeled, into an int64 key, which then
    takes r_m as one more digit in base n-1; the intp temporaries are sized
    by the block.  The keys are sorted in place, r_m is split off and the
    groups g start where the key changes.  A canonical g uses the labels
    1..max(g), so r_g is its largest digit, or 2 if it has no label >= 3,
    minus 2.  The weights (n-2)_{r_m} are gathered after the sort, in
    int64, exact since they sum to at most n^(n-1) < 2^63 for n <= 15, past
    CENSUS_N_MAX.
    Refused, before anything is walked, where a key could pass 2^63, from
    n = 17 on.
    """
    if (n + 1) ** (n - 2) * (n - 1) >= 2**63:
        raise OverflowError(f"n = {n}: the census's psi keys would pass 2^63")
    M, r, ks, ps = _cycle_walk(n)
    size = np.array(_orbit_sizes(n), np.int64)
    stats = {}
    for k in np.flatnonzero(np.bincount(ks)).tolist():
        # the walk is in class order; int8 bounds, as others would cast ks to their dtype
        start, stop = np.searchsorted(ks, np.int8([k, k + 1])).tolist()
        m, p, rm = M[start:stop], ps[start:stop], r[start:stop]
        X = np.empty((len(m), n + 1 + k), np.int8)
        # phi(m) = m[:s+k] + m[s:] on the run of rows whose cycle starts at s
        cut = np.searchsorted(p, np.arange(n - k + 2, dtype=np.int8)).tolist()
        for s, (a, z) in enumerate(zip(cut, cut[1:])):
            X[a:z, : s + k] = m[a:z, : s + k]
            X[a:z, s + k :] = m[a:z, s:]
        injective = _distinct_rows(X)
        del X
        key = np.empty(len(m), np.int64)
        for lo in range(0, len(m), BLOCK):
            hi = lo + BLOCK
            # psi(m)[j] = m[j if j < p else j+k], one interior column j at a time
            before = np.arange(1, n - k, dtype=np.int8)[:, None] < p[lo:hi]
            psi_columns = map(np.where, before, m[lo:hi, 1 : n - k].T, m[lo:hi, 1 + k : n].T)
            _pack_canonical(key[lo:hi], psi_columns, n)
            key[lo:hi] *= n - 1
            key[lo:hi] += rm[lo:hi]
        key.sort()
        rm = np.empty(len(key), np.int8)
        np.divmod(key, n - 1, out=(key, rm), casting="unsafe")  # in place: no int64 copy
        first = np.empty(len(key), bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        heads = np.flatnonzero(first)
        weight = np.add.reduceat(size[rm], heads)
        g, top = key[heads], np.full(len(heads), 2, np.int64)
        del key, rm, first
        for _ in range(n - k - 1):
            g, digit = np.divmod(g, n + 1)
            np.maximum(top, digit, out=top)
        stats[k] = (int(weight.sum()), injective, int((weight // size[top - 2]).max()))
    return MappingProxyType(stats)


def partition_stats(n: int):
    """[(k, |M_{n,k}|)] for k = 1..n-1; counts sum to n^(n-1)."""
    return [(k, count) for k, (count, _, _) in _census(n).items()]


def exact_nu(n: int, k: int) -> int:
    """Exact maximal pre-image cardinality of the cycle-deletion map on M_{n,k}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range 1..{n - 1}")
    return _census(n)[k][2]


def all_nu(n: int):
    return [nu for _, _, nu in _census(n).values()]


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


def census_cap(n: int) -> Fraction | None:
    """Largest a^2 the census of M_n certifies: min(4, min_k 4/nu(n,k)), the
    AM-GM and diagonal caps of build_certificate's proof.  families computes
    the mu-formula cap, and bracket.certified_cap chooses between the two.
    None when a census fact fails: the classes k = 1..n-1 partition all
    n^(n-1) paths, phi is injective and nu(n,k) <= mu(n,k) on each.
    EnumerationCapExceeded past the census limit CENSUS_N_MAX."""
    stats = _census(n)
    if (set(stats) != set(range(1, n))
            or sum(cnt for cnt, _, _ in stats.values()) != n ** (n - 1)
            or not all(inj and nu <= mu(n, k) for k, (_, inj, nu) in stats.items())):
        return None
    return min(Fraction(4), *(Fraction(4, nu) for _, _, nu in stats.values()))


def build_certificate(n: int, a_sq) -> CertificateReport:
    """Census all of M_n and check every ingredient of the membership proof.

    Verdict true means a_sq <= census_cap(n), which certifies p_a at
    a = sqrt(a_sq).  Off the diagonal, pair each length-n path m of class k
    with g = psi(m) and f = phi(m), so v(m)^2 = v(g) v(f); AM-GM gives
    a*v(m) <= v(g)/nu + v(f) for a^2 <= 4/nu(n,k), and as phi is injective
    and each g has at most nu(n,k) pre-images, the right-hand sides use each
    term of A^(n-k) and A^(n+k) at most once.  On the diagonal,
    (A^(2n))_ii >= ((A^n)_ii)^2 leaves only a <= 2, since 1 + x^2 >= 2x.
    """
    q, (p,) = _scaled_ints([a_sq])
    if not p > 0:
        raise ValueError("a_sq must be positive")
    a_sq = Fraction(p, q)
    per_k = [(k, cnt, inj, nu, mu(n, k))
             for k, (cnt, inj, nu) in _census(n).items()]
    limit = census_cap(n)
    verdict = limit is not None and a_sq <= limit
    return CertificateReport(n=n, a_sq=a_sq, per_k=per_k, verdict=verdict)


CHUNK = 4096  # paths per array step of the decomposition check


def _edge_values(b, index):
    """The entries of b, the flattened matrix B, at index: an edge s -> t
    is read at (s-1)*n + (t-1)."""
    return b[index]


@functools.cache
def _decomposition_plan(n):
    """(k, edges, images, table), cached per n and read-only: the rows of
    _cycle_walk(n), in its (k, p) order, so that each class k is one run of
    rows, with their classes k, the walk's own array, and edges and the
    number images[i] = (n-2)_r of paths that row i, with r labels >= 3,
    stands for; and the one relabeling table of n.

    edges[i] holds the n edges s -> t of row i as their indices
    (s-1)*n + (t-1) in B.ravel(), int16: the n-k edges of psi(m) first and
    the k edges of its first k-cycle last, each part in path order.
    table[j, e] is edge e under the j-th permutation of 3..n in
    lexicographic order, an int16 array of (n-2)! * n^2 entries.  Its rows
    at stride (n-2-r)! = (n-2)!/images[i] restrict, on 3..r+2, to the
    injective maps of 3..r+2 into 3..n, each once and in
    itertools.permutations order, since lexicographic order groups the
    permutations by their first r entries.
    """
    M, r, k, p = _cycle_walk(n)
    # psi(m) keeps the edges j < p and j >= p+k of m, the cycle is p..p+k-1
    j, kc, pc = np.arange(n, dtype=np.int8), k[:, None], p[:, None]
    at = np.where(j < n - kc, j + kc * (j >= pc), pc + j - (n - kc))
    edges = np.take_along_axis((M[:, :-1].astype(np.int16) - 1) * n + M[:, 1:] - 1, at, axis=1)
    # sigma[j, v-1] + 1 is the image of vertex v under permutation j
    sigma = np.array([(1, 2, *labels) for labels in itertools.permutations(range(3, n + 1))],
                     np.int16) - 1
    table = (sigma[:, :, None] * n + sigma[:, None, :]).reshape(len(sigma), n * n)
    images = np.array(_orbit_sizes(n), np.int64)[r]
    for a in (edges, images, table):
        a.flags.writeable = False
    return k, edges, images, table


def _expanded_paths(n):
    """(k, rep, index) runs that hold each path of M_n exactly once: index
    is a (c, n) array of the edges of c paths of class k, as indices in
    B.ravel() ordered like the plan's edges, and rep[i] the row of
    _decomposition_plan(n) whose representative path i is an image of.

    The rows stand for their images end to end, and each chunk of at most
    CHUNK consecutive paths, across rows and label counts, is one gather of
    the relabeling table at each row's edges.  Relabeling commutes with
    the class k and the first k-cycle, so the images of a row keep its
    split of edges.  A chunk is cut into its class runs, which are
    contiguous since the rows are in (k, p) order, k first.
    """
    k, edges, images, table = _decomposition_plan(n)
    end = np.cumsum(images)
    first, stride = end - images, len(table) // images
    for start in range(0, int(end[-1]), CHUNK):
        i = np.arange(start, min(start + CHUNK, end[-1]))
        rep = np.searchsorted(end, i, side="right")
        index = table[((i - first[rep]) * stride[rep])[:, None], edges[rep]]
        kr = k[rep]
        cut = [0, *(np.flatnonzero(kr[1:] != kr[:-1]) + 1).tolist(), len(i)]
        for a, z in zip(cut, cut[1:]):
            yield int(kr[a]), rep[a:z], index[a:z]


def numeric_decomposition_check(n: int, a_sq, A) -> bool:
    """Exact replay on one matrix of the termwise proof behind census_cap.

    A length-n path m of class k is g = psi(m) with its first k-cycle, of
    value c, inserted, and f = phi(m) inserts it twice: v(m) = v(g) c and
    v(f) = v(g) c^2.  Its term lhs = v(g)/nu(n,k) + v(f) = v(g) (1/nu + c^2)
    must bound a*v(m), and the lhs must sum to at most the positive part
    sum_{j != n} (A^j)_{1,2} of entry (1,2) of p_a(A).  A path with v(g) = 0
    adds nothing to either side.  nu comes from the census, and each path's
    class and cycle from the plan row it is expanded from; the check is
    False if census_cap(n) is None.

    It runs on integers: A = B/D, and S, the numerator of the positive
    part over D^(2n), comes from _p_a_numerator's B^0..B^n.  With N the
    lcm of the nu and a_sq = p/q, a path is valued on B, and u = D^(2k) +
    nu c_B^2 is nu D^(2k) (1/nu + c^2), so the termwise test is
    q u^2 >= p nu^2 D^(2k) c_B^2, and the sum over k of
    D^(n-k) (N/nu) sum v_B(g) u is compared with N S_{1,2}.  Each run of
    _expanded_paths holds paths of one class k, so nu and D^(2k) are
    Python-int scalars for it; its edge values come from _edge_values, and
    v_B(g) is the product of the first n-k of them and c_B of the last k,
    numpy object-array products of Python ints, so it stays exact with no
    per-path loop.

    For every nonnegative A it is True at every a_sq <= census_cap(n):
    AM-GM gives 1/nu + c^2 >= 2c/sqrt(nu) >= a c for a^2 <= 4/nu(n,k); phi
    is injective and each g has at most nu(n,k) pre-images in class k, so
    the lhs use each term of (A^(n+k))_{1,2} and (A^(n-k))_{1,2} at most once.

    It expands every one of the n^(n-1) paths, so it is refused when they
    pass DEFAULT_CAP, from n = 10 on, before the census or plan is read.
    """
    count_monomials(n, n)
    D, powers, S = _p_a_numerator(n, A)
    B = powers[1]
    if not is_nonneg(B):  # D > 0, so B has the signs of A
        raise ValueError("matrix must be entrywise nonnegative")
    p, q = _a_sq_ratio(a_sq)
    if census_cap(n) is None:
        return False
    census = _census(n)
    N = lcm(*(nu for _, _, nu in census.values()))
    b = B.ravel()
    total = dict.fromkeys(census, 0)
    for k, _, index in _expanded_paths(n):
        nu, d = census[k][2], D ** (2 * k)
        x = _edge_values(b, index)
        vg, c = x[:, : n - k].prod(axis=1), x[:, n - k :].prod(axis=1)
        c2 = c * c
        u = d + nu * c2
        if (q * u * u < p * nu * nu * d * c2)[vg != 0].any():
            return False
        total[k] += (vg * u).sum()
    covered = sum(D ** (n - k) * (N // census[k][2]) * t for k, t in total.items())
    return covered <= N * S[0, 1]


def _a_sq_ratio(a_sq):
    """(p, q) with a_sq = p/q, read by _scaled_ints; a = sqrt(a_sq) must be real."""
    q, (p,) = _scaled_ints([a_sq])
    if p < 0:
        raise ValueError("a_sq must be >= 0")
    return p, q


def _p_a_numerator(n: int, A):
    """(D, powers, S) with (D, powers) = exact_powers(A, n), A = B/D of
    order n, and S the numerator over D^(2n) of P(A), P = sum_{j != n} x^j
    the positive part of p_a = P - a*x^n.  With R = sum_{j<n} x^j,
    x R = R - 1 + x^n, so P = R + x^n (R - 1 + x^n); polynomials in B
    commute, so with Q = D^(n-1) R(A) from poly_numerator,
    S = D^(n+1) Q + B^n T for T = Q B, exactly: Q B is
    sum_{j=1..n} D^(n-j) B^j, the numerator of x R = R - 1 + x^n over D^n."""
    if order_of(A) != n:
        raise ValueError("matrix order must equal n")
    D, powers = exact_powers(A, n)
    Q = poly_numerator([1] * n, D, powers[:n])
    S = powers[n].dot(Q.dot(powers[1]))
    S += D ** (n + 1) * Q
    return D, powers, S


def verify_certificate_on_matrix(n: int, a_sq, A) -> bool:
    """End-to-end sanity: certificate verdict implies p_a(A) >= 0 entrywise,
    for A of order n.

    a = sqrt(a_sq) may be irrational, so each entry s - a*x of p_a(A) =
    P(A) - a A^n is signed exactly on numerators over D^(2n), from
    B^0..B^n: s from S and x = D^n b for b the entry of B^n.  With
    a_sq = p/q, it is nonnegative exactly when s >= 0 and
    s^2 * q >= p D^(2n) b^2; D^(2n) is multiplied into p once.
    """
    p, q = _a_sq_ratio(a_sq)
    D, powers, S = _p_a_numerator(n, A)
    p *= D ** (2 * n)
    return all(
        s >= 0 and s * s * q >= p * b * b
        for s, b in zip(S.ravel().tolist(), powers[n].ravel().tolist())
    )
