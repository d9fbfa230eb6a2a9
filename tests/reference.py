"""Slow reference paths for differential tests of the integer core.

- `lll_rows`: the rational LLL that rebuilds the exact Gram-Schmidt data
  after every swap.
- `minkowski_reduce`, `successive_minima`, `shortest_basis`: the greedy and
  subset searches with primitivity decided by `is_primitive_tuple` (Smith
  divisors of coordinates solved over `L.basis`) and independence by
  `linalg.rank` over the vectors themselves.
- `coordinates`: the solve against the inverse of the basis Gram matrix.
- `complete_to_basis`: the completion read off the inverse of the HNF
  transform of the prefix's coordinates (rank and Smith form first).
- `kz_reduce`: KZ reduction on those two, each step completing its whole
  prefix afresh.
- `appendix_scan`: the candidate-family scan one candidate at a time, on
  residues read off the rational inverse of the generators.
"""

from functools import lru_cache
from itertools import combinations
from math import lcm

from latred import linalg
from latred.enumeration import closest_vectors_all, enumerate_up_to
from latred.errors import (
    DependentTuple,
    DimensionMismatch,
    NotInLattice,
    NotInSpan,
    NotPrimitive,
    PreconditionViolated,
)
from latred.lattice import Lattice, is_primitive_tuple, linear_dependence, sublattice
from latred.linalg import (
    dot,
    gram_matrix,
    gram_schmidt,
    hnf,
    matrix,
    norm_sq,
    normalize_sign,
    row_times_mat,
    snf_divisors,
    transpose,
    vector,
    vscale,
    vsub,
)
from latred.rationals import Q, is_integer, qround


def lll_rows(rows, delta=Q(3, 4)):
    b = [tuple(r) for r in matrix(rows)]
    n = len(b)
    if n <= 1:
        return tuple(b)
    gso = gram_schmidt(b)
    mu = [list(r) for r in gso.mu]
    c = list(gso.norms_sq)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            r = qround(mu[k][j])
            if r:
                b[k] = vsub(b[k], vscale(Q(r), b[j]))
                for i in range(j + 1):
                    mu[k][i] -= r * mu[j][i]
        if c[k] >= (delta - mu[k][k - 1] * mu[k][k - 1]) * c[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            gso = gram_schmidt(b)
            mu = [list(r) for r in gso.mu]
            c = list(gso.norms_sq)
            k = max(k - 1, 1)
    return tuple(b)


def extends(L, prefix, v):
    try:
        return is_primitive_tuple(L, list(prefix) + [v]).verdict
    except DependentTuple:
        return False


def _pool_until(L, pick):
    """pick(vectors) over complete pools of growing bound until not None."""
    bound = min(norm_sq(r) for r in lll_rows(L.basis))
    while True:
        got = pick(enumerate_up_to(L, bound).vectors)
        if got is not None:
            return got
        bound *= 2


def minkowski_reduce(L):
    """(basis, ties per step) of the greedy reduction."""
    basis, ties = [], []

    def pick(vectors):
        i = next((i for i, v in enumerate(vectors) if extends(L, basis, v)), None)
        if i is not None:
            tied = [w for w in vectors[i:] if norm_sq(w) == norm_sq(vectors[i])]
            return tied[0], sum(extends(L, basis, w) for w in tied)

    for _ in range(L.rank):
        v, t = _pool_until(L, pick)
        basis.append(v)
        ties.append(t)
    return tuple(basis), tuple(ties)


def successive_minima(L):
    """(minima_sq, witnesses) of the greedy independent choice."""

    def pick(vectors):
        chosen = []
        for v in vectors:
            if linalg.rank(chosen + [v]) == len(chosen) + 1:
                chosen.append(v)
                if len(chosen) == L.rank:
                    return tuple(norm_sq(w) for w in chosen), tuple(chosen)

    return _pool_until(L, pick)


def _generates(L, vectors):
    if not vectors:
        return False
    coords = [integer_coordinates(L, v) for v in vectors]
    if linalg.rank(matrix(coords)) < L.rank:
        return False
    h, _ = hnf(coords)
    det = 1
    for i in range(L.rank):
        det *= h[i][i]
    return abs(det) == 1


def _subset_search(L, pool, budget):
    n = L.rank
    nodes = [0]

    def rec(prefix, start):
        if len(prefix) == n:
            return list(prefix)
        if len(prefix) + (len(pool) - start) < n:
            return None
        for idx in range(start, len(pool)):
            nodes[0] += 1
            if nodes[0] > budget:
                raise PreconditionViolated("subset search budget exhausted")
            if not extends(L, prefix, pool[idx]):
                continue
            got = rec(prefix + [pool[idx]], idx + 1)
            if got is not None:
                return got
        return None

    return rec([], 0)


def shortest_basis(L):
    """(basis, max_norm_sq, pool, bound_sq, certified) of the min-max basis."""
    kz = kz_reduce(L)[0]
    upper = max(norm_sq(v) for v in kz)
    pool = enumerate_up_to(L, upper).vectors
    certified = True
    for level in sorted({norm_sq(v) for v in pool}):
        sub = [v for v in pool if norm_sq(v) <= level]
        if not _generates(L, sub):
            continue

        def order_key(v):
            return (-max(int(e.denominator) for e in v), norm_sq(v), v)

        try:
            found = _subset_search(L, sorted(sub, key=order_key), 2_000_000)
        except PreconditionViolated:
            certified = False
            found = None
        if found is not None:
            found.sort(key=lambda v: (norm_sq(v), v))
            return tuple(found), level, tuple(pool), upper, certified
    return tuple(kz), upper, tuple(pool), upper, False


@lru_cache(maxsize=64)
def _gram_inverse(basis):
    return linalg.inverse(gram_matrix(basis))


def coordinates(L, v):
    v = vector(v)
    if len(v) != L.ambient_dim:
        raise DimensionMismatch("vector has wrong ambient dimension")
    rhs = tuple(dot(v, r) for r in L.basis)
    x = row_times_mat(rhs, _gram_inverse(L.basis))
    if row_times_mat(x, L.basis) != v:
        raise NotInSpan("vector is outside the real span of the lattice")
    return x


def integer_coordinates(L, v):
    x = coordinates(L, v)
    if not all(is_integer(c) for c in x):
        raise NotInLattice("vector is not in the lattice")
    return tuple(int(c) for c in x)


def complete_to_basis(L, prefix):
    """A basis of L whose first len(prefix) rows span the prefix's
    sublattice: C . U' = [T | 0] (U' from the HNF of C^T), and the rows of
    U'^-1 are the completed coordinates."""
    coords = [integer_coordinates(L, v) for v in prefix]
    if linalg.rank(matrix(coords)) != len(coords):
        raise DependentTuple("tuple is linearly dependent")
    if any(d != 1 for d in snf_divisors(coords)):
        raise NotPrimitive("prefix is not a primitive tuple")
    _, u = hnf(transpose(coords))
    inv = linalg.inverse(matrix(transpose(u)))
    assert all(is_integer(e) for row in inv for e in row)
    return tuple(row_times_mat(row, L.basis) for row in inv)


def _shortest_vectors(L):
    def pick(vectors):
        if vectors:
            return [v for v in vectors if norm_sq(v) == norm_sq(vectors[0])]

    return _pool_until(L, pick)


def kz_reduce(L):
    """(basis, ties per step) of KZ reduction."""
    prefix, ties = [], []
    for _ in range(L.rank):
        if not prefix:
            cands = _shortest_vectors(L)
        else:
            lifts = complete_to_basis(L, prefix)[len(prefix) :]
            gso = gram_schmidt(prefix)

            def perp(w):
                for bs, ns in zip(gso.bstar, gso.norms_sq):
                    w = vsub(w, vscale(dot(w, bs) / ns, bs))
                return w

            proj = Lattice([perp(w) for w in lifts])
            found = set()
            for p in _shortest_vectors(proj):
                y = row_times_mat(coordinates(proj, p), lifts)
                near, _ = closest_vectors_all(sublattice(prefix), vsub(y, p))
                found |= {normalize_sign(vsub(y, c)) for c in near}
            cands = sorted(found, key=lambda v: (norm_sq(v), v))
            cands = [v for v in cands if norm_sq(v) == norm_sq(cands[0])]
        prefix.append(cands[0])
        ties.append(len(cands))
    return tuple(prefix), tuple(ties)


_QUAD_PATTERNS = ((1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def scan_state(vectors, rel):
    """dd, the residue rows and the shift residues from the rational inverse
    of the generators past the first."""
    a1 = rel.coefficients[0]
    minv = linalg.inverse([vector(v) for v in vectors[1:]])
    shift = tuple(Q(-c, a1) for c in rel.coefficients[1:])
    dd = 1
    for x in [x for row in minv for x in row] + list(shift):
        dd = lcm(dd, int(x.denominator))
    rows = [tuple(int(x * dd) % dd for x in row) for row in minv]
    s_row = tuple(int(x * dd) % dd for x in shift)
    maxk = abs(int(a1))
    return dict(
        n=len(vectors[0]),
        dd=dd,
        rows=rows,
        shift=s_row,
        maxk=maxk,
        col0=tuple(r[0] for r in rows),
        target0=frozenset((-j * s_row[0]) % dd for j in range(maxk)),
    )


def _member(st, positions, signs):
    dd, rows, shift = st["dd"], st["rows"], st["shift"]
    for j in range(st["maxk"]):
        if all(
            (sum(s * rows[p][c] for p, s in zip(positions, signs)) + j * shift[c])
            % dd
            == 0
            for c in range(st["n"])
        ):
            return True
    return False


def _scan_pairs(st):
    col0, dd, t0, n = st["col0"], st["dd"], st["target0"], st["n"]
    checked, hits = 0, []
    for i in range(n):
        for j in range(i + 1, n):
            checked += 1
            if (col0[i] - col0[j]) % dd in t0 and _member(st, (i, j), (1, -1)):
                hits.append(((i, j), (1, -1)))
    return checked, hits


def _scan_quads(st):
    col0, dd, t0, n = st["col0"], st["dd"], st["target0"], st["n"]
    checked, hits = 0, []
    for pos in combinations(range(n), 4):
        for signs in _QUAD_PATTERNS:
            checked += 1
            if sum(s * col0[p] for p, s in zip(pos, signs)) % dd in t0 and _member(
                st, pos, signs
            ):
                hits.append((pos, signs))
    return checked, hits


def _scan_positive(st, size, skip):
    col0, dd, t0, n = st["col0"], st["dd"], st["target0"], st["n"]
    ones = (1,) * size
    checked, hits = 0, []
    for pos in combinations(range(n), size):
        if pos in skip:
            continue
        checked += 1
        if sum(col0[p] for p in pos) % dd in t0 and _member(st, pos, ones):
            hits.append((pos, ones))
    return checked, hits


def appendix_scan(vectors):
    """(families_checked, violations) of the per-candidate scan, whatever
    the relation's coefficients are."""
    vectors = tuple(vector(v) for v in vectors)
    rel = linear_dependence(vectors)
    supports = {tuple(i for i, x in enumerate(v) if x) for v in vectors}
    (size,) = {len(sup) for sup in supports}
    st = scan_state(vectors, rel)
    results = {"pairs": _scan_pairs(st)}
    if size == 5:
        results["signed_quadruples"] = _scan_quads(st)
    results["quintuples" if size == 5 else "triples"] = _scan_positive(
        st, size, supports
    )
    families, violations = {}, []
    for label, (checked, hits) in results.items():
        families[label] = checked
        for pos, signs in hits:
            out = [Q(0)] * st["n"]
            for p, s in zip(pos, signs):
                out[p] = Q(s)
            violations.append(tuple(out))
    return families, violations
