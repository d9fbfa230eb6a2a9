"""Slow reference paths for differential tests of the integer core.

- `lll_rows`: the rational LLL that rebuilds the exact Gram-Schmidt data
  after every swap.
- `minkowski_reduce`, `successive_minima`, `shortest_basis`: the greedy and
  subset searches with primitivity decided by `is_primitive_tuple` (Smith
  divisors of coordinates solved over `L.basis`) and independence by
  `linalg.rank` over the vectors themselves.
"""

from latred import linalg
from latred.enumeration import enumerate_up_to
from latred.errors import DependentTuple, PreconditionViolated
from latred.lattice import integer_coordinates, is_primitive_tuple
from latred.linalg import gram_schmidt, hnf, matrix, norm_sq, vscale, vsub
from latred.rationals import Q, qround
from latred.reduction import kz_reduce


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
    kz = kz_reduce(L).basis
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
