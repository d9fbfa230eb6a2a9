"""Exact shortest-vector, bounded-norm, and closest-vector enumeration.

Depth-first enumeration over the exact Gram-Schmidt data of an
LLL-preprocessed basis, read off the integral LLL's d and lambda.  All
pruning uses exact interval bounds; there is no floating point anywhere.
A node budget turns out-of-desk-scale instances into an explicit
BudgetExceeded error instead of a long stall.
"""

from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt

from .errors import BudgetExceeded
from .lattice import IntGSO, Lattice, _Prefix
from .linalg import matrix, norm_sq, row_times_mat
from .rationals import Q, QZERO, qexact, qfloor, qnum, qden, qround

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class MinimaReport:
    minima_sq: tuple
    witnesses: tuple


@dataclass(frozen=True)
class VectorList:
    vectors: tuple
    bound_sq: object


# ---------------------------------------------------------------------------
# LLL preprocessing (plumbing, not a contribution; delta = 3/4 by default)


def lll_rows(rows, delta=Q(3, 4)):
    """Exact LLL reduction of independent rows: (new rows, T, gso) with
    T . rows = new rows, T unimodular, and gso the IntGSO of new rows.

    Integral LLL (Cohen, Alg. 2.6.7) from IntGSO.of(rows), which scales
    the rows by the lcm den of their denominators and raises DependentRows:
    the Gram-Schmidt data is held as the integers d[i] (Gram determinant of
    the first i scaled rows) and lam[i][j] = d[j + 1] * mu[i][j], which a
    swap updates in place.  Row k
    is size-reduced against every earlier row, rounding mu halves up,
    before the Lovasz test q * (d[k+1] d[k-1] + lam^2) >= p * d[k]^2 for
    delta = p / q.  Every row step is applied to T as well.  Everything
    returned is nested tuples."""
    rows = matrix(rows)
    n = len(rows)
    trans = [[int(i == j) for j in range(n)] for i in range(n)]
    b, d, lam, den = IntGSO.of(rows)
    b, d = [list(r) for r in b], list(d)
    lam = [list(r) + [0] * (n - len(r)) for r in lam]
    p, q = qnum(delta), qden(delta)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            r = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            if r:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                trans[k] = [x - r * y for x, y in zip(trans[k], trans[j])]
                lam[k][j] -= r * d[j + 1]
                for t in range(j):
                    lam[k][t] -= r * lam[j][t]
        m = lam[k][k - 1]
        if q * (d[k + 1] * d[k - 1] + m * m) >= p * d[k] * d[k]:
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        trans[k - 1], trans[k] = trans[k], trans[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        new = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (new * t + m * lam[i][k]) // d[k + 1]
        d[k] = new
        k = max(k - 1, 1)
    return (
        tuple(tuple(Q(x, den) for x in r) for r in b),
        tuple(map(tuple, trans)),
        IntGSO(tuple(map(tuple, b)), tuple(d), tuple(map(tuple, lam)), den),
    )


# ---------------------------------------------------------------------------
# bounded enumeration


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("enumeration node budget exhausted")


def _level_range(center, remaining, ck):
    """Integer x with ck * (x - center)^2 <= remaining, as [lo, hi]."""
    t = remaining / ck
    p = qnum(center)
    q = qden(center)
    s = isqrt(qfloor(t * q * q))
    lo = -((s - p) // q)  # ceil((p - s) / q)
    hi = (p + s) // q
    return lo, hi


def _walk(mu, c, y, bound, budget):
    """Yield (x, |sum_k x_k b_k - t|^2) for the integer x within bound[0]
    of the target t = sum_k y[k] b*_k, over the GSO mu, c = |b*_k|^2 of a
    basis b (Fincke-Pohst).  Level k centers on y[k] - sum_{i>k} x_i mu_ik.
    With y None the target is 0 and the walk yields the nonzero x, one per
    +/- pair (topmost nonzero coefficient positive).  Every node reads the
    bound afresh, so a consumer may lower bound[0] between yields; leaves
    past a lowered bound may still arrive.  Each internal node spends one
    budget node."""
    n = len(c)
    x = [0] * n

    def rec(k, rho, allzero):
        if k < 0:
            if not allzero:
                yield tuple(x), rho
            return
        budget.spend()
        remaining = bound[0] - rho
        if remaining < 0:
            return
        center = QZERO if y is None else y[k]
        for i in range(k + 1, n):
            if x[i]:
                center -= x[i] * mu[i][k]
        lo, hi = _level_range(center, remaining, c[k])
        if allzero and lo < 0:
            lo = 0
        for xk in range(lo, hi + 1):
            d = xk - center
            x[k] = xk
            yield from rec(k - 1, rho + c[k] * d * d, allzero and xk == 0)
        x[k] = 0

    yield from rec(n - 1, QZERO, y is None)


def _closest(mu, c, y, budget):
    """(every x minimizing |sum_k x_k b_k - t|^2, that minimum) for the
    target t = sum_k y[k] b*_k: the walk starts at the distance of Babai's
    nearest-plane point and lowers its bound as nearer leaves arrive."""
    n = len(c)
    x = [0] * n
    dist = QZERO
    for k in range(n - 1, -1, -1):
        center = y[k]
        for i in range(k + 1, n):
            if x[i]:
                center -= x[i] * mu[i][k]
        x[k] = qround(center)
        d = x[k] - center
        dist += c[k] * d * d
    bound = [dist]
    found = []
    for coeffs, rho in _walk(mu, c, y, bound, budget):
        if rho < bound[0]:
            bound[0] = rho
            found.clear()
        if rho == bound[0]:
            found.append(coeffs)
    return found, bound[0]


def enumerate_up_to(L: Lattice, bound_sq, node_budget=DEFAULT_BUDGET) -> VectorList:
    """All nonzero v in L with |v|^2 <= bound_sq, one per +/- pair,
    sorted by (squared norm, lexicographic order of the entries).

    L keeps the largest pool enumerated so far.  A request at or below its
    bound is served from that pool and spends no nodes; the node budget
    bounds every enumeration actually run."""
    bound_sq = qexact(bound_sq)
    held, vectors, _, norms = L._pool
    if bound_sq > held:
        b, _, _, den = L._lll[2]
        cols = tuple(zip(*b))
        budget = _Budget(node_budget)
        gso = L._lll_gso
        out = []
        for coeffs, nsq in _walk(gso.mu, gso.norms_sq, None, [bound_sq], budget):
            # v = coeffs . LLL basis, over the scaled integer rows
            w = [sum(c * x for c, x in zip(coeffs, col) if c) for col in cols]
            # sign normalization: the first nonzero entry positive
            if next(a for a in w if a) < 0:
                w, coeffs = [-a for a in w], tuple(-t for t in coeffs)
            out.append((nsq, tuple(Q(a, den) for a in w), coeffs))
        out.sort()
        norms = tuple(t[0] for t in out)
        vectors = tuple(t[1] for t in out)
        coords = tuple(t[2] for t in out)
        object.__setattr__(L, "_pool", (bound_sq, vectors, coords, norms))
    return VectorList(vectors[: bisect_right(norms, bound_sq)], bound_sq)


def _grow(L: Lattice, pick, node_budget):
    """The first non-None pick(vectors) over pools of L, from the held bound
    (at least the shortest LLL row) up by 3/2.  Pools are complete and in
    (norm, lex) order, so the result does not depend on the bound."""
    b, _, _, den = L._lll[2]
    shortest_row = Q(min(sum(x * x for x in r) for r in b), den * den)
    bound = max(shortest_row, L._pool[0])
    while True:
        got = pick(enumerate_up_to(L, bound, node_budget).vectors)
        if got is not None:
            return got
        bound = bound * 3 / 2


def _shortest(vectors):
    """The vectors of least norm in a (norm, lex) sorted list, or None."""
    if vectors:
        return vectors[: bisect_right(vectors, norm_sq(vectors[0]), key=norm_sq)]


def shortest_vector(L: Lattice, node_budget=DEFAULT_BUDGET):
    """A shortest nonzero vector and its squared norm, deterministic
    tie-break: lexicographically smallest after sign normalization."""
    v = _grow(L, _shortest, node_budget)[0]
    return v, norm_sq(v)


def successive_minima(L: Lattice, node_budget=DEFAULT_BUDGET) -> MinimaReport:
    """Greedy successive minima with witnesses over a growing-bound pool;
    independence is decided on the pool's integer coordinates."""

    def pick(vectors):
        held = _Prefix.empty(L.rank)
        chosen = []
        minima = []
        _, _, coords, norms = L._pool
        for v, c, nsq in zip(vectors, coords, norms):
            if held.independent(c):
                held = held.extended(c)
                chosen.append(v)
                minima.append(nsq)
                if len(chosen) == L.rank:
                    return MinimaReport(tuple(minima), tuple(chosen))

    return _grow(L, pick, node_budget)


# ---------------------------------------------------------------------------
# closest vector


def closest_vectors_all(L: Lattice, target, node_budget=DEFAULT_BUDGET):
    """All v in L minimizing |target - v|^2, plus the squared distance."""
    # target = sum_k y_k b*_k over the GSO of the LLL basis
    y = L._lll[2].star_coordinates(target)
    gso = L._lll_gso
    found, dist = _closest(gso.mu, gso.norms_sq, y, _Budget(node_budget))
    # distinct coefficient vectors of a basis give distinct lattice points
    return tuple(sorted(row_times_mat(x, L._lll[0]) for x in found)), dist
