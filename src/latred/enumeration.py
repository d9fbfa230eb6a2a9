"""Exact shortest-vector, bounded-norm, and closest-vector enumeration.

Depth-first enumeration over the exact rational Gram-Schmidt data of an
LLL-preprocessed basis.  All pruning uses exact interval bounds; there is
no floating point anywhere.  A node budget turns out-of-desk-scale
instances into an explicit BudgetExceeded error instead of a long stall.
"""

from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt

from . import linalg
from .errors import BudgetExceeded, NotInSpan
from .lattice import Lattice
from .linalg import (
    dot,
    gram_schmidt,
    matrix,
    norm_sq,
    normalize_sign,
    row_times_mat,
    vector,
    vsub,
    vscale,
)
from .rationals import Q, QZERO, qfloor, qnum, qden, qround

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
    """Exact LLL reduction of independent rows; same lattice, new basis."""
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


def _enum_coeffs(gso, bound_sq, budget):
    """Yield coefficient tuples of all nonzero v with |v|^2 <= bound, one
    per +/- pair (topmost nonzero coefficient positive)."""
    mu = gso.mu
    c = gso.norms_sq
    n = len(c)
    x = [0] * n

    def rec(k, rho, allzero):
        if k < 0:
            if not allzero:
                yield tuple(x)
            return
        budget.spend()
        center = QZERO
        for i in range(k + 1, n):
            if x[i]:
                center -= x[i] * mu[i][k]
        remaining = bound_sq - rho
        lo, hi = _level_range(center, remaining, c[k])
        if allzero and lo < 0:
            lo = 0
        for xk in range(lo, hi + 1):
            d = xk - center
            add = c[k] * d * d
            if add > remaining:
                continue
            x[k] = xk
            yield from rec(k - 1, rho + add, allzero and xk == 0)
        x[k] = 0

    yield from rec(n - 1, QZERO, True)


def enumerate_up_to(L: Lattice, bound_sq, node_budget=DEFAULT_BUDGET) -> VectorList:
    """All nonzero v in L with |v|^2 <= bound_sq, one per +/- pair,
    sorted by (squared norm, lexicographic order of the entries).

    L keeps the largest pool enumerated so far.  A request at or below its
    bound is served from that pool and spends no nodes; the node budget
    bounds every enumeration actually run."""
    bound_sq = Q(bound_sq)
    held, vectors = L._pool
    if bound_sq > held:
        rows = L._lll_basis
        budget = _Budget(node_budget)
        out = []
        for coeffs in _enum_coeffs(L._lll_gso, bound_sq, budget):
            v = normalize_sign(row_times_mat([Q(t) for t in coeffs], rows))
            out.append((norm_sq(v), v))
        out.sort()
        vectors = tuple(v for _, v in out)
        object.__setattr__(L, "_pool", (bound_sq, vectors))
    end = bisect_right(vectors, bound_sq, key=norm_sq)
    return VectorList(vectors[:end], bound_sq)


def _grow(L: Lattice, pick, node_budget):
    """The first non-None pick(vectors) over pools of L, from the held bound
    (at least the shortest LLL row) up by 3/2.  Pools are complete and in
    (norm, lex) order, so the result does not depend on the bound."""
    bound = max(min(norm_sq(r) for r in L._lll_basis), L._pool[0])
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
    """Greedy successive minima with witnesses over a growing-bound pool."""

    def pick(vectors):
        chosen = []
        for v in vectors:
            if linalg.rank(chosen + [v]) == len(chosen) + 1:
                chosen.append(v)
                if len(chosen) == L.rank:
                    return MinimaReport(
                        tuple(norm_sq(v) for v in chosen), tuple(chosen)
                    )

    return _grow(L, pick, node_budget)


# ---------------------------------------------------------------------------
# closest vector


def closest_vectors_all(L: Lattice, target, node_budget=DEFAULT_BUDGET):
    """All v in L minimizing |target - v|^2, plus the squared distance."""
    rows = L._lll_basis
    gso = L._lll_gso
    mu = gso.mu
    c = gso.norms_sq
    n = len(rows)
    # target = sum_k y_k b*_k: level k centers on y_k - sum_{i>k} x_i mu_ik
    target = vector(target)
    y = [dot(target, bs) / ck for bs, ck in zip(gso.bstar, c)]
    if row_times_mat(y, gso.bstar) != target:
        raise NotInSpan("vector is outside the real span of the lattice")
    x = [0] * n
    budget = _Budget(node_budget)
    best = [None]
    found = []

    def rec(k, rho):
        budget.spend()
        if k < 0:
            if best[0] is None or rho < best[0]:
                best[0] = rho
                found.clear()
            if rho == best[0]:
                found.append(tuple(x))
            return
        center = y[k]
        for i in range(k + 1, n):
            if x[i]:
                center -= x[i] * mu[i][k]
        # zig-zag outward from the rounded center; prune once past best
        x0 = qround(center)
        step = 0
        while True:
            if step == 0:
                cands = (x0,)
            else:
                cands = (x0 + step, x0 - step)
            alive = False
            for xk in cands:
                d = xk - center
                add = c[k] * d * d
                if best[0] is not None and rho + add > best[0]:
                    continue
                alive = True
                x[k] = xk
                rec(k - 1, rho + add)
            if step and not alive:
                break
            step += 1
        x[k] = 0

    rec(n - 1, QZERO)
    # distinct coefficient vectors of a basis give distinct lattice points
    vecs = sorted(
        row_times_mat([Q(e) for e in coeffs], rows) for coeffs in found
    )
    return tuple(vecs), best[0]


def closest_vector(L: Lattice, target, node_budget=DEFAULT_BUDGET):
    """The closest lattice vector; ties broken lexicographically."""
    vecs, _ = closest_vectors_all(L, target, node_budget)
    return vecs[0]
