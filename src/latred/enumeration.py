"""Exact shortest-vector and bounded-norm enumeration.

Depth-first Fincke-Pohst enumeration over the integral Gram-Schmidt data
(d, lambda, den) that the integral LLL ends with.  The walk is integral:
each level's centre and cost are integers over one common denominator,
and pruning is one isqrt per node, exact.  It is one loop over per-level
partial sums (Schnorr-Euchner), the centres of the levels below and the
partial vector, so a node updates one row and each leaf comes with its
vector.  A lattice's pool of short vectors is held in integers (_Pool:
M |v|^2, den v and the coordinates over the LLL basis), and the greedy,
minima and shortest-basis picks compare those; the greedy and minima
pools start at the longest LLL row, which bounds the last minimum.
Rationals are built only for the vectors and norms that leave.  There is
no floating point anywhere.  A node budget turns out-of-desk-scale
instances into an explicit BudgetExceeded error instead of a long stall.
"""

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from math import isqrt, lcm

from .errors import BudgetExceeded
from .lattice import IntGSO, Lattice, _Prefix
from .linalg import matrix
from .rationals import Q, qexact, qnum, qden

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
# LLL preprocessing (plumbing, not a contribution; delta = 3/4)


def lll_rows(rows):
    """Exact LLL reduction of independent rows: (new rows, T, gso) with
    T . rows = new rows, T unimodular, and gso the IntGSO of new rows.

    _lll of IntGSO.of(rows), which scales the rows by the lcm den of their
    denominators and raises DependentRows, with T starting at the
    identity.  Everything returned is nested tuples."""
    rows = matrix(rows)
    n = len(rows)
    trans = [[int(i == j) for j in range(n)] for i in range(n)]
    gso = _lll(IntGSO.of(rows), 0, trans)
    den = gso.den
    return (
        tuple(tuple(Q(x, den) for x in r) for r in gso.b),
        tuple(map(tuple, trans)),
        gso,
    )


def _lll(gso, lo, trans=None):
    """The IntGSO of the rows of gso LLL-reduced past the first lo, which
    stay as they are (Cohen, Alg. 2.6.7, integral, delta = 3/4).

    The Gram-Schmidt data is held as the integers d[i] (Gram determinant
    of the first i rows) and lam[i][j] = d[j + 1] * mu[i][j], which a swap
    updates in place.  Row k >= lo is size-reduced against every earlier
    row, rounding mu halves up; past row lo it then takes the Lovasz test
    4 (d[k+1] d[k-1] + lam^2) >= 3 d[k]^2.  Every row step is applied to
    the rows of trans too, when given."""
    b, d, lam, den = gso
    n = len(b)
    b, d = [list(r) for r in b], list(d)
    lam = [list(r) + [0] * (n - len(r)) for r in lam]
    k = max(lo, 1)
    while k < n:
        for j in range(k - 1, -1, -1):
            r = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            if r:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                if trans is not None:
                    trans[k] = [x - r * y for x, y in zip(trans[k], trans[j])]
                lam[k][j] -= r * d[j + 1]
                for t in range(j):
                    lam[k][t] -= r * lam[j][t]
        m = lam[k][k - 1]
        if k == lo or 4 * (d[k + 1] * d[k - 1] + m * m) >= 3 * d[k] * d[k]:
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        if trans is not None:
            trans[k - 1], trans[k] = trans[k], trans[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        new = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (new * t + m * lam[i][k]) // d[k + 1]
        d[k] = new
        k = max(k - 1, lo, 1)
    return IntGSO(tuple(map(tuple, b)), tuple(d), tuple(map(tuple, lam)), den)


def _put(gso, i, x):
    """The IntGSO of a basis with the rows of gso before i, then
    sum_k x_k b_k, then rows LLL-reduced past it, over the rows b of gso
    and an integer x whose entries from i on have gcd 1.

    _Prefix completes x[i:] to a unimodular [x[i:]; rows], so the rows
    sum_k rows_r[k] b_{i+k} complete the first i rows and the new row i
    to a basis of the same lattice.  lam_rj = d_{j+1} mu_rj is linear in
    the row r, and the first i rows and d_1..d_i stay, so the first i lam
    entries of a new row are its combination of the old rows' (with
    lam_kk = d_{k+1} and zeros past k); the recurrence runs from entry i
    on.  Each new row and its head are combined over the nonzero
    coefficients alone: the completion rows are mostly unit vectors."""
    b, d, lam, den = gso
    n = len(b)
    heads = [
        lam[k][:i] if k >= i else (*lam[k][:k], d[k + 1], *(0,) * (i - k - 1))
        for k in range(n)
    ]
    tail = _Prefix.empty(n - i).extended(x[i:]).rows
    out = IntGSO(b[:i], d[: i + 1], lam[:i], den)
    # x combines every old row, a completion row the rows from i on
    for r, lo in chain(((x, 0),), ((r, i) for r in tail)):
        terms = [(c, k) for k, c in enumerate(r, lo) if c]
        out = out.appended(_combine(terms, b), _combine(terms, heads))
    return _lll(out, i + 1)


def _combine(terms, rows):
    """sum c rows[k] over the (c, k) of terms, at least one, as a tuple."""
    (c, k), *rest = terms
    w = rows[k] if c == 1 else [c * a for a in rows[k]]
    for c, k in rest:
        w = [a + c * e for a, e in zip(w, rows[k])]
    return tuple(w)


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


def _weights(gso):
    """(M, w): over the IntGSO gso (b, d, lam, den), M = den^2
    lcm_k(d_k d_{k+1}) and w_k = M / (den^2 d_k d_{k+1}), so that the
    walk's level-k cost |b*_k|^2 (x_k - centre_k)^2 is w_k e^2 / M with e
    the integer of _walk's docstring."""
    _, d, _, den = gso
    pairs = [a * b for a, b in zip(d, d[1:])]
    m = lcm(*pairs)
    return m * den * den, [m // p for p in pairs]


def _walk(gso, bound, budget, lo=0, top=None):
    """Yield (x, rho, u) for each nonzero integer x with rho <= bound[0]
    (Fincke-Pohst), one per +/- pair (topmost nonzero coefficient positive):
    u = sum_k x_k b_k over the integer rows b of the IntGSO gso (b, d, lam,
    den), den times the lattice vector of x, and rho = M |u / den|^2, an
    integer, with M, w = _weights(gso).

    The walk is integral.  Level k's centre -sum_{i>k} x_i mu_ik times
    d_{k+1} is the integer N_k = -sum_{i>k} x_i lam_ik, and with e = x_k
    d_{k+1} - N_k its cost is w_k e^2, so level k takes the x_k with |e| <=
    isqrt((bound[0] - rho) // w_k), ascending.  Every node reads the bound
    afresh, so a consumer may lower bound[0] between yields; leaves past a
    lowered bound may still arrive.  Each internal node spends one budget
    node.

    The walk is one loop over per-level state, depth first, with the
    partial sums of Schnorr-Euchner: the row above level k holds the
    partial vector sum_{i>k} x_i b_i, then the partial centres N_j of the
    levels j <= k.  Setting x_k adds x_k (b_k, -lam_kj for j < k) to it,
    one row per node, which gives the row above level k - 1; a leaf's u
    is the head of its row.

    With lo, the walk stops above level lo: it yields x with x_0..x_lo-1
    zero, and rho prices the projection past the first lo rows.  top =
    (x_lo..x_{n-1}, rho) from such a walk fixes those levels; the walk then
    runs the levels below them, and yields the x that is zero below them
    too."""
    return _walk_on(gso, _table(gso), bound, budget, lo, top)


def _table(gso):
    """(M, w, steps), the tables a walk over the IntGSO gso (b, d, lam,
    den) reads: M, w = _weights(gso), and steps[k] = (b_k, -lam_kj for
    j < k), the row that setting x_k adds x_k times (see _walk).  They
    depend on gso alone, so the walks of one KZ step share one."""
    b, _, lam, _ = gso
    m, w = _weights(gso)
    # zip stops at the step's end, so the row loses level k's own centre
    return m, w, [(*b[k], *(-a for a in lam[k][:k])) for k in range(len(b))]


def _walk_on(gso, table, bound, budget, lo, top):
    """_walk over table = _table(gso), built by the caller."""
    b, d, _, _ = gso
    n = len(d) - 1
    m = len(b[0]) if b else 0
    _, w, steps = table
    q = d[1:]
    x = [0] * n
    hi, rho = n, 0
    row = [0] * (m + n)
    if top is not None:
        fixed, rho = top
        hi = n - len(fixed)
        x[hi:] = fixed
        # over the fixed levels with x_k != 0, as the loop below does
        for k in range(n - 1, hi - 1, -1):
            if x[k]:
                row = [a + x[k] * c for a, c in zip(row, steps[k])]
    zero = top is None
    if hi <= lo:
        if not zero:
            yield tuple(x), rho, tuple(row[:m])
        return
    # per level k: the row above it, the rho above it, whether every x_i
    # above it is zero (with no top), its centre N_k and its last x_k
    above, base, zeros = [None] * n, [0] * n, [False] * n
    centres, last = [0] * n, [0] * n
    k = hi - 1
    above[k], base[k], zeros[k] = row, rho, zero
    spend = budget.spend
    while True:
        # a node of level k: its range of x_k
        spend()
        remaining = bound[0] - base[k]
        if remaining < 0:
            x[k], last[k] = 0, -1
        else:
            centres[k] = centre = above[k][m + k]
            qk = q[k]
            r = isqrt(remaining // w[k])
            first = -((r - centre) // qk)  # ceil((centre - r) / q)
            if zeros[k] and first < 0:
                first = 0
            x[k], last[k] = first - 1, (centre + r) // qk
        # the next x_k, at this level or the first one above with one left;
        # at level lo each x_k is a leaf
        while True:
            xk = x[k] + 1
            if xk > last[k]:
                x[k] = 0
                k += 1
                if k == hi:
                    return
                continue
            x[k] = xk
            e = xk * q[k] - centres[k]
            child = base[k] + w[k] * e * e
            if k > lo:
                break
            if xk or not zeros[k]:
                u = tuple([a + xk * c for a, c in zip(above[k], b[k])])
                yield tuple(x), child, u
        row = above[k]
        if xk:
            row = [a + xk * c for a, c in zip(row, steps[k])]
        zero = zeros[k] and not xk
        k -= 1
        above[k], base[k], zeros[k] = row, child, zero


def _least(leaves, bound):
    """The (x, u) of the leaves (x, rho, u) at the least rho: the walks
    that yield them read bound, which is lowered to each shorter rho as it
    arrives."""
    found = []
    for x, rho, u in leaves:
        if rho < bound[0]:
            bound[0] = rho
            found.clear()
        if rho == bound[0]:
            found.append((x, u))
    return found


def _projected_shortest(gso, table, i, budget):
    """(tops, rho): every x_i..x_{n-1}, one per +/- pair, minimizing the
    projection past the first i rows of sum_k x_k b_k over the IntGSO
    gso, each with its lift u = sum_{k>=i} x_k b_k over the integer rows
    b, and that minimum, rho = M |pi_i|^2 over M = table[0].  One walk of
    levels i..n-1 on table = _table(gso), its bound starting at |b*_i|^2,
    b_i's own projection."""
    bound = [table[1][i] * gso.d[i + 1] ** 2]
    tops = _least(_walk_on(gso, table, bound, budget, i, None), bound)
    return [(x[i:], u) for x, u in tops], bound[0]


def _nearest_plane(gso, table, x, hi):
    """The cost of the levels below hi of _walk's leaf at Babai's
    nearest-plane point over x_hi.. as given, with table = _table(gso):
    x_k for each level below hi rounded to its centre, halves up; x is
    filled in place."""
    _, d, lam, _ = gso
    n = len(x)
    w = table[1]
    rho = 0
    for k in range(hi - 1, -1, -1):
        centre = -sum(x[i] * lam[i][k] for i in range(k + 1, n))
        q = d[k + 1]
        x[k] = (2 * centre + q) // (2 * q)  # halves rounded up
        e = x[k] * q - centre
        rho += w[k] * e * e
    return rho


class _Pool(namedtuple("_Pool", "bound start m den rhos ws coords")):
    """A lattice's pool of short vectors, in integers: every nonzero v of
    L with |v|^2 <= p/q, (p, q) = bound, one per +/- pair, sign normalized
    (first nonzero entry positive) and in (norm, lex) order.  rhos[i] =
    M |v_i|^2, ws[i] = den v_i and coords[i] the integer coordinates of v_i
    over the LLL basis, with M = _weights(gso)[0] and den of the LLL
    basis's IntGSO gso, both fixed for the lattice.  start holds the
    squared norms of the shortest and the longest LLL row as (p, q) pairs:
    the two bounds _grow starts at.

    Every rho is an integer, so the cut at a rational bound b is
    bisect_right(rhos, qnum(b) M // qden(b)), and (rho, w) sorts in
    (norm, lex) order.  Fractions are built only for what leaves:
    vector(i) and norm_sq(i)."""

    __slots__ = ()

    def vector(self, i):
        return tuple(Q(a, self.den) for a in self.ws[i])

    def norm_sq(self, i):
        return Q(self.rhos[i], self.m)


def _held_pool(L: Lattice):
    """L's pool; an empty one, with M, den and the shortest and longest
    LLL rows, the first time."""
    pool = L._pool
    if pool is None:
        gso = L._lll[2]
        b, _, _, den = gso
        norms = [sum(x * x for x in r) for r in b]
        start = (min(norms), den * den), (max(norms), den * den)
        pool = _Pool((0, 1), start, _weights(gso)[0], den, (), (), ())
        object.__setattr__(L, "_pool", pool)
    return pool


def _pool_to(L: Lattice, p, q, node_budget):
    """L's pool, enumerated afresh up to the bound p/q (q > 0) when that is
    past the held bound.  A walk is complete and (rho, w) is unique per
    +/- pair, so a larger pool starts with the smaller one, in the same
    order: indices into a pool stay valid as it grows."""
    pool = _held_pool(L)
    hp, hq = pool.bound
    if p * hq > hp * q:
        out = []
        bound = [p * pool.m // q]
        for coeffs, rho, w in _walk(L._lll[2], bound, _Budget(node_budget)):
            # sign normalization: the first nonzero entry positive
            if next(a for a in w if a) < 0:
                w, coeffs = tuple(-a for a in w), tuple(-t for t in coeffs)
            out.append((rho, w, coeffs))
        # (rho, w) is (|v|^2, v) scaled by M and den: the same order
        out.sort()
        rhos, ws, coords = map(tuple, zip(*out)) if out else ((), (), ())
        pool = pool._replace(bound=(p, q), rhos=rhos, ws=ws, coords=coords)
        object.__setattr__(L, "_pool", pool)
    return pool


def enumerate_up_to(L: Lattice, bound_sq, node_budget=DEFAULT_BUDGET) -> VectorList:
    """All nonzero v in L with |v|^2 <= bound_sq, one per +/- pair,
    sorted by (squared norm, lexicographic order of the entries).

    L keeps the largest pool enumerated so far.  A request at or below its
    bound is served from that pool and spends no nodes; the node budget
    bounds every enumeration actually run."""
    bound_sq = qexact(bound_sq)
    p, q = qnum(bound_sq), qden(bound_sq)
    pool = _pool_to(L, p, q, node_budget)
    end = bisect_right(pool.rhos, p * pool.m // q)
    return VectorList(tuple(map(pool.vector, range(end))), bound_sq)


def _grow(L: Lattice, pick, node_budget, longest=False):
    """The first non-None pick(pool, end) over L's pool cut at a bound,
    end the index past the cut: from the held bound, at least the
    shortest LLL row (the longest one with longest), up by 3/2, the bound
    held as an integer pair.  Pools are complete and in (norm, lex) order,
    so the result does not depend on the bound, and a pick may keep
    indices from one round to the next.

    A pick that needs rank independent vectors starts at the longest row:
    the LLL rows are rank independent vectors, so that first pool holds
    the successive minima, and most often the greedy basis too; each
    round below it would walk the ball again."""
    pool = _held_pool(L)
    (p, q), (hp, hq) = pool.start[longest], pool.bound
    if hp * q > p * hq:
        p, q = hp, hq
    while True:
        pool = _pool_to(L, p, q, node_budget)
        got = pick(pool, bisect_right(pool.rhos, p * pool.m // q))
        if got is not None:
            return got
        p, q = 3 * p, 2 * q


def shortest_vector(L: Lattice, node_budget=DEFAULT_BUDGET):
    """A shortest nonzero vector and its squared norm, deterministic
    tie-break: lexicographically smallest after sign normalization."""
    pool = _grow(L, lambda pool, end: pool if end else None, node_budget)
    return pool.vector(0), pool.norm_sq(0)


def successive_minima(L: Lattice, node_budget=DEFAULT_BUDGET) -> MinimaReport:
    """Greedy successive minima with witnesses over a growing-bound pool;
    independence is decided on the pool's integer coordinates
    (_minima_picks)."""
    pool, chosen = _minima_picks(L, node_budget)
    return MinimaReport(
        tuple(map(pool.norm_sq, chosen)), tuple(map(pool.vector, chosen))
    )


def _minima_picks(L: Lattice, node_budget):
    """(pool, chosen): L's pool and the pool index of each successive
    minimum's witness.

    One scan serves every growth round: a vector in the span of the
    chosen prefix is in the span of every larger prefix, so a round that
    found too few resumes at the end of its cut, with the prefix held."""
    held = _Prefix.empty(L.rank)
    chosen = []
    start = 0

    def pick(pool, end):
        nonlocal held, start
        for i in range(start, end):
            c = pool.coords[i]
            tail = held.independent(c)
            if tail is not None:
                held = held.extended(c, tail)
                chosen.append(i)
                if len(chosen) == L.rank:
                    return pool
        start = end

    return _grow(L, pick, node_budget, longest=True), chosen
