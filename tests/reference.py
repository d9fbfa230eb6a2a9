"""Slow reference paths for differential tests of the integer core.

- `rank`, `determinant`, `inverse`, `nullspace`, `linear_dependence`: the
  rational Gaussian eliminations, one per question, and the dependence
  read off the nullspace of the transpose.  latred itself takes no
  determinant; tests that need one take it here.
- `hnf_with_transform`: the row-style HNF H with a unimodular U, H = U m.
- `gram_schmidt`, `orthogonal_part`, `projected_tails`: the rational
  Gram-Schmidt process, with its GSO vectors, and projections by
  subtracting one GSO component after another.
- `int_rational`, `int_project`, `int_star_coordinates`: mu and the
  squared norms, projections and GSO coordinates read off an IntGSO's
  integers, which latred itself no longer needs in rationals.
- `lll_rows`: the rational LLL that rebuilds the exact Gram-Schmidt data
  after every swap.
- `fraction_pool`: the short-vector pool with every kept vector's
  entries and norm a rational, sorted in rationals; latred holds its pool
  in integers and makes rationals only of what it returns.
- `walk`, `closest`: the Fincke-Pohst walk and its closest-vector search
  over the rational mu and |b*_k|^2, centring and pricing every node in
  rationals (`level_range` gives a level's coefficients); latred walks
  the integers of the IntGSO instead, always centred at 0, and has no
  closest-vector search.
- `lift_walk`: a lift walk of `enumeration._walk_on` (fixed top levels)
  as a recursion that takes each level's centre and each leaf's vector
  as dense sums over every level above, zeros included; latred adds only
  the nonzero x_k's rows.
- `dense_put`: `enumeration._put` with each new row and its head a full
  dot product of the row's coefficients with every column, zero
  coefficients included; latred combines only the nonzero ones.
- `minkowski_reduce`, `successive_minima`, `shortest_basis`: the greedy and
  subset searches with primitivity decided by `is_primitive_tuple` (Smith
  divisors of coordinates solved over `L.basis`) and independence by
  `rank` over the vectors themselves.
- `shortest_basis_kz_first`: latred's min-max search as it ran on one
  fixed-bound pool, a KZ reduction first and the pool bounded by its
  maximum; latred walks its growing pool instead and runs KZ only when a
  subset search runs out of budget.
- `coordinates`: the solve against the inverse of the basis Gram matrix.
- `snf_divisors`: the Smith divisors by Euclid steps on a smallest pivot,
  with a divisibility repair; latred reads them off alternating HNFs.
- `complete_to_basis`: the completion read off the inverse of the HNF
  transform of the prefix's coordinates (rank and Smith form first).
- `project_orthogonal_with_lift`, `primitive_completion`: the projection
  and the size-reduced completion on the rational GSO of the prefix.
- `kz_reduce`: KZ reduction on those, each step completing its whole
  prefix afresh and pulling each lift toward the prefix sublattice with
  `closest`.
- `kz_reduce_on_projections`: latred's KZ reduction as it ran on one
  projection `Lattice` per step, LLL-reduced and enumerated afresh, each
  shortest projection lifted through `coordinates` and the closest
  vectors of the prefix sublattice from `closest`; latred walks one
  IntGSO instead.
- `appendix_scan`: the candidate-family scan one candidate at a time, on
  residues read off the rational inverse of the generators.
- `offset_scan`: latred's collision scan with the relation offsets on the
  probe side, one lookup per candidate key and offset.
- `residue_tuples`: the walk over every residue tuple of the glued-prime
  gap argument.
- `verify_minkowski_bounds`: the greedy-norm check built on the public
  `minkowski_reduce`, `successive_minima` and `vdw_delta_table`, with
  every bound compared in rationals; latred compares the pool's integer
  norms at the greedy's and the minima's pool indices instead.
- `theorem_gap`, `kz_structure`: the glued-prime verifiers on L_k itself
  (coordinate solves and determinants, enumeration, Smith form, the
  claimed basis's rational GSO and HNF, the KZ-first shortest basis, and
  `kz_reduce` above as the generic KZ reduction)
  instead of its generators; `kz_layout` gives kz_structure the claimed
  KZ basis's steps, read off `glued_kz_claimed_basis` below.
- `glued_kz_claimed_basis`, `glued_shortest_basis`: the glued-prime
  claims built row by row as d-long tuples of units and glue vectors.
- `supports`: rows as {coordinate: nonzero entry}, the form the glued
  verifiers read.
- `glued_residues`, `prefix_completion`: helpers that only tests use;
  `prefix_completion` completes a prefix with the tail-gcd transform
  over `L.basis`, which latred's completion no longer builds.
- `vsub`, `normalize_sign`, `Singular`, `NotPrimitive`: the vector
  difference, the +/- representative with a positive first nonzero
  entry, and the errors of `inverse` and of the completions above;
  latred needs none of them.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, takewhile
from math import gcd, isqrt, lcm
from operator import mul

from latred import reduction
from latred.constructions import glued_params, glued_prime_lattice
from latred.enumeration import (
    DEFAULT_BUDGET,
    _Budget,
    _lll,
    _walk,
    _weights,
    enumerate_up_to,
    shortest_vector,
)
from latred.enumeration import successive_minima as _successive_minima
from latred.errors import (
    BudgetExceeded,
    DependentRows,
    DependentTuple,
    DimensionMismatch,
    NotInLattice,
    LatredError,
    NotInSpan,
    PreconditionViolated,
    WrongRank,
)
from latred.lattice import (
    DependenceRelation,
    IntGSO,
    Lattice,
    _back_substitute,
    _lam_row,
    _Prefix,
    _target_lam,
    contains,
    covolume_squared,
    is_primitive_tuple,
)
from latred.lattice import coordinates as lll_solve
from latred.lattice import integer_coordinates as lll_coordinates
from latred.linalg import (
    _int_rows,
    _scaled,
    dot,
    gram_matrix,
    matrix,
    norm_sq,
    row_times_mat,
    transpose,
    unit_vector,
    vector,
    vscale,
)
from latred.rationals import Q, QONE, QZERO, is_integer, qden, qfloor, qnum, qround
from latred.reduction import ReductionResult, StepRecord, vdw_delta_table
from latred.reduction import minkowski_reduce as _minkowski_reduce
from latred.verification import (
    TheoremReport,
    _SCAN_COUNTS,
    _lane_adder,
    difference_lattice_basis,
    difference_lattice_min,
    similar_to_dual_root,
)


class Singular(LatredError):
    """inverse of a singular matrix."""


class NotPrimitive(LatredError):
    """A completion asked of an independent prefix that is not primitive."""


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def normalize_sign(u):
    """Flip so the first nonzero entry is positive; canonical +/- pair rep."""
    for a in u:
        if a:
            return tuple(-b for b in u) if a < 0 else u
    return u


def rank(m):
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = QONE / rows[r][c]
        for i in range(r + 1, nr):
            f = rows[i][c]
            if f:
                f = f * inv
                for j in range(c, nc):
                    rows[i][j] -= f * rows[r][j]
        r += 1
        if r == nr:
            break
    return r


def determinant(m):
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatch("determinant of non-square matrix")
    rows = [list(r) for r in m]
    det = QONE
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return QZERO
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        p = rows[c][c]
        det *= p
        inv = QONE / p
        for i in range(c + 1, n):
            f = rows[i][c]
            if f:
                f = f * inv
                for j in range(c, n):
                    rows[i][j] -= f * rows[c][j]
    return det


def inverse(m):
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatch("inverse of non-square matrix")
    rows = [list(r) + list(unit_vector(n, i)) for i, r in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            raise Singular("matrix is singular")
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = QONE / rows[c][c]
        rows[c] = [e * inv for e in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return tuple(tuple(r[n:]) for r in rows)


def nullspace(a):
    """Basis of {x : a . x = 0} for a matrix a given as rows (maps columns)."""
    nr = len(a)
    nc = len(a[0]) if a else 0
    rows = [list(r) for r in a]
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = QONE / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        x = [QZERO] * nc
        x[fc] = QONE
        for ri, pc in enumerate(pivots):
            x[pc] = -rows[ri][fc]
        basis.append(tuple(x))
    return basis


def linear_dependence(vectors):
    """The relation of latred's linear_dependence from the nullspace of
    the transpose, made integral, coprime and first-nonzero positive."""
    ker = nullspace(transpose(matrix(vectors)))
    if len(ker) != 1:
        raise WrongRank("dependence space has dimension %d, expected 1" % len(ker))
    den = lcm(*(int(e.denominator) for e in ker[0]))
    ints = [int(e * den) for e in ker[0]]
    g = gcd(*ints)
    if next(a for a in ints if a) < 0:
        g = -g
    return DependenceRelation(tuple(a // g for a in ints))


def hnf_with_transform(m):
    """(H, U) with H = U m the row-style HNF of latred's hnf and U
    unimodular."""
    rows = _int_rows(m)
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    r = 0
    for c in range(nc):
        while True:
            nz = [i for i in range(r, nr) if rows[i][c]]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(rows[i][c]))
            if piv != r:
                rows[r], rows[piv] = rows[piv], rows[r]
                u[r], u[piv] = u[piv], u[r]
            done = True
            for i in range(r + 1, nr):
                if rows[i][c]:
                    f = rows[i][c] // rows[r][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                    u[i] = [a - f * b for a, b in zip(u[i], u[r])]
                    if rows[i][c]:
                        done = False
            if done:
                break
        if r < nr and rows[r][c]:
            if rows[r][c] < 0:
                rows[r] = [-a for a in rows[r]]
                u[r] = [-a for a in u[r]]
            p = rows[r][c]
            for i in range(r):
                f = rows[i][c] // p
                if f:
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                    u[i] = [a - f * b for a, b in zip(u[i], u[r])]
            r += 1
            if r == nr:
                break
    return tuple(map(tuple, rows)), tuple(map(tuple, u))


@dataclass(frozen=True)
class GSOData:
    """Exact Gram-Schmidt data: b_i = b*_i + sum_{j<i} mu[i][j] b*_j."""

    bstar: tuple
    mu: tuple
    norms_sq: tuple


def gram_schmidt(basis) -> GSOData:
    """Exact GSO of linearly independent rows; raises DependentRows."""
    bstar = []
    norms = []
    mu = []
    for i, b in enumerate(basis):
        murow = [QZERO] * len(basis)
        w = tuple(b)
        for j in range(i):
            c = dot(b, bstar[j]) / norms[j]
            murow[j] = c
            if c:
                w = vsub(w, vscale(c, bstar[j]))
        murow[i] = QONE
        ns = norm_sq(w)
        if not ns:
            raise DependentRows("row %d depends on the previous rows" % i)
        bstar.append(w)
        norms.append(ns)
        mu.append(tuple(murow))
    return GSOData(tuple(bstar), tuple(mu), tuple(norms))


def orthogonal_part(w, gso):
    """w minus its components along the GSO vectors of gso."""
    for bs, ns in zip(gso.bstar, gso.norms_sq):
        c = dot(w, bs) / ns
        if c:
            w = vsub(w, vscale(c, bs))
    return w


def projected_tails(basis, gso):
    """For each step i, the rows basis[i:] projected orthogonally to the
    first i GSO vectors.  Row t loses its component mu[t][i] b*_i after
    step i, so one running list serves every step."""
    rows = list(basis)
    for i, bs in enumerate(gso.bstar):
        yield rows[i:]
        for t in range(i + 1, len(rows)):
            mu = gso.mu[t][i]
            if mu:
                rows[t] = vsub(rows[t], vscale(mu, bs))


def int_rational(gso):
    """(mu, squared norms) of the GSO of an IntGSO's rational rows:
    mu_ij = lam_ij / d_{j+1} and |b*_i|^2 = d_{i+1} / (d_i den^2)."""
    _, d, lam, den = gso
    n = len(d) - 1
    mu = tuple(
        tuple(
            Q(lam[i][j], d[j + 1]) if j < i else QONE if j == i else QZERO
            for j in range(n)
        )
        for i in range(n)
    )
    norms = tuple(Q(d[i + 1], d[i] * den * den) for i in range(n))
    return mu, norms


def int_project(gso, v):
    """(v*, |v*|^2): the part of v orthogonal to an IntGSO's rows.  With
    W = s v integral, _back_substitute gives the dz_j = d_n z_j of W's
    part sum_j z_j b_j in the span, so d_n s v* = d_n W - sum_j dz_j b_j;
    the last entry of W's _lam_row is the Gram determinant of [b; W],
    which is d_n |W*|^2."""
    b, d, lam, _ = gso
    w, s = _scaled(v)
    row = _lam_row(b, d, lam, w)
    dz = _back_substitute(gso, row[:-1])
    scale = d[-1] * s
    perp = tuple(
        Q(d[-1] * x - sum(z * r[c] for z, r in zip(dz, b) if z), scale)
        for c, x in enumerate(w)
    )
    return perp, Q(row[-1], scale * s)


def int_star_coordinates(gso, v):
    """y with v = sum_k y_k b*_k over the GSO of an IntGSO's rational rows,
    from _target_lam; raises NotInSpan."""
    lam_w, s = _target_lam(gso, v)
    return [Q(t * gso.den, gso.d[k + 1] * s) for k, t in enumerate(lam_w)]


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


def level_range(center, remaining, ck):
    """Integer x with ck * (x - center)^2 <= remaining, as [lo, hi]."""
    t = remaining / ck
    p = qnum(center)
    q = qden(center)
    s = isqrt(qfloor(t * q * q))
    lo = -((s - p) // q)  # ceil((p - s) / q)
    hi = (p + s) // q
    return lo, hi


def walk(mu, c, y, bound, budget):
    """Yield (x, |sum_k x_k b_k - t|^2) for the integer x within bound[0]
    of the target t = sum_k y[k] b*_k, over the GSO mu, c = |b*_k|^2 of a
    basis b (Fincke-Pohst).  Level k centers on y[k] - sum_{i>k} x_i mu_ik.
    With y None the target is 0 and the walk yields the nonzero x, one per
    +/- pair (topmost nonzero coefficient positive).  Every node reads the
    bound afresh, so a consumer may lower bound[0] between yields.  Each
    internal node spends one budget node."""
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
        lo, hi = level_range(center, remaining, c[k])
        if allzero and lo < 0:
            lo = 0
        for xk in range(lo, hi + 1):
            d = xk - center
            x[k] = xk
            yield from rec(k - 1, rho + c[k] * d * d, allzero and xk == 0)
        x[k] = 0

    yield from rec(n - 1, QZERO, y is None)


def lift_walk(gso, bound, budget, lo, top):
    """The leaves (x, rho, u) of enumeration._walk_on over the IntGSO gso
    (b, d, lam, den) with top = (x_hi.., rho) fixing the levels from hi
    on, in the same order and spending the same nodes: level k centres on
    N_k = -sum_{i>k} x_i lam_ik over every i > k, and a leaf's u =
    sum_k x_k b_k over every k."""
    b, d, lam, _ = gso
    n = len(b)
    w = _weights(gso)[1]
    fixed, rho = top
    hi = n - len(fixed)
    x = [0] * hi + list(fixed)

    def leaf(rho):
        u = tuple(sum(x[k] * b[k][c] for k in range(n)) for c in range(len(b[0])))
        return tuple(x), rho, u

    def rec(k, rho):
        budget.spend()
        remaining = bound[0] - rho
        if remaining < 0:
            return
        centre = -sum(x[i] * lam[i][k] for i in range(k + 1, n))
        q = d[k + 1]
        r = isqrt(remaining // w[k])
        for xk in range(-((r - centre) // q), (centre + r) // q + 1):
            x[k] = xk
            e = xk * q - centre
            child = rho + w[k] * e * e
            if k > lo:
                yield from rec(k - 1, child)
            else:
                yield leaf(child)
        x[k] = 0

    if hi <= lo:
        yield leaf(rho)
    else:
        yield from rec(hi - 1, rho)


def dense_put(gso, i, x):
    """enumeration._put with every new row and its head a full dot
    product of the row's coefficients with each column of b and of the
    heads: x with every row, each completion row with the rows from i
    on."""
    b, d, lam, den = gso
    n = len(b)
    heads = [
        lam[k][:i] if k >= i else (*lam[k][:k], d[k + 1], *(0,) * (i - k - 1))
        for k in range(n)
    ]
    cols = {lo: (tuple(zip(*b[lo:])), tuple(zip(*heads[lo:]))) for lo in (0, i)}
    tail = _Prefix.empty(n - i).extended(x[i:]).rows
    out = IntGSO(b[:i], d[: i + 1], lam[:i], den)
    for r, lo in chain(((x, 0),), ((r, i) for r in tail)):
        bcols, hcols = cols[lo]
        w = tuple(sum(map(mul, r, col)) for col in bcols)
        out = out.appended(w, [sum(map(mul, r, h)) for h in hcols])
    return _lll(out, i + 1)


def closest(mu, c, y, budget):
    """(every x minimizing |sum_k x_k b_k - t|^2, that minimum) for the
    target t = sum_k y[k] b*_k: walk from the distance of Babai's
    nearest-plane point, lowering the bound as nearer leaves arrive."""
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
    for coeffs, rho in walk(mu, c, y, bound, budget):
        if rho < bound[0]:
            bound[0] = rho
            found.clear()
        if rho == bound[0]:
            found.append(coeffs)
    return found, bound[0]


def extends(L, prefix, v):
    try:
        return is_primitive_tuple(L, list(prefix) + [v]).verdict
    except DependentTuple:
        return False


def fraction_pool(L, bound_sq, node_budget=DEFAULT_BUDGET):
    """(vectors, coordinates, squared norms) of every nonzero v of L with
    |v|^2 <= bound_sq, one per +/- pair, in (norm, lex) order: the pool
    as latred built it before it held its pool in integers, each kept
    vector's entries and norm a rational, here sign normalized and
    sorted in rationals too.  The coordinates are over the LLL basis,
    from one walk of its IntGSO."""
    bound_sq = Q(bound_sq)
    gso = L._lll[2]
    m, _ = _weights(gso)
    bound = [qnum(bound_sq) * m // qden(bound_sq)]
    out = []
    for x, _, _ in _walk(gso, bound, _Budget(node_budget)):
        v = row_times_mat(x, L._lll[0])
        if next(a for a in v if a) < 0:
            v, x = vscale(-1, v), tuple(-a for a in x)
        out.append((norm_sq(v), v, x))
    out.sort()
    return (
        tuple(e[1] for e in out),
        tuple(e[2] for e in out),
        tuple(e[0] for e in out),
    )


def _start_bound(L):
    """The smallest squared norm of a row of L's reference LLL basis."""
    return min(norm_sq(r) for r in lll_rows(L.basis))


def _pool_until(L, pick, bound):
    """pick(vectors) over complete pools of growing bound, from bound,
    until not None."""
    while True:
        got = pick(enumerate_up_to(L, bound).vectors)
        if got is not None:
            return got
        bound *= 2


def minkowski_reduce(L):
    """(basis, ties per step) of the greedy reduction.  Each step rescans
    its pool from the start; the vectors tied with its pick are those
    after it up to the first longer one, the pool being in norm order."""
    basis, ties = [], []
    start = _start_bound(L)

    def pick(vectors):
        i = next((i for i, v in enumerate(vectors) if extends(L, basis, v)), None)
        if i is not None:
            top = norm_sq(vectors[i])
            tied = list(takewhile(lambda w: norm_sq(w) == top, vectors[i:]))
            return tied[0], sum(extends(L, basis, w) for w in tied)

    for _ in range(L.rank):
        v, t = _pool_until(L, pick, start)
        basis.append(v)
        ties.append(t)
    return tuple(basis), tuple(ties)


def successive_minima(L):
    """(minima_sq, witnesses) of the greedy independent choice."""

    def pick(vectors):
        chosen = []
        for v in vectors:
            if rank(chosen + [v]) == len(chosen) + 1:
                chosen.append(v)
                if len(chosen) == L.rank:
                    return tuple(norm_sq(w) for w in chosen), tuple(chosen)

    return _pool_until(L, pick, _start_bound(L))


def _generates(L, vectors):
    if not vectors:
        return False
    coords = [integer_coordinates(L, v) for v in vectors]
    if rank(matrix(coords)) < L.rank:
        return False
    h, _ = hnf_with_transform(coords)
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
    """(basis, max_norm_sq, certified) of the min-max basis."""
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
            return tuple(found), level, certified
    return tuple(kz), upper, False


def shortest_basis_kz_first(L, node_budget=DEFAULT_BUDGET):
    """(basis, max_norm_sq, certified) of latred's min-max search run on
    one fixed-bound pool: a KZ reduction first bounds the pool by its
    maximum, and the levels of that pool are tried in ascending order
    with latred's own KZ reduction, level test and subset search, looked
    up on latred.reduction so that a patch of any of them reaches this
    copy too."""
    kz = reduction.kz_reduce(L, node_budget).basis
    upper = max(norm_sq(v) for v in kz)
    pool = enumerate_up_to(L, upper, node_budget).vectors
    coords = L._pool.coords[: len(pool)]
    norms = tuple(map(norm_sq, pool))
    by_order = sorted(
        zip(pool, coords, norms),
        key=lambda e: (-max(int(x.denominator) for x in e[0]), e[2], e[0]),
    )
    certified = True
    for level in sorted(set(norms)):
        end = bisect_right(norms, level)
        if not reduction._generates(L.rank, coords[:end]):
            continue
        ordered = [(v, c) for v, c, nsq in by_order if nsq <= level]
        try:
            found = reduction._basis_subset_search(
                L, ordered, budget=min(node_budget, 2_000_000)
            )
        except BudgetExceeded:
            certified = False
            found = None
        if found is not None:
            found.sort(key=lambda v: (norm_sq(v), v))
            return tuple(found), level, certified
    return tuple(kz), upper, False


@lru_cache(maxsize=64)
def _gram_inverse(basis):
    return inverse(gram_matrix(basis))


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


def snf_divisors(m):
    """Elementary divisors d_1 | d_2 | ... of an integer matrix, by
    Euclid steps on a smallest pivot and a divisibility repair.

    Returns min(rows, cols) nonnegative integers; trailing zeros indicate
    rank deficiency.
    """
    a = _int_rows(m)
    nr = len(a)
    nc = len(a[0]) if a else 0
    k = min(nr, nc)
    divisors = []
    t = 0
    while t < k:
        # the pivot: a smallest nonzero entry of the trailing block
        nonzero = [
            (abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]
        ]
        if not nonzero:
            divisors.extend([0] * (k - t))
            break
        _, i0, j0 = min(nonzero)
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        # Euclid down column t, then reduce row t (column steps that, with
        # column t clear, change row t alone); a remainder in row t is the
        # next, smaller pivot.  Mixing the two passes blows entries up.
        while True:
            for i in range(t + 1, nr):
                while a[i][t]:
                    f = a[i][t] // a[t][t]
                    a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
            for j in range(t + 1, nc):
                a[t][j] %= a[t][t]
            j = next((j for j in range(t + 1, nc) if a[t][j]), None)
            if j is None:
                break
            for row in a:
                row[t], row[j] = row[j], row[t]
        # divisibility: pivot must divide every remaining entry
        p = abs(a[t][t])
        offender = next(
            (i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1 :])), None
        )
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        divisors.append(p)
        t += 1
    return divisors


def complete_to_basis(L, prefix):
    """A basis of L whose first len(prefix) rows span the prefix's
    sublattice: C . U' = [T | 0] (U' from the HNF of C^T), and the rows of
    U'^-1 are the completed coordinates."""
    coords = [integer_coordinates(L, v) for v in prefix]
    if rank(matrix(coords)) != len(coords):
        raise DependentTuple("tuple is linearly dependent")
    if any(d != 1 for d in snf_divisors(coords)):
        raise NotPrimitive("prefix is not a primitive tuple")
    _, u = hnf_with_transform(transpose(coords))
    inv = inverse(matrix(transpose(u)))
    assert all(is_integer(e) for row in inv for e in row)
    return tuple(row_times_mat(row, L.basis) for row in inv)


def _closest_in(gso, v, budget):
    """Every vector of the lattice of an IntGSO's rational rows nearest to
    v, a vector in their span: `closest` over their rational GSO."""
    mu, c = int_rational(gso)
    found, _ = closest(mu, c, int_star_coordinates(gso, v), budget)
    rows = [tuple(Q(a, gso.den) for a in r) for r in gso.b]
    return [row_times_mat(x, rows) for x in found]


def _shortest_vectors(L):
    def pick(vectors):
        if vectors:
            return [v for v in vectors if norm_sq(v) == norm_sq(vectors[0])]

    return _pool_until(L, pick, _start_bound(L))


def kz_reduce(L):
    """(basis, ties per step) of KZ reduction."""
    prefix, ties = [], []
    for _ in range(L.rank):
        if not prefix:
            cands = _shortest_vectors(L)
        else:
            lifts = complete_to_basis(L, prefix)[len(prefix) :]
            gso = gram_schmidt(prefix)
            proj = Lattice([orthogonal_part(w, gso) for w in lifts])
            sub = IntGSO.of(prefix)
            found = set()
            for p in _shortest_vectors(proj):
                y = row_times_mat(coordinates(proj, p), lifts)
                near = _closest_in(sub, vsub(y, p), _Budget(DEFAULT_BUDGET))
                found |= {normalize_sign(vsub(y, c)) for c in near}
            cands = sorted(found, key=lambda v: (norm_sq(v), v))
            cands = [v for v in cands if norm_sq(v) == norm_sq(cands[0])]
        prefix.append(cands[0])
        ties.append(len(cands))
    return tuple(prefix), tuple(ties)


def _shortest(vectors):
    """The vectors of least norm in a nonempty (norm, lex) sorted list."""
    return vectors[: bisect_right(vectors, norm_sq(vectors[0]), key=norm_sq)]


def _shortest_all(L, node_budget):
    """Every shortest vector of L, sign normalized, in lexicographic
    order: shortest_vector's pool cut at its norm."""
    _, nsq = shortest_vector(L, node_budget)
    return enumerate_up_to(L, nsq, node_budget).vectors


def _kz_candidates_on_projections(L, prefix, held, gso, node_budget):
    """Lifts of all shortest vectors projected past prefix (held is its
    _Prefix, gso its IntGSO), size-minimized over the prefix sublattice,
    sign normalized (p and -p, whose closest sublattice vectors are
    negated, give the same)."""
    if not prefix:
        return _shortest_all(L, node_budget)
    lifts = tuple(row_times_mat(r, L.basis) for r in held.rows)
    proj = Lattice([int_project(gso, w)[0] for w in lifts])
    cands = set()
    for p in _shortest_all(proj, node_budget):
        y = row_times_mat(lll_solve(proj, p), lifts)
        # pull the in-span component y - p toward the prefix sublattice
        for c in _closest_in(gso, vsub(y, p), _Budget(node_budget)):
            cands.add(normalize_sign(vsub(y, c)))
    return _shortest(sorted(cands, key=lambda v: (norm_sq(v), v)))


def kz_reduce_on_projections(L, node_budget=DEFAULT_BUDGET):
    """latred's KZ reduction as a ReductionResult, each step on its own
    projection Lattice; the prefix's IntGSO grows by one row per step,
    over L's denominator."""
    prefix = []
    held = _Prefix.empty(L.rank)
    gso = IntGSO((), (1,), (), L._lll[2].den)
    log = []
    for i in range(L.rank):
        cands = _kz_candidates_on_projections(L, prefix, held, gso, node_budget)
        chosen = cands[0]
        held = held.extended(lll_coordinates(L, chosen))
        gso = gso.extended(chosen)
        prefix.append(chosen)
        log.append(StepRecord(i, chosen, norm_sq(chosen), len(cands)))
    return ReductionResult(tuple(prefix), "kz", tuple(log))


def project_orthogonal_with_lift(L, prefix):
    """(P, lifts) with the lifts of prefix_completion and P their parts
    orthogonal to the prefix's rational GSO."""
    prefix = [vector(v) for v in prefix]
    lifts = prefix_completion(L, prefix)[len(prefix) :]
    gso = gram_schmidt(prefix)
    return Lattice([orthogonal_part(w, gso) for w in lifts]), lifts


def primitive_completion(L, sub, y0, lambda_next_sq):
    """The completion of latred's primitive_completion, size-reduced on
    the rational GSO of sub (the preconditions are not checked)."""
    sub = [vector(v) for v in sub]
    if extends(L, sub, vector(y0)):
        return vector(y0)
    proj, lifts = project_orthogonal_with_lift(L, sub)
    p, _ = shortest_vector(proj)
    y = row_times_mat(coordinates(proj, p), lifts)
    gso = gram_schmidt(sub)
    for i in range(len(sub) - 1, -1, -1):
        r = qround(dot(y, gso.bstar[i]) / gso.norms_sq[i])
        if r:
            y = vsub(y, vscale(Q(r), sub[i]))
    return y


_QUAD_PATTERNS = ((1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def scan_state(vectors, rel):
    """dd, the residue rows and the shift residues from the rational inverse
    of the generators past the first."""
    a1 = rel.coefficients[0]
    minv = inverse([vector(v) for v in vectors[1:]])
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


# The collision scan with the relation offsets on the probe side: the
# tables hold the plain R_a and P(a, b), and every candidate key is looked
# up once per offset j shift.  st is a scan state as
# latred.verification._tables takes it (packed residues, the support
# size and the generator supports) with the packed offsets under
# "offsets"; latred's residues over an HNF basis of the lattice itself
# have the one offset 0.  Each family
# returns (hits, counts) with hits as (sorted positions, sign pattern
# index), unsorted.


def _negated(st, packed):
    dd, width = st["dd"], st["width"]
    mask = (1 << width) - 1
    return sum(
        (-(packed >> (width * i) & mask) % dd) << (width * i)
        for i in range(st["lanes"])
    )


def _offset_pairs(st, counts):
    packed, add = st["packed"], _lane_adder(st)
    table = {}
    for b, key in enumerate(packed):
        table.setdefault(key, []).append(b)
    hits = []
    for a, ra in enumerate(packed):
        for off in st["offsets"]:
            counts["probes"] += 1
            for b in table.get(add(ra, off), ()):
                counts["collisions"] += 1
                if b == a:
                    counts["overlapping"] += 1
                elif b < a:
                    counts["out_of_order"] += 1
                else:
                    hits.append(((a, b), 0))
    return hits


def _offset_pair_table(st):
    packed, add = st["packed"], _lane_adder(st)
    sums, table = {}, {}
    for a, b in combinations(range(st["n"]), 2):
        key = add(packed[a], packed[b])
        sums[a, b] = key
        table.setdefault(key, []).append((a, b))
    return sums, table


def _offset_quads(st, counts):
    add = _lane_adder(st)
    sums, table = _offset_pair_table(st)
    hits = []
    for (a, b), pab in sums.items():
        for off in st["offsets"]:
            counts["probes"] += 1
            for c, d in table.get(add(pab, off), ()):
                counts["collisions"] += 1
                if a in (c, d) or b in (c, d):
                    counts["overlapping"] += 1
                elif c < a:
                    counts["out_of_order"] += 1
                elif b < c:
                    hits.append(((a, b, c, d), 0))
                elif b < d:
                    hits.append(((a, c, b, d), 1))
                else:
                    hits.append(((a, c, d, b), 2))
    return hits


def _offset_positive(st, counts):
    neg, n, size = st["negated"], st["n"], st["size"]
    add = _lane_adder(st)
    _, table = _offset_pair_table(st)
    hits = []
    negated_offsets = [_negated(st, off) for off in st["offsets"]]
    for u in combinations(range(2, n), size - 3):
        heads = negated_offsets
        for p in u:
            heads = [add(h, neg[p]) for h in heads]
        for z in range(u[-1] + 1 if u else 2, n):
            low = u[0] if u else z
            for head in heads:
                counts["probes"] += 1
                for c, d in table.get(add(head, neg[z]), ()):
                    counts["collisions"] += 1
                    if d < low:
                        pos = (c, d) + u + (z,)
                        if pos in st["supports"]:
                            counts["supports_skipped"] += 1
                        else:
                            hits.append((pos, 0))
                    elif c in u or d in u or z in (c, d):
                        counts["overlapping"] += 1
                    else:
                        counts["out_of_order"] += 1
    return hits


def offset_scan(st, kind):
    """(hits, counts) of one family ("pairs", "quads" or "positive")."""
    counts = dict.fromkeys(_SCAN_COUNTS, 0)
    scan = {"pairs": _offset_pairs, "quads": _offset_quads}.get(kind, _offset_positive)
    return scan(st, counts), counts


# ---------------------------------------------------------------------------
# the glued-prime verifiers on the generic route: every claimed vector's
# coordinates and their determinant, enumerate_up_to(L, 1), the unit
# prefix's Smith form, and the claimed basis's rational GSO with its
# projected rows and one HNF pair per difference step


def theorem_gap(params, sb_claim):
    """verify_theorem_gap's report on the given claimed shortest basis."""
    k = params.k
    L = glued_prime_lattice(k)
    d = L.rank
    rep = TheoremReport("glued_prime_%d" % k)
    prod = 1
    for p in params.primes:
        prod *= p

    coord_rows = [lll_coordinates(L, u) for u in sb_claim]
    rep.verdicts["short_basis_valid"] = abs(determinant(coord_rows)) == 1
    rep.quantities["short_basis_max_sq"] = max(norm_sq(u) for u in sb_claim)
    rep.verdicts["short_basis_max_5_4"] = (
        rep.quantities["short_basis_max_sq"] == Q(5, 4)
    )

    if k <= 2:
        mink = _minkowski_reduce(L)
        rep.verdicts["prefix_is_units"] = all(
            norm_sq(v) == 1 for v in mink.basis[:-1]
        )
        v_last_sq = norm_sq(mink.basis[-1])
        rep.witnesses["v_last"] = mink.basis[-1]
        _, bar, certified = shortest_basis_kz_first(L)
        rep.quantities["lambda_bar_sq"] = bar
        rep.verdicts["lambda_bar_certified"] = certified
        rep.verdicts["lambda_bar_is_5_4"] = bar == Q(5, 4)
    else:
        pool = enumerate_up_to(L, 1)
        units = {unit_vector(d, i) for i in range(d)}
        rep.verdicts["norm_one_vectors_are_units"] = set(pool.vectors) == units
        prefix = tuple(unit_vector(d, i) for i in range(1, d))
        rep.verdicts["unit_prefix_primitive"] = bool(is_primitive_tuple(L, prefix))
        full_units = [unit_vector(d, i) for i in range(d)]
        rep.verdicts["all_units_not_basis"] = (
            determinant(full_units) ** 2 != covolume_squared(L)
        )
        tuples = residue_tuples(params.primes, prod)
        rep.verdicts["all_blocks_fractional"] = all(
            all(c != 0 for c in t) for t in tuples
        )
        best = None
        best_tuple = None
        for t in tuples:
            val = sum(
                (Q(min(c, p - c) ** 2) for c, p in zip(t, params.primes)), Q(0)
            ) + Q(1, prod * prod)
            if best is None or val < best:
                best, best_tuple = val, t
        v_last_sq = best
        witness = _gap_witness(params, best_tuple, prod)
        rep.witnesses["v_last"] = witness
        rep.verdicts["witness_matches"] = norm_sq(witness) == v_last_sq
        bar = rep.quantities["short_basis_max_sq"]

    rep.quantities["v_last_sq"] = v_last_sq
    rep.verdicts["exceeds_block_count"] = v_last_sq > k
    rep.verdicts["strict_gap"] = v_last_sq > bar
    return rep


def residue_tuples(primes, prod):
    """Every residue tuple, in lexicographic order, whose glue-coefficient
    combination sum_j c_j prod / p_j is +-1 mod prod."""
    out = []

    def rec(i, acc, total):
        if i == len(primes):
            if total % prod in (1, prod - 1):
                out.append(tuple(acc))
            return
        w = prod // primes[i]
        for c in range(primes[i]):
            rec(i + 1, acc + [c], total + c * w)

    rec(0, [], 0)
    return out


def _gap_witness(params, residues, prod):
    d = params.dims[-1]
    w = [Q(0)] * d
    frac = Q(0)
    for c, p, (lo, hi) in zip(residues, params.primes, params.blocks):
        r = c if c <= p - c else c - p
        for j in range(lo, hi):
            w[j] = Q(r, p)
        frac += Q(r, p)
    w[0] = frac - qround(frac)
    if abs(w[0]) * prod != 1:
        w[0] = frac - qround(frac) + (1 if w[0] < 0 else -1)
    return tuple(w)


def kz_layout(params):
    """(block, kind, remaining, end) per step of the claimed KZ basis, read
    off glued_kz_claimed_basis row by row.  A row belongs to the block of
    its last nonzero coordinate; its kind is "glue" for the fractional row
    and, for a unit, "diff" past its block's glue row and "unit" before
    it; remaining is the set of block coordinates (block 0's with the
    shared one) that no earlier unit of the block claims; end is the
    index past the block's last step."""
    ends = [hi for _, hi in params.blocks]
    steps = []
    block = None
    for v in glued_kz_claimed_basis(params.k):
        top = max(c for c, x in enumerate(v) if x)
        j = bisect_right(ends, top)
        if j != block:
            lo, hi = params.blocks[j]
            block, remaining, glued = j, set(range(0 if j == 0 else lo, hi)), False
        if not all(is_integer(x) for x in v):
            steps.append([j, "glue", frozenset(remaining)])
            glued = True
        else:
            steps.append([j, "diff" if glued else "unit", frozenset(remaining)])
            remaining.discard(top)
    last = {j: i + 1 for i, (j, _, _) in enumerate(steps)}
    return [(j, kind, remaining, last[j]) for j, kind, remaining in steps]


def kz_structure(params, claimed):
    """verify_kz_structure's report on the given claimed basis."""
    k = params.k
    L = glued_prime_lattice(k)
    rep = TheoremReport("glued_prime_%d" % k)

    coord_rows = [lll_coordinates(L, u) for u in claimed]
    rep.verdicts["claimed_is_basis"] = abs(determinant(coord_rows)) == 1

    gso = gram_schmidt(claimed)
    plan = kz_layout(params)
    predicted = []
    for j, kind, remaining, _ in plan:
        p = params.primes[j]
        if kind == "unit":
            predicted.append(Q(1))
        elif kind == "glue":
            predicted.append(Q(p * p - 1, p * p))
        else:
            predicted.append(1 - Q(1, len(remaining)))
    rep.verdicts["gso_norms_match"] = list(gso.norms_sq) == predicted

    ok_steps = True
    ok_ties = True
    tails = projected_tails(claimed, gso)
    for i, ((j, kind, remaining, bend), tail) in enumerate(zip(plan, tails)):
        p = params.primes[j]
        lo, hi = params.blocks[j]
        ok_steps &= predicted[i] <= 1
        if kind == "unit":
            ok_steps &= Q(len(remaining), p * p) >= 1
            ok_ties &= norm_sq(claimed[i]) == 1
            continue
        if kind == "glue":
            bound = min(
                Q(len(remaining) * min(r, p - r) ** 2, p * p) for r in range(1, p)
            )
            ok_steps &= bound == predicted[i] and predicted[i] < 1
            spanned_in_block = (hi - lo + (1 if j == 0 else 0)) - len(remaining)
            extra = spanned_in_block + (0 if 0 in remaining else 1)
            floor = predicted[i] + Q(extra, p * p)
            ok_ties &= norm_sq(claimed[i]) == floor
            ok_ties &= predicted[i] + 1 > floor
            continue
        m = len(remaining)
        rcols = sorted(remaining)
        gens = []
        for proj in tail[: bend - i]:
            ok_steps &= {c for c, x in enumerate(proj) if x} <= remaining
            gens.append(tuple(Q(m) * proj[c] for c in rcols))
        ok_steps &= all(is_integer(x) for g in gens for x in g)
        ha, _ = hnf_with_transform(gens)
        hb, _ = hnf_with_transform(difference_lattice_basis(m))
        ok_steps &= [r for r in ha if any(r)] == [r for r in hb if any(r)]
        min_sq, _w = difference_lattice_min(m)
        ok_steps &= min_sq / (m * m) == predicted[i]
        ok_ties &= norm_sq(claimed[i]) == 1
    rep.verdicts["stepwise_minimality"] = ok_steps
    rep.verdicts["tie_breaks"] = ok_ties

    rep.quantities["kz_max_norm_sq"] = max(norm_sq(u) for u in claimed)
    rep.verdicts["max_is_5_4"] = rep.quantities["kz_max_norm_sq"] == Q(5, 4)

    if k <= 2:
        ok = True
        for tail, nsq in zip(projected_tails(claimed, gso), gso.norms_sq):
            _, sv_sq = shortest_vector(Lattice(tail))
            ok &= sv_sq == nsq
        generic = _glued_kz_basis(k)
        ok &= sorted(norm_sq(u) for u in generic) == sorted(
            norm_sq(u) for u in claimed
        )
        ok &= sorted(gram_schmidt(generic).norms_sq) == sorted(gso.norms_sq)
        rep.verdicts["matches_generic_kz"] = ok
    return rep


@lru_cache(maxsize=None)
def _glued_kz_basis(k):
    """kz_reduce's basis of L_k, which kz_structure compares every claim
    with."""
    return kz_reduce(glued_prime_lattice(k))[0]


def glued_residues(k, w):
    """The residues x_i in [0, p_i) of w's glue coefficients in L_k; w is
    integral iff all of them vanish."""
    params = glued_params(k)
    L = glued_prime_lattice(k)
    w = vector(w)
    if not contains(L, w):
        raise NotInLattice("vector is not in the glued lattice")
    res = []
    for p, (lo, hi) in zip(params.primes, params.blocks):
        t = w[lo] * p  # first block coordinate is s + r/p with s integral
        if not is_integer(t):
            raise NotInLattice("unexpected denominator in block coordinate")
        res.append(int(t) % p)
    return tuple(res)


def prefix_completion(L, prefix):
    """The (primitive) prefix followed by the rows that complete it to a
    basis of L, read off the tail-gcd transform of its coordinates over
    L.basis; raises DependentTuple, or NotPrimitive when the prefix is
    independent but not primitive."""
    prefix = tuple(vector(v) for v in prefix)
    held = _Prefix.empty(L.rank)
    for v in prefix:
        held = held.extended(integer_coordinates(L, v))
    if not held.primitive:
        raise NotPrimitive("prefix is not a primitive tuple")
    return prefix + tuple(row_times_mat(r, L.basis) for r in held.rows)


def _glue_rows(params):
    d = params.dims[-1]
    return [
        tuple(Q(1, p) if (j == 0 or lo <= j < hi) else QZERO for j in range(d))
        for p, (lo, hi) in zip(params.primes, params.blocks)
    ]


def glued_kz_claimed_basis(k):
    """Block by block: block 0's units with its glue vector third, every
    later block's units but the second with its glue vector second."""
    params = glued_params(k)
    d = params.dims[-1]
    out = []
    for j, (glue, (lo, hi)) in enumerate(zip(_glue_rows(params), params.blocks)):
        units = [unit_vector(d, c) for c in range(lo, hi)]
        if j == 0:
            out.extend([units[0], units[1], glue] + units[2:])
        else:
            out.extend([units[0], glue] + units[2:])
    return tuple(out)


def glued_shortest_basis(k):
    """The glue vectors, then the units but e_0 and the last unit of every
    block past the first."""
    params = glued_params(k)
    d = params.dims[-1]
    excluded = {0} | {params.dims[i + 1] - 1 for i in range(1, k)}
    out = _glue_rows(params)
    out.extend(unit_vector(d, j) for j in range(d) if j not in excluded)
    return tuple(out)


def supports(rows):
    return [{c: x for c, x in enumerate(v) if x} for v in rows]


def verify_minkowski_bounds(L, node_budget=DEFAULT_BUDGET):
    """verify_minkowski_bounds's report, from the public greedy basis and
    minima: every norm and bound a rational."""
    if L.rank < 6:
        raise PreconditionViolated("needs rank >= 6")
    mink = _minkowski_reduce(L, node_budget)
    minima = _successive_minima(L, node_budget)
    rep = TheoremReport("rank_%d" % L.rank)
    table = vdw_delta_table(L.rank, True)
    all_delta = True
    for i in range(L.rank):
        v_sq = mink.step_log[i].norm_sq
        lam_sq = minima.minima_sq[i]
        rep.quantities["v_%d_sq" % (i + 1)] = v_sq
        rep.quantities["lambda_%d_sq" % (i + 1)] = lam_sq
        all_delta &= v_sq <= table.values[i] * lam_sq
        if i + 1 in (6, 7):
            quarter = Q(i + 1, 4) * lam_sq
            rep.verdicts["v%d_within_quarter_bound" % (i + 1)] = v_sq <= quarter
            eq = v_sq == quarter
            rep.equalities["equality_at_%d" % (i + 1)] = eq
            if eq:
                rep.verdicts["similar_to_dual_root_%d" % (i + 1)] = (
                    similar_to_dual_root(mink.basis[: i + 1], node_budget)
                )
    rep.verdicts["improved_delta_bounds"] = all_delta
    return rep
