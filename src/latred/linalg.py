"""Exact rational vectors, matrices, and the integer normal forms.

Vectors are tuples of rationals and matrices are tuples of row vectors.
All routines here are pure and exact; there is no floating point on any
path.  Integer matrices (HNF/SNF) are plain nested tuples of Python ints.
Gram-Schmidt is not here: latred's one Gram-Schmidt is the integral
recurrence of latred.lattice (IntGSO).
"""

from math import gcd

from .errors import DimensionMismatch, NotIntegral, Singular
from .rationals import Q, QONE, QZERO, qexact


# ---------------------------------------------------------------------------
# vectors


def vector(entries):
    return tuple(qexact(e) for e in entries)


def matrix(rows):
    rows = tuple(tuple(qexact(e) for e in r) for r in rows)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatch("ragged matrix")
    return rows


def zero_vector(n):
    return (QZERO,) * n


def unit_vector(n, i):
    return tuple(QONE if j == i else QZERO for j in range(n))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


def dot(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("dot: %d vs %d" % (len(u), len(v)))
    s = QZERO
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s


def norm_sq(u):
    s = QZERO
    for a in u:
        if a:
            s += a * a
    return s


def normalize_sign(u):
    """Flip so the first nonzero entry is positive; canonical +/- pair rep."""
    for a in u:
        if a:
            return tuple(-b for b in u) if a < 0 else u
    return u


# ---------------------------------------------------------------------------
# matrices


def transpose(m):
    return tuple(zip(*m)) if m else ()


def row_times_mat(x, m):
    """Row vector times matrix: sum_i x_i * m[i]."""
    out = list(zero_vector(len(m[0])))
    for xi, row in zip(x, m):
        if xi:
            for j, e in enumerate(row):
                if e:
                    out[j] += xi * e
    return tuple(out)


def gram_matrix(basis):
    """Matrix of pairwise inner products of the rows; symmetric."""
    n = len(basis)
    g = [[QZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = dot(basis[i], basis[j])
            g[i][j] = v
            g[j][i] = v
    return tuple(tuple(r) for r in g)


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
    """Exact determinant by fraction-free-ish Gaussian elimination."""
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
    """Exact inverse; raises Singular when det = 0."""
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


# ---------------------------------------------------------------------------
# integer normal forms


def _int_rows(m):
    rows = []
    for r in m:
        row = []
        for e in r:
            ie = int(e)
            if ie != e:
                raise NotIntegral("integer matrix expected")
            row.append(ie)
        rows.append(row)
    return rows


def hnf(m):
    """Row-style Hermite normal form.

    Returns (H, U) with H = U . m, U unimodular (det +-1).  H is in row
    echelon form with positive pivots and entries above each pivot reduced
    into [0, pivot).  Zero rows, if any, are at the bottom.
    """
    rows = _int_rows(m)
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    r = 0
    for c in range(nc):
        # gcd-eliminate column c below row r
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
    h = tuple(tuple(row) for row in rows)
    return h, tuple(tuple(row) for row in u)


def snf_divisors(m):
    """Elementary divisors d_1 | d_2 | ... of an integer matrix.

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


def content(ints):
    g = 0
    for a in ints:
        g = gcd(g, int(a))
    return g
