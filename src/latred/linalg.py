"""Exact rational vectors, matrices, and the integer normal forms.

Vectors are tuples of rationals and matrices are tuples of row vectors.
All routines here are pure and exact; there is no floating point on any
path.  Integer matrices (HNF/SNF) are plain nested tuples of Python ints.
A rational matrix is eliminated one way only: its rows are scaled to
integers (_scaled_rows) and go through the gcd echelon below the pivots
(_echelon).  Rank is the echelon's pivot count.  An HNF adds the
reductions above the pivots (_back_reduce), each row step starting at
its column, and the Smith divisors are read off row HNFs of a matrix
and its transpose, in turn.  lattice.linear_dependence runs the echelon
alone on the integer rows with the identity appended, over the rows'
own columns, and back-reduces only the pivot rows' left parts.  There
is no inverse: lattice.dual reads B^-1 off coordinates.
Gram-Schmidt is not here: latred's one Gram-Schmidt is the integral
recurrence of latred.lattice (IntGSO), which also gives every Gram
determinant latred needs, so no determinant is taken here.
"""

from math import gcd, lcm

from .errors import DimensionMismatch, NotIntegral
from .rationals import QONE, QZERO, qden, qexact, qnum


# ---------------------------------------------------------------------------
# vectors


def vector(entries):
    return tuple(qexact(e) for e in entries)


def matrix(rows):
    rows = tuple(tuple(qexact(e) for e in r) for r in rows)
    _check_rectangular(rows)
    return rows


def _check_rectangular(rows):
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatch("ragged matrix")


def unit_vector(n, i):
    return tuple(QONE if j == i else QZERO for j in range(n))


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


# ---------------------------------------------------------------------------
# matrices


def transpose(m):
    return tuple(zip(*m)) if m else ()


def row_times_mat(x, m):
    """Row vector times matrix: sum_i x_i * m[i]."""
    out = [QZERO] * len(m[0])
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


def _scaled(v):
    """(W, s): s the lcm of v's denominators and W = s v, in integers."""
    dens = [qden(e) for e in v]
    s = lcm(*dens)
    return [qnum(e) * (s // q) for e, q in zip(v, dens)], s


def _scaled_rows(m):
    """(W, s): s the lcm of all of m's denominators and W = s m, in
    integers.  m is checked as matrix checks it, but an int entry is
    read as it is, with the numerator and denominator read here, so an
    integer matrix makes no rational; any other entry is read by qexact,
    which refuses floats, and a ragged m raises DimensionMismatch."""
    m = [[e if type(e) is int else qexact(e) for e in r] for r in m]
    _check_rectangular(m)
    s = lcm(*[qden(e) for r in m for e in r])
    if s == 1:
        return [[qnum(e) for e in r] for r in m], 1
    return [[qnum(e) * (s // qden(e)) for e in r] for r in m], s


# ---------------------------------------------------------------------------
# integer normal forms


def _int_rows(m):
    """m's rows as lists of ints.  An int is taken as it is; any other
    entry is read by qexact, which refuses floats, and must then be an
    integer."""
    return [[e if type(e) is int else _int(e) for e in r] for r in m]


def _int(e):
    q = qexact(e)
    if qden(q) != 1:
        raise NotIntegral("integer matrix expected")
    return qnum(q)


def _echelon(rows, ncols):
    """Gcd elimination below the pivots of the integer rows (lists,
    changed in place) over their first ncols columns.  A column's pivot is
    its smallest nonzero entry at or below the pivots so far; the rows
    under it are reduced by floor quotients until it is the only nonzero
    entry left, and it is made positive.  Returns the pivot columns, pivot
    k in row k; the rows past the pivots are zero in the first ncols
    columns.  The rows from the current pivot row down are zero before
    the current column, so a row step touches only the pivot row's
    nonzero entries from that column on."""
    nr = len(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        while True:
            nz = [i for i in range(r, nr) if rows[i][c]]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(rows[i][c]))
            if piv != r:
                rows[r], rows[piv] = rows[piv], rows[r]
            top = rows[r]
            live = [(j, top[j]) for j in range(c, len(top)) if top[j]]
            done = True
            for i in range(r + 1, nr):
                row = rows[i]
                if row[c]:
                    f = row[c] // top[c]
                    for j, x in live:
                        row[j] -= f * x
                    if row[c]:
                        done = False
            if done:
                break
        top = rows[r]
        if top[c]:
            if top[c] < 0:
                top[c:] = [-a for a in top[c:]]
            pivots.append(c)
    return pivots


def _back_reduce(rows, pivots):
    """Reduce the entries above each pivot of _echelon's rows into
    [0, pivot), pivots taken left to right so that no step undoes an
    earlier one; a step touches only the pivot row's nonzero entries,
    which start at the pivot column."""
    for k, c in enumerate(pivots):
        top = rows[k]
        live = [(j, top[j]) for j in range(c, len(top)) if top[j]]
        for i in range(k):
            row = rows[i]
            f = row[c] // top[c]
            if f:
                for j, x in live:
                    row[j] -= f * x


def hnf(m):
    """Row-style Hermite normal form H of an integer matrix: the rows of
    H span the same lattice as m's, H is in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot),
    and zero rows, if any, are at the bottom.  A float is refused with
    PreconditionViolated, a rational that is no integer with NotIntegral."""
    rows = _int_rows(m)
    _back_reduce(rows, _echelon(rows, len(rows[0]) if rows else 0))
    return tuple(tuple(row) for row in rows)


def rank(m):
    """The number of pivots of the gcd echelon (_echelon) of m's rows
    scaled to integers.  A ragged m is refused with DimensionMismatch, a
    float with PreconditionViolated."""
    rows, _ = _scaled_rows(m)
    return len(_echelon(rows, len(rows[0]) if rows else 0))


def snf_divisors(m):
    """Elementary divisors d_1 | d_2 | ... of an integer matrix.

    Returns min(rows, cols) nonnegative integers; trailing zeros indicate
    rank deficiency.  Row HNFs of the matrix and of its transpose, in
    turn, reach a diagonal matrix (Kannan and Bachem): each pair of
    passes leaves the top-left pivot no larger, and once it is unchanged
    its row and column are clear.  Replacing diagonal pairs by their gcd
    and lcm then gives the divisibility chain, zeros last.
    """
    a = hnf(m)
    k = min(len(a), len(a[0]) if a else 0)
    while any(x for i, r in enumerate(a) for j, x in enumerate(r) if i != j):
        a = hnf(transpose(a))
    divisors = [a[i][i] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            x, y = divisors[i], divisors[j]
            divisors[i], divisors[j] = gcd(x, y), lcm(x, y)
    return divisors
