"""The Lattice abstraction and the operations the reductions build on.

A lattice is held as an ordered basis of exact rational row vectors.  It
caches the LLL transform and the integral Gram-Schmidt data that the
integral LLL ends with (IntGSO), both in integers, and the largest
short-vector pool enumerated from it; every result depends on the basis
alone, so Lattice values are safe to share.  Coordinates, covolume and the
enumeration's integer walk all read that one IntGSO, and a completion
carries it to a basis that starts with a given prefix
(enumeration._put); projections past the prefix are the same integer
back-substitution as coordinates: there is no rational Gram-Schmidt
anywhere.  The primitive completion decides dependence, membership and
primitivity on the coordinates over the one basis it carries.
The dual basis is that same back-substitution on unit vectors.
Independence of a basis is read off the pivot count of linalg's gcd
echelon, linear dependences off one such echelon of the vectors with the
identity appended, taken over the vectors' own columns, with the HNF of
their lattice back-reduced from its pivot rows, and primitivity
certificates off Smith divisors, which linalg reads off HNFs too.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, pairwise
from math import gcd
from operator import mul

from . import linalg
from .errors import (
    DependentRows,
    DependentTuple,
    DimensionMismatch,
    NotFullRank,
    NotInLattice,
    NotInSpan,
    PreconditionViolated,
    WrongRank,
)
from .linalg import (
    _scaled,
    hnf,
    matrix,
    norm_sq,
    snf_divisors,
    transpose,
    unit_vector,
    vector,
)
from .rationals import Q, QZERO, qden, qexact, qnum


class IntGSO(namedtuple("IntGSO", "b d lam den")):
    """Integral Gram-Schmidt data of rational rows (Cohen, Alg. 2.6.7):
    b the rows scaled by a common denominator den, d[i] the Gram
    determinant of b[:i] (d[0] = 1), and lam[i][j] = d[j + 1] mu[i][j]
    for j < i (zero where lam[i] runs past i), all integers in nested
    tuples.  The squared norm |b*_i|^2 of the rational rows' GSO is
    d[i + 1] / (d[i] den^2)."""

    __slots__ = ()

    @classmethod
    def of(cls, w, den):
        """The IntGSO of the independent rows w / den, for integer rows w
        (linalg._scaled_rows gives both for rational rows); raises
        DependentRows."""
        gso = cls((), (1,), (), den)
        for r in w:
            gso = gso.appended(tuple(r))
        return gso

    def extended(self, v):
        """The IntGSO with the row v appended; den v must be integral."""
        den = self.den
        return self.appended(tuple(qnum(e) * (den // qden(e)) for e in v))

    def appended(self, w, head=()):
        """The IntGSO with the integer row w, already scaled by den,
        appended: one _lam_row, which starts past the entries head, when
        given.  Raises DependentRows when w is in the rows' span."""
        b, d, lam, den = self
        row = _lam_row(b, d, lam, w, head)
        if not row[-1]:
            raise DependentRows("row %d depends on the previous rows" % len(b))
        return IntGSO(b + (w,), d + (row[-1],), lam + (tuple(row[:-1]),), den)


def _lam_row(b, d, lam, w, head=()):
    """The recurrence of the integral GSO for an integer vector w after
    the integer rows b, with exact divisions: entry j < len(b) is
    d[j + 1] mu_wj, and the last entry the Gram determinant of [b; w],
    zero iff w lies in the span of b.  d and lam need to be set for b.
    head, when given, holds the first entries, known already; the
    recurrence runs from the entry past it."""
    n = len(b)
    out = list(head)
    for j in range(len(head), n + 1):
        u = sum(map(mul, w, b[j] if j < n else w))
        row = lam[j] if j < n else out
        for t in range(j):
            u = (d[t + 1] * u - out[t] * row[t]) // d[t]
        out.append(u)
    return out


def _back_substitute(gso, lam_w):
    """dz with sum_j dz_j b_j = d_n times the part of W in the span of the
    rows b, from lam_W, W's _lam_row past its last entry.  The dz_j are
    integers (Cramer's rule on the Gram system of b) and back-substitute
    by exact divisions, dz_j = (lam_Wj d_n - sum_{i>j} lam_ij dz_i) /
    d_{j+1}."""
    _, d, lam, _ = gso
    n = len(lam_w)
    dz = [0] * n
    for j in range(n - 1, -1, -1):
        acc = lam_w[j] * d[n]
        for i in range(j + 1, n):
            if dz[i] and lam[i][j]:
                acc -= lam[i][j] * dz[i]
        dz[j] = acc // d[j + 1]
    return dz


def _perp(gso, w):
    """d_n den w*, w* the part of w / den orthogonal to the rows of the
    IntGSO gso, for an integer row w over gso's den: _back_substitute
    gives the dz_j = d_n z_j of w's part sum_j z_j b_j in the span of the
    rows, so d_n den w* = d_n w - sum_j dz_j b_j, in integers.  It has
    the sign and lexicographic order of w*, d_n den being positive."""
    b, d, lam, _ = gso
    dz = _back_substitute(gso, _lam_row(b, d, lam, w)[:-1])
    cols = zip(*b) if b else [()] * len(w)
    return tuple(d[-1] * x - sum(map(mul, dz, col)) for x, col in zip(w, cols))


@dataclass(frozen=True)
class Lattice:
    """Lattice spanned over Z by linearly independent basis rows."""

    basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis", matrix(self.basis))
        if not self.basis:
            raise DimensionMismatch("a lattice needs at least one basis row")
        # rows whose leading columns strictly increase (an HNF's) are
        # independent by their shape; others take the echelon
        leads = (next((c for c, x in enumerate(r) if x), -1) for r in self.basis)
        echelon = all(a < b for a, b in pairwise(chain((-1,), leads)))
        if not echelon and linalg.rank(self.basis) != len(self.basis):
            raise DependentTuple("basis rows are linearly dependent")

    @property
    def rank(self):
        return len(self.basis)

    @property
    def ambient_dim(self):
        return len(self.basis[0])

    # the largest short-vector pool enumerated so far, in integers
    # (enumeration._Pool): M |v|^2, den v and the integer coordinates over
    # the LLL basis, the rows of _lll[1], of each vector, with the fixed M
    # and den of that IntGSO; None until the first enumeration
    _pool = None

    @cached_property
    def _lll(self):
        """(T, IntGSO of the LLL basis), all integers: T . basis = LLL
        basis = gso.b / gso.den and T unimodular."""
        from .enumeration import lll_rows

        return lll_rows(*linalg._scaled_rows(self.basis))


@dataclass(frozen=True)
class DependenceRelation:
    """Coprime integer coefficients of the unique dependence, first one > 0."""

    coefficients: tuple


@dataclass(frozen=True)
class PrimitivityCertificate:
    verdict: bool
    divisors: tuple

    def __bool__(self):
        return self.verdict


def coordinates(L: Lattice, v):
    """The unique x with x . basis = v; raises NotInSpan.

    Solved in integers on the LLL basis's IntGSO (b, d, lam, den): W = s v
    is integral, lam_W = _target_lam(gso, v), and _back_substitute gives
    the integers dz_j = d_n z_j of W = sum_j z_j b_j.  Then
    x = (dz . T) den / (d_n s), one division per entry."""
    trans, gso = L._lll
    lam_w, s = _target_lam(gso, v)
    dz = _back_substitute(gso, lam_w)
    scale = gso.d[-1] * s
    return tuple(
        Q(gso.den * sum(x * r[c] for x, r in zip(dz, trans) if x), scale)
        for c in range(L.rank)
    )


def _target_lam(gso, v):
    """(lam_W, s): s the lcm of v's denominators, W = s v, and lam_W[k] =
    d_{k+1} mu_Wk the recurrence row of W against the rows b of the
    IntGSO gso, so that v = sum_k lam_W[k] den / (d_{k+1} s) b*_k over
    the GSO of the rational rows; raises NotInSpan when the Gram
    determinant of [b; W] is nonzero."""
    v = vector(v)
    b, d, lam, _ = gso
    if len(v) != len(b[0]):
        raise DimensionMismatch("vector has wrong ambient dimension")
    w, s = _scaled(v)
    row = _lam_row(b, d, lam, w)
    if row[-1]:
        raise NotInSpan("vector is outside the real span of the lattice")
    return row[:-1], s


def contains(L: Lattice, v) -> bool:
    """True iff v is an integer combination of the basis rows: one _solve
    on the LLL basis's IntGSO."""
    try:
        _solve(L._lll[1], v)
    except (NotInSpan, NotInLattice):
        return False
    return True


def _solve(gso, v):
    """The integers x with sum_k x_k b_k = den v over the rows b of the
    IntGSO gso: _back_substitute gives dz = d_n x s / den for W = s v, as
    in coordinates.  Raises NotInSpan, or NotInLattice when an x_k is not
    an integer."""
    lam_w, s = _target_lam(gso, v)
    scale = gso.d[-1] * s
    x = []
    for dz in _back_substitute(gso, lam_w):
        q, r = divmod(dz * gso.den, scale)
        if r:
            raise NotInLattice("vector is not in the lattice")
        x.append(q)
    return tuple(x)


def integer_coordinates(L: Lattice, v):
    """The integer x with x . basis = v: _solve on the LLL basis, mapped
    back through T; raises NotInSpan or NotInLattice."""
    trans, gso = L._lll
    z = _solve(gso, v)
    return tuple(sum(a * r[c] for a, r in zip(z, trans) if a) for c in range(L.rank))


def covolume_squared(L: Lattice):
    """det of the basis Gram matrix; basis-independent, so it is read off
    the LLL basis's IntGSO as d_n / den^(2n)."""
    _, d, _, den = L._lll[1]
    return Q(d[-1], den ** (2 * L.rank))


def dual(L: Lattice) -> Lattice:
    """Dual of a full-rank lattice: the inverse-transpose basis.  Row c of
    B^-1 is the x with x . B = e_c, coordinates(L, e_c), so no inverse is
    taken."""
    n = L.rank
    if n != L.ambient_dim:
        raise NotFullRank("dual requires a full-rank lattice")
    return Lattice(transpose([coordinates(L, unit_vector(n, c)) for c in range(n)]))


def is_primitive_tuple(L: Lattice, vectors) -> PrimitivityCertificate:
    """Certify whether the tuple extends to a basis of L.

    The verdict is read off the elementary divisors of the integer coordinate
    matrix: the tuple is primitive iff they are all 1.  They decide
    dependence too: the tuple is dependent iff it is longer than the rank
    or a divisor is 0.
    """
    coords = [integer_coordinates(L, v) for v in vectors]
    div = snf_divisors(coords)
    if len(coords) > L.rank or 0 in div:
        raise DependentTuple("tuple is linearly dependent")
    return PrimitivityCertificate(all(d == 1 for d in div), tuple(div))


class _Prefix(namedtuple("_Prefix", "cols rows primitive")):
    """A prefix of lattice vectors, held by a unimodular column transform M
    that maps the prefix's integer coordinates C to C . M = [T | 0], T
    lower triangular: cols are the columns of M past the prefix, rows the
    matching rows of M^-1.  The coordinates may be over any basis of the
    lattice.

    prefix + v is primitive iff the entries of c_v . M past the prefix
    have gcd 1: T's rows clear the head of c_v . M, which leaves one new
    row, (0, tail), of Smith divisor gcd(tail).  So the prefix is primitive
    iff T's diagonal is +-1, and then [C; rows] = diag(T, 1) . M^-1 is
    unimodular: rows are the coordinates of a completion to a basis."""

    __slots__ = ()

    @classmethod
    def empty(cls, n):
        eye = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
        return cls(eye, eye, True)

    def _tail(self, c):
        """The entries of c . M past the prefix: all zero iff c lies in
        the prefix's span (C . M = [T | 0] with T of full rank), gcd 1 iff
        the prefix extends by c."""
        return [sum(map(mul, c, col)) for col in self.cols]

    def extends(self, c):
        """The tail of c when the prefix extends by c, else None."""
        tail = self._tail(c)
        return tail if gcd(*tail) == 1 else None

    def independent(self, c):
        """The tail of c when c lies outside the prefix's span, else None."""
        tail = self._tail(c)
        return tail if any(tail) else None

    def extended(self, c, tail=None):
        """The prefix with c appended; raises DependentTuple when c is in
        its span.  tail, when given, is the tail that extends or
        independent returned for c.  Euclid's column steps col_i -= f
        col_p (on M^-1 the row step row_p += f row_i) turn the tail of
        c . M into the single entry +-gcd(tail) and leave [T | 0] as it
        is; column p joins T."""
        tail = self._tail(c) if tail is None else list(tail)
        cols, rows = list(self.cols), list(self.rows)
        while True:
            live = [i for i, t in enumerate(tail) if t]
            if not live:
                raise DependentTuple("tuple is linearly dependent")
            p = min(live, key=lambda i: abs(tail[i]))
            if len(live) == 1:
                break
            for i in live:
                if i != p:
                    f = tail[i] // tail[p]
                    tail[i] -= f * tail[p]
                    cols[i] = tuple(x - f * y for x, y in zip(cols[i], cols[p]))
                    rows[p] = tuple(x + f * y for x, y in zip(rows[p], rows[i]))
        return _Prefix(
            tuple(cols[:p] + cols[p + 1 :]),
            tuple(rows[:p] + rows[p + 1 :]),
            self.primitive and abs(tail[p]) == 1,
        )


def linear_dependence(vectors) -> DependenceRelation:
    """Coprime integer coefficients a with sum a_i v_i = 0, unique up to sign.

    Requires the n vectors to span an (n-1)-dimensional space; the sign is
    normalized so the first nonzero coefficient is positive.
    """
    return _dependence(linalg._scaled_rows(vectors)[0])[0]


def _dependence(w):
    """(relation, H) for the integer rows w_0..w_n, read off one gcd
    echelon (linalg._echelon) of [w | I] over w's columns alone.  The
    echelon is a unimodular transform U of [w | I], so the right part of
    its one row with a zero left part is a row of U, a primitive vector
    with U w zero there: the linear_dependence.  Its pivot rows' left
    parts are echelon already, and their linalg.hnf, which has only to
    reduce above the pivots, is H, the HNF basis of the lattice the w_i
    generate, a list of tuples.  The identity block is never
    back-reduced.  Raises WrongRank."""
    nr = len(w)
    nc = len(w[0]) if w else 0
    # vectors of dimension 0 have no relation to report
    if not nc:
        raise WrongRank("dependence space has dimension 0, expected 1")
    rows = [[*r, *[0] * nr] for r in w]
    for i, row in enumerate(rows):
        row[nc + i] = 1
    rk = len(linalg._echelon(rows, nc))
    free = nr - rk
    if free != 1:
        raise WrongRank("dependence space has dimension %d, expected 1" % free)
    ints = rows[-1][nc:]
    g = gcd(*ints)
    if next(a for a in ints if a) < 0:
        g = -g
    basis = list(linalg.hnf([row[:nc] for row in rows[:rk]]))
    return DependenceRelation(tuple(a // g for a in ints)), basis


def primitive_completion(L: Lattice, sub, y0, lambda_next_sq):
    """Constructive completion step: a vector y with (sub, y) primitive and
    squared norm within the size-reduction bound.

    Mirrors the existence proof: keep y0 when it already completes
    primitively; otherwise lift a shortest nonzero vector of the projection
    lattice and size-reduce it against the sub tuple so every Gram-Schmidt
    coordinate has magnitude at most half the corresponding pivot.

    Two facts of the proof hold by construction and are not rechecked.
    A y0 that is kept out has a tail (its coordinates past sub) of gcd
    g >= 2, so its projection past sub is g times a nonzero vector of the
    projection lattice, of squared norm at least 4 rho for rho that
    lattice's minimum.  And the completion is primitive: the lift's tail
    is a shortest projected vector's coefficients, of gcd 1 (dividing by
    a larger gcd would give a shorter one), and size reduction against
    sub changes only the coordinates before the tail.  The size bound is
    the lemma's, and it is checked.
    """
    from .enumeration import (
        DEFAULT_BUDGET,
        _Budget,
        _lll,
        _projected_shortest,
        _put,
        _table,
    )

    sub = [vector(v) for v in sub]
    y0 = vector(y0)
    lambda_next_sq = qexact(lambda_next_sq)
    # a basis of L whose first rows span sub, carried from L's LLL basis:
    # each sub vector's coordinates past the rows so far, divided by their
    # gcd, are put in its place.  The rows stay a basis of L, so a later
    # vector is solved as over L.basis, and sub is primitive iff every gcd
    # is 1; then the rows are [sub; completion]
    gso = L._lll[1]
    primitive = True
    for t, v in enumerate(sub):
        x = _solve(gso, v)
        g = gcd(*x[t:])
        if not g:
            raise DependentTuple("tuple is linearly dependent")
        primitive &= g == 1
        gso = _put(gso, t, x[:t] + tuple(a // g for a in x[t:]))
    if not primitive:
        raise PreconditionViolated("sub is not a primitive tuple")
    # y0 lies in the span of sub iff its coordinates past sub are zero,
    # and extends sub iff their gcd is 1
    i = len(sub)
    try:
        tail = _solve(gso, y0)[i:]
    except (NotInSpan, NotInLattice):
        raise PreconditionViolated("y0 is not in the lattice") from None
    if norm_sq(y0) > lambda_next_sq:
        raise PreconditionViolated("y0 is longer than the given minimum")
    if not any(tail):
        raise PreconditionViolated("y0 lies in the span of sub")
    if gcd(*tail) == 1:
        return y0

    # a shortest projection of L past sub, by one walk of the levels past
    # sub: the lexicographically first, sign normalized, as
    # enumeration.shortest_vector would pick on the projection lattice
    b, d, lam, den = gso
    pre = IntGSO(b[:i], d[: i + 1], lam[:i], den)
    tops, _ = _projected_shortest(gso, _table(gso), i, _Budget(DEFAULT_BUDGET))

    def lift(w):
        # (p, w): the walk's lift w = sum_k x_k b_k, whose x is a top past
        # sub, and p = d_i den times its projection past sub, both signed
        # so that p is sign normalized
        p = _perp(pre, w)
        if next(a for a in p if a) > 0:
            return p, w
        return tuple(-a for a in p), tuple(-a for a in w)

    _, w = min(lift(u) for _, u in tops)
    # size-reduce that lift against sub as the integral LLL does row i,
    # rounding mu halves up: it takes no Lovasz test at its first row,
    # and there is no row past i
    y = tuple(Q(a, den) for a in _lll(pre.appended(w), i).b[i])
    pivots = sum((Q(d[j + 1], d[j] * den * den) for j in range(i)), QZERO)
    bound = max(lambda_next_sq, (pivots + lambda_next_sq) / 4)
    if norm_sq(y) > bound:
        raise PreconditionViolated("completion exceeded the size bound")
    return y


def lattice_from_generators(generators) -> Lattice:
    """Lattice generated over Z by arbitrary rational vectors (HNF basis)."""
    w, den = linalg._scaled_rows(generators)
    h = hnf(w)
    return Lattice([tuple(Q(e, den) for e in r) for r in h if any(r)])
