"""The Lattice abstraction and the operations the reductions build on.

A lattice is held as an ordered basis of exact rational row vectors.  It
caches its Gram inverse, its LLL basis and that basis's GSO, and the largest
short-vector pool enumerated from it; every result depends on the basis
alone, so Lattice values are safe to share.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from . import linalg
from .errors import (
    DependentTuple,
    DimensionMismatch,
    NotFullRank,
    NotInLattice,
    NotInSpan,
    NotPrimitive,
    PreconditionViolated,
    WrongRank,
)
from .linalg import (
    dot,
    gram_matrix,
    gram_schmidt,
    hnf,
    int_matrix_inverse,
    matrix,
    norm_sq,
    row_times_mat,
    snf_divisors,
    transpose,
    vector,
    vsub,
    vscale,
)
from .rationals import Q, is_integer, qround


@dataclass(frozen=True)
class Lattice:
    """Lattice spanned over Z by linearly independent basis rows."""

    basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis", matrix(self.basis))
        if linalg.rank(self.basis) != len(self.basis):
            raise DependentTuple("basis rows are linearly dependent")

    @property
    def rank(self):
        return len(self.basis)

    @property
    def ambient_dim(self):
        return len(self.basis[0])

    # (bound, vectors, coordinates) of the largest enumerate_up_to so far,
    # in its order; coordinates[i] is the integer coefficient tuple of
    # vectors[i] over _lll_basis
    _pool = (Q(0), (), ())

    @cached_property
    def _gram_inverse(self):
        return linalg.inverse(gram_matrix(self.basis))

    @cached_property
    def _lll_basis(self):
        from .enumeration import lll_rows

        return lll_rows(self.basis)

    @cached_property
    def _lll_gso(self):
        return gram_schmidt(self._lll_basis)


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
    """The unique x with x . basis = v; raises NotInSpan."""
    v = vector(v)
    if len(v) != L.ambient_dim:
        raise DimensionMismatch("vector has wrong ambient dimension")
    rhs = tuple(dot(v, r) for r in L.basis)
    x = row_times_mat(rhs, L._gram_inverse)
    if row_times_mat(x, L.basis) != v:
        raise NotInSpan("vector is outside the real span of the lattice")
    return x


def contains(L: Lattice, v) -> bool:
    """True iff v is an integer combination of the basis rows."""
    v = vector(v)
    if len(v) != L.ambient_dim:
        raise DimensionMismatch("vector has wrong ambient dimension")
    try:
        x = coordinates(L, v)
    except NotInSpan:
        return False
    return all(is_integer(c) for c in x)


def integer_coordinates(L: Lattice, v):
    x = coordinates(L, v)
    if not all(is_integer(c) for c in x):
        raise NotInLattice("vector is not in the lattice")
    return tuple(int(c) for c in x)


def covolume_squared(L: Lattice):
    """det of the basis Gram matrix; basis-independent."""
    return linalg.determinant(gram_matrix(L.basis))


def dual(L: Lattice) -> Lattice:
    """Dual of a full-rank lattice: inverse-transpose basis."""
    if L.rank != L.ambient_dim:
        raise NotFullRank("dual requires a full-rank lattice")
    return Lattice(transpose(linalg.inverse(L.basis)))


def is_primitive_tuple(L: Lattice, vectors) -> PrimitivityCertificate:
    """Certify whether the tuple extends to a basis of L.

    The verdict is read off the elementary divisors of the integer coordinate
    matrix: the tuple is primitive iff they are all 1.
    """
    return _certify_coordinates([integer_coordinates(L, v) for v in vectors])


def _certify_coordinates(coords) -> PrimitivityCertificate:
    if linalg.rank(matrix(coords)) != len(coords):
        raise DependentTuple("tuple is linearly dependent")
    div = snf_divisors(coords)
    return PrimitivityCertificate(all(d == 1 for d in div), tuple(div))


def complete_to_basis(L: Lattice, prefix):
    """A basis of L whose first len(prefix) rows Z-span the same sublattice
    as the (primitive) prefix."""
    return _complete_coordinates(L, [integer_coordinates(L, v) for v in prefix])


def _complete_coordinates(L: Lattice, coords):
    """complete_to_basis for a prefix given by its integer coordinates."""
    if not _certify_coordinates(coords).verdict:
        raise NotPrimitive("prefix is not a primitive tuple")
    # column-style reduction: C . U' = [T | 0] with T unimodular k x k
    _, u = hnf(transpose(coords))
    ut = transpose(u)
    v = int_matrix_inverse(ut)  # rows: completed coordinate basis
    completed = [row_times_mat([Q(c) for c in row], L.basis) for row in v]
    return tuple(completed)


def project_orthogonal_with_lift(L: Lattice, prefix):
    """Projection lattice onto span(prefix)^perp plus lift rows in L.

    Returns (P, lifts): P.basis[i] is the orthogonal projection of lifts[i],
    and the lifts complete the prefix to a basis of L.
    """
    prefix = [vector(p) for p in prefix]
    return _project_with_lift(L, prefix, [integer_coordinates(L, v) for v in prefix])


def _project_with_lift(L: Lattice, prefix, coords):
    """project_orthogonal_with_lift for a prefix with known coordinates."""
    completed = _complete_coordinates(L, coords)
    gso = gram_schmidt(prefix)
    lifts = completed[len(prefix) :]
    return Lattice([_orthogonal_part(w, gso) for w in lifts]), lifts


def _orthogonal_part(w, gso):
    """w minus its components along the GSO vectors of gso."""
    for bs, ns in zip(gso.bstar, gso.norms_sq):
        c = dot(w, bs) / ns
        if c:
            w = vsub(w, vscale(c, bs))
    return w


def project_orthogonal(L: Lattice, prefix) -> Lattice:
    proj, _ = project_orthogonal_with_lift(L, prefix)
    return proj


def linear_dependence(vectors) -> DependenceRelation:
    """Coprime integer coefficients a with sum a_i v_i = 0, unique up to sign.

    Requires the n vectors to span an (n-1)-dimensional space; the sign is
    normalized so the first nonzero coefficient is positive.
    """
    m = matrix(vectors)
    ker = linalg.nullspace(transpose(m))
    if len(ker) != 1:
        raise WrongRank(
            "dependence space has dimension %d, expected 1" % len(ker)
        )
    x = ker[0]
    den = 1
    for e in x:
        den = den * int(e.denominator) // gcd(den, int(e.denominator))
    ints = [int(e * den) for e in x]
    g = linalg.content(ints)
    ints = [a // g for a in ints]
    first = next(a for a in ints if a)
    if first < 0:
        ints = [-a for a in ints]
    return DependenceRelation(tuple(ints))


def primitive_completion(L: Lattice, sub, y0, lambda_next_sq):
    """Constructive completion step: a vector y with (sub, y) primitive and
    squared norm within the size-reduction bound.

    Mirrors the existence proof: keep y0 when it already completes
    primitively; otherwise lift a shortest nonzero vector of the projection
    lattice and size-reduce it against the sub tuple so every Gram-Schmidt
    coordinate has magnitude at most half the corresponding pivot.
    """
    from .enumeration import shortest_vector

    sub = [vector(v) for v in sub]
    y0 = vector(y0)
    coords = [integer_coordinates(L, v) for v in sub]
    if not _certify_coordinates(coords).verdict:
        raise PreconditionViolated("sub is not a primitive tuple")
    try:
        y0_coords = integer_coordinates(L, y0)
    except (NotInSpan, NotInLattice):
        raise PreconditionViolated("y0 is not in the lattice") from None
    if norm_sq(y0) > lambda_next_sq:
        raise PreconditionViolated("y0 is longer than the given minimum")
    gso = gram_schmidt(sub)
    y0_perp = _orthogonal_part(y0, gso)
    if not norm_sq(y0_perp):
        raise PreconditionViolated("y0 lies in the span of sub")

    try:
        already = _certify_coordinates(coords + [y0_coords]).verdict
    except DependentTuple:
        already = False
    if already:
        return y0

    proj, lifts = _project_with_lift(L, sub, coords)
    p, p_nsq = shortest_vector(proj)
    # non-primitivity of the projection of y0 forces a factor-2 shrink
    if 4 * p_nsq > norm_sq(y0_perp):
        raise PreconditionViolated(
            "projection shrink factor violated; inputs inconsistent"
        )
    x = coordinates(proj, p)
    y = row_times_mat(x, lifts)
    # size-reduce coordinate by coordinate, last pivot first
    for i in range(len(sub) - 1, -1, -1):
        t = dot(y, gso.bstar[i]) / gso.norms_sq[i]
        r = qround(t)
        if r:
            y = vsub(y, vscale(Q(r), sub[i]))
    bound = max(
        Q(lambda_next_sq),
        (sum(gso.norms_sq, Q(0)) + lambda_next_sq) / 4,
    )
    if norm_sq(y) > bound:
        raise PreconditionViolated("completion exceeded the size bound")
    if not _certify_coordinates(coords + [integer_coordinates(L, y)]).verdict:
        raise PreconditionViolated("completion failed to be primitive")
    return y


def lattice_from_generators(generators) -> Lattice:
    """Lattice generated over Z by arbitrary rational vectors (HNF basis)."""
    gens = matrix(generators)
    den = 1
    for row in gens:
        for e in row:
            d = int(e.denominator)
            den = den * d // gcd(den, d)
    scaled = [[int(e * den) for e in row] for row in gens]
    h, _ = hnf(scaled)
    rows = [r for r in h if any(r)]
    basis = [tuple(Q(e, den) for e in r) for r in rows]
    return Lattice(basis)


def sublattice(vectors) -> Lattice:
    """Lattice with the given independent vectors as its basis."""
    return Lattice(matrix(vectors))
