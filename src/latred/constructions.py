"""Generators for every lattice family the toolkit studies.

Covers Z^n, the checkerboard lattice D_n and its dual, the glued-prime
family built from blocks of size p_i^2 sharing the first coordinate, the
incidence lattices of projective planes over F_2 and F_4, the 21- and
42-dimensional line lattices, and the height-perturbation lift that turns
an (n-1)-dimensional lattice with a unique generator dependence into an
n-dimensional one.
"""

from dataclasses import dataclass

from .errors import BadParams, DegenerateHeights, UnsupportedFieldOrder
from .lattice import Lattice, lattice_from_generators, linear_dependence
from .linalg import unit_vector, vector
from .rationals import Q, QONE, QZERO

HEIGHT_SCALE = 10**4  # the default heights are 1/(HEIGHT_SCALE * q_i)


@dataclass(frozen=True)
class GluedFamilyParams:
    k: int
    primes: tuple
    dims: tuple  # a_0, ..., a_k
    blocks: tuple  # block i covers 0-based coords [dims[i-1], dims[i])


@dataclass(frozen=True)
class IncidenceStructure:
    q: int
    points: tuple
    lines: tuple


def _primes(n):
    """The first n primes, by trial division."""
    primes = []
    c = 2
    while len(primes) < n:
        if all(c % p for p in primes):
            primes.append(c)
        c += 1
    return tuple(primes)


# ---------------------------------------------------------------------------
# classical lattices


def hypercubic(n: int) -> Lattice:
    if n < 1:
        raise BadParams("Z^n needs n >= 1")
    return Lattice(tuple(unit_vector(n, i) for i in range(n)))


def root_d(n: int) -> Lattice:
    """D_n = {x in Z^n : sum x_i even}."""
    if n < 2:
        raise BadParams("D_n needs n >= 2")
    rows = [
        tuple(
            QONE if j == i else (-QONE if j == i + 1 else QZERO)
            for j in range(n)
        )
        for i in range(n - 1)
    ]
    rows.append(
        tuple(QONE if j >= n - 2 else QZERO for j in range(n))
    )
    return Lattice(rows)


def dual_root_d(n: int) -> Lattice:
    """D_n^* = span_Z(e_1, ..., e_{n-1}, (e_1 + ... + e_n)/2)."""
    if n < 2:
        raise BadParams("D_n^* needs n >= 2")
    rows = [unit_vector(n, i) for i in range(n - 1)]
    rows.append((Q(1, 2),) * n)
    return Lattice(rows)


# ---------------------------------------------------------------------------
# glued-prime family


def glued_params(k: int) -> GluedFamilyParams:
    if k < 1:
        raise BadParams("glued family needs k >= 1")
    primes = _primes(k)
    dims = [1]
    for p in primes:
        dims.append(dims[-1] + p * p)
    blocks = tuple((dims[i], dims[i + 1]) for i in range(k))
    return GluedFamilyParams(k, primes, tuple(dims), blocks)


# The glued family's generators and claimed bases are built as supports
# ({0-based coordinate: nonzero entry}); the verifiers read them as they
# are, and the public constructors below densify them with _dense.


def _dense(d, supports):
    """The supports as d-long rows."""
    out = []
    for s in supports:
        row = [QZERO] * d
        for c, x in s.items():
            row[c] = x
        out.append(tuple(row))
    return tuple(out)


def _glue_vectors(params):
    """The glue vector (e_1 + e_{lo+1} + ... + e_hi) / p of every block
    [lo, hi), in block order."""
    out = []
    for p, (lo, hi) in zip(params.primes, params.blocks):
        g = Q(1, p)
        out.append(dict.fromkeys((0, *range(lo, hi)), g))
    return tuple(out)


def _kz_claim(params):
    """The block-structured KZ basis.  The first block contributes its
    units except the shared coordinate, with the glue vector in the third
    slot; every later block contributes its units except the second one,
    with the glue vector in the second slot."""
    out = []
    for j, (glue, (lo, hi)) in enumerate(zip(_glue_vectors(params), params.blocks)):
        units = [{c: QONE} for c in range(lo, hi)]
        if j == 0:
            out += [units[0], units[1], glue] + units[2:]
        else:
            out += [units[0], glue] + units[2:]
    return tuple(out)


def _short_claim(params):
    """The short generating basis: all glue vectors plus the unit vectors
    e_j for j not equal to any a_i (1-based), i < k."""
    excluded = {0} | {params.dims[i + 1] - 1 for i in range(1, params.k)}
    units = (c for c in range(params.dims[-1]) if c not in excluded)
    return _glue_vectors(params) + tuple({c: QONE} for c in units)


def glued_prime_lattice(k: int) -> Lattice:
    """Z^{a_k} glued by (e_1 + g_i)/p_i over disjoint prime-squared blocks."""
    params = glued_params(k)
    d = params.dims[-1]
    units = tuple({c: QONE} for c in range(d))
    return lattice_from_generators(_dense(d, units + _glue_vectors(params)))


def glued_kz_claimed_basis(k: int):
    """_kz_claim of L_k as d-long rows."""
    params = glued_params(k)
    return _dense(params.dims[-1], _kz_claim(params))


def glued_shortest_basis(k: int):
    """_short_claim of L_k as d-long rows."""
    params = glued_params(k)
    return _dense(params.dims[-1], _short_claim(params))


def l2_small() -> Lattice:
    """The 12-dimensional variant: the second glue overlaps the first block."""
    d = 12
    gens = [unit_vector(d, i) for i in range(d)]
    gens.append(tuple(Q(1, 2) if j < 5 else QZERO for j in range(d)))
    gens.append(
        tuple(Q(1, 3) if (j == 0 or 3 <= j < 12) else QZERO for j in range(d))
    )
    return lattice_from_generators(gens)


# ---------------------------------------------------------------------------
# projective planes and line lattices


# elements 0,1,2,3 encode polynomials over F_2 modulo x^2 + x + 1
_GF4_TABLE = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def projective_plane_lines(q: int) -> IncidenceStructure:
    """Points and lines of P^2(F_q) for q in {2, 4}.

    Points are normalized so the last nonzero coordinate is 1 and listed in
    lexicographic order of the remaining coordinates: (x, y, 1) for all
    x, y, then (x, 1, 0), then (1, 0, 0).  Line i is the set of points
    orthogonal to point i under the standard bilinear form; this ordering
    is part of the interface (the special quintuplet indices depend on it).
    """
    if q == 2:
        elements = (0, 1)
        mul = lambda a, b: a & b
        add = lambda a, b: a ^ b
    elif q == 4:
        elements = (0, 1, 2, 3)
        mul = lambda a, b: _GF4_TABLE[a][b]
        add = lambda a, b: a ^ b
    else:
        raise UnsupportedFieldOrder("q must be 2 or 4")
    points = [(x, y, 1) for x in elements for y in elements]
    points += [(x, 1, 0) for x in elements]
    points.append((1, 0, 0))
    lines = []
    for p in points:
        line = tuple(
            j
            for j, r in enumerate(points)
            if add(add(mul(r[0], p[0]), mul(r[1], p[1])), mul(r[2], p[2])) == 0
        )
        lines.append(line)
    return IncidenceStructure(q, tuple(points), tuple(lines))


def _support_vector(dim, indices):
    """The 0/1 row with ones at indices, in ints."""
    return tuple(1 if j in indices else 0 for j in range(dim))


def l_proj() -> Lattice:
    """Span of the 7 line vectors of the Fano plane in R^7."""
    inc = projective_plane_lines(2)
    rows = [_support_vector(7, set(line)) for line in inc.lines]
    return Lattice(rows)


def _generators21():
    """The 22 generators of attempt21, without the lattice."""
    inc = projective_plane_lines(2)
    supports = []
    for line in inc.lines:
        for copy in range(3):
            supports.append(tuple(p + 7 * copy for p in line))
    supports.append((0, 7, 14))
    return tuple(_support_vector(21, set(s)) for s in supports)


def attempt21():
    """Three Fano copies plus the triplet {0, 7, 14}; 22 generators whose
    dependence turns out to contain unit coefficients."""
    vecs = _generators21()
    return lattice_from_generators(vecs), vecs


def _generators42():
    """The 43 generators of lattice42, without the lattice."""
    inc = projective_plane_lines(4)
    supports = []
    for line in inc.lines:
        supports.append(line)
        supports.append(tuple(p + 21 for p in line))
    supports.append((0, 1, 4, 21, 22))
    return tuple(_support_vector(42, set(s)) for s in supports)


def lattice42():
    """Two copies of P^2(F_4) plus the quintuplet {0, 1, 4, 21, 22}."""
    vecs = _generators42()
    return lattice_from_generators(vecs), vecs


# ---------------------------------------------------------------------------
# height perturbation


def perturbed_lift(generators, heights) -> Lattice:
    """Lift n generators of a rank n-1 lattice by heights in a fresh
    coordinate; the dependence collapses to a short multiple of e_n."""
    gens = [vector(g) for g in generators]
    heights = vector(heights)
    if len(heights) != len(gens):
        raise BadParams("one height per generator required")
    if any(not h for h in heights):
        raise DegenerateHeights("heights must be nonzero")
    rows, _ = _lifted_rows(gens, heights, linear_dependence(gens))
    return Lattice(rows)


def _lifted_rows(generators, heights, relation):
    """The generators with their heights appended, and s, the height of
    relation's combination of them; s != 0 keeps the rows independent when
    relation spans the generators' dependences."""
    s = sum((a * h for a, h in zip(relation.coefficients, heights)), QZERO)
    if not s:
        raise DegenerateHeights("heights annihilate the dependence")
    return tuple(tuple(g) + (h,) for g, h in zip(generators, heights)), s


def default_heights(n):
    """1/(HEIGHT_SCALE * q_i), q_i the i-th prime; small, distinct, nonzero."""
    return tuple(Q(1, HEIGHT_SCALE * p) for p in _primes(n))


def perturbed43() -> Lattice:
    return perturbed_lift(_generators42(), default_heights(43))
