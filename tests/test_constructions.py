import pytest

import reference
from reference import determinant
from latred.constructions import (
    _dense,
    _glue_vectors,
    _kz_claim,
    _primes,
    _short_claim,
    attempt21,
    default_heights,
    dual_root_d,
    glued_kz_claimed_basis,
    glued_params,
    glued_prime_lattice,
    glued_shortest_basis,
    hypercubic,
    l2_small,
    l_proj,
    lattice42,
    perturbed43,
    perturbed_lift,
    projective_plane_lines,
    root_d,
)
from latred.errors import (
    BadParams,
    DegenerateHeights,
    NotInLattice,
    PreconditionViolated,
    UnsupportedFieldOrder,
)
from latred.lattice import (
    contains,
    covolume_squared,
    integer_coordinates,
    linear_dependence,
)
from latred.linalg import norm_sq, unit_vector
from latred.rationals import Q


def test_hypercubic_is_identity():
    L = hypercubic(3)
    assert L.basis == (tuple(map(Q, (1, 0, 0))), tuple(map(Q, (0, 1, 0))), tuple(map(Q, (0, 0, 1))))


def test_root_d_even_coordinate_sums():
    L = root_d(4)
    assert covolume_squared(L) == 4
    for row in L.basis:
        assert sum(row, Q(0)) % 2 == 0
    assert not contains(L, unit_vector(4, 0))


def test_dual_root_d_contains_glue_and_integers():
    L = dual_root_d(5)
    assert covolume_squared(L) == Q(1, 4)
    assert contains(L, unit_vector(5, 0))
    assert contains(L, tuple(Q(1, 2) for _ in range(5)))
    assert L.basis[-1] == tuple(Q(1, 2) for _ in range(5))


def test_glued_params_layout():
    p = glued_params(2)
    assert p.primes == (2, 3)
    assert p.dims == (1, 5, 14)
    assert p.blocks == ((1, 5), (5, 14))


def test_glued_prime_lattice_covolume():
    L1 = glued_prime_lattice(1)
    assert L1.rank == 5 and covolume_squared(L1) == Q(1, 4)
    L2 = glued_prime_lattice(2)
    assert L2.rank == 14 and covolume_squared(L2) == Q(1, 36)
    # the glue vectors themselves are members
    g1 = tuple(Q(1, 2) if i < 5 else Q(0) for i in range(14))
    g2 = tuple(Q(1, 3) if (i == 0 or i >= 5) else Q(0) for i in range(14))
    assert contains(L2, g1) and contains(L2, g2)


def test_glued_kz_claimed_basis_is_basis_with_expected_norms():
    for k in (1, 2, 3):
        L = glued_prime_lattice(k)
        basis = glued_kz_claimed_basis(k)
        coords = [integer_coordinates(L, v) for v in basis]
        assert abs(determinant([[Q(c) for c in r] for r in coords])) == 1
        assert max(norm_sq(v) for v in basis) == Q(5, 4)


def test_glued_shortest_basis_certifiable():
    for k in (1, 2, 3):
        L = glued_prime_lattice(k)
        basis = glued_shortest_basis(k)
        coords = [integer_coordinates(L, v) for v in basis]
        assert abs(determinant([[Q(c) for c in r] for r in coords])) == 1
        assert max(norm_sq(v) for v in basis) == Q(5, 4)


def test_glued_claims_densify_to_the_row_by_row_claims():
    # one builder per claim, in supports; the public claims are their
    # densified rows and equal the claims built row by row
    for k in range(1, 7):
        params = glued_params(k)
        d = params.dims[-1]
        for builder, public, rows in (
            (_kz_claim, glued_kz_claimed_basis, reference.glued_kz_claimed_basis),
            (_short_claim, glued_shortest_basis, reference.glued_shortest_basis),
        ):
            want = rows(k)
            assert _dense(d, builder(params)) == public(k) == want
            assert list(builder(params)) == reference.supports(want)
        glues = reference.glued_shortest_basis(k)[:k]
        assert list(_glue_vectors(params)) == reference.supports(glues)


def test_primes_have_no_cap():
    # one prime generator for the glued family and the default heights;
    # glued_params takes every k >= 1
    sieve = [c for c in range(2, 200) if all(c % p for p in range(2, c))]
    assert _primes(43) == tuple(sieve[:43])
    assert default_heights(43)[-1] == Q(1, 10**4 * 191)
    params = glued_params(11)
    assert params.primes[-1] == 31 and params.dims[-1] == 2398 + 31 * 31
    assert glued_params(20).dims[-1] == 30008
    with pytest.raises(BadParams):
        glued_params(0)


def test_glued_residues():
    g1 = tuple(Q(1, 2) if i < 5 else Q(0) for i in range(14))
    assert reference.glued_residues(2, g1) == (1, 0)
    with pytest.raises(NotInLattice):
        reference.glued_residues(2, (Q(1, 7),) + (Q(0),) * 13)


def test_l2_small_shape():
    L = l2_small()
    assert L.rank == 12
    assert covolume_squared(L) == Q(1, 36)


def test_projective_plane_counts():
    for q in (2, 4):
        inc = projective_plane_lines(q)
        n = q * q + q + 1
        assert len(inc.lines) == n
        assert all(len(line) == q + 1 for line in inc.lines)
        # any two distinct lines meet in exactly one point
        for i in range(n):
            for j in range(i + 1, n):
                assert len(set(inc.lines[i]) & set(inc.lines[j])) == 1
    with pytest.raises(UnsupportedFieldOrder):
        projective_plane_lines(6)


def test_l_proj_covolume():
    L = l_proj()
    assert L.rank == 7
    assert covolume_squared(L) == 576


def test_l_proj_excludes_unit_differences():
    L = l_proj()
    n = L.ambient_dim
    for i in range(n):
        for j in range(i + 1, n):
            d = tuple(
                Q(1) if t == i else Q(-1) if t == j else Q(0) for t in range(n)
            )
            assert not contains(L, d)


def test_attempt21_dependence_has_units():
    _, vecs = attempt21()
    assert len(vecs) == 22
    rel = linear_dependence(vecs)
    mags = sorted(abs(c) for c in rel.coefficients)
    assert 6 in mags and 2 in mags and 1 in mags
    assert mags.count(6) == 1 and mags.count(2) == 9 and mags.count(1) == 12


def test_lattice42_dependence_pattern():
    L, vecs = lattice42()
    assert L.rank == 42 and len(vecs) == 43
    rel = linear_dependence(vecs)
    assert abs(rel.coefficients[0]) == 3 and abs(rel.coefficients[1]) == 2
    assert all(abs(c) not in (0, 1) for c in rel.coefficients)


def test_perturbed_lift_and_validation():
    _, vecs = lattice42()
    L = perturbed43()
    assert L.rank == 43 and L.ambient_dim == 43
    heights = default_heights(43)
    assert len(set(heights)) == 43
    assert perturbed_lift(vecs, heights) == L
    with pytest.raises(BadParams):
        perturbed_lift(vecs, heights[:-1])
    with pytest.raises(DegenerateHeights):
        perturbed_lift(vecs, (Q(0),) * 43)
    # heights are read as exactly as vectors: a float height is refused
    gens = attempt21()[1]
    with pytest.raises(PreconditionViolated):
        perturbed_lift(gens, [0.5 ** (i + 3) for i in range(22)])
    lifted = perturbed_lift(gens, ["1/%d" % 2 ** (i + 3) for i in range(22)])
    assert lifted.basis[0][-1] == Q(1, 8)
