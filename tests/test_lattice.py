import random

import pytest

from conftest import random_integer_lattice, random_unimodular
from latred.enumeration import successive_minima
from latred.errors import DependentTuple, NotInLattice, PreconditionViolated
from latred.lattice import (
    Lattice,
    complete_to_basis,
    contains,
    coordinates,
    covolume_squared,
    dual,
    integer_coordinates,
    is_primitive_tuple,
    lattice_from_generators,
    linear_dependence,
    primitive_completion,
    project_orthogonal,
    sublattice,
)
from latred.linalg import (
    determinant,
    dot,
    gram_schmidt,
    mat_mul,
    norm_sq,
    unit_vector,
    vector,
)
from latred.rationals import Q


def test_lattice_rejects_dependent_rows():
    with pytest.raises(DependentTuple):
        Lattice(((Q(1), Q(2)), (Q(2), Q(4))))


def test_contains_and_coordinates():
    L = Lattice(((Q(2), Q(0)), (Q(1), Q(3))))
    assert contains(L, (Q(3), Q(3)))
    assert not contains(L, (Q(1), Q(0)))
    assert coordinates(L, (Q(3), Q(3))) == (Q(1), Q(1))
    assert integer_coordinates(L, (Q(3), Q(3))) == (1, 1)
    with pytest.raises(NotInLattice):
        integer_coordinates(L, (Q(1), Q(0)))


def test_contains_invariant_under_unimodular_change():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 5)
        L = random_integer_lattice(rng, n)
        u = random_unimodular(rng, n)
        M = Lattice(mat_mul(u, L.basis))
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        v = tuple(
            sum((Q(c) * row[j] for c, row in zip(coeffs, L.basis)), Q(0))
            for j in range(n)
        )
        w = tuple(x + Q(1, 2) for x in v)
        assert contains(M, v)
        assert contains(L, v) == contains(M, v)
        assert contains(L, w) == contains(M, w)


def test_covolume_squared_is_gram_determinant():
    L = Lattice(((Q(1), Q(2), Q(0)), (Q(0), Q(1), Q(1))))
    g = [[dot(a, b) for b in L.basis] for a in L.basis]
    assert covolume_squared(L) == determinant(g)


def test_dual_dual_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        L = random_integer_lattice(rng, rng.randint(2, 4))
        D = dual(L)
        assert covolume_squared(L) * covolume_squared(D) == 1
        for b in L.basis:
            for d in D.basis:
                assert dot(b, d).denominator == 1
        DD = dual(D)
        assert all(contains(DD, b) for b in L.basis)
        assert all(contains(L, b) for b in DD.basis)


def test_primitivity_and_completion():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 5)
        L = random_integer_lattice(rng, n)
        u = random_unimodular(rng, n)
        rows = mat_mul(u, L.basis)
        k = rng.randint(1, n - 1)
        prefix = rows[:k]
        cert = is_primitive_tuple(L, prefix)
        assert cert.verdict and all(d == 1 for d in cert.divisors)
        full = complete_to_basis(L, prefix)
        change = [integer_coordinates(L, v) for v in full]
        assert abs(determinant([[Q(c) for c in row] for row in change])) == 1
        doubled = [tuple(2 * x for x in prefix[0])] + list(prefix[1:])
        if is_primitive_tuple(L, doubled).verdict:
            # doubling the first vector may stay primitive only if some
            # other prefix vector absorbs the factor; never for k = 1
            assert k > 1
        if k == 1:
            assert not is_primitive_tuple(L, doubled).verdict


def test_linear_dependence_exact_and_coprime():
    from math import gcd

    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 5)
        L = random_integer_lattice(rng, n)
        coeffs = [rng.randint(-4, 4) for _ in range(n)]
        if not any(coeffs):
            coeffs[0] = 1
        extra = tuple(
            sum((Q(c) * row[j] for c, row in zip(coeffs, L.basis)), Q(0))
            for j in range(n)
        )
        rel = linear_dependence(list(L.basis) + [extra])
        g = 0
        for a in rel.coefficients:
            g = gcd(g, a)
        assert g == 1
        combo = [Q(0)] * n
        vecs = list(L.basis) + [extra]
        for a, v in zip(rel.coefficients, vecs):
            combo = [c + a * x for c, x in zip(combo, v)]
        assert all(x == 0 for x in combo)


def test_trivial_dependence_example():
    e1, e2 = unit_vector(2, 0), unit_vector(2, 1)
    both = tuple(a + b for a, b in zip(e1, e2))
    rel = linear_dependence([e1, e2, both])
    assert rel.coefficients == (1, 1, -1)


def test_primitive_completion_trivial():
    L = Lattice(((Q(1), Q(0)), (Q(0), Q(1))))
    y = primitive_completion(L, [unit_vector(2, 0)], unit_vector(2, 1), Q(1))
    assert y == unit_vector(2, 1)


def test_primitive_completion_shrinks_by_index():
    L = Lattice(((Q(1), Q(0)), (Q(1, 3), Q(1, 3))))
    y = primitive_completion(L, [unit_vector(2, 0)], unit_vector(2, 1), Q(1))
    assert contains(L, y)
    assert is_primitive_tuple(L, [unit_vector(2, 0), y]).verdict
    assert y[1] == Q(1, 3) and abs(y[0]) <= Q(1, 2)
    assert norm_sq(y) == Q(2, 9)


def test_primitive_completion_dual_root_example():
    from latred.constructions import dual_root_d

    L = dual_root_d(5)
    sub = [unit_vector(5, i) for i in range(4)]
    y = primitive_completion(L, sub, unit_vector(5, 4), Q(1))
    assert is_primitive_tuple(L, sub + [y]).verdict
    assert norm_sq(y) == Q(5, 4)
    assert all(abs(x) == Q(1, 2) for x in y)


def test_primitive_completion_bound_randomized():
    """The completion norm obeys the size-reduction bound
    max(lambda^2, (sum of prefix pivot norms + lambda^2) / 4) exactly."""
    rng = random.Random(17)
    done = 0
    while done < 30:
        n = rng.randint(2, 6)
        L = random_integer_lattice(rng, n, 2)
        u = random_unimodular(rng, n)
        rows = mat_mul(u, L.basis)
        k = rng.randint(1, n - 1)
        sub = list(rows[:k])
        minima = successive_minima(L)
        y0 = next(
            (
                w
                for w in minima.witnesses
                if _independent(sub, w)
            ),
            None
        )
        if y0 is None:
            continue
        lam_sq = norm_sq(y0)
        y = primitive_completion(L, sub, y0, lam_sq)
        assert is_primitive_tuple(L, sub + [y]).verdict
        pivots = gram_schmidt(sub).norms_sq
        bound = max(lam_sq, (sum(pivots, Q(0)) + lam_sq) / 4)
        assert norm_sq(y) <= bound
        done += 1


def _independent(sub, w):
    from latred.linalg import rank

    return rank(list(sub) + [vector(w)]) == len(sub) + 1


def test_primitive_completion_preconditions():
    L = Lattice(((Q(1), Q(0)), (Q(0), Q(1))))
    with pytest.raises(PreconditionViolated):
        primitive_completion(L, [(Q(2), Q(0))], unit_vector(2, 1), Q(1))
    with pytest.raises(PreconditionViolated):
        primitive_completion(L, [unit_vector(2, 0)], (Q(3), Q(0)), Q(9))


def test_project_orthogonal_scaling():
    L = Lattice(((Q(1), Q(0)), (Q(1, 3), Q(1, 3))))
    P = project_orthogonal(L, [unit_vector(2, 0)])
    assert P.rank == 1 and norm_sq(P.basis[0]) == Q(1, 9)


def test_lattice_from_generators_and_sublattice():
    gens = [(Q(2), Q(0)), (Q(0), Q(2)), (Q(1), Q(1))]
    L = lattice_from_generators(gens)
    assert covolume_squared(L) == 4
    assert all(contains(L, g) for g in gens)
    S = sublattice(gens[:2])
    assert covolume_squared(S) == 16


def test_kz_reduce_solves_each_prefix_once(monkeypatch):
    # every KZ step completes its prefix to a basis; the completion reads
    # primitivity and the HNF from one coordinate solve per prefix vector,
    # 0 + 1 + ... + 13 = 91 solves for the 14-dimensional L_2
    from latred import lattice
    from latred.constructions import glued_prime_lattice
    from latred.reduction import kz_reduce

    calls = []
    solve = lattice.integer_coordinates

    def counted(L, v):
        calls.append(v)
        return solve(L, v)

    monkeypatch.setattr(lattice, "integer_coordinates", counted)
    kz_reduce(glued_prime_lattice(2))
    assert len(calls) == 91


def test_primitive_completion_solves_each_vector_once(monkeypatch):
    # the coordinates of sub (3), of y0 (1) and of the completion (1) are
    # solved once each and shared by the certificates and the completion
    from latred import lattice

    calls = []
    solve = lattice.integer_coordinates

    def counted(L, v):
        calls.append(v)
        return solve(L, v)

    monkeypatch.setattr(lattice, "integer_coordinates", counted)
    e = [unit_vector(6, i) for i in range(6)]
    half = tuple((a + b) / 2 for a, b in zip(e[0], e[3]))
    L = Lattice([e[0], e[1], e[2], half, e[4], e[5]])
    # e_3 is not primitive over e_0..e_2 (its projection is twice e_3 / 2)
    y = primitive_completion(L, e[:3], e[3], Q(1))
    assert y == (Q(-1, 2), 0, 0, Q(1, 2), 0, 0)
    assert len(calls) == 5
