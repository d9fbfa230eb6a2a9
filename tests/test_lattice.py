import random

import pytest

import reference
from reference import NotPrimitive, determinant, vsub
from conftest import mat_mul, random_integer_lattice, random_unimodular
from latred.constructions import attempt21, hypercubic, lattice42
from latred.enumeration import successive_minima
from latred.errors import (
    DependentTuple,
    DimensionMismatch,
    NotFullRank,
    NotInLattice,
    NotInSpan,
    PreconditionViolated,
)
from latred.lattice import (
    Lattice,
    contains,
    coordinates,
    covolume_squared,
    dual,
    integer_coordinates,
    is_primitive_tuple,
    lattice_from_generators,
    linear_dependence,
    primitive_completion,
)
from latred.linalg import (
    dot,
    norm_sq,
    row_times_mat,
    transpose,
    unit_vector,
    vector,
    vscale,
)
from latred.rationals import Q


def test_lattice_rejects_dependent_rows():
    with pytest.raises(DependentTuple):
        Lattice(((Q(1), Q(2)), (Q(2), Q(4))))


def test_lattice_rejects_an_empty_basis_and_float_entries():
    with pytest.raises(DimensionMismatch):
        Lattice(())
    with pytest.raises(PreconditionViolated):
        Lattice(((0.5, 0), (0, 1)))
    # the completion's bound is read as exactly as its vectors
    e = [unit_vector(3, i) for i in range(3)]
    with pytest.raises(PreconditionViolated):
        primitive_completion(hypercubic(3), [e[0]], e[1], 1.0)
    assert primitive_completion(hypercubic(3), [e[0]], e[1], "1") == e[1]


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
    # rational bases whose rank is below the ambient dimension
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        d = n + rng.randint(1, 3)
        rows = [
            [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
            for _ in range(n)
        ]
        try:
            L = Lattice(rows)
        except DependentTuple:
            continue
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


def test_dual_matches_the_inverse_transpose_reference():
    # row c of B^-1 is coordinates(L, e_c), so the dual basis is exactly
    # the rational inverse-transpose of B, on integer and rational bases
    rng = random.Random(31)
    seen = {"integer": 0, "rational": 0}
    while min(seen.values()) < 40:
        n = rng.randint(1, 6)
        den = rng.choice((1, 1, 2, 3, 6))
        rows = [
            [Q(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(n)]
            for _ in range(n)
        ]
        try:
            L = Lattice(rows)
        except DependentTuple:
            continue
        integral = all(x.denominator == 1 for r in L.basis for x in r)
        seen["integer" if integral else "rational"] += 1
        assert dual(L).basis == transpose(reference.inverse(L.basis))
    for rows in ([(1, 0, 0), (0, 1, 0)], [(Q(1, 2), 1, 3)]):
        with pytest.raises(NotFullRank):
            dual(Lattice(rows))


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
        full = reference.prefix_completion(L, prefix)
        assert full[:k] == prefix
        change = [integer_coordinates(L, v) for v in full]
        assert abs(determinant([[Q(c) for c in row] for row in change])) == 1
        doubled = [tuple(2 * x for x in prefix[0])] + list(prefix[1:])
        if is_primitive_tuple(L, doubled).verdict:
            # doubling the first vector may stay primitive only if some
            # other prefix vector absorbs the factor; never for k = 1
            assert k > 1
        if k == 1:
            assert not is_primitive_tuple(L, doubled).verdict



def test_dependent_tuples_are_read_off_the_smith_divisors():
    # a zero divisor (a repeated direction) and more vectors than the
    # rank (fewer divisors than vectors) both raise DependentTuple
    L = Lattice(((Q(1), Q(0), Q(0)), (Q(0), Q(1, 2), Q(1, 2))))
    e0, h = L.basis
    with pytest.raises(DependentTuple):
        is_primitive_tuple(L, [e0, vscale(3, e0)])
    with pytest.raises(DependentTuple):
        is_primitive_tuple(L, [e0, h, vsub(e0, h)])
    assert is_primitive_tuple(L, [e0, vscale(2, h)]).divisors == (1, 2)
    assert is_primitive_tuple(L, []).verdict

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


def _dependence_cases(rng, count):
    """(kind, rows): count seeded integer matrices with entries in
    [-9, 9], 1 to 7 rows of 1 to 7 columns, each drawn plain or with a
    zero column, a repeated row, a zero row, a row that is the sum or
    difference of two others, or as n + 1 rows in n columns."""
    fewest_rows = {
        "plain": 1,
        "zero column": 1,
        "repeated row": 2,
        "zero row": 1,
        "combination": 3,
    }
    cases = []
    while len(cases) < count:
        kind = rng.choice(sorted(fewest_rows) + ["n + 1 rows"])
        nc = rng.randint(1, 7)
        if kind == "n + 1 rows":
            nr = nc + 1
        else:
            nr = rng.randint(fewest_rows[kind], 7)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        if kind == "zero column":
            c = rng.randrange(nc)
            for r in rows:
                r[c] = 0
        elif kind == "repeated row":
            i, j = rng.sample(range(nr), 2)
            rows[i] = list(rows[j])
        elif kind == "zero row":
            rows[rng.randrange(nr)] = [0] * nc
        elif kind == "combination":
            i, j, k = rng.sample(range(nr), 3)
            s = rng.choice((1, -1))
            rows[i] = [a + s * b for a, b in zip(rows[j], rows[k])]
            if any(abs(x) > 9 for x in rows[i]):
                continue
        cases.append((kind, rows))
    return cases


def test_dependence_matches_the_reference_off_the_scan_shapes():
    # the relation and H that _dependence reads off one echelon of [W | I]
    # equal the rational nullspace's relation and the nonzero rows of the
    # reference HNF, WrongRank messages included, on tall, wide and
    # rank-deficient integer matrices
    from latred.errors import WrongRank
    from latred.lattice import _dependence

    seen = {}
    for kind, rows in _dependence_cases(random.Random(25), 1200):
        try:
            want = reference.linear_dependence(rows)
        except WrongRank as exc:
            with pytest.raises(WrongRank, match="^%s$" % exc):
                _dependence(rows)
            continue
        rel, h = _dependence(rows)
        assert rel == want
        assert h == [r for r in reference.hnf_with_transform(rows)[0] if any(r)]
        nr, nc = len(rows), len(rows[0])
        shape = "tall" if nr > nc else "wide" if nr < nc else "square"
        deficient = len(h) < min(nr, nc)
        for key in (kind, shape, "deficient" if deficient else "full"):
            seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 11 and min(seen.values()) >= 15, seen


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
        pivots = reference.gram_schmidt(sub).norms_sq
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


def _gso_cases():
    """300 seeded (L, primitive prefix, probe vectors): rank 2..6 lattices
    of rational rows, with denominators, in dimension rank to rank + 2; the
    prefix is the head of a unimodular re-basing, and the probes have
    denominators of their own."""
    rng = random.Random(61)
    out = []
    while len(out) < 300:
        n = rng.randint(2, 6)
        dim = n + rng.randint(0, 2)
        den = rng.choice((1, 2, 3, 6))
        rows = [
            [Q(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(dim)]
            for _ in range(n)
        ]
        try:
            L = Lattice(rows)
        except DependentTuple:
            continue
        rows = mat_mul(random_unimodular(rng, n), L.basis)
        prefix = list(rows[: rng.randint(1, n - 1)])
        probes = [
            tuple(Q(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(dim))
            for _ in range(2)
        ]
        out.append((L, prefix, probes))
    return out


def test_integral_prefix_gso_matches_the_rational_reference():
    # mu, norms, projections, GSO coordinates of in-span vectors and the
    # projections of the reference's completion lifts, all exactly equal
    from latred.lattice import IntGSO

    for L, prefix, probes in _gso_cases():
        gso = IntGSO.of(prefix)
        want = reference.gram_schmidt(prefix)
        assert reference.int_rational(gso) == (want.mu, want.norms_sq)
        for w in probes + list(L.basis):
            perp = reference.orthogonal_part(vector(w), want)
            assert reference.int_project(gso, w) == (perp, norm_sq(perp))
        inside = row_times_mat(probes[0][: len(prefix)], prefix)
        assert reference.int_star_coordinates(gso, inside) == [
            dot(inside, bs) / ns for bs, ns in zip(want.bstar, want.norms_sq)
        ]
        off, off_sq = reference.int_project(gso, probes[1])
        if off_sq:
            with pytest.raises(NotInSpan):
                reference.int_star_coordinates(gso, vsub(inside, off))
        P, lifts = reference.project_orthogonal_with_lift(L, prefix)
        assert P.basis == tuple(reference.int_project(gso, w)[0] for w in lifts)


def test_primitive_completion_matches_the_rational_reference():
    # the size reduction on the integral GSO equals the rational one
    rng = random.Random(23)
    done = 0
    while done < 40:
        n = rng.randint(2, 6)
        L = random_integer_lattice(rng, n, 2)
        rows = mat_mul(random_unimodular(rng, n), L.basis)
        sub = list(rows[: rng.randint(1, n - 1)])
        y0 = next(
            (w for w in successive_minima(L).witnesses if _independent(sub, w)), None
        )
        if y0 is None:
            continue
        lam_sq = norm_sq(y0)
        want = reference.primitive_completion(L, sub, y0, lam_sq)
        assert primitive_completion(L, sub, y0, lam_sq) == want
        done += 1


def test_primitive_completion_size_reduces_a_combined_lift():
    # the projection past e_0 is hexagonal, with three shortest pairs, so
    # the lexicographically first one is often the sum or difference of
    # two rows of the carried basis, whose lift is not size-reduced until
    # the completion reduces it
    rng = random.Random(3)
    for _ in range(40):
        a, b = (Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2))
        hexa = [
            (Q(1), Q(0), Q(0), Q(0)),
            (a, Q(1), Q(-1), Q(0)),
            (b, Q(0), Q(1), Q(-1)),
        ]
        L = Lattice(mat_mul(random_unimodular(rng, 3), hexa))
        y0 = vscale(2, hexa[1])
        y = primitive_completion(L, hexa[:1], y0, norm_sq(y0))
        assert y == reference.primitive_completion(L, hexa[:1], y0, norm_sq(y0))
        assert y[1:] == (0, 1, -1) and abs(y[0]) <= Q(1, 2)


def test_primitive_completion_puts_match_the_dense_combination(monkeypatch):
    # every put that primitive_completion makes on the cases of its tests
    # above gives the IntGSO of reference.dense_put, the dense combination
    from conftest import checked_puts

    seen = checked_puts(monkeypatch)
    for case in (
        test_primitive_completion_trivial,
        test_primitive_completion_shrinks_by_index,
        test_primitive_completion_dual_root_example,
        test_primitive_completion_bound_randomized,
        test_primitive_completion_matches_the_rational_reference,
        test_primitive_completion_size_reduces_a_combined_lift,
    ):
        case()
    assert seen[0] >= 150


def test_lattice_from_generators_and_sublattice():
    gens = [(Q(2), Q(0)), (Q(0), Q(2)), (Q(1), Q(1))]
    L = lattice_from_generators(gens)
    assert covolume_squared(L) == 4
    assert all(contains(L, g) for g in gens)
    S = Lattice(gens[:2])
    assert covolume_squared(S) == 16


def test_lattice_from_generators_takes_int_entries_as_they_are(monkeypatch):
    # int generators give the HNF basis that the same generators give as
    # rationals, through matrix as before, with no int read as a
    # rational; the entries of D_5* that are integers are given as ints.
    # A float is refused and a ragged matrix too, with ints or rationals
    from latred import linalg
    from latred.constructions import dual_root_d

    def through_matrix(gens):
        w, den = linalg._scaled_rows(linalg.matrix(gens))
        return tuple(tuple(Q(e, den) for e in r) for r in linalg.hnf(w) if any(r))

    qexact = linalg.qexact
    read = []

    def recorded(e):
        read.append(type(e))
        return qexact(e)

    monkeypatch.setattr(linalg, "qexact", recorded)
    for gens in (lattice42()[1], attempt21()[1], dual_root_d(5).basis):
        ints = [[int(e) if e == int(e) else Q(e) for e in r] for r in gens]
        rationals = [[Q(e) for e in r] for r in gens]
        assert any(type(e) is int for r in ints for e in r)
        want = through_matrix(rationals)
        for rows in (ints, rationals):
            read.clear()
            assert lattice_from_generators(rows).basis == want
            assert int not in read
    for rows in ([[1, 0], [0, 1.0]], [[Q(1), 0], [Q(1, 2), 0.5]]):
        with pytest.raises(PreconditionViolated):
            lattice_from_generators(rows)
    for rows in ([[1, 0], [0, 1, 1]], [[Q(1, 2), Q(1)], [Q(1)]]):
        with pytest.raises(DimensionMismatch):
            lattice_from_generators(rows)


def _random_generator_sets(rng):
    """Seeded generator sets: dense integer and rational rows, and rows in
    echelon shape, some with repeated leading columns, zero rows or
    duplicates, of every rank up to the row count."""
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        den = rng.choice((1, 1, 2, 6))
        rows = [
            [Q(rng.randint(-3, 3), rng.randint(1, den)) for _ in range(n)]
            for _ in range(m)
        ]
        if rng.random() < 0.5:
            # row i zero left of a nondecreasing lead c_i, nonzero there
            leads = sorted(rng.randrange(n + 1) for _ in range(m))
            for r, c in zip(rows, leads):
                r[:c] = [Q(0)] * c
                if c < n and not r[c]:
                    r[c] = Q(1)
        if m > 1 and rng.random() < 0.2:
            rows[-1] = list(rows[rng.randrange(m - 1)])
        yield [tuple(r) for r in rows]


def test_lattice_independence_and_generated_rank_match_the_reference(monkeypatch):
    from conftest import count_calls

    rng = random.Random(15)
    echelon = dependent = 0
    for gens in _random_generator_sets(rng):
        r = reference.rank(gens)
        if r < len(gens):
            dependent += 1
            with pytest.raises(DependentTuple):
                Lattice(gens)
        else:
            assert Lattice(gens).rank == len(gens)
        if r:
            L = lattice_from_generators(gens)
            assert L.rank == r
            assert all(contains(L, g) for g in gens)
        leads = [next((c for c, x in enumerate(g) if x), None) for g in gens]
        if None not in leads and leads == sorted(set(leads)):
            echelon += 1
    assert echelon >= 40 and dependent >= 60
    # an HNF basis is independent by its shape: no elimination
    calls = count_calls(monkeypatch, "linalg.rank")
    for build in (lattice42, attempt21):
        lattice_from_generators(build()[1])
    assert calls["linalg.rank"] == 0


def test_kz_reduce_solves_each_prefix_once(monkeypatch):
    # kz_reduce carries the chosen vector's coefficients over the rows it
    # walked into the next basis, so it solves no coordinates over
    # L.basis, and takes no Smith form or HNF (nor a Gram inverse, which
    # latred does not have, see test_source_rules)
    from conftest import count_calls
    from latred.constructions import glued_prime_lattice
    from latred.reduction import kz_reduce

    L = glued_prime_lattice(2)
    calls = count_calls(
        monkeypatch,
        "lattice.integer_coordinates",
        "linalg.snf_divisors",
        "linalg.hnf",
    )
    kz_reduce(L)
    assert calls == {
        "lattice.integer_coordinates": 0,
        "linalg.snf_divisors": 0,
        "linalg.hnf": 0,
    }


def test_primitive_completion_solves_each_vector_once(monkeypatch):
    # the coordinates of sub (3) and of y0 (1) are solved once each, on
    # the basis the completion carries, and decide the error classes, the
    # primitivity checks and the completion; the completion itself is
    # primitive by construction and is not solved
    from conftest import count_calls

    calls = count_calls(monkeypatch, "lattice._solve", "lattice.integer_coordinates")
    e = [unit_vector(6, i) for i in range(6)]
    half = tuple((a + b) / 2 for a, b in zip(e[0], e[3]))
    L = Lattice([e[0], e[1], e[2], half, e[4], e[5]])
    # e_3 is not primitive over e_0..e_2 (its projection is twice e_3 / 2)
    y = primitive_completion(L, e[:3], e[3], Q(1))
    assert y == (Q(-1, 2), 0, 0, Q(1, 2), 0, 0)
    assert calls == {"lattice._solve": 4, "lattice.integer_coordinates": 0}


def _solve_cases():
    """(lattice, vector) pairs: bases of rank 1..7 in ambient dimension up
    to rank + 2, with rational entries; the vectors are integer and
    rational combinations of the basis and random vectors, which lie
    outside the span when the rank is short of the dimension."""
    rng = random.Random(77)
    out = []
    while len(out) < 240:
        n = rng.randint(1, 7)
        d = n + rng.choice((0, 0, 1, 2))
        den = rng.choice((1, 2, 3))
        rows = [
            [Q(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(d)]
            for _ in range(n)
        ]
        try:
            L = Lattice(rows)
        except DependentTuple:
            continue
        for _ in range(4):
            kind = rng.randrange(3)
            if kind == 2:
                v = [Q(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(d)]
            else:
                x = [Q(rng.randint(-4, 4), rng.randint(1, 1 + kind)) for _ in range(n)]
                v = [sum((a * r[j] for a, r in zip(x, rows)), Q(0)) for j in range(d)]
            out.append((L, tuple(v)))
    return out


def test_coordinates_match_the_gram_inverse_reference():
    # the solve through the LLL GSO and transform agrees with the Gram
    # inverse solve, NotInSpan and NotInLattice included
    import reference

    outside = 0
    for L, v in _solve_cases():
        try:
            want = reference.coordinates(L, v)
        except NotInSpan:
            outside += 1
            with pytest.raises(NotInSpan):
                coordinates(L, v)
            assert not contains(L, v)
            continue
        assert coordinates(L, v) == want
        assert contains(L, v) == all(x.denominator == 1 for x in want)
    assert outside >= 30
    L = Lattice([(Q(1), Q(2), Q(0))])
    with pytest.raises(DimensionMismatch):
        coordinates(L, (Q(1), Q(2)))


def test_coordinates_off_the_basis_denominator_match_the_reference():
    # in-span vectors with denominators 5 and 7, which divide no scaled
    # basis denominator, in-lattice vectors, and vectors outside the span
    import reference

    rng = random.Random(91)
    off_den = outside = 0
    while off_den < 100:
        n = rng.randint(1, 6)
        d = n + rng.choice((0, 0, 1, 2))
        rows = [
            [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
            for _ in range(n)
        ]
        try:
            L = Lattice(rows)
        except DependentTuple:
            continue
        x = [Q(rng.randint(-9, 9), rng.choice((1, 5, 7))) for _ in range(n)]
        v = row_times_mat(x, L.basis)
        assert coordinates(L, v) == reference.coordinates(L, v) == tuple(x)
        off_den += any(L._lll[2].den % e.denominator for e in v)
        c = [rng.randint(-4, 4) for _ in range(n)]
        w = row_times_mat(c, L.basis)
        assert integer_coordinates(L, w) == reference.integer_coordinates(L, w)
        assert integer_coordinates(L, w) == tuple(c)
        if d > n:
            u = [Q(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(d)]
            try:
                reference.coordinates(L, u)
            except NotInSpan:
                outside += 1
                with pytest.raises(NotInSpan):
                    coordinates(L, u)
            else:
                assert coordinates(L, u) == reference.coordinates(L, u)
    assert outside >= 30


def test_completion_error_classes():
    # a dependent prefix is DependentTuple even when an earlier vector is
    # not primitive; a non-primitive one is NotPrimitive, as in the
    # reference, and primitive_completion's PreconditionViolated
    import reference

    L = hypercubic(3)
    e = [unit_vector(3, i) for i in range(3)]
    cases = [
        ([vscale(2, e[0]), vscale(4, e[0])], DependentTuple),
        ([e[0], e[1], e[0]], DependentTuple),
        ([vscale(2, e[0]), e[1], vscale(3, e[1])], DependentTuple),
        ([vscale(2, e[0])], NotPrimitive),
        ([e[0], vscale(3, e[1])], NotPrimitive),
        ([vscale(Q(1, 2), e[0])], NotInLattice),
        ([vscale(2, e[0]), e[0]], DependentTuple),
    ]
    for prefix, error in cases:
        for complete in (
            reference.prefix_completion,
            reference.complete_to_basis,
            reference.project_orthogonal_with_lift,
        ):
            with pytest.raises(error):
                complete(L, prefix)
        if error is NotPrimitive:
            error = PreconditionViolated
        with pytest.raises(error):
            primitive_completion(L, prefix, e[2], Q(1))
