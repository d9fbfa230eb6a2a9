import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from conftest import mat_mul, random_unimodular
from reference import determinant, vsub
from latred.errors import (
    DependentRows,
    DependentTuple,
    DimensionMismatch,
    NotIntegral,
    PreconditionViolated,
    WrongRank,
)
from latred.lattice import Lattice, linear_dependence
from latred.lattice import IntGSO
from latred.linalg import (
    _echelon,
    _scaled_rows,
    dot,
    gram_matrix,
    hnf,
    matrix,
    norm_sq,
    rank,
    snf_divisors,
    unit_vector,
    vector,
)
from latred.rationals import Q

int_matrices = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def qmat(rows):
    return tuple(tuple(Q(x) for x in row) for row in rows)


def fraction_determinant(rows):
    """Independent oracle: fraction-based Gaussian elimination."""
    m = [[Fraction(int(x)) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


@given(int_matrices)
def test_determinant_matches_fraction_elimination(rows):
    # latred takes no determinant: det^2 is read off the rows' IntGSO as
    # the Gram determinant d_n / den^(2n), and dependent rows raise
    od = fraction_determinant(rows)
    try:
        _, d, _, den = IntGSO.of(*_scaled_rows(rows))
    except DependentRows:
        assert od == 0
    else:
        g = Q(d[-1], den ** (2 * len(rows)))
        assert (int(g.numerator), int(g.denominator)) == (
            (od * od).numerator,
            (od * od).denominator,
        )


@given(int_matrices)
def test_hnf_is_unimodular_transform(rows):
    h, u = reference.hnf_with_transform(rows)
    assert hnf(rows) == h
    assert abs(determinant(qmat(u))) == 1
    assert [list(map(int, r)) for r in mat_mul(qmat(u), qmat(rows))] == [
        list(r) for r in h
    ]
    # echelon shape: pivot columns strictly increase over nonzero rows
    pivots = [next(i for i, x in enumerate(r) if x) for r in h if any(r)]
    assert pivots == sorted(set(pivots))
    zeros_started = False
    for r in h:
        if not any(r):
            zeros_started = True
        else:
            assert not zeros_started


@given(int_matrices)
def test_snf_divisor_chain(rows):
    divs = snf_divisors(rows)
    nz = [d for d in divs if d]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    d = abs(fraction_determinant(rows))
    prod = 1
    for x in nz:
        prod *= x
    if d:
        assert len(nz) == len(rows) and prod == d


def minor_divisors(rows):
    """Independent oracle: d_k = g_k / g_(k-1), g_k the gcd of the k x k
    minors."""
    nr, nc = len(rows), len(rows[0])
    g = [1]
    for k in range(1, min(nr, nc) + 1):
        gk = 0
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                minor = [[rows[i][j] for j in ci] for i in ri]
                gk = gcd(gk, int(fraction_determinant(minor)))
        g.append(gk)
    return [g[k] // g[k - 1] if g[k] else 0 for k in range(1, len(g))]


def test_snf_matches_minor_gcds_on_rectangular_matrices():
    rng = random.Random(7)
    for _ in range(300):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        lim = rng.choice([1, 3, 30])
        rows = [[rng.randint(-lim, lim) for _ in range(nc)] for _ in range(nr)]
        if nr > 1 and rng.random() < 0.3:
            rows[-1] = [2 * a + b for a, b in zip(rows[0], rows[1])]
        assert snf_divisors(rows) == minor_divisors(rows)


def test_snf_does_not_blow_up_on_interleaved_passes():
    # interleaving row and column passes while the pivot column was still
    # nonzero grew these entries to hundreds of bits and never returned
    rows = [
        (19, -10, -9, 14, 16, -8, -23),
        (-15, 8, 7, -11, -13, 6, 19),
        (-28, 14, 13, -21, -24, 12, 34),
        (-83, 43, 39, -60, -70, 35, 102),
        (10, -5, -5, 8, 9, -4, -13),
        (45, -23, -21, 33, 38, -19, -55),
    ]
    assert snf_divisors(rows) == [1] * 6 == minor_divisors(rows)


def test_snf_matches_the_euclid_reference_on_larger_matrices():
    # the divisors read off alternating HNFs equal those of the Euclid
    # elimination on shapes where the minors' gcds are out of reach:
    # random matrices, rank-deficient ones and ones with a common factor,
    # and products U D V of a diagonal D between random unimodular
    # matrices, which often take three or four HNFs to diagonalize
    rng = random.Random(31)
    cases = []
    for _ in range(120):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        lim = rng.choice([1, 5, 100])
        rows = [[rng.randint(-lim, lim) for _ in range(nc)] for _ in range(nr)]
        if nr > 2 and rng.random() < 0.3:
            rows[-1] = [3 * a - b for a, b in zip(rows[0], rows[1])]
        if rng.random() < 0.2:
            rows = [[6 * a for a in r] for r in rows]
        cases.append(rows)
    for _ in range(40):
        n = rng.randint(2, 12)
        diag = [rng.choice((0, 1, 2, 3, 4, 6, 12)) for _ in range(n)]
        d = [[diag[i] * (i == j) for j in range(n)] for i in range(n)]
        u, v = random_unimodular(rng, n), random_unimodular(rng, n)
        cases.append(mat_mul(mat_mul(u, d), v))
    for rows in cases:
        assert snf_divisors(rows) == reference.snf_divisors(rows)


@given(int_matrices)
def test_nullspace_annihilates(rows):
    # the reference nullspace that the differential tests below rest on
    m = qmat(rows)
    basis = reference.nullspace(m)
    assert len(basis) == len(m) - rank(m)
    for v in basis:
        assert all(dot(row, v) == 0 for row in m)


@given(int_matrices)
def test_gram_schmidt_orthogonality(rows):
    # the integral GSO: b*_i, row i projected past the rows before it, is
    # orthogonal to them, b_i = b*_i + sum_j mu_ij b*_j, and the squared
    # norms multiply to det^2
    m = qmat(rows)
    if determinant(m) == 0:
        return
    gso = IntGSO.of(*_scaled_rows(m))
    mu, norms = reference.int_rational(gso)
    bstar = []
    for i in range(len(m)):
        head = IntGSO(gso.b[:i], gso.d[: i + 1], gso.lam[:i], gso.den)
        bs, nsq = reference.int_project(head, m[i])
        assert nsq == norm_sq(bs) == norms[i]
        assert all(dot(bs, b) == 0 for b in bstar)
        rec = bs
        for j in range(i):
            rec = vsub(rec, tuple(-mu[i][j] * x for x in bstar[j]))
        assert rec == m[i]
        bstar.append(bs)
    prod = Q(1)
    for ns in norms:
        prod *= ns
    assert prod == determinant(m) ** 2


def _seeded_matrices(count, seed):
    """Seeded rational matrices: square and rectangular, full rank,
    rank-deficient and singular, with entries of denominator up to 6 on
    some rows, and some rows or columns zero or dependent."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.4:
            nc = nr
        lim = rng.choice((1, 3, 12))
        rows = []
        for _ in range(nr):
            den = rng.choice((1, 1, 2, 3, 6))
            rows.append([Q(rng.randint(-lim, lim), den) for _ in range(nc)])
        kind = rng.random()
        if nr > 1 and kind < 0.25:
            # a combination of two other rows
            i, j = rng.sample(range(nr), 2)
            a, b = Q(rng.randint(-3, 3), rng.choice((1, 2))), Q(rng.randint(-3, 3))
            rows[rng.randrange(nr)] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        elif kind < 0.3:
            rows[rng.randrange(nr)] = [Q(0)] * nc
        elif kind < 0.4:
            # a column that is a multiple of another, or zero
            i, j = rng.randrange(nc), rng.randrange(nc)
            a = Q(rng.randint(-2, 2))
            for r in rows:
                r[i] = a * r[j]
        out.append(tuple(tuple(r) for r in rows))
    return out


def test_eliminations_equal_the_rational_references():
    # rank, the pivot count of the gcd echelon of the rows scaled to
    # integers, and linear_dependence, read off the echelon of [W | I],
    # equal the rational Gaussian loops exactly, errors included
    cases = _seeded_matrices(400, 13)
    kinds = dict.fromkeys(("singular", "deficient", "rectangular", "relation"), 0)
    kinds["skipped"] = 0
    for m in cases:
        r = rank(m)
        assert r == reference.rank(m)
        # a pivot-free column before the last pivot
        w, _ = _scaled_rows(m)
        kinds["skipped"] += _echelon(w, len(m[0])) != list(range(r))
        square = len(m) == len(m[0])
        kinds["rectangular"] += not square
        kinds["deficient"] += r < min(len(m), len(m[0]))
        if square and determinant(m) == 0:
            kinds["singular"] += 1
            assert r < len(m)
        try:
            want = reference.linear_dependence(m)
        except WrongRank as exc:
            with pytest.raises(WrongRank, match=str(exc)):
                linear_dependence(m)
        else:
            kinds["relation"] += 1
            assert linear_dependence(m) == want
    assert all(count >= 30 for count in kinds.values()), kinds


def test_eliminations_keep_their_edge_values():
    assert rank(()) == 0 and rank([()]) == 0
    with pytest.raises(DependentTuple):
        Lattice([()])
    for vectors in ([], [()], [(1,)]):
        with pytest.raises(WrongRank, match="dimension 0"):
            linear_dependence(vectors)


def test_rank_refuses_a_ragged_matrix():
    with pytest.raises(DimensionMismatch, match="ragged"):
        rank([[1, 2], [3]])


def test_rank_refuses_floats():
    import numpy as np

    for bad in (1.0, 0.5, np.float64(2)):
        with pytest.raises(PreconditionViolated, match="not exact"):
            rank([[bad, 2], [3, 4]])


def test_integer_normal_forms_reject_fractions():
    # a rational that is no integer is NotIntegral; a float is refused as
    # vector and matrix refuse it, even one of integral value
    import numpy as np

    for normal_form in (hnf, snf_divisors):
        with pytest.raises(NotIntegral):
            normal_form([[Q(1, 2)]])
        with pytest.raises(NotIntegral):
            normal_form([[2, 4], [1, "1/3"]])
        for bad in (0.5, 2.0, np.float64(2)):
            with pytest.raises(PreconditionViolated, match="not exact"):
                normal_form([[2, 4], [1, bad]])
    assert hnf([[Q(2), np.int64(4)], [1, "3"]]) == ((1, 1), (0, 2))
    assert snf_divisors([[Q(2), np.int64(4)], [1, "3"]]) == [1, 2]


def test_vectors_and_matrices_refuse_floats():
    # a float's binary fraction is seldom the number meant: 0.5 is exact,
    # 0.1 is not, and neither is let through
    import numpy as np

    for bad in (0.5, 0.1, np.float64(2)):
        with pytest.raises(PreconditionViolated):
            vector((1, bad))
        with pytest.raises(PreconditionViolated):
            matrix(((1, 0), (0, bad)))
    assert vector((1, "1/3", Fraction(1, 2), np.int64(2))) == (
        Q(1),
        Q(1, 3),
        Q(1, 2),
        Q(2),
    )


def test_unit_vector_and_norms():
    e = unit_vector(3, 1)
    assert norm_sq(e) == 1 and e[1] == 1
    g = gram_matrix(qmat([[1, 1], [0, 1]]))
    assert [list(map(int, r)) for r in g] == [[2, 1], [1, 1]]
