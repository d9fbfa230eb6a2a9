"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line with its elapsed time and asserting the stated runtime
budget.  All numeric comparisons are exact; there are no tolerances."""

import random
import time

from conftest import mat_mul, random_integer_lattice, random_unimodular
from reference import determinant, gram_schmidt
from latred.constructions import (
    dual_root_d,
    glued_prime_lattice,
    l_proj,
    lattice42,
)
from latred.enumeration import (
    enumerate_up_to,
    shortest_vector,
    successive_minima,
)
from latred.lattice import (
    contains,
    covolume_squared,
    is_primitive_tuple,
    primitive_completion,
)
from latred.linalg import (
    norm_sq,
    rank,
    unit_vector,
    vector,
)
from latred.rationals import Q
from latred.reduction import (
    kz_reduce,
    minkowski_reduce,
    shortest_basis,
    vdw_delta_table,
)
from latred.verification import (
    check_attempt21,
    difference_lattice_basis,
    difference_lattice_min,
    similar_to_dual_root,
    verify_height_lift,
    verify_kz_structure,
    verify_theorem_gap,
)


class _Criterion:
    def __init__(self, number, limit_seconds):
        self.number = number
        self.limit = limit_seconds
        self.start = time.monotonic()

    def finish(self, ok=True):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if ok and elapsed < self.limit else "FAIL"
        print(
            "criterion %d: %s (%.1fs, limit %ds)"
            % (self.number, verdict, elapsed, self.limit)
        )
        assert ok
        assert elapsed < self.limit


def test_criterion_1_dual_root_5_regression():
    c = _Criterion(1, 1)
    L = dual_root_d(5)
    minima = successive_minima(L)
    assert list(minima.minima_sq) == [Q(1)] * 5
    mink = minkowski_reduce(L)
    assert max(norm_sq(v) for v in mink.basis) == Q(5, 4)
    units = [unit_vector(5, i) for i in range(5)]
    assert not is_primitive_tuple(L, units).verdict
    c.finish()


def test_criterion_2_quarter_bound_equality_and_random():
    c = _Criterion(2, 600)
    for k in (6, 7):
        L = dual_root_d(k)
        mink = minkowski_reduce(L)
        minima = successive_minima(L)
        assert norm_sq(mink.basis[k - 1]) == Q(k, 4) * minima.minima_sq[k - 1]
        assert similar_to_dual_root(mink.basis)
    rng = random.Random(2026)
    for _ in range(200):
        L = random_integer_lattice(rng, 7, 4)
        mink = minkowski_reduce(L)
        minima = successive_minima(L)
        for k in (6, 7):
            assert norm_sq(mink.basis[k - 1]) <= Q(k, 4) * minima.minima_sq[k - 1]
    c.finish()


def test_criterion_3_delta_table_closed_forms():
    c = _Criterion(3, 1)
    plain = vdw_delta_table(20, False)
    for i in range(1, 21):
        assert plain.values[i - 1] == max(Q(1), Q(5, 4) ** (i - 4))
    improved = vdw_delta_table(20, True)
    for k in range(8, 21):
        assert improved.values[k - 1] == Q(608, 625) * Q(5, 4) ** (k - 4)
    c.finish()


def test_criterion_4_gap_on_dim_14():
    c = _Criterion(4, 300)
    L = glued_prime_lattice(2)
    mink = minkowski_reduce(L)
    # first 13 vectors are signed units on coordinates 2..14
    prefix_coords = []
    for v in mink.basis[:13]:
        nz = [i for i, x in enumerate(v) if x]
        assert len(nz) == 1 and abs(v[nz[0]]) == 1
        prefix_coords.append(nz[0])
    assert sorted(prefix_coords) == list(range(1, 14))
    v14_sq = norm_sq(mink.basis[13])
    assert v14_sq > 2
    # enumeration oracle: cheapest completion of the unit prefix
    pool = enumerate_up_to(L, v14_sq).vectors
    covol_sq = covolume_squared(L)
    oracle = min(
        norm_sq(w)
        for w in pool
        if rank(list(mink.basis[:13]) + [w]) == 14
        and determinant(list(mink.basis[:13]) + [w]) ** 2 == covol_sq
    )
    assert v14_sq == oracle == Q(73, 36)
    kz = verify_kz_structure(2)
    assert kz.success
    assert max(norm_sq(v) for v in kz_reduce(L).basis) == Q(5, 4)
    sb = shortest_basis(L)
    assert sb.certified and sb.max_norm_sq == Q(5, 4)
    assert v14_sq > sb.max_norm_sq
    c.finish()


def test_criterion_5_structured_kz_dim_39():
    c = _Criterion(5, 120)
    rep = verify_kz_structure(3)  # no generic enumeration at this size
    assert rep.success, rep.verdicts
    gap = verify_theorem_gap(3)
    assert gap.success and gap.quantities["v_last_sq"] > 3
    for m in range(2, 7):
        min_sq, _ = difference_lattice_min(m)
        from latred.lattice import Lattice

        pool = enumerate_up_to(Lattice(difference_lattice_basis(m)), min_sq)
        assert min(norm_sq(v) for v in pool.vectors) == min_sq
    c.finish()


def test_criterion_6_appendix_pipeline(appendix42_report):
    c = _Criterion(6, 900)
    # the single-threaded scan ran in the shared fixture; charge its
    # recorded wall time to this criterion's budget
    c.start -= appendix42_report.elapsed
    P = l_proj()
    assert covolume_squared(P) == 576
    n = P.ambient_dim
    for i in range(n):
        for j in range(i + 1, n):
            d = tuple(
                Q(1) if t == i else Q(-1) if t == j else Q(0) for t in range(n)
            )
            assert not contains(P, d)
    bad = check_attempt21()
    assert not bad.success and not bad.no_unit_coefficient
    mags = sorted(abs(x) for x in bad.relation.coefficients)
    assert mags.count(6) == 1 and mags.count(2) == 9 and mags.count(1) == 12
    rep = appendix42_report
    assert rep.success
    assert abs(rep.relation.coefficients[0]) == 3
    assert abs(rep.relation.coefficients[1]) == 2
    assert all(abs(x) != 1 for x in rep.relation.coefficients)
    assert rep.violations == []
    assert rep.families_checked == {
        "pairs": 861,
        "signed_quadruples": 335790,
        "quintuples": 850625,
    }
    c.finish()


def test_criterion_7_height_lift(appendix42_report):
    c = _Criterion(7, 300)
    rep = verify_height_lift(appendix=appendix42_report)
    assert rep.success, rep.verdicts
    _, vecs = lattice42()
    rel = appendix42_report.relation
    from latred.constructions import default_heights

    heights = default_heights(len(vecs))
    s = sum((a * h for a, h in zip(rel.coefficients, heights)), Q(0))
    expected = tuple([Q(0)] * 42) + (s,)
    assert rep.witnesses["shortest"] == expected
    assert rep.verdicts["no_swap_gives_basis"]
    c.finish()


def test_criterion_8_property_suites():
    c = _Criterion(8, 600)
    rng = random.Random(88)
    # shortest_vector against exhaustive search on 100 dim-4 lattices
    from test_enumeration import brute_force_vectors
    from latred.reduction import lll

    for _ in range(100):
        L = random_integer_lattice(rng, 4, 4)
        _, nsq = shortest_vector(L)
        start = min(norm_sq(r) for r in lll(L).basis)
        assert nsq == min(norm_sq(w) for w in brute_force_vectors(L, start))
    # completion bound on 100 instances of dimension <= 8
    done = 0
    while done < 100:
        n = rng.randint(2, 8)
        L = random_integer_lattice(rng, n, 2)
        rows = mat_mul(random_unimodular(rng, n), L.basis)
        k = rng.randint(1, n - 1)
        sub = list(rows[:k])
        minima = successive_minima(L)
        y0 = next(
            (
                w
                for w in minima.witnesses
                if rank(sub + [vector(w)]) == k + 1
            ),
            None,
        )
        if y0 is None:
            continue
        lam_sq = norm_sq(y0)
        y = primitive_completion(L, sub, y0, lam_sq)
        assert is_primitive_tuple(L, sub + [y]).verdict
        pivots = gram_schmidt(sub).norms_sq
        assert norm_sq(y) <= max(lam_sq, (sum(pivots, Q(0)) + lam_sq) / 4)
        done += 1
    # KZ norm sandwich on 100 lattices of rank <= 8
    for _ in range(100):
        n = rng.randint(2, 8)
        L = random_integer_lattice(rng, n, 3)
        kz = kz_reduce(L)
        minima = successive_minima(L)
        for i in range(1, n + 1):
            u_sq = norm_sq(kz.basis[i - 1])
            lam_sq = minima.minima_sq[i - 1]
            assert Q(4, i + 3) * lam_sq <= u_sq <= Q(i + 3, 4) * lam_sq
    c.finish()
