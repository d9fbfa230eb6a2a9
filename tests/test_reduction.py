import random
from operator import mul

import pytest

from conftest import random_integer_lattice
from reference import determinant, gram_schmidt
from latred.constructions import dual_root_d, hypercubic
from latred.enumeration import shortest_vector, successive_minima
from latred.lattice import Lattice, contains, covolume_squared, is_primitive_tuple
from latred.linalg import norm_sq
from latred.rationals import Q
from latred.reduction import (
    kz_reduce,
    lll,
    minkowski_reduce,
    shortest_basis,
    vdw_delta_table,
)


def assert_is_basis(L, rows):
    assert len(rows) == L.rank
    assert determinant(rows) ** 2 == covolume_squared(L)
    assert all(contains(L, r) for r in rows)


def test_lll_identity_fixed_point():
    L = hypercubic(3)
    res = lll(L)
    assert res.kind == "lll"
    assert res.basis == L.basis


def test_lll_outputs_basis_with_reduced_gso():
    rng = random.Random(6)
    for _ in range(10):
        L = random_integer_lattice(rng, 4)
        res = lll(L)
        assert_is_basis(L, res.basis)
        gso = gram_schmidt(res.basis)
        for i in range(1, 4):
            for j in range(i):
                assert abs(gso.mu[i][j]) <= Q(1, 2)
            lhs = gso.norms_sq[i] + gso.mu[i][i - 1] ** 2 * gso.norms_sq[i - 1]
            assert lhs >= Q(3, 4) * gso.norms_sq[i - 1]


def test_minkowski_greedy_structure():
    rng = random.Random(10)
    for _ in range(10):
        L = random_integer_lattice(rng, 4)
        res = minkowski_reduce(L)
        assert res.kind == "minkowski"
        assert_is_basis(L, res.basis)
        norms = [norm_sq(v) for v in res.basis]
        assert norms == sorted(norms)
        _, lam1 = shortest_vector(L)
        assert norms[0] == lam1
        for k in range(1, L.rank + 1):
            assert is_primitive_tuple(L, res.basis[:k]).verdict
        # every step record realizes its vector and counts at least one tie
        for rec, v, nsq in zip(res.step_log, res.basis, norms):
            assert rec.vector == v and rec.norm_sq == nsq and rec.ties >= 1


def test_minkowski_stepwise_minimal_small():
    """Each greedy vector is the shortest lattice vector keeping the
    prefix primitive, checked against the enumerated ball."""
    from latred.enumeration import enumerate_up_to

    rng = random.Random(14)
    for _ in range(5):
        L = random_integer_lattice(rng, 3)
        res = minkowski_reduce(L)
        for k in range(L.rank):
            nsq = norm_sq(res.basis[k])
            pool = enumerate_up_to(L, nsq).vectors
            better = [
                v
                for v in pool
                if norm_sq(v) < nsq
                and is_primitive_tuple_safe(L, list(res.basis[:k]) + [v])
            ]
            assert not better
            ties = [
                v
                for v in pool
                if norm_sq(v) == nsq
                and is_primitive_tuple_safe(L, list(res.basis[:k]) + [v])
            ]
            assert res.step_log[k].ties == len(ties)


def is_primitive_tuple_safe(L, rows):
    from latred.errors import LatredError

    try:
        return is_primitive_tuple(L, rows).verdict
    except LatredError:
        return False


def test_shared_lattice_matches_fresh_lattices():
    """One Lattice queried in another order, after a large enumeration,
    answers every query as a fresh Lattice per query does: its held pool
    and cached LLL basis never change a result."""
    from latred.enumeration import enumerate_up_to
    from latred.lattice import Lattice

    rng = random.Random(40)
    for i in range(24):
        basis = random_integer_lattice(rng, 3 + i % 4).basis
        top = max(norm_sq(b) for b in basis)
        fresh = [
            enumerate_up_to(Lattice(basis), top / 2),
            successive_minima(Lattice(basis)),
            minkowski_reduce(Lattice(basis)),
            kz_reduce(Lattice(basis)),
            shortest_basis(Lattice(basis)),
        ]
        L = Lattice(basis)
        enumerate_up_to(L, top)
        shared = [
            shortest_basis(L),
            kz_reduce(L),
            minkowski_reduce(L),
            successive_minima(L),
            enumerate_up_to(L, top / 2),
        ]
        assert shared[::-1] == fresh


def test_greedy_and_minima_from_the_longest_row_match_the_reference():
    # the greedy and minima pools start at the longest LLL row, the
    # references' at the shortest, doubling: the same bases, norms and tie
    # counts on seeded unimodular re-basings of random-minkowski lattices,
    # each starting from its own LLL basis, and on L_2, whose greedy grows
    # past its longest LLL row (73/36 > 13/9).  A re-basing answers as the
    # lattice it re-bases does
    import reference
    from conftest import mat_mul, minkowski_population, random_unimodular
    from latred.constructions import glued_prime_lattice

    def answers(rows):
        mink = minkowski_reduce(Lattice(rows))
        minima = successive_minima(Lattice(rows))
        basis, ties = reference.minkowski_reduce(Lattice(rows))
        assert mink.basis == basis
        assert [(r.norm_sq, r.ties) for r in mink.step_log] == [
            (norm_sq(v), t) for v, t in zip(basis, ties)
        ]
        assert (minima.minima_sq, minima.witnesses) == reference.successive_minima(
            Lattice(rows)
        )
        return mink, minima

    L = glued_prime_lattice(2)
    mink, _ = answers(L.basis)
    assert max(map(norm_sq, L._lll[0])) == Q(13, 9)
    assert mink.step_log[-1].norm_sq == Q(73, 36)
    rng = random.Random(2032)
    for L in minkowski_population(2031, 8):
        want = answers(L.basis)
        for _ in range(2):
            u = random_unimodular(rng, L.rank, steps=40)
            assert answers(mat_mul(u, L.basis)) == want


def test_kz_projected_minimality_small():
    rng = random.Random(18)
    for _ in range(8):
        L = random_integer_lattice(rng, 4)
        res = kz_reduce(L)
        assert res.kind == "kz"
        assert_is_basis(L, res.basis)
        gso = gram_schmidt(res.basis)
        from reference import project_orthogonal_with_lift

        _, lam1 = shortest_vector(L)
        assert gso.norms_sq[0] == lam1
        for k in range(1, L.rank):
            P, _ = project_orthogonal_with_lift(L, res.basis[:k])
            _, pmin = shortest_vector(P)
            assert gso.norms_sq[k] == pmin


def test_kz_tie_break_smallest_full_norm():
    L = dual_root_d(5)
    res = kz_reduce(L)
    # every projected minimizer class is represented by a lift of minimal
    # full norm, so norms never exceed the known 5/4 profile
    assert max(norm_sq(v) for v in res.basis) == Q(5, 4)


def test_kz_reduce_runs_one_lll_per_step(monkeypatch):
    # one basis of L is carried from its LLL basis through every step,
    # and each step's completion is LLL-reduced past the chosen vector by
    # the integral LLL core in place: the one lll_rows call is L's own,
    # with the same tie counts
    from conftest import count_calls
    from latred.constructions import glued_prime_lattice

    calls = count_calls(monkeypatch, "enumeration.lll_rows")
    for L, lll_calls, ties in (
        (dual_root_d(5), 1, (5, 4, 16, 3, 2)),
        (glued_prime_lattice(2), 1, (14, 13, 1, 8, 7, 6, 5, 4, 3, 2, 4, 16, 3, 2)),
    ):
        calls["enumeration.lll_rows"] = 0
        res = kz_reduce(L)
        assert calls["enumeration.lll_rows"] == lll_calls
        assert tuple(rec.ties for rec in res.step_log) == ties


def test_shortest_basis_certificate():
    rng = random.Random(22)
    for _ in range(6):
        L = random_integer_lattice(rng, 3)
        rep = shortest_basis(L)
        assert rep.certified
        assert_is_basis(L, rep.basis)
        assert max(norm_sq(v) for v in rep.basis) == rep.max_norm_sq
        # nothing in the enumerated pool gives a basis with smaller max
        minima = successive_minima(L)
        assert rep.max_norm_sq >= minima.minima_sq[-1]
        # and no KZ basis does better
        assert rep.max_norm_sq <= max(map(norm_sq, kz_reduce(L).basis))


def test_shortest_basis_subset_search_honours_the_node_budget(monkeypatch):
    # D_5*'s subset search needs 9 nodes and its enumerations 29, so the
    # enumerations (enumeration._pool_to, the pool builder) run at the
    # default budget here and only the subset search sees the small one
    from latred import enumeration, reduction
    from latred.errors import BudgetExceeded

    kz, enum, search = (
        reduction.kz_reduce,
        enumeration._pool_to,
        reduction._basis_subset_search,
    )
    exhausted = []

    def counted_search(L, pool, budget):
        try:
            return search(L, pool, budget)
        except BudgetExceeded:
            exhausted.append(budget)
            raise

    monkeypatch.setattr(reduction, "kz_reduce", lambda L, budget: kz(L))
    monkeypatch.setattr(
        enumeration,
        "_pool_to",
        lambda L, p, q, budget: enum(L, p, q, enumeration.DEFAULT_BUDGET),
    )
    monkeypatch.setattr(reduction, "_basis_subset_search", counted_search)
    rep = shortest_basis(dual_root_d(5), node_budget=8)
    assert not rep.certified
    assert exhausted == [8]
    rep = shortest_basis(dual_root_d(5), node_budget=9)
    assert rep.certified and rep.max_norm_sq == Q(5, 4)
    assert exhausted == [8]


def test_delta_table_recurrence():
    t = vdw_delta_table(12, False)
    total = Q(0)
    for k, v in enumerate(t.values, start=1):
        if k > 1:
            assert v == max(Q(1), (total + 1) / 4)
        total += v
    assert not any(t.improved)


def test_delta_table_improved_entries():
    t = vdw_delta_table(9, True)
    assert t.values[5] == Q(3, 2) and t.values[6] == Q(7, 4)
    assert t.values[7] == Q(19, 8)
    assert t.improved[5] and t.improved[6] and t.improved[7]
    assert not t.improved[0]


def _differential_lattices(count=40, seed=90, top=8):
    """count seeded lattices of rank 2..top: integer and rational bases,
    half of them unimodularly re-based."""
    from conftest import random_unimodular
    from conftest import mat_mul

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, top)
        den = rng.choice((1, 1, 2, 3))
        rows = [
            [Q(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(n)]
            for _ in range(n)
        ]
        if not determinant(rows):
            continue
        if rng.random() < 0.5:
            rows = mat_mul(random_unimodular(rng, n), rows)
        out.append(rows)
    return out


def test_integer_core_matches_the_rational_reference():
    # greedy bases and every tie count, successive minima and shortest
    # bases equal the reference built on is_primitive_tuple and
    # linalg.rank over coordinates in L.basis
    import reference

    for rows in _differential_lattices():
        mink = minkowski_reduce(Lattice(rows))
        got = (mink.basis, tuple(rec.ties for rec in mink.step_log))
        assert got == reference.minkowski_reduce(Lattice(rows))
        minima = successive_minima(Lattice(rows))
        assert (minima.minima_sq, minima.witnesses) == reference.successive_minima(
            Lattice(rows)
        )
        if len(rows) <= 6:
            sb = shortest_basis(Lattice(rows))
            assert (sb.basis, sb.max_norm_sq, sb.certified) == (
                reference.shortest_basis(Lattice(rows))
            )


def test_shortest_basis_matches_the_kz_first_reference(monkeypatch):
    # the growing-pool walk gives exactly the (basis, max_norm_sq,
    # certified) of the KZ-first search on one fixed-bound pool, and runs
    # KZ only after a subset search ran out: on the 40 differential
    # lattices at the default budget, and on 200 seeded ones, D_5* and L_1
    # with the subset search held to 1, 3, 8 and 20 nodes, or running out
    # on its first call only, with KZ's basis or the LLL basis as the cap;
    # both routines see the same patched search and KZ reduction
    import reference
    from latred import reduction
    from latred.constructions import glued_prime_lattice
    from latred.errors import BudgetExceeded

    search = reduction._basis_subset_search
    kz = [reduction.kz_reduce]
    seen = dict.fromkeys(("exhausted", "kz", "uncertified", "found_later"), 0)

    def kz_counted(L, node_budget):
        seen["kz"] += 1
        return kz[0](L, node_budget)

    monkeypatch.setattr(reduction, "kz_reduce", kz_counted)

    def compare(rows, searcher=None):
        # a fresh patched search for each routine
        if searcher:
            monkeypatch.setattr(reduction, "_basis_subset_search", searcher())
        before = dict(seen)
        sb = shortest_basis(Lattice(rows))
        ran_out = seen["exhausted"] > before["exhausted"]
        assert seen["kz"] - before["kz"] == ran_out
        seen["uncertified"] += not sb.certified
        got = (sb.basis, sb.max_norm_sq, sb.certified)
        if searcher:
            monkeypatch.setattr(reduction, "_basis_subset_search", searcher())
        assert got == reference.shortest_basis_kz_first(Lattice(rows))

    def held_to(nodes):
        def held(L, pool, budget):
            try:
                return search(L, pool, nodes)
            except BudgetExceeded:
                seen["exhausted"] += 1
                raise

        return held

    def first_call_runs_out():
        calls = []

        def held(L, pool, budget):
            calls.append(budget)
            if len(calls) == 1:
                seen["exhausted"] += 1
                raise BudgetExceeded("subset search budget exhausted")
            found = search(L, pool, budget)
            seen["found_later"] += found is not None
            return found

        return held

    for rows in _differential_lattices():
        if len(rows) <= 6:
            compare(rows)
    # no search ran out, so (compare) shortest_basis ran no KZ reduction
    assert seen["exhausted"] == 0
    cases = _differential_lattices(200, 92, 6)
    cases += [dual_root_d(5).basis, glued_prime_lattice(1).basis]
    for nodes in (1, 3, 8, 20):
        for rows in cases:
            compare(rows, lambda: held_to(nodes))
    assert seen["uncertified"] >= 400
    # a basis found past the level that ran out stays uncertified; the
    # LLL basis, whose maximum is often above lambda-bar, leaves levels
    # to search past it
    for cap in (kz[0], lambda L, node_budget: lll(L)):
        kz[0] = cap
        for rows in cases:
            compare(rows, first_call_runs_out)
    assert seen["found_later"] >= 40


def test_shortest_basis_after_the_greedy_reduction_reads_its_pool(monkeypatch):
    # minkowski_reduce(L_2) leaves L_2's pool at 73/36, past lambda-bar =
    # 5/4: the walk decides every level on that pool, with no enumeration
    # and no KZ reduction
    from conftest import count_calls
    from latred.constructions import glued_prime_lattice

    L = glued_prime_lattice(2)
    minkowski_reduce(L)
    calls = count_calls(monkeypatch, "reduction.kz_reduce", "enumeration._walk")
    sb = shortest_basis(L)
    assert sb.certified and sb.max_norm_sq == Q(5, 4)
    assert calls == {"reduction.kz_reduce": 0, "enumeration._walk": 0}


def test_enumeration_node_counts_are_pinned(monkeypatch):
    # the walker's nodes are deterministic: KZ on D_5* and L_2 and a
    # fresh shortest basis of L_2, each on a lattice that holds no pool
    from conftest import count_nodes
    from latred.constructions import dual_root_d, glued_prime_lattice

    spent = count_nodes(monkeypatch)
    for run, nodes in (
        (lambda: kz_reduce(dual_root_d(5)), 110),
        (lambda: kz_reduce(glued_prime_lattice(2)), 1200),
        (lambda: shortest_basis(glued_prime_lattice(2)), 467),
    ):
        spent[0] = 0
        run()
        assert spent[0] == nodes


def test_each_kz_step_builds_one_walk_table(monkeypatch):
    # a KZ step's projected walk, its nearest-plane bound and every lift
    # walk read one _table of the step's IntGSO: one table per step, and
    # the k <= 2 oracle of verify_kz_structure builds one for all of the
    # claim's levels
    from conftest import count_calls
    from latred import verification
    from latred.constructions import dual_root_d, glued_prime_lattice

    calls = count_calls(monkeypatch, "enumeration._table")
    for run, tables in (
        (lambda: kz_reduce(dual_root_d(5)), 5),
        (lambda: kz_reduce(glued_prime_lattice(2)), 14),
        (lambda: verification.verify_kz_structure(2), 14 + 1),
    ):
        calls["enumeration._table"] = 0
        run()
        assert calls["enumeration._table"] == tables


def _kz_cases():
    """40 seeded bases of rank 2..7 with entries of denominator up to 3,
    half of them unimodularly re-based, after L_2 and D_5*."""
    from conftest import mat_mul, random_unimodular
    from latred.constructions import glued_prime_lattice

    rng = random.Random(91)
    cases = [glued_prime_lattice(2).basis, dual_root_d(5).basis]
    while len(cases) < 42:
        n = rng.randint(2, 7)
        den = rng.choice((1, 1, 2, 3))
        rows = [
            [Q(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(n)]
            for _ in range(n)
        ]
        if not determinant(rows):
            continue
        if rng.random() < 0.5:
            rows = mat_mul(random_unimodular(rng, n), rows)
        cases.append(rows)
    return cases


def test_lift_walks_match_the_dense_top_walk():
    # a lift walk adds x_k steps[k] to its top row only for the fixed
    # x_k != 0.  On every KZ step of L_2, each projected minimizer's lift
    # walk, under the step's nearest-plane bound (which the lifts of a
    # later minimizer may all exceed) and stopped at level 0 and at level
    # i // 2, yields the leaves (x, rho, u) of
    # reference.lift_walk, whose centres and vectors are dense sums over
    # every level above, in order, and spends the same nodes
    import reference
    from latred.constructions import glued_prime_lattice
    from latred.enumeration import (
        _Budget,
        _nearest_plane,
        _projected_shortest,
        _put,
        _table,
        _walk_on,
    )
    from latred.reduction import _kz_candidates

    gso = glued_prime_lattice(2)._lll[2]
    n = len(gso.b)
    walks = zero_tops = 0
    for i in range(n):
        table = _table(gso)
        tops, rho = _projected_shortest(gso, table, i, _Budget(10**6))
        near = rho + _nearest_plane(gso, table, [0] * i + list(tops[0][0]), i)
        for top, _ in tops:
            zero_tops += 0 in top
            for lo in sorted({0, i // 2}):
                got, want = _Budget(10**6), _Budget(10**6)
                leaves = list(_walk_on(gso, table, [near], got, lo, (top, rho)))
                dense = reference.lift_walk(gso, [near], want, lo, (top, rho))
                assert leaves == list(dense) and got.left == want.left
                walks += bool(leaves)
        gso = _put(gso, i, _kz_candidates(gso, i, _Budget(10**6))[3])
    assert walks >= 2 * n and zero_tops >= n // 2


def test_put_matches_the_dense_combination(monkeypatch):
    # _put combines each new row and its head over the nonzero
    # coefficients alone: the whole IntGSO (b, d, lam, den) equals
    # reference.dense_put's, which takes full dot products, at every put
    # of kz_reduce on L_1 and the cases above (L_2 and D_5* among them),
    # and at puts of an x zero before i and of x with a signed unit
    # vector past i, after zeros or a combination of the rows before i
    from conftest import checked_puts
    from latred import enumeration
    from latred.constructions import glued_prime_lattice

    seen = checked_puts(monkeypatch)
    cases = [glued_prime_lattice(1).basis] + _kz_cases()
    for rows in cases:
        kz_reduce(Lattice(rows))
    assert seen[0] == sum(map(len, cases))
    rng = random.Random(5)
    for L in (dual_root_d(5), glued_prime_lattice(2)):
        gso = L._lll[2]
        n = L.rank
        for i in range(n):
            head = [rng.randint(-2, 2) for _ in range(i)]
            x = [0] * i + [rng.randint(-3, 3) for _ in range(n - i)]
            x[rng.randrange(i, n)] = 1
            enumeration._put(gso, i, x)
            for j in range(i, n):
                unit = [0] * (n - i)
                unit[j - i] = (-1) ** j
                enumeration._put(gso, i, [0] * i + unit)
                enumeration._put(gso, i, head + unit)
    assert seen[0] == sum(map(len, cases)) + sum(n + n * (n + 1) for n in (5, 14))


def test_put_and_solve_keep_the_lattice():
    # _put keeps the rows before i, puts x . b at row i and LLL-reduces
    # the rows past it, on a basis of the same lattice: d_n is the same
    # and the old rows have integral _solve coordinates over the new ones.
    # _solve is the integer solve on any IntGSO; on the LLL basis's it is
    # coordinates through T.  Seeded random x with x[i:] of gcd 1, each
    # put on the basis the last one left.  The x that _kz_candidates
    # gives with its pick is the pick's own, sign included: _put of it
    # puts den v at row i, and the norm is v's
    from math import gcd

    from latred.enumeration import _Budget, _put
    from latred.lattice import IntGSO, _solve, coordinates
    from latred.linalg import row_times_mat
    from latred.reduction import _kz_candidates

    rng = random.Random(47)
    puts = 0
    for rows in _kz_cases():
        L = Lattice(rows)
        _, trans, gso = L._lll
        n = L.rank
        for _ in range(3):
            v = row_times_mat([rng.randint(-3, 3) for _ in range(n)], L.basis)
            assert coordinates(L, v) == row_times_mat(_solve(gso, v), trans)
        for _ in range(4):
            i = rng.randrange(n)
            x = [rng.randint(-3, 3) for _ in range(n)]
            if gcd(*x[i:]) != 1:
                continue
            v, norm, ties, y = _kz_candidates(gso, i, _Budget(10**6))
            assert _put(gso, i, y).b[i] == tuple(a * gso.den for a in v)
            assert norm == norm_sq(v) and ties >= 1
            out = _put(gso, i, x)
            b, d, lam, den = out
            assert den == gso.den and b[:i] == gso.b[:i] and d[-1] == gso.d[-1]
            assert b[i] == tuple(sum(map(mul, x, col)) for col in zip(*gso.b))
            # d and lam are the rows' own
            again = IntGSO((), (1,), (), den)
            for r in b:
                again = again.appended(r)
            assert again.d == d
            assert all(tuple(lam[k][:k]) == again.lam[k] for k in range(n))
            for r in gso.b:
                z = _solve(out, [Q(a, den) for a in r])
                assert all(isinstance(a, int) for a in z)
            # size-reduced past i, and Lovasz past i + 1 (delta = 3/4)
            for k in range(i + 1, n):
                assert all(abs(2 * lam[k][j]) <= d[j + 1] for j in range(k))
                if k > i + 1:
                    m = lam[k][k - 1]
                    assert 4 * (d[k + 1] * d[k - 1] + m * m) >= 3 * d[k] ** 2
            gso = out
            puts += 1
    assert puts >= 60


def test_kz_reduce_matches_the_completion_reference():
    # bases and tie counts equal the reference that completes every prefix
    # by HNF and solves coordinates by the Gram inverse, on 40 seeded
    # lattices of rank 2..7 (half unimodularly re-based), L_2 and D_5*
    import reference

    for rows in _kz_cases():
        kz = kz_reduce(Lattice(rows))
        got = (kz.basis, tuple(rec.ties for rec in kz.step_log))
        assert got == reference.kz_reduce(Lattice(rows))


def test_kz_reduce_matches_the_projection_lattice_reference():
    # the walks past each prefix on one IntGSO give the bases and step
    # records of the reduction that enumerated one projection Lattice per
    # step, and the tie counts of the completion reference, on the cases
    # above and L_1, D_6*, D_7*.  At small budgets each either raises
    # BudgetExceeded or returns the whole reduction; at 0 both raise
    import reference
    from latred.constructions import glued_prime_lattice
    from latred.errors import BudgetExceeded

    def outcome(kz, rows, budget):
        try:
            return kz(Lattice(rows), budget)
        except BudgetExceeded:
            return None

    cases = _kz_cases() + [
        glued_prime_lattice(1).basis,
        dual_root_d(6).basis,
        dual_root_d(7).basis,
    ]
    for rows in cases:
        got = kz_reduce(Lattice(rows))
        assert got == reference.kz_reduce_on_projections(Lattice(rows))
        ties = tuple(rec.ties for rec in got.step_log)
        assert (got.basis, ties) == reference.kz_reduce(Lattice(rows))
        for kz in (kz_reduce, reference.kz_reduce_on_projections):
            assert outcome(kz, rows, 0) is None
            assert outcome(kz, rows, 10) in (None, got)
            assert outcome(kz, rows, 40) in (None, got)


def test_kz_reduce_budget_bounds_each_step(monkeypatch):
    # node_budget bounds every _Budget that kz_reduce makes: one per
    # step, step 0 included, for all of its walks.  The most any of them
    # spends on L_2 is just enough
    from latred import enumeration
    from latred.constructions import glued_prime_lattice
    from latred.errors import BudgetExceeded

    made = []
    init = enumeration._Budget.__init__

    def recorded(self, n):
        init(self, n)
        made.append((self, n))

    monkeypatch.setattr(enumeration._Budget, "__init__", recorded)
    want = kz_reduce(glued_prime_lattice(2))
    need = max(n - budget.left for budget, n in made)
    assert kz_reduce(glued_prime_lattice(2), node_budget=need) == want
    with pytest.raises(BudgetExceeded):
        kz_reduce(glued_prime_lattice(2), node_budget=need - 1)
    with pytest.raises(BudgetExceeded):
        kz_reduce(glued_prime_lattice(2), node_budget=50)
