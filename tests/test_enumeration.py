import random

import numpy as np
import pytest

from conftest import random_integer_lattice
from reference import determinant, inverse, normalize_sign
from latred import reduction
from latred.enumeration import (
    enumerate_up_to,
    lll_rows,
    shortest_vector,
    successive_minima,
)
from latred.errors import BudgetExceeded
from latred.lattice import Lattice
from latred.linalg import (
    norm_sq,
    rank,
    row_times_mat,
)
from latred.rationals import Q, qfloor


def coefficient_box(L, bound_sq):
    """Exact per-coordinate bounds: if x = c . B has |x|^2 <= bound then
    c_i^2 <= bound * (G^{-1})_{ii} (Cauchy-Schwarz against the dual basis)."""
    g = [[sum(a * b for a, b in zip(r1, r2)) for r2 in L.basis] for r1 in L.basis]
    ginv = inverse(g)
    out = []
    for i in range(L.rank):
        lim_sq = bound_sq * ginv[i][i]
        c = 0
        while (c + 1) * (c + 1) <= lim_sq:
            c += 1
        out.append(c)
    return out


def brute_force_vectors(L, bound_sq):
    """All nonzero lattice vectors with squared norm <= bound, sign
    normalized, via exhaustive integer search (numpy for the arithmetic;
    entries stay integral so int64 is exact at this scale)."""
    box = coefficient_box(L, bound_sq)
    ranges = [np.arange(-b, b + 1, dtype=np.int64) for b in box]
    coeffs = np.stack(
        np.meshgrid(*ranges, indexing="ij"), axis=-1
    ).reshape(-1, L.rank)
    basis = np.array(
        [[int(x) for x in row] for row in L.basis], dtype=np.int64
    )
    pts = coeffs @ basis
    norms = (pts * pts).sum(axis=1)
    keep = (norms > 0) & (norms <= int(bound_sq))
    found = set()
    for row in pts[keep]:
        found.add(normalize_sign(tuple(Q(int(x)) for x in row)))
    return found


def test_lll_rows_preserves_lattice():
    rng = random.Random(2)
    for _ in range(10):
        L = random_integer_lattice(rng, 4)
        red = reduction.lll(L).basis
        assert abs(determinant(red)) == abs(determinant(L.basis))
        M = Lattice(red)
        from latred.lattice import contains

        assert all(contains(M, b) for b in L.basis)
        assert all(contains(L, b) for b in red)


def test_enumerate_up_to_matches_brute_force():
    rng = random.Random(4)
    for _ in range(15):
        L = random_integer_lattice(rng, 3, 4)
        bound = Q(rng.randint(2, 12))
        got = set(enumerate_up_to(L, bound).vectors)
        assert got == brute_force_vectors(L, bound)


def test_shortest_vector_brute_force_dim4():
    rng = random.Random(8)
    for _ in range(25):
        L = random_integer_lattice(rng, 4, 4)
        v, nsq = shortest_vector(L)
        start = min(norm_sq(r) for r in reduction.lll(L).basis)
        oracle = min(
            int(norm_sq(w)) for w in brute_force_vectors(L, start)
        )
        assert nsq == oracle and norm_sq(v) == nsq


def test_successive_minima_brute_force():
    rng = random.Random(12)
    for _ in range(10):
        L = random_integer_lattice(rng, 3, 3)
        rep = successive_minima(L)
        assert len(rep.minima_sq) == 3
        assert list(rep.minima_sq) == sorted(rep.minima_sq)
        # witnesses are independent and realize the reported norms
        assert rank(list(rep.witnesses)) == 3
        for lam, w in zip(rep.minima_sq, rep.witnesses):
            assert norm_sq(w) == lam
        # greedy oracle over the brute-force ball
        pool = sorted(
            brute_force_vectors(L, rep.minima_sq[-1]),
            key=lambda v: (norm_sq(v), v),
        )
        chosen = []
        for v in pool:
            if rank(chosen + [v]) == len(chosen) + 1:
                chosen.append(v)
            if len(chosen) == 3:
                break
        assert [norm_sq(v) for v in chosen] == list(rep.minima_sq)


def test_enumerate_up_to_refuses_a_float_bound():
    # 0.3 would run with the bound 5404319552844595/18014398509481984
    from latred.errors import PreconditionViolated

    L = Lattice(((Q(1), Q(0)), (Q(0), Q(2))))
    for bound in (0.3, np.float64(4)):
        with pytest.raises(PreconditionViolated):
            enumerate_up_to(L, bound)
    assert enumerate_up_to(L, "4") == enumerate_up_to(Lattice(L.basis), Q(4))


def test_budget_exceeded():
    rng = random.Random(30)
    L = random_integer_lattice(rng, 6, 4)
    with pytest.raises(BudgetExceeded):
        enumerate_up_to(L, Q(10**6), node_budget=10)
    # a request within the pool the lattice holds enumerates nothing
    pool = enumerate_up_to(L, Q(30)).vectors
    got = enumerate_up_to(L, Q(12), node_budget=0).vectors
    assert got == tuple(v for v in pool if norm_sq(v) <= 12)
    with pytest.raises(BudgetExceeded):
        enumerate_up_to(L, Q(31), node_budget=10)


def test_enumeration_canonical_signs():
    rng = random.Random(33)
    L = random_integer_lattice(rng, 3)
    pool = enumerate_up_to(L, Q(6)).vectors
    assert len(set(pool)) == len(pool)
    for v in pool:
        assert normalize_sign(v) == v


def _lll_inputs():
    """300 seeded bases of rank 2..8: integer, rational, and unimodular
    re-basings of both."""
    from conftest import mat_mul, random_unimodular

    rng = random.Random(44)
    out = []
    while len(out) < 300:
        n = rng.randint(2, 8)
        den = rng.choice((1, 1, 2, 3, 6))
        rows = [
            [Q(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(n)]
            for _ in range(n)
        ]
        if not determinant(rows):
            continue
        if rng.random() < 0.5:
            rows = mat_mul(random_unimodular(rng, n), rows)
        out.append(rows)
    return out


def test_integral_lll_matches_rational_reference():
    # lll(L)'s rows equal the rational reference's, and lll_rows on the
    # scaled rows w over den returns an integer unimodular transform that
    # maps w to its IntGSO's rows, over den: on the seeded bases, 60
    # random-minkowski lattices, D_5*, D_7* and L_1..L_3
    from conftest import mat_mul, minkowski_population
    from reference import lll_rows as rational_lll_rows
    from latred.constructions import dual_root_d, glued_prime_lattice
    from latred.linalg import _scaled_rows

    lattices = [Lattice(rows) for rows in _lll_inputs()]
    lattices += minkowski_population(2037, 60) + [dual_root_d(5), dual_root_d(7)]
    lattices += [glued_prime_lattice(k) for k in (1, 2, 3)]
    for L in lattices:
        assert reduction.lll(L).basis == rational_lll_rows(L.basis)
        w, den = _scaled_rows(L.basis)
        t, gso = lll_rows(w, den)
        assert gso.den == den and mat_mul(t, w) == gso.b
        assert abs(determinant(t)) == 1
        assert all(isinstance(x, int) for r in t for x in r)


def test_integral_gso_matches_the_rational_references():
    # mu and norms read off lll_rows' d and lam equal the rational GSO of
    # the LLL rows, and d_n / den^(2n) the Gram determinant of the basis
    from latred.constructions import glued_prime_lattice
    from latred.lattice import covolume_squared
    from reference import gram_schmidt, int_rational
    from latred.linalg import gram_matrix

    lattices = [Lattice(rows) for rows in _lll_inputs()]
    lattices += [glued_prime_lattice(2), glued_prime_lattice(3)]
    for L in lattices:
        want = gram_schmidt(reduction.lll(L).basis)
        assert int_rational(L._lll[1]) == (want.mu, want.norms_sq)
        assert covolume_squared(L) == determinant(gram_matrix(L.basis))


def test_lll_cache_makes_no_fraction(monkeypatch):
    # a Lattice's LLL cache, T and the IntGSO, is built from its rows
    # scaled to integers (linalg._scaled_rows) and holds integers alone:
    # on rational and integer bases, it makes no Fraction.  reduction.lll
    # builds the rational LLL basis
    from fractions import Fraction

    from conftest import minkowski_population
    from latred.constructions import dual_root_d, glued_prime_lattice

    made = [0]
    fraction = Fraction.__new__

    def new(cls, *args, **kwargs):
        made[0] += 1
        return fraction(cls, *args, **kwargs)

    lattices = [Lattice(rows) for rows in _lll_inputs()[:40]]
    lattices += minkowski_population(2038, 20) + [dual_root_d(5), dual_root_d(7)]
    lattices += [glued_prime_lattice(k) for k in (1, 2, 3)]
    monkeypatch.setattr(Fraction, "__new__", new)
    for L in lattices:
        trans, gso = L._lll
        assert all(type(x) is int for r in trans + gso.b + gso.lam for x in r)
    assert made[0] == 0


def test_lll_rows_output_keys_the_benchmark_tracer():
    # the benchmark's tracer keys each lll_rows call by its first argument
    # and its result, each as tuple(tuple(r) for r in ...), to spot
    # repeated work; both keys must build and hash, or a traced run
    # crashes: every part of the result (T, gso) is iterable
    from latred.lattice import IntGSO
    from latred.linalg import _scaled_rows

    for rows in _lll_inputs()[:20]:
        args = _scaled_rows(rows)
        out = lll_rows(*args)
        hash(tuple(tuple(r) for r in args[0]))
        hash(tuple(tuple(r) for r in out))
        t, gso = out
        b, d, lam, den = gso
        assert isinstance(gso, IntGSO) and den == args[1]
        assert len(t) == len(b) == len(rows) and len(lam) == len(b)
        assert d[0] == 1 and len(d) == len(b) + 1


def test_lll_rows_builds_no_gram_schmidt():
    # the integral LLL keeps d and lam alone and reads no rational GSO
    # off them: IntGSO has no rational reading at all (the tests' one is
    # reference.int_rational); no latred module defines or imports a
    # rational gram_schmidt (test_source_rules checks the source text too)
    from importlib import import_module

    from latred.constructions import glued_prime_lattice
    from latred.lattice import IntGSO

    from latred.linalg import _scaled_rows

    assert not hasattr(IntGSO, "rational")
    lll_rows(*_scaled_rows(glued_prime_lattice(3).basis))
    lll_rows(*_scaled_rows(_lll_inputs()[0]))
    for name in ("linalg", "lattice", "enumeration", "reduction", "verification"):
        assert not hasattr(import_module("latred." + name), "gram_schmidt")


def test_pool_coordinates_give_the_pool_vectors():
    # each held vector is w = den v with v its coordinate tuple over the
    # LLL basis, the sign flipped along with the vector's, and its held
    # rho is M |v|^2, M and den those of the LLL basis's IntGSO
    from latred.enumeration import _weights

    rng = random.Random(31)
    for _ in range(10):
        L = random_integer_lattice(rng, 5, 4)
        got = enumerate_up_to(L, Q(rng.randint(10, 30))).vectors
        pool = L._pool
        gso = L._lll[1]
        basis = reduction.lll(L).basis
        assert (pool.m, pool.den) == (_weights(gso)[0], gso.den)
        assert len(pool.rhos) == len(pool.ws) == len(pool.coords) == len(got)
        for v, rho, w, c in zip(got, pool.rhos, pool.ws, pool.coords):
            assert all(isinstance(x, int) for x in (rho, *w, *c))
            assert row_times_mat(c, basis) == v
            assert tuple(Q(a, pool.den) for a in w) == v
            assert Q(rho, pool.m) == norm_sq(v)


def _walk_cases():
    """Seeded lattices for the walker's differential tests: random bases
    of rank 2..7 with entries in [-4, 4], L_1..L_3 and D_5*..D_7*."""
    from latred.constructions import dual_root_d, glued_prime_lattice

    rng = random.Random(2020)
    out = [random_integer_lattice(rng, n, 4) for n in range(2, 8) for _ in range(3)]
    out += [glued_prime_lattice(k) for k in (1, 2, 3)]
    out += [dual_root_d(n) for n in (5, 6, 7)]
    return out


def test_integer_pool_matches_the_fraction_pool():
    # the integer pool's vectors, coordinates, norms and order, and every
    # cut the public enumerate_up_to serves from it, equal the Fraction
    # builder's, on the walker's cases and 20 random-minkowski lattices,
    # held bound the longest LLL row
    import reference
    from bisect import bisect_right

    from conftest import minkowski_population

    for L in _walk_cases() + minkowski_population(2028, 20):
        top = max(map(norm_sq, reduction.lll(L).basis))
        got = enumerate_up_to(L, top)
        pool = L._pool
        vectors, coords, norms = reference.fraction_pool(L, top)
        assert vectors and got.vectors == vectors
        assert tuple(map(pool.vector, range(len(pool.rhos)))) == vectors
        assert pool.coords == coords
        assert tuple(map(pool.norm_sq, range(len(pool.rhos)))) == norms
        for cut in (top / 3, norms[0], norms[len(norms) // 2], top):
            want = vectors[: bisect_right(norms, cut)]
            assert enumerate_up_to(L, cut, node_budget=0).vectors == want


def test_pool_picks_match_the_rational_reference():
    # greedy bases with their StepRecords, successive minima and shortest
    # bases from the integer pool equal the references built on Fraction
    # pools, is_primitive_tuple and linalg.rank, on the walker's cases
    # below rank 20 and 20 random-minkowski lattices
    import reference
    from conftest import minkowski_population
    from latred.reduction import minkowski_reduce, shortest_basis

    cases = [L for L in _walk_cases() if L.rank < 20]
    for L in cases + minkowski_population(2029, 20):
        rows = L.basis
        mink = minkowski_reduce(Lattice(rows))
        basis, ties = reference.minkowski_reduce(Lattice(rows))
        assert mink.basis == basis
        assert [(r.index, r.vector, r.norm_sq, r.ties) for r in mink.step_log] == [
            (i, v, norm_sq(v), t) for i, (v, t) in enumerate(zip(basis, ties))
        ]
        minima = successive_minima(Lattice(rows))
        assert (minima.minima_sq, minima.witnesses) == reference.successive_minima(
            Lattice(rows)
        )
        sb = shortest_basis(Lattice(rows))
        assert (sb.basis, sb.max_norm_sq, sb.certified) == reference.shortest_basis(
            Lattice(rows)
        )


def _run(walk, budget):
    """(what walk(budget) yields before it ends or runs out of a budget
    of that many nodes, whether it ran out, the nodes it spent)."""
    from latred.enumeration import _Budget

    spend = _Budget(budget)
    got = []
    try:
        for item in walk(spend):
            got.append(item)
    except BudgetExceeded:
        return got, True, budget - spend.left
    return got, False, budget - spend.left


def _den_sum(gso, lll, x):
    """den sum_k x_k b_k over the LLL rows b, den that of their IntGSO."""
    return tuple(gso.den * a for a in row_times_mat(x, lll))


def test_integer_walk_matches_the_rational_walk():
    # the same leaves in the same order, rho = M times the rational
    # squared norm, the same nodes spent, and the same leaves before the
    # budget runs out at a third and at one node short of the whole walk.
    # Each leaf's vector is den sum_k x_k b_k, also on walks past the
    # first i rows (lo = i, x_0..x_i-1 zero) and on the lifts of their
    # leaves (top=, x_i.. as given).  A walk on a _table built once for
    # the IntGSO yields what _walk yields
    import reference
    from latred.enumeration import _Budget, _nearest_plane, _table, _walk, _walk_on

    for L in _walk_cases():
        gso, lll = L._lll[1], reduction.lll(L).basis
        mu, c = reference.int_rational(gso)
        table = _table(gso)
        m = table[0]
        # twice the longest LLL row (once on L_3, whose walk is then
        # already a thousand nodes)
        bound = max(map(norm_sq, lll)) * (2 if L.rank < 20 else 1)
        scaled = qfloor(bound * m)
        want = _run(lambda b: reference.walk(mu, c, None, [bound], b), 10**6)
        got = _run(lambda b: _walk(gso, [scaled], b), 10**6)
        assert got[1:] == want[1:] == (False, want[2])
        assert [(x, Q(rho, m)) for x, rho, _ in got[0]] == want[0] and want[0]
        assert all(u == _den_sum(gso, lll, x) for x, _, u in got[0])
        for budget in (want[2] // 3, want[2] - 1):
            got = _run(lambda b: _walk(gso, [scaled], b), budget)
            ref = _run(lambda b: reference.walk(mu, c, None, [bound], b), budget)
            assert got[1] and got[1:] == ref[1:]
            assert [(x, Q(rho, m)) for x, rho, _ in got[0]] == ref[0]
        for i in sorted({1, L.rank // 2, L.rank - 1}):
            leaves = list(_walk(gso, [scaled], _Budget(10**6), lo=i))
            assert leaves and all(not any(x[:i]) for x, _, _ in leaves)
            assert all(u == _den_sum(gso, lll, x) for x, _, u in leaves)
            shared = _walk_on(gso, table, [scaled], _Budget(10**6), i, None)
            assert list(shared) == leaves
            for x, rho, _ in leaves[:3]:
                # under the full norm of the leaf's nearest-plane lift
                near = [rho + _nearest_plane(gso, table, list(x), i)]
                lifts = list(_walk(gso, near, _Budget(10**6), top=(x[i:], rho)))
                assert lifts and all(y[i:] == x[i:] for y, _, _ in lifts)
                assert all(u == _den_sum(gso, lll, y) for y, _, u in lifts)


def test_successive_minima_walks_once(monkeypatch):
    # the minima's first pool is cut at the longest LLL row, so it holds
    # the rank independent LLL rows and no second growth round runs: on a
    # fresh lattice the minima take one walk
    from conftest import count_calls, minkowski_population
    from latred.constructions import dual_root_d, glued_prime_lattice

    walks = count_calls(monkeypatch, "enumeration._walk")
    lattices = minkowski_population(2039, 40)
    for L in lattices + [dual_root_d(5), glued_prime_lattice(2)]:
        walks["enumeration._walk"] = 0
        successive_minima(L)
        assert walks["enumeration._walk"] == 1


def test_enumeration_builds_no_rational_per_node(monkeypatch):
    # a fresh enumerate_up_to on a fresh lattice, its LLL included, makes
    # the entries and the norm of each kept vector rationals, with one call of
    # enumeration.Q each, and on the Fraction backend no other Fraction:
    # at most (dim + 1) per kept vector, and none per walker node
    from fractions import Fraction

    from latred import enumeration
    from latred.constructions import dual_root_d, glued_prime_lattice

    calls = {"Q": 0, "Fraction": 0}

    def counted(*args):
        calls["Q"] += 1
        return Q(*args)

    fraction = Fraction.__new__

    def new(cls, *args, **kwargs):
        calls["Fraction"] += 1
        return fraction(cls, *args, **kwargs)

    rng = random.Random(2022)
    cases = [(random_integer_lattice(rng, 6, 4), Q(40)) for _ in range(3)]
    cases += [(glued_prime_lattice(2), Q(5, 4)), (dual_root_d(6), Q(3, 2))]
    monkeypatch.setattr(enumeration, "Q", counted)
    monkeypatch.setattr(Fraction, "__new__", new)
    for L, bound in cases:
        calls.update(Q=0, Fraction=0)
        vectors = enumerate_up_to(L, bound).vectors
        most = L.ambient_dim * len(vectors)
        assert vectors and calls["Fraction"] == calls["Q"] <= most


def test_growth_starts_at_the_held_bound(monkeypatch):
    # the greedy reduction grows a pool that enumerate_up_to left from
    # max(its bound, the longest LLL row), up by 3/2: after D_5*'s pool at
    # 4/3 it enumerates nothing, and after L_2's at 6/5 it starts at the
    # longest row, 13/9, short of its last greedy vector (73/36), and
    # spends a pinned number of nodes over the two walks
    from conftest import count_nodes
    from latred.constructions import dual_root_d, glued_prime_lattice
    from latred.reduction import minkowski_reduce

    spent = count_nodes(monkeypatch)
    for L, bound, nodes in (
        (dual_root_d(5), Q(4, 3), 0),
        (glued_prime_lattice(2), Q(6, 5), 2714),
    ):
        enumerate_up_to(L, bound)
        spent[0] = 0
        minkowski_reduce(L)
        assert spent[0] == nodes


def test_pool_picks_build_rationals_only_for_what_they_return(monkeypatch):
    # on a fresh lattice, its LLL included, the greedy reduction and the
    # successive minima compare the pool's integers and build Fractions
    # only for the rank vectors and norms they return: at most
    # rank (dim + 1) each, whatever the pool's size and growth rounds
    from fractions import Fraction

    from conftest import minkowski_population
    from latred.constructions import dual_root_d, glued_prime_lattice
    from latred.reduction import minkowski_reduce

    made = [0]
    fraction = Fraction.__new__

    def new(cls, *args, **kwargs):
        made[0] += 1
        return fraction(cls, *args, **kwargs)

    bases = [L.basis for L in minkowski_population(2027, 6)]
    bases += [glued_prime_lattice(2).basis, dual_root_d(7).basis]
    cases = []
    for basis in bases:
        shared = Lattice(basis)
        # each on a fresh lattice, and the minima after the greedy
        # reduction on a shared one, as verify_minkowski_bounds runs them
        cases += [(Lattice(basis), minkowski_reduce), (Lattice(basis), successive_minima)]
        cases += [(shared, minkowski_reduce), (shared, successive_minima)]
    monkeypatch.setattr(Fraction, "__new__", new)
    for L, run in cases:
        made[0] = 0
        run(L)
        assert 0 < made[0] <= L.rank * (L.ambient_dim + 1)


def test_walks_leave_no_reference_cycle():
    # a finished walk is freed by reference counting, not left to the
    # cyclic collector: pools and KZ lifts make no cycle
    import gc

    from latred.constructions import dual_root_d
    from latred.reduction import kz_reduce

    rng = random.Random(2023)
    L = random_integer_lattice(rng, 6, 4)
    gc.collect()
    gc.disable()
    try:
        enumerate_up_to(L, Q(40))
        kz_reduce(dual_root_d(5))
        assert gc.collect() == 0
    finally:
        gc.enable()
