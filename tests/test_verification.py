import gc
import multiprocessing
import random
import sys
import threading
import weakref
from functools import lru_cache
from itertools import combinations
from math import lcm

import pytest

import reference
from reference import vsub
from conftest import minkowski_population, random_integer_lattice
from latred import linalg, verification
from latred.constructions import (
    _glue_vectors,
    _kz_claim,
    _lifted_rows,
    _short_claim,
    attempt21,
    default_heights,
    dual_root_d,
    glued_kz_claimed_basis,
    glued_params,
    glued_prime_lattice,
    glued_shortest_basis,
    lattice42,
    perturbed_lift,
    root_d,
)
from latred.enumeration import enumerate_up_to
from latred.errors import (
    ConstructionMismatch,
    DegenerateHeights,
    DimensionMismatch,
    PreconditionViolated,
    ScanCrossCheckFailed,
    WrongRank,
)
from latred.lattice import Lattice, _dependence, contains, linear_dependence
from latred.linalg import dot, norm_sq, row_times_mat, vscale
from latred.rationals import Q
from latred.reduction import kz_reduce, shortest_basis
from latred.verification import (
    _confirm_member,
    _kth_root,
    appendix_scan,
    check_attempt21,
    check_no_unit_coefficient,
    check_shortest_vectors_42,
    difference_lattice_basis,
    difference_lattice_min,
    similar_to_dual_root,
    verify_kz_structure,
    verify_minkowski_bounds,
    verify_theorem_gap,
)


def test_difference_lattice_min_closed_form_vs_enumeration():
    for m in range(2, 7):
        min_sq, witness = difference_lattice_min(m)
        assert min_sq == m * m - m
        L = Lattice(difference_lattice_basis(m))
        pool = enumerate_up_to(L, min_sq).vectors
        assert min(norm_sq(v) for v in pool) == min_sq
        assert norm_sq(witness) == min_sq
        assert witness in pool or vscale(Q(-1), witness) in pool
    with pytest.raises(PreconditionViolated):
        difference_lattice_min(1)


def test_kz_structure_small_with_cross_check():
    for k in (1, 2):
        rep = verify_kz_structure(k)
        assert rep.success, rep.verdicts
        assert rep.quantities["kz_max_norm_sq"] == Q(5, 4)
        assert rep.verdicts["matches_generic_kz"]


def test_kz_structure_k3_structural_only():
    # the verifier reads the generators alone (latred has no matrix
    # inverse to take, see test_source_rules)
    rep = verify_kz_structure(3)
    assert rep.success, rep.verdicts
    assert "matches_generic_kz" not in rep.verdicts


def test_generic_reductions_reach_the_k3_glued_claims():
    # the k = 3 reports are structural (above), so the generic reductions
    # check the same claims here: a generic KZ basis of L_3 has the claimed
    # basis's full and GSO norms as multisets (ties order them
    # differently), and the certified shortest basis has the claimed
    # maximum 5/4
    L = glued_prime_lattice(3)
    claimed = glued_kz_claimed_basis(3)
    generic = kz_reduce(L)
    assert sorted(map(norm_sq, generic.basis)) == sorted(map(norm_sq, claimed))
    assert sorted(reference.gram_schmidt(generic.basis).norms_sq) == sorted(
        reference.gram_schmidt(claimed).norms_sq
    )
    sb = shortest_basis(L)
    assert sb.certified
    assert sb.max_norm_sq == Q(5, 4)
    assert sb.max_norm_sq == verify_theorem_gap(3).quantities["short_basis_max_sq"]


def test_kz_oracle_passes_the_k3_claim(monkeypatch):
    # the k <= 2 walk oracle of verify_kz_structure, run on the claimed
    # L_3 KZ basis: past no claimed prefix is there a projected leaf
    # shorter than the claimed |b*_i|^2.  Its walks are deterministic, so
    # their nodes are pinned.  The claim's rows in reverse order start
    # with a long vector, which the oracle refuses
    from conftest import count_nodes
    from latred.lattice import IntGSO

    claimed = glued_kz_claimed_basis(3)
    spent = count_nodes(monkeypatch)
    assert verification._kz_oracle(IntGSO.of(claimed))
    assert spent[0] == 4875
    assert not verification._kz_oracle(IntGSO.of(claimed[::-1]))


def test_shortest_basis_reaches_the_k4_glued_claim():
    # the generic shortest basis of L_4 (rank 88) is certified at the
    # claimed maximum 5/4; the generic KZ basis of L_4 is checked by
    # scripts/gap_profile.py --generic, too slow for the suite
    sb = shortest_basis(glued_prime_lattice(4))
    assert sb.certified
    assert sb.max_norm_sq == Q(5, 4)
    assert sb.max_norm_sq == verify_theorem_gap(4).quantities["short_basis_max_sq"]


def test_theorem_gap_values():
    rep2 = verify_theorem_gap(2)
    assert rep2.success, rep2.verdicts
    assert rep2.quantities["v_last_sq"] == Q(73, 36)
    assert rep2.quantities["lambda_bar_sq"] == Q(5, 4)
    rep3 = verify_theorem_gap(3)
    assert rep3.success, rep3.verdicts
    assert rep3.quantities["v_last_sq"] == 3 + Q(1, 900)
    assert norm_sq(rep3.witnesses["v_last"]) == rep3.quantities["v_last_sq"]


def test_check_attempt21_fails_on_unit_coefficients():
    rep = check_attempt21()
    assert not rep.no_unit_coefficient
    assert not rep.success
    assert rep.families_checked == {}


def test_check_no_unit_coefficient():
    class R:
        coefficients = (3, -2, 5)

    class R2:
        coefficients = (3, 1, 5)

    assert check_no_unit_coefficient(R())
    assert not check_no_unit_coefficient(R2())


def test_integer_relation_membership():
    # a hand-built confirmation route: with the identity as the other
    # generators a vector's coordinates are its entries, and the first
    # generator is (1/3, 2/3), taken j < 3 times
    route = dict(rows=((Q(1), Q(0)), (Q(0), Q(1))), shift=(Q(1, 3), Q(2, 3)), maxk=3)
    assert _confirm_member((Q(2, 3), Q(1, 3)), route)
    assert not _confirm_member((Q(1, 2), Q(0)), route)


def test_appendix_scan_rejects_partial_dependence():
    # four generators in rank 3 whose dependence misses one of them
    vecs = [
        tuple(map(Q, (1, 1, 0))),
        tuple(map(Q, (0, 1, 1))),
        tuple(map(Q, (1, 0, 1))),
    ]
    doubled = [tuple(2 * x for x in vecs[0])] + vecs
    with pytest.raises(ConstructionMismatch):
        appendix_scan(doubled)


def test_appendix_scan_raises_when_routes_disagree(monkeypatch):
    # scan attempt21 despite its unit coefficients, with a modular route
    # that also reports e_0 - e_1, which the rational route rejects
    _, vecs = attempt21()
    monkeypatch.setattr(verification, "check_no_unit_coefficient", lambda rel: True)
    assert appendix_scan(vecs).success
    pairs = verification._FAMILIES["pairs"]
    monkeypatch.setitem(
        verification._FAMILIES,
        "pairs",
        lambda ss, counts: pairs(ss, counts) + [((0, 1), 0)],
    )
    with pytest.raises(ScanCrossCheckFailed):
        appendix_scan(vecs)


def _generator_sets(rng, n, size, entries=(1,)):
    """Seeded sets of n + 1 vectors of dimension n, each with `size`
    entries drawn from `entries`, whose unique dependence involves every
    vector."""
    while True:
        vecs = []
        for _ in range(n + 1):
            sup = rng.sample(range(n), size)
            vecs.append(
                tuple(Q(rng.choice(entries)) if i in sup else Q(0) for i in range(n))
            )
        try:
            rel = linear_dependence(vecs)
        except WrongRank:
            continue
        if all(rel.coefficients):
            yield vecs


def test_appendix_scan_rejects_what_its_families_do_not_cover():
    rng = random.Random(4)
    # support 4: e_a + e_b - e_c - e_d has norm 4 and coordinate sum 0,
    # and no family scans it
    with pytest.raises(ConstructionMismatch, match="support sizes"):
        appendix_scan(next(_generator_sets(rng, 7, 4)))
    signed = next(
        v for v in _generator_sets(rng, 6, 3, (1, -1)) if any(x < 0 for r in v for x in r)
    )
    with pytest.raises(ConstructionMismatch, match="0/1"):
        appendix_scan(signed)


def _residue_hits(vecs):
    """(relation, hits): the relation and H of the one HNF that
    appendix_scan makes, and the family candidates whose residue sums over
    H vanish, tested one candidate at a time."""
    w = [[int(x) for x in v] for v in vecs]
    rel, h = _dependence(w)
    dd, rows = verification._residues(h)
    n = len(rows)

    def member(pos, signs):
        return all(
            sum(s * rows[p][c] for p, s in zip(pos, signs)) % dd == 0
            for c in range(len(rows[0]))
        )

    supports = {tuple(i for i, x in enumerate(v) if x) for v in w}
    (size,) = {len(sup) for sup in supports}
    families = [(combinations(range(n), 2), ((1, -1),))]
    if size == 5:
        families.append((combinations(range(n), 4), verification._QUAD_PATTERNS))
    positive = (pos for pos in combinations(range(n), size) if pos not in supports)
    families.append((positive, ((1,) * size,)))
    hits = []
    for candidates, patterns in families:
        for pos in candidates:
            for signs in patterns:
                if member(pos, signs):
                    out = [Q(0)] * n
                    for p, x in zip(pos, signs):
                        out[p] = Q(x)
                    hits.append(tuple(out))
    return rel, hits


def _scan_cases(rng):
    """attempt21 and seeded random generator sets: those of support 3 all
    have unit coefficients at these sizes, and about one in ten of support
    5 and dimension 12 has none."""
    cases = [attempt21()[1]]
    for size, n in ((3, 6), (3, 8), (5, 8), (5, 10)):
        gens = _generator_sets(rng, n, size)
        cases += [next(gens) for _ in range(6)]
    gens = _generator_sets(rng, 12, 5)
    while sum(check_no_unit_coefficient(linear_dependence(v)) for v in cases) < 8:
        cases.append(next(gens))
    return cases


def test_adjugate_relation_equals_the_rational_nullspace_one():
    # the relation that appendix_scan reads off the HNF's row with a zero
    # left part (where it once solved an adjugate) is the rational
    # nullspace's relation, with and without unit coefficients
    cases = _scan_cases(random.Random(7)) + [lattice42()[1]]
    units = 0
    for vecs in cases:
        rel, _ = _dependence([[int(x) for x in v] for v in vecs])
        assert rel == reference.linear_dependence(vecs)
        units += not check_no_unit_coefficient(rel)
    assert len(cases) >= 33 and units >= 20


def test_scan_state_residues_equal_the_rational_inverse_ones():
    # H is the reference HNF basis, and the residues over H are the dd and
    # rows of its rational inverse, lanes that are 0 for every position
    # dropped
    cases = [lattice42()[1]] + _scan_cases(random.Random(5))
    for vecs in cases:
        _, h = _dependence([[int(x) for x in v] for v in vecs])
        assert h == [row for row in reference.hnf_with_transform(vecs)[0] if any(row)]
        inv = reference.inverse(h)
        dd = lcm(*(x.denominator for row in inv for x in row))
        rows = [[int(x * dd) % dd for x in row] for row in inv]
        lanes = [c for c, col in enumerate(zip(*rows)) if any(col)]
        assert verification._residues(h) == (
            dd,
            [tuple(row[c] for c in lanes) for row in rows],
        )
        if vecs is cases[0]:
            assert (dd, len(lanes)) == (20, 21)


def test_hnf_residue_hits_equal_the_reference_scan():
    # the residues over the HNF basis H have the hits of the residues over
    # the rational inverse of the generators past the first
    cases = _scan_cases(random.Random(7))
    hits_seen = 0
    for vecs in cases:
        rel, hits = _residue_hits(vecs)
        assert rel == reference.linear_dependence(vecs)
        assert hits == reference.appendix_scan(vecs)[1]
        hits_seen += len(hits)
    assert hits_seen >= 30


def _add_one(monkeypatch, name, row, col):
    """Make every call of latred's `name` (linalg.hnf or
    verification._residues) add 1 to entry [row][col] of its matrix.  For
    linalg._echelon, which leaves its rows changed in place, only the
    echelon of [W | I] over W's columns is changed, not hnf's own."""
    module, attr = name.split(".")
    module = {"linalg": linalg, "verification": verification}[module]
    real = getattr(module, attr)

    def wrong(m):
        out = real(m)
        rows = out[1] if attr == "_residues" else out
        rows = [list(r) for r in rows]
        rows[row][col] += 1
        return (out[0], rows) if attr == "_residues" else rows

    def wrong_echelon(rows, ncols):
        pivots = real(rows, ncols)
        if len(rows[0]) > ncols:
            rows[row][col] += 1
        return pivots

    monkeypatch.setattr(module, attr, wrong_echelon if attr == "_echelon" else wrong)


def test_scan_state_checks_the_generators(monkeypatch):
    # an entry of H, above the diagonal, or of a residue row is wrong: the
    # residues then miss a generator, whatever the entry
    rng = random.Random(15)
    entries = [(3, 5), (0, 0), (41, 41), (0, 41), (8, 11)] + [
        tuple(sorted((rng.randrange(42), rng.randrange(42)))) for _ in range(5)
    ]
    for p, t in entries:
        with monkeypatch.context() as mp:
            _add_one(mp, "linalg.hnf", p, t)
            with pytest.raises(ScanCrossCheckFailed, match="vanish"):
                check_shortest_vectors_42()
    for p, t in ((0, 0), (17, 3), (41, 20)):
        with monkeypatch.context() as mp:
            _add_one(mp, "verification._residues", p, t)
            with pytest.raises(ScanCrossCheckFailed, match="vanish"):
                check_shortest_vectors_42()
    # with three lanes dropped the residues still vanish on the generators,
    # and so on L, but on vectors outside L too: the second route refuses
    # those hits
    residues = verification._residues
    monkeypatch.setattr(
        verification,
        "_residues",
        lambda h: (lambda dd, rows: (dd, [r[3:] for r in rows]))(*residues(h)),
    )
    with pytest.raises(ScanCrossCheckFailed, match="routes differ"):
        check_shortest_vectors_42()


def test_appendix_scan_falls_back_to_the_rational_nullspace(monkeypatch):
    # inputs whose generators past the first are no basis get their
    # relation, or WrongRank, from the same HNF

    def vecs(*rows):
        return [tuple(Q(x) for x in r) for r in rows]

    # the generators past the first are dependent: a relation that misses
    # the first generator, or a two-dimensional dependence space
    missing = vecs((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1))
    with pytest.raises(ConstructionMismatch, match="every generator"):
        appendix_scan(missing)
    two = vecs((1, 1, 0), (0, 1, 1), (1, 2, 1), (2, 3, 1))
    # and sets too small to hold a dependence of n + 1 vectors in n dims
    for small in (two, [], vecs(()), vecs((1,))):
        with pytest.raises(WrongRank):
            appendix_scan(small)
    # attempt21 in one more coordinate: not square, so the unit
    # coefficients stop the scan unscanned
    padded = [tuple(v) + (Q(0),) for v in attempt21()[1]]
    rep = appendix_scan(padded)
    assert rep.relation == reference.linear_dependence(attempt21()[1])
    assert not rep.no_unit_coefficient and not rep.success
    assert (rep.families_checked, rep.violations, rep.stats) == ({}, [], {})
    # scanning it anyway needs a square set
    monkeypatch.setattr(verification, "check_no_unit_coefficient", lambda rel: True)
    with pytest.raises(DimensionMismatch):
        appendix_scan(padded)


def test_appendix_scan_checks_the_hnf_relation(monkeypatch):
    # a wrong entry in the row with a zero left part that the echelon of
    # [generators | I] leaves gives a relation that is no dependence;
    # attempt21 builds no scan state, so there only the relation check
    # can see it
    for run, n in ((check_attempt21, 21), (check_shortest_vectors_42, 42)):
        with monkeypatch.context() as mp:
            _add_one(mp, "linalg._echelon", -1, n + 5)
            with pytest.raises(ScanCrossCheckFailed, match="relation"):
                run()


def test_scans_make_one_hnf_and_no_elimination(monkeypatch):
    # each scan makes one echelon of [generators | I], for the relation
    # and H together, and one HNF, which only back-reduces H's already
    # echelon rows (its own echelon is the second _echelon call); no rank
    # and no lattice HNF (latred has no other elimination, see
    # test_source_rules)
    from conftest import count_calls

    names = (
        "linalg.hnf",
        "linalg._echelon",
        "linalg.rank",
        "lattice.lattice_from_generators",
    )
    calls = count_calls(monkeypatch, *names)
    assert check_shortest_vectors_42().success
    assert (calls["linalg.hnf"], calls["linalg._echelon"]) == (1, 2)
    assert not check_attempt21().success
    assert calls == {
        "linalg.hnf": 2,
        "linalg._echelon": 4,
        "linalg.rank": 0,
        "lattice.lattice_from_generators": 0,
    }


@pytest.mark.parametrize("dd", [1, 2, 60, 64, 97, 2**31 - 1])
def test_packed_lane_addition_is_lanewise_addition_mod_dd(dd):
    rng = random.Random(dd)
    n = 42
    width = dd.bit_length() + 1
    add = verification._lane_adder(dict(dd=dd, lanes=n, width=width))
    top = [dd - 1] * n
    pairs = [(top, top), (top, [0] * n), (top, [1 % dd] * n)]
    for _ in range(200):
        pairs.append(
            tuple(
                [rng.choice((rng.randrange(dd), dd - 1)) for _ in range(n)]
                for _ in range(2)
            )
        )

    def lanes(packed):
        return [packed >> (width * i) & ((1 << width) - 1) for i in range(n)]

    for a, b in pairs:
        pa = verification._pack(a, dd, width)
        pb = verification._pack(b, dd, width)
        assert lanes(pa) == a
        assert lanes(add(pa, pb)) == [(x + y) % dd for x, y in zip(a, b)]
        assert lanes(verification._pack(a, dd, width, -1)) == [-x % dd for x in a]


@lru_cache(maxsize=None)
def _scan_cases_with_hits():
    """attempt21 and 30 random generator sets with violations, each with
    the per-candidate reference's (families_checked, violations)."""
    vecs = attempt21()[1]
    cases = [(vecs, reference.appendix_scan(vecs))]
    rng = random.Random(6)
    for size, dims in ((3, range(5, 10)), (5, range(7, 11))):
        with_hits = 0
        while with_hits < 15:
            vecs = next(_generator_sets(rng, rng.choice(dims), size))
            ref = reference.appendix_scan(vecs)
            if ref[1]:
                with_hits += 1
                cases.append((vecs, ref))
    return tuple(cases)


def test_scan_on_int_rows_matches_the_scan_on_fraction_rows(monkeypatch):
    # the constructions hand the scan int rows, which it takes as they
    # are; the same rows as Fractions give the same report.  Unit
    # coefficients stop a scan unscanned, so the random sets, and
    # attempt21 (the first of them), also run scanned despite them
    cases = [lattice42()[1]] + [vecs for vecs, _ in _scan_cases_with_hits()]
    assert {type(x) for vecs in cases[:2] for v in vecs for x in v} == {int}
    fields = "relation no_unit_coefficient families_checked stats violations".split()

    def report(vecs):
        ints = appendix_scan([tuple(int(x) for x in v) for v in vecs])
        fractions = appendix_scan([tuple(Q(x) for x in v) for v in vecs])
        for what in fields:
            assert getattr(ints, what) == getattr(fractions, what), what
        return ints

    assert [report(vecs).success for vecs in cases[:2]] == [True, False]
    for vecs in cases[2:]:
        report(vecs)
    monkeypatch.setattr(verification, "check_no_unit_coefficient", lambda rel: True)
    assert sum(len(report(vecs).violations) for vecs in cases[1:]) >= 30


def test_appendix_scan_refuses_bad_int_rows():
    # int rows keep the error classes of rational ones: 2 and 1/2 are no
    # 0/1 entries, a float is refused, and so are ragged and empty sets
    vecs = [list(v) for v in lattice42()[1]]
    j = vecs[3].index(1)
    for x, error, match in (
        (2, ConstructionMismatch, "0/1"),
        (Q(1, 2), ConstructionMismatch, "0/1"),
        (1.0, PreconditionViolated, "float"),
    ):
        bad = [list(v) for v in vecs]
        bad[3][j] = x
        with pytest.raises(error, match=match):
            appendix_scan(bad)
    with pytest.raises(DimensionMismatch, match="ragged"):
        appendix_scan(vecs[:3] + [vecs[3] + [0]] + vecs[4:])
    with pytest.raises(WrongRank):
        appendix_scan([])


def test_collision_scan_matches_the_per_candidate_reference(monkeypatch):
    # attempt21 and the random sets are scanned despite unit coefficients
    monkeypatch.setattr(verification, "check_no_unit_coefficient", lambda rel: True)
    cases = _scan_cases_with_hits()
    for vecs, (families, violations) in cases:
        rep = appendix_scan(vecs)
        assert rep.families_checked == families
        assert rep.violations == violations
        assert rep.stats["hits_confirmed"] == len(violations)


def test_scan_hits_are_confirmed_without_an_inverse(monkeypatch):
    # every hit is confirmed by the second route, on the integral
    # recurrence, which shares no kernel with the HNF that gives the scan
    # its residues: a scan runs the one echelon of [generators | I] and
    # the one HNF of its pivot rows however many hits it confirms (and
    # latred has no inverse, see test_source_rules)
    from conftest import count_calls

    monkeypatch.setattr(verification, "check_no_unit_coefficient", lambda rel: True)
    cases = _scan_cases_with_hits()
    calls = count_calls(monkeypatch, "linalg.hnf", "linalg._echelon", "linalg.rank")
    confirmed = 0
    for vecs, (_, violations) in cases:
        rep = appendix_scan(vecs)
        assert rep.violations == violations
        assert rep.stats["hits_confirmed"] == len(violations)
        confirmed += len(violations)
    assert confirmed >= 30
    assert calls == {
        "linalg.hnf": len(cases),
        "linalg._echelon": 2 * len(cases),
        "linalg.rank": 0,
    }


def test_collision_scan_matches_the_reference_on_lattice42(appendix42_report):
    families, violations = reference.appendix_scan(lattice42()[1])
    assert appendix42_report.families_checked == families
    assert appendix42_report.violations == violations == []


def test_scan_probes_each_key_once_where_the_reference_probes_each_offset(
    monkeypatch,
):
    # the tables hold the plain residues over the HNF basis, so the
    # reference's per-offset loops, given the one zero offset, make the
    # same probes, collisions, hits and counts
    monkeypatch.setattr(verification, "check_no_unit_coefficient", lambda rel: True)
    tables = verification._tables
    built = []

    def build(state):
        built.append((state, tables(state)))
        return built[-1][1]

    monkeypatch.setattr(verification, "_tables", build)
    cases = [lattice42()[1]] + [vecs for vecs, _ in _scan_cases_with_hits()]
    sizes, hits_seen = set(), 0
    for i, vecs in enumerate(cases):
        rep = appendix_scan(vecs)
        # one set of tables per scan, and the reference builds its own
        assert len(built) == i + 1
        state, ss = built[-1]
        kinds = ("pairs", "quads", "positive")
        if state["size"] == 3:
            kinds = ("pairs", "positive")
        total = dict.fromkeys(verification._SCAN_COUNTS, 0)
        for kind in kinds:
            counts = dict.fromkeys(verification._SCAN_COUNTS, 0)
            hits = verification._FAMILIES[kind](ss, counts)
            ref_hits, ref_counts = reference.offset_scan(dict(state, offsets=[0]), kind)
            assert sorted(hits) == sorted(ref_hits), kind
            assert ref_counts == counts, kind
            for key, value in counts.items():
                total[key] += value
            hits_seen += len(hits)
        assert {key: rep.stats[key] for key in total} == total
        sizes.add(state["size"])
    assert sizes == {3, 5} and hits_seen >= 30


def test_scan_42_builds_no_inverse_and_reports_its_counts():
    # latred has no inverse to build (see test_source_rules)
    rep = check_shortest_vectors_42()
    assert rep.success
    assert rep.stats == {
        "single_table": 42,
        "pair_table": 861,
        "probes": 10783,
        "collisions": 1267,
        "overlapping": 903,
        "out_of_order": 321,
        "supports_skipped": 43,
        "hits_confirmed": 0,
    }


def test_kth_root_is_exact_and_float_free():
    # 3^1400 is past the float range that a float-seeded search needs
    assert _kth_root(Q(3**1400), 7) == 3**200
    assert _kth_root(Q(3**1400, 2**700), 7) == Q(3**200, 2**100)
    assert _kth_root(Q(8, 27), 3) == Q(2, 3)
    assert _kth_root(Q(2), 2) is None
    assert _kth_root(Q(3**1400 + 1), 7) is None


def test_appendix_scan_parallel_matches_serial(appendix42_report):
    # the workers get the tables as their jobs' arguments, so a start
    # method that does not fork the parent must give the same scan
    serial = appendix42_report
    before = multiprocessing.get_start_method(allow_none=True)
    try:
        for method in multiprocessing.get_all_start_methods():
            multiprocessing.set_start_method(method, force=True)
            parallel = check_shortest_vectors_42(workers=2)
            assert parallel.families_checked == serial.families_checked, method
            assert parallel.violations == serial.violations, method
            assert parallel.relation == serial.relation, method
            assert parallel.stats == serial.stats, method
    finally:
        multiprocessing.set_start_method(before, force=True)
    assert serial.success


def test_scans_in_two_threads_match_the_serial_scans(monkeypatch):
    # a scan holds its tables in its own frame, so the 42-scan and the
    # 21-dim scan, switched between every few bytecodes in two threads,
    # each give the serial scan's report (attempt21 is scanned despite its
    # unit coefficients)
    monkeypatch.setattr(verification, "check_no_unit_coefficient", lambda rel: True)
    gens = {"42": lattice42()[1], "21": attempt21()[1]}
    serial = {name: appendix_scan(vecs) for name, vecs in gens.items()}
    rounds = 40
    got = {name: [] for name in gens}

    def scan(name):
        for _ in range(rounds):
            try:
                got[name].append(appendix_scan(gens[name]))
            except Exception as exc:
                got[name].append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=scan, args=(name,)) for name in gens]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for name, reports in got.items():
        assert len(reports) == rounds, name
        for rep in reports:
            assert isinstance(rep, verification.AppendixReport), (name, rep)
            for what in ("stats", "violations", "families_checked"):
                assert getattr(rep, what) == getattr(serial[name], what), (name, what)


def test_height_lift_swaps_by_cramer_rule():
    # brute force on the lift of attempt21, whose relation has unit and
    # non-unit coefficients: swapping lifted_i for the shortest vector
    # gives a basis iff lifted_i is in the span of the swapped set
    _, vecs = attempt21()
    heights = default_heights(len(vecs))
    lifted = perturbed_lift(vecs, heights).basis
    rel = linear_dependence(vecs)
    s = sum((a * h for a, h in zip(rel.coefficients, heights)), Q(0))
    target = (Q(0),) * (len(lifted) - 1) + (s,)
    assert row_times_mat(rel.coefficients, lifted) == target
    outcomes = []
    for i, a in enumerate(rel.coefficients):
        others = [w for t, w in enumerate(lifted) if t != i] + [target]
        swap_is_basis = contains(Lattice(others), lifted[i])
        assert swap_is_basis == (abs(a) == 1), i
        outcomes.append(swap_is_basis)
    assert outcomes.count(True) == 12 and outcomes.count(False) == 10


def test_height_lift_reads_its_rows_off_the_scanned_relation(
    monkeypatch, appendix42_report
):
    from conftest import count_calls

    vecs, heights = lattice42()[1], default_heights(43)
    rows, s = _lifted_rows(vecs, heights, appendix42_report.relation)
    assert rows == perturbed_lift(vecs, heights).basis
    assert s == sum(
        (a * h for a, h in zip(appendix42_report.relation.coefficients, heights)), Q(0)
    )
    calls = count_calls(monkeypatch, "lattice.linear_dependence", "linalg.rank")
    rep = verification.verify_height_lift(appendix=appendix42_report)
    assert rep.success and rep.witnesses["shortest"] == (Q(0),) * 42 + (s,)
    assert calls == {"lattice.linear_dependence": 0, "linalg.rank": 0}
    with pytest.raises(DegenerateHeights):
        _lifted_rows(vecs, (Q(0),) * 43, appendix42_report.relation)


def test_projected_tails_match_sequential_projection():
    # the k <= 2 oracle's tails, projected by the integral GSO of the
    # claimed prefix, equal the rational reference's running tails and
    # the component-by-component projection
    from latred.lattice import IntGSO

    for k in (2, 3):
        claimed = glued_kz_claimed_basis(k)
        gso = reference.gram_schmidt(claimed)
        tails = list(reference.projected_tails(claimed, gso))
        assert len(tails) == len(claimed)
        held = IntGSO.of(claimed)
        for i, tail in enumerate(tails):
            head = IntGSO(held.b[:i], held.d[: i + 1], held.lam[:i], held.den)
            expected = []
            for w in claimed[i:]:
                for t in range(i):
                    c = dot(w, gso.bstar[t]) / gso.norms_sq[t]
                    w = vsub(w, vscale(c, gso.bstar[t]))
                expected.append(w)
            assert tail == expected, (k, i)
            assert [reference.int_project(head, w) for w in claimed[i:]] == [
                (w, norm_sq(w)) for w in expected
            ], (k, i)


def test_similar_to_dual_root_positive_and_negative():
    assert similar_to_dual_root(list(dual_root_d(6).basis))
    scaled = [vscale(Q(3), v) for v in dual_root_d(6).basis]
    assert similar_to_dual_root(scaled)
    assert not similar_to_dual_root(list(root_d(6).basis))
    # rank 1 < k = 2, with the perfect-square ratio 4
    assert not similar_to_dual_root([(1, 0), (2, 0)])


def test_similar_to_dual_root_leaf_identity():
    # the search reaches depth k only with alpha Gram(chosen) = gs, so
    # det Gram(chosen) = det(gs) / alpha^k = covolume^2(D_k*): the leaf
    # needs no recheck.  Here chosen is D_k*'s basis under a unimodular U
    # and S its image scaled by 2, so alpha = 4
    from conftest import mat_mul, random_unimodular
    from latred.lattice import covolume_squared, lattice_from_generators

    rng = random.Random(6)
    for k in (6, 7):
        D = dual_root_d(k)
        chosen = mat_mul(random_unimodular(rng, k), D.basis)
        scaled = [vscale(Q(2), v) for v in chosen]
        S = lattice_from_generators(scaled)
        ratio = covolume_squared(S) / covolume_squared(D)
        alpha = verification._kth_root(ratio, k)
        gs = linalg.gram_matrix(S.basis)
        assert alpha == 4
        assert reference.determinant(gs) == covolume_squared(S)
        gram = linalg.gram_matrix(chosen)
        assert [[alpha * x for x in r] for r in gram] == [
            list(r) for r in linalg.gram_matrix(scaled)
        ]
        assert reference.determinant(gram) == covolume_squared(D)
        assert reference.determinant(gs) / alpha**k == covolume_squared(D)
        assert similar_to_dual_root(list(S.basis))


def test_minkowski_bounds_passes_its_node_budget_to_the_similarity_check(
    monkeypatch,
):
    # D_6* and D_7* meet the k/4 bound with equality, so each run checks
    # similarity to D_k*, and that enumeration gets the caller's budget
    from latred.enumeration import DEFAULT_BUDGET

    seen = []
    real = verification.enumerate_up_to

    def spy(L, bound_sq, node_budget=DEFAULT_BUDGET):
        seen.append(node_budget)
        return real(L, bound_sq, node_budget)

    monkeypatch.setattr(verification, "enumerate_up_to", spy)
    for k in (6, 7):
        L = dual_root_d(k)
        assert verification.verify_minkowski_bounds(L, node_budget=10**6).success
    assert seen == [10**6, 10**6]
    seen.clear()
    assert verification.verify_minkowski_bounds(dual_root_d(6)).success
    assert seen == [DEFAULT_BUDGET]


def test_verify_minkowski_bounds_random():
    rng = random.Random(41)
    for _ in range(3):
        L = random_integer_lattice(rng, 7, 4)
        rep = verify_minkowski_bounds(L)
        assert rep.verdicts["v6_within_quarter_bound"]
        assert rep.verdicts["v7_within_quarter_bound"]
        assert rep.verdicts["improved_delta_bounds"]
    with pytest.raises(PreconditionViolated):
        verify_minkowski_bounds(random_integer_lattice(rng, 4))


def test_minkowski_bounds_solve_no_coordinates(monkeypatch):
    # the criterion-2 population of the random-minkowski benchmark: rank
    # from {6, 7}, entries in [-4, 4].  Greedy primitivity and minima
    # independence read the pool's integer coordinates, so no coordinate
    # solve or Smith form is left (nor an inverse, which latred does not
    # have, see test_source_rules), and the walker runs on the
    # integral LLL's d and lam (src has no rational GSO to build, see
    # test_source_rules).  One pass spends a pinned number of nodes and
    # of _Prefix tails: the greedy and minima pools start at the longest
    # LLL row, their scans resume where they stopped instead of rescanning
    # their pool from the start, and an accepted candidate's tail goes
    # straight into _Prefix.extended.
    from conftest import count_calls, count_nodes, minkowski_population
    from latred.lattice import _Prefix

    lattices = minkowski_population(2026, 60)
    spent = count_nodes(monkeypatch)
    tails = [0]
    tail = _Prefix._tail

    def counted_tail(self, c):
        tails[0] += 1
        return tail(self, c)

    monkeypatch.setattr(_Prefix, "_tail", counted_tail)
    calls = count_calls(
        monkeypatch,
        "lattice.coordinates",
        "linalg.snf_divisors",
    )
    for L in lattices:
        assert verification.verify_minkowski_bounds(L).success
    assert calls == {
        "lattice.coordinates": 0,
        "linalg.snf_divisors": 0,
    }
    assert spent[0] == 2587
    assert tails[0] == 2518


def test_minkowski_bounds_match_the_rational_reference():
    # the verdicts on pool indices and integer norms against the Fraction
    # reference on the public greedy basis and minima: the same tables, in
    # the same order.  D_6*, D_7* and 3 D_7* meet the k/4 bound with
    # equality and run the similarity check on the greedy vectors, and
    # L_2's greedy grows the pool twice before the minima read it, so its
    # greedy indices must hold in the grown pool
    bases = [L.basis for L in minkowski_population(2035, 200)]
    bases += [dual_root_d(k).basis for k in (6, 7, 8)]
    bases.append(tuple(vscale(Q(3), v) for v in dual_root_d(7).basis))
    bases.append(glued_prime_lattice(2).basis)
    for basis in bases:
        got = verification.verify_minkowski_bounds(Lattice(basis))
        want = reference.verify_minkowski_bounds(Lattice(basis))
        assert got.lattice_id == want.lattice_id
        for name in ("quantities", "verdicts", "equalities", "witnesses"):
            table = getattr(got, name)
            assert list(table.items()) == list(getattr(want, name).items()), name


def test_minkowski_bounds_build_rationals_only_for_the_reported_norms(
    monkeypatch,
):
    # on a lattice whose LLL is done and away from equality, every bound is
    # compared on the pool's integer norms: the only Fractions built are
    # the 2 rank reported norms, beyond those of the Delta table
    from fractions import Fraction

    from latred.reduction import vdw_delta_table

    made = [0]
    fraction = Fraction.__new__

    def new(cls, *args, **kwargs):
        made[0] += 1
        return fraction(cls, *args, **kwargs)

    lattices = minkowski_population(2036, 40) + [glued_prime_lattice(2)]
    for L in lattices:
        L._lll  # the LLL makes rationals of its own
    monkeypatch.setattr(Fraction, "__new__", new)
    checked = 0
    for L in lattices:
        made[0] = 0
        vdw_delta_table(L.rank, True)
        table = made[0]
        made[0] = 0
        rep = verification.verify_minkowski_bounds(L)
        if not any(rep.equalities.values()):
            checked += 1
            assert 0 < made[0] <= 2 * L.rank + table
    assert checked >= 40


def test_glued_certify_pass_rebuilds_no_lll_gso(monkeypatch):
    # one pass of the glued-certify benchmark (gap and kz-structure for
    # k = 1..3): KZ and the k <= 2 oracle walk projections on the integral
    # GSO (src has no rational one, nor a determinant, see
    # test_source_rules), and the gap's shortest basis reads the pool the
    # greedy reduction left, with no KZ reduction; at k = 3 the verifiers
    # read the generators alone, so nothing generic runs at all
    from conftest import count_calls

    names = (
        "linalg.hnf",
        "lattice.coordinates",
        "enumeration.enumerate_up_to",
        "lattice.is_primitive_tuple",
        "reduction.kz_reduce",
    )
    calls = count_calls(monkeypatch, *names)
    lll = count_calls(monkeypatch, "enumeration.lll_rows")
    for k in (1, 2, 3):
        verification.verify_theorem_gap(k)
    assert calls["reduction.kz_reduce"] == 0
    # the k <= 2 oracle walks the claim's own IntGSO, and the generic
    # kz_reduce runs L_k's one LLL and walks the basis it carries from
    # it: no pool, and no LLL or Lattice per projection
    for k in (1, 2):
        calls["enumeration.enumerate_up_to"] = lll["enumeration.lll_rows"] = 0
        verification.verify_kz_structure(k)
        assert calls["enumeration.enumerate_up_to"] == 0
        assert lll["enumeration.lll_rows"] == 1
    verification.verify_kz_structure(3)
    for name in calls:
        calls[name] = 0
    assert verification.verify_theorem_gap(3).success
    assert verification.verify_kz_structure(3).success
    assert calls == dict.fromkeys(names, 0)


def _report_tables(rep):
    # key order too: the CLI writes the tables in this order
    return [list(t.items()) for t in (rep.verdicts, rep.quantities, rep.witnesses)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_glued_verifiers_match_the_generic_reference(k):
    # the structural verifiers read the supports the claim builders make,
    # the reference the public dense claims
    params = glued_params(k)
    for structural, generic, supports, claimed in (
        (
            verification._theorem_gap,
            reference.theorem_gap,
            _short_claim(params),
            glued_shortest_basis(k),
        ),
        (
            verification._kz_structure,
            reference.kz_structure,
            _kz_claim(params),
            glued_kz_claimed_basis(k),
        ),
    ):
        got = structural(params, supports)
        assert got.success or (k, structural) == (1, verification._theorem_gap)
        assert _report_tables(got) == _report_tables(generic(params, claimed))


def test_gap_witness_has_the_best_residue_tuple():
    # the witness is sum r_j g_j - n e_0, so its residues are the tuple
    # that prices it, and |w_0| is the covolume 1/30
    rep = verify_theorem_gap(3)
    w = rep.witnesses["v_last"]
    assert reference.glued_residues(3, w) == (1, 1, 1)
    assert abs(w[0]) == Q(1, 30)


def test_gap_witness_off_the_covolume_is_refused(monkeypatch):
    # one more e_0 subtracted: still in L_3, but |w_0| is 29/30, not the
    # covolume, so it completes no basis and its norm misses v_last
    witness = verification._gap_witness

    def shifted(*args):
        w = witness(*args)
        return (w[0] - 1,) + w[1:]

    monkeypatch.setattr(verification, "_gap_witness", shifted)
    rep = verify_theorem_gap(3)
    assert not rep.verdicts["unit_prefix_primitive"]
    assert not rep.verdicts["witness_matches"]
    assert rep.verdicts["norm_one_vectors_are_units"]


def _block_start(rows, params, j):
    """Index of the first row that touches block j's coordinates."""
    lo, hi = params.blocks[j]
    return next(i for i, v in enumerate(rows) if any(v[lo:hi]))


def _tampered(claimed, how, params):
    rows = list(claimed)
    if how == "glue_doubled":
        # the first glue vector, the one with shared coordinate 1/2
        i = next(i for i, v in enumerate(rows) if v[0] == Q(1, 2))
        rows[i] = tuple(2 * x for x in rows[i])
    elif how == "units_only":
        # the d units: every one a generator, none repeated, and no glue
        d = len(rows[0])
        rows = [tuple(Q(int(c == i)) for c in range(d)) for i in range(d)]
    elif how == "e0_for_a_unit":
        # e_0 in place of a unit of the second block, which then misses two
        i = next(i for i, v in enumerate(rows) if v[6] == 1)
        rows[i] = tuple(Q(int(c == 0)) for c in range(len(rows[0])))
    elif how == "unit_leaks":
        # a block-0 unit that also reaches the last coordinate
        rows[0] = rows[0][:-1] + (Q(1),)
    elif how == "unit_duplicated":
        # the last vector is a unit of the last block: drop it, repeat the
        # one before it
        rows[-1] = rows[-2]
    elif how == "first_unit_moved":
        # the second block's first unit slot holds its second unit, which
        # also completes a basis but spans the block in another order
        start = _block_start(rows, params, 1)
        second = params.blocks[1][0] + 1
        rows[start] = tuple(Q(int(c == second)) for c in range(len(rows[0])))
    elif how == "diff_doubled":
        start = _block_start(rows, params, 1)
        rows[start + 2] = tuple(2 * x for x in rows[start + 2])
    else:  # two diff slots of the second block swapped
        start = _block_start(rows, params, 1)
        rows[start + 2], rows[start + 3] = rows[start + 3], rows[start + 2]
    return tuple(rows)


@pytest.mark.parametrize(
    "how", ["glue_doubled", "unit_duplicated", "units_only", "e0_for_a_unit"]
)
def test_tampered_shortest_basis_fails_on_both_routes(how):
    params = glued_params(3)
    claimed = _tampered(glued_shortest_basis(3), how, params)
    got = verification._theorem_gap(params, reference.supports(claimed))
    want = reference.theorem_gap(params, claimed)
    assert not got.verdicts["short_basis_valid"]
    assert _report_tables(got) == _report_tables(want)


@pytest.mark.parametrize(
    "how", ["glue_doubled", "diff_doubled", "diff_swapped", "first_unit_moved"]
)
def test_tampered_kz_basis_fails_on_both_routes(how):
    params = glued_params(3)
    claimed = _tampered(glued_kz_claimed_basis(3), how, params)
    got = verification._kz_structure(params, reference.supports(claimed))
    want = reference.kz_structure(params, claimed)
    failed = {name for name, ok in got.verdicts.items() if not ok}
    if how == "glue_doubled":
        assert {"claimed_is_basis", "gso_norms_match", "tie_breaks"} <= failed
    elif how == "diff_doubled":
        assert {"claimed_is_basis", "gso_norms_match", "stepwise_minimality"} <= failed
    else:
        # each keeps a basis and its GSO norms, and breaks the order in
        # which the block is spanned
        assert failed == {"stepwise_minimality"}
    assert _report_tables(got) == _report_tables(want)


@pytest.mark.parametrize(
    "how, error", [("unit_duplicated", "DependentRows"), ("unit_leaks", "NotIntegral")]
)
def test_kz_basis_the_generic_route_cannot_finish_is_refused(how, error):
    # the reference's rational GSO raises on a repeated row, and its HNF on
    # the fractional projections a row leaving its block leaves behind;
    # the block walk places neither row and confirms nothing
    from latred import errors

    params = glued_params(3)
    claimed = _tampered(glued_kz_claimed_basis(3), how, params)
    rows = reference.supports(claimed)
    got = verification._kz_structure(params, rows)
    assert not got.verdicts["claimed_is_basis"]
    assert not got.verdicts["gso_norms_match"]
    assert not got.verdicts["stepwise_minimality"]
    norms, _, _ = verification._kz_walk(params, rows)
    assert norms is None
    with pytest.raises(getattr(errors, error)):
        reference.kz_structure(params, claimed)


def _kz_tampering(k, how, seed):
    """The dense KZ claim of L_k tampered as `how` says, at places drawn
    from a generator seeded with `seed`."""
    params = glued_params(k)
    rows = list(glued_kz_claimed_basis(k))
    d = len(rows[0])
    steps = reference.kz_layout(params)
    rng = random.Random(seed)
    i = rng.randrange(len(rows))

    def unit(c):
        return tuple(Q(int(t == c)) for t in range(d))

    if how == "swap":
        # two rows of one block
        j = rng.randrange(k)
        a, b = rng.sample([t for t, step in enumerate(steps) if step[0] == j], 2)
        rows[a], rows[b] = rows[b], rows[a]
    elif how == "other_unit":
        # a unit slot holds another unit of its block; at k <= 2 only the
        # unclaimed one, so the generic oracle meets independent rows
        a = rng.choice([t for t, step in enumerate(steps) if step[1] == "unit"])
        j, _, remaining, _ = steps[a]
        own = next(c for c, x in enumerate(rows[a]) if x)
        if k <= 2:
            lo, _ = params.blocks[j]
            choices = [0 if j == 0 else lo + 1]
        else:
            choices = sorted(remaining - {own})
        rows[a] = unit(rng.choice(choices))
    elif how == "negated":
        rows[i] = tuple(-x for x in rows[i])
    elif how == "doubled":
        rows[i] = tuple(2 * x for x in rows[i])
    elif how == "dropped":
        del rows[i]
    elif how == "repeated":
        rows.insert(i, rows[i])
    else:  # appended: a unit past the layout
        rows.append(unit(rng.randrange(d)))
    return params, tuple(rows)


_KZ_TAMPERINGS = [
    (k, how, seed)
    for k, counts in (
        (2, {"swap": 3, "other_unit": 3, "negated": 2, "doubled": 2, "dropped": 2}),
        (
            3,
            {
                "swap": 4,
                "other_unit": 3,
                "negated": 2,
                "doubled": 2,
                "dropped": 2,
                "repeated": 2,
                "appended": 2,
            },
        ),
    )
    for how, n in counts.items()
    for seed in range(n)
]


@pytest.mark.parametrize("k, how, seed", _KZ_TAMPERINGS)
def test_tampered_kz_claims_match_the_reference(k, how, seed):
    # the one block walk against the reference's rational GSO, projected
    # tails and HNF on its own layout; where the reference cannot finish,
    # the walk must confirm nothing
    from latred.errors import LatredError

    params, claimed = _kz_tampering(k, how, seed)
    got = verification._kz_structure(params, reference.supports(claimed))
    try:
        want = reference.kz_structure(params, claimed)
    except LatredError:
        for name in ("claimed_is_basis", "gso_norms_match", "stepwise_minimality"):
            assert not got.verdicts[name], name
        return
    assert _report_tables(got) == _report_tables(want)


def test_unspanned_unit_in_the_last_kz_diff_slot_passes():
    # block 1's last diff slot of L_3 holds e_(lo+1), which the layout keeps
    # unspanned, instead of e_(hi-1): the complement before the step is the
    # layout's S_R with R = {lo+1, hi-1}, the row projects to the same norm
    # 1/2, and the rows still complete a basis, so every verdict holds on
    # both routes although the step removes another coordinate than the
    # layout's
    params = glued_params(3)
    lo, hi = params.blocks[1]
    rows = list(glued_kz_claimed_basis(3))
    end = max(t for t, (j, *_) in enumerate(reference.kz_layout(params)) if j == 1)
    assert rows[end][hi - 1] == 1
    rows[end] = tuple(Q(int(c == lo + 1)) for c in range(len(rows[end])))
    got = verification._kz_structure(params, reference.supports(rows))
    assert got.success, got.verdicts
    assert _report_tables(got) == _report_tables(reference.kz_structure(params, rows))


@pytest.mark.parametrize(
    "how", ["unit_at_d", "negative_coordinate", "stored_zero", "empty"]
)
def test_tampered_supports_are_no_basis(how):
    # malformed supports with no dense counterpart: a unit past the last
    # coordinate or before the first (which would stand in for the unit
    # they replace) and an entry stored as 0; and the zero vector
    params = glued_params(3)
    d = params.dims[-1]
    for verify, builder, verdict in (
        (verification._theorem_gap, _short_claim, "short_basis_valid"),
        (verification._kz_structure, _kz_claim, "claimed_is_basis"),
    ):
        rows = list(builder(params))
        (c,) = rows[-1]
        rows[-1] = {
            "unit_at_d": {d: Q(1)},
            "negative_coordinate": {-1: Q(1)},
            "stored_zero": {c: Q(1), 0: Q(0)},
            "empty": {},
        }[how]
        assert not verify(params, rows).verdicts[verdict]
    # the KZ walk places no row off [0, d), not even beside a unit; a 0
    # stored on a spanned coordinate leaves the vector e_c, which it places
    if how not in ("stored_zero", "empty"):
        assert verification._kz_walk(params, rows)[0] is None
        rows[-1] = {**rows[-1], c: Q(1)}
        assert verification._kz_walk(params, rows)[0] is None


def _glued_generators(params):
    """L_k's generators as dense rows, built here: e_0 .. e_(d-1), then the
    glue vectors g_0 .. g_(k-1)."""
    d = params.dims[-1]
    units = [tuple(Q(int(c == i)) for c in range(d)) for i in range(d)]
    return units + reference._glue_rows(params)


def _assert_basis_verdicts_match(params, claims):
    """_is_glued_basis on the supports of each (name, rows) claim equals
    the reference's rule for short_basis_valid, |det(integer coordinates
    over L_k)| = 1; returns the reference verdicts."""
    L = glued_prime_lattice(params.k)
    wants = []
    for name, rows in claims:
        coords = [reference.lll_coordinates(L, u) for u in rows]
        want = abs(reference.determinant(coords)) == 1
        got = verification._is_glued_basis(params, reference.supports(rows))
        assert got == want, (name, want)
        wants.append(want)
    return wants


@pytest.mark.parametrize("k", [1, 2])
def test_glued_basis_count_matches_the_determinant_on_every_omission(k):
    # every claim that leaves out k of the d + k generators: of those that
    # keep the glue vectors (5 at k = 1, 91 at k = 2) the bases are the
    # omissions with no two units of one block (5 and 49); leaving out a
    # glue vector never gives one
    params = glued_params(k)
    gens = _glued_generators(params)
    d = params.dims[-1]
    omissions = list(combinations(range(len(gens)), k))
    claims = [
        (omitted, [g for i, g in enumerate(gens) if i not in omitted])
        for omitted in omissions
    ]
    wants = _assert_basis_verdicts_match(params, claims)
    units_only = [w for omitted, w in zip(omissions, wants) if max(omitted) < d]
    assert (len(units_only), sum(units_only), sum(wants)) == {
        1: (5, 5, 5),
        2: (91, 49, 49),
    }[k]


def test_glued_basis_without_e0_and_a_block_0_unit_is_a_basis():
    # at k = 2, leaving out e_0 and e_1 keeps a basis: e_0 = 3 g_1 - (block
    # 1's units), and then e_1 = 2 g_0 - e_0 - (block 0's other units)
    params = glued_params(2)
    gens = _glued_generators(params)
    claim = gens[2:]
    assert _assert_basis_verdicts_match(params, [("e_0, e_1", claim)]) == [True]


@pytest.mark.parametrize("seed", range(3))
def test_glued_basis_count_matches_the_determinant_on_signed_claims(seed):
    # a basis of L_3 (one unit left out per block, or e_0 for one block's)
    # in a shuffled order, with a unit negated, a glue vector negated, and
    # a unit replaced by the negation of another claimed unit, so that
    # +-e_c are both claimed
    rng = random.Random(seed)
    params = glued_params(3)
    gens = _glued_generators(params)
    d = params.dims[-1]
    omitted = {rng.randrange(lo, hi) for lo, hi in params.blocks}
    if rng.randrange(2):
        omitted = omitted - {rng.choice(sorted(omitted))} | {0}
    basis = [g for i, g in enumerate(gens) if i not in omitted]
    rng.shuffle(basis)
    units = [i for i, u in enumerate(basis) if sum(u) == 1]
    glues = [i for i in range(d) if i not in units]

    def negated(rows, i, source=None):
        rows = list(rows)
        rows[i] = tuple(-x for x in rows[i if source is None else source])
        return rows

    a, b = rng.sample(units, 2)
    claims = [
        ("basis", basis),
        ("negated unit", negated(basis, rng.choice(units))),
        ("negated glue", negated(basis, rng.choice(glues))),
        ("negated unit and glue", negated(negated(basis, a), rng.choice(glues))),
        ("+-e_c", negated(basis, a, source=b)),
    ]
    assert _assert_basis_verdicts_match(params, claims) == [True] * 4 + [False]


def test_glued_verifiers_past_k_2_build_no_dense_row(monkeypatch):
    # at k >= 3 the verifiers read the claims' supports: no d-long unit, no
    # densified claim and no dense constructor (the one d-long tuple is the
    # reported witness); at k <= 2 the generic oracle densifies
    from conftest import count_calls

    names = (
        "linalg.unit_vector",
        "constructions._dense",
        "constructions.glued_kz_claimed_basis",
        "constructions.glued_shortest_basis",
        "constructions.glued_prime_lattice",
    )
    calls = count_calls(monkeypatch, *names)
    assert verify_theorem_gap(5).success
    assert verify_kz_structure(5).success
    assert calls == dict.fromkeys(names, 0)
    assert verify_kz_structure(2).success
    assert calls["constructions._dense"] == 2


def test_glued_verifiers_pass_past_the_old_cap():
    # k = 11 (dim 3,359), the first k past the old ten-prime table
    gap = verify_theorem_gap(11)
    assert gap.success, gap.verdicts
    assert len(gap.witnesses["v_last"]) == 3359
    assert gap.quantities["v_last_sq"] > 11
    kz = verify_kz_structure(11)
    assert kz.success, kz.verdicts


def test_block_gso_equals_the_rational_gso():
    for k in (1, 2, 3):
        params = glued_params(k)
        claimed = glued_kz_claimed_basis(k)
        gso = reference.gram_schmidt(claimed)
        norms, checks, _ = verification._kz_walk(params, _kz_claim(params))
        assert norms == list(gso.norms_sq)
        # the complement before each step is the one the layout names:
        # every GSO vector lies on it, and fills it from the glue step on;
        # and the walk's complement is the layout's at every diff step
        for (_, kind, remaining, _), b in zip(reference.kz_layout(params), gso.bstar):
            support = {c for c, x in enumerate(b) if x}
            assert support <= remaining
            assert (support == remaining) == (kind != "unit")
        assert checks == dict.fromkeys(
            ("gso_norms_match", "stepwise_minimality", "tie_breaks"), True
        )



def test_residue_tuples_equal_the_walk():
    # the CRT closed form gives the walk's tuples, deduplicated at k = 1
    # (+1 = -1 mod 2) and in its lexicographic order; primes sharing a
    # factor admit no tuple
    for k in range(1, 8):
        primes = glued_params(k).primes
        prod = 1
        for p in primes:
            prod *= p
        got = verification._residue_tuples(primes, prod)
        assert got == reference.residue_tuples(primes, prod)
        assert len(got) == (1 if k == 1 else 2)
    assert verification._residue_tuples((2, 4), 8) == []
    assert reference.residue_tuples((2, 4), 8) == []

def test_glue_residue_argument_needs_every_premise():
    params = glued_params(3)
    glues = list(_glue_vectors(params))
    assert verification._glue_residues_priced(params, glues)
    lo, _ = params.blocks[1]
    for change in (
        {lo: Q(1, 6)},  # an entry with the wrong denominator
        {params.blocks[2][0]: Q(1, 3)},  # an entry in another block
        {0: Q(0)},  # no shared coordinate
    ):
        bad = [dict(g) for g in glues]
        bad[1].update(change)
        bad[1] = {c: x for c, x in bad[1].items() if x}
        assert not verification._glue_residues_priced(params, bad)
    # one block coordinate left: a residue costs 1/9 < 1 there
    thin = [glues[0], {0: Q(1, 3), lo: Q(1, 3)}, glues[2]]
    assert not verification._glue_residues_priced(params, thin)


def test_minkowski_bounds_reports_share_keys_and_values():
    # a caller holding many reports holds each key and each value once
    a = verification.verify_minkowski_bounds(dual_root_d(6))
    b = verification.verify_minkowski_bounds(dual_root_d(6))
    assert a.quantities == b.quantities and a.quantities
    for key, value in a.quantities.items():
        other = next(k for k in b.quantities if k == key)
        assert other is key and b.quantities[key] is value
    assert not hasattr(a, "__dict__")
    # and each quantity, verdict, equality and witness table once,
    # read-only; a report still copies and pickles as plain dicts do, and
    # its tables of booleans serialize as they do
    import copy
    import json
    import pickle

    for name in ("quantities", "verdicts", "equalities", "witnesses"):
        table = getattr(a, name)
        assert table is getattr(b, name) and isinstance(table, dict)
        with pytest.raises(TypeError):
            table["extra"] = True
        with pytest.raises(TypeError):
            table.update(extra=True)
        assert table == getattr(pickle.loads(pickle.dumps(a)), name)
        assert table == getattr(copy.deepcopy(a), name)
        if name != "quantities":  # its values are rationals
            assert json.loads(json.dumps(table)) == table
    assert a.equalities == {"equality_at_6": True} and a.witnesses == {}
    c = verification.verify_minkowski_bounds(dual_root_d(7))
    assert c.verdicts is not a.verdicts and c.success


def test_minkowski_bounds_tables_are_freed_with_their_reports():
    # a table is shared only while a report holds it: once the last report
    # of a lattice is dropped, its quantities are freed
    L = minkowski_population(29, 1)[0]
    table = weakref.ref(verification.verify_minkowski_bounds(L).quantities)
    gc.collect()
    assert table() is None
