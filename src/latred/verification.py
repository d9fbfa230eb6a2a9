"""Theorem-level verifiers.

Each verifier returns a report whose verdicts are recomputable from the
exact rational quantities it stores.  Nothing here uses floating point;
wall-clock `elapsed` fields are the only approximate numbers.

The big scan (`check_shortest_vectors_42`) certifies the minimum of a
42-dimensional lattice by exhausting the structured candidate families
that a coordinate-sum congruence leaves possible, instead of generic
enumeration.  The structured KZ verifier reduces every projected-lattice
minimality question to the minimum of a difference lattice, which has a
closed form.
"""

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cmp_to_key, reduce
from itertools import chain, combinations, starmap
from math import comb, gcd, lcm, prod
from operator import mul
from sys import intern
from weakref import WeakValueDictionary

from .constructions import (
    _dense,
    _generators21,
    _generators42,
    _glue_vectors,
    _kz_claim,
    _lifted_rows,
    _short_claim,
    default_heights,
    dual_root_d,
    glued_params,
    glued_prime_lattice,
)
from .enumeration import (
    DEFAULT_BUDGET,
    _Budget,
    _minima_picks,
    _table,
    _walk_on,
    enumerate_up_to,
)
from .errors import (
    ConstructionMismatch,
    DimensionMismatch,
    NotIntegral,
    PreconditionViolated,
    ScanCrossCheckFailed,
)
from .lattice import (
    IntGSO,
    _back_substitute,
    _dependence,
    _target_lam,
    covolume_squared,
    lattice_from_generators,
)
from .linalg import (
    _int_rows,
    _scaled_rows,
    dot,
    gram_matrix,
    norm_sq,
    row_times_mat,
    vscale,
)
from .rationals import Q, QZERO, is_integer, qden, qnum, qround
from .reduction import (
    _greedy_picks,
    kz_reduce,
    minkowski_reduce,
    shortest_basis,
    vdw_delta_table,
)


@dataclass
class AppendixReport:
    """stats counts the scan's work: "probes" is one table lookup per
    candidate key, "collisions" the table entries those lookups return."""

    relation: object
    no_unit_coefficient: bool
    families_checked: dict
    violations: list
    elapsed: float
    stats: dict = field(default_factory=dict)

    @property
    def success(self) -> bool:
        return self.no_unit_coefficient and not self.violations


@dataclass(slots=True)
class TheoremReport:
    lattice_id: str
    quantities: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    equalities: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def success(self) -> bool:
        return all(self.verdicts.values())


def check_no_unit_coefficient(rel) -> bool:
    return all(c != 1 and c != -1 for c in rel.coefficients)


# ---------------------------------------------------------------------------
# candidate-family scan
#
# The scanned lattices are generated by 0/1 vectors whose coordinates sum
# to t (t = 5 for the 42-dim lattice, t = 3 for the 21-dim attempt), so
# every member has coordinate sum divisible by t.  An integer vector of
# squared norm <= t with coordinate sum 0 mod t is, up to global sign:
# for t = 5, e_i - e_j, a half-positive-half-negative quadruple, or an
# all-positive quintuple; for t = 3, e_i - e_j or an all-positive triple.
# Scanning those families therefore certifies the lattice minimum.
#
# The lattice L is generated by the integer rows of the generators, and
# one gcd echelon of [generators | I] over the generators' columns
# (lattice._dependence) gives both the relation, the right part of its
# row with a zero left part, and an HNF basis H of L, its pivot rows'
# left parts reduced above their pivots; the identity block is never
# back-reduced.  A candidate sum x = sum s_p e_p is in L iff x H^-1 is
# integral.  Scaled by the exponent dd of Z^n / L (the lcm of H^-1's
# denominators), the residue vector R_p of e_p is row p of dd H^-1 mod
# dd, so x is in L iff sum s_p R_p = 0 mod dd.  A lane that is 0 for
# every position says nothing and is dropped: H^-1's column c is
# integral whenever H's column c is e_c.  The residue map is linear, and
# every generator's residues are checked to sum to 0, so it vanishes on
# L: a candidate with a nonzero residue sum is not in L whatever H was,
# and a scan with no hits is complete.  A hit is refused unless the
# second route (_confirm_member) confirms it.
#
# Each family is then a collision search: a table of the R_a and one of
# the pair sums P(a, b) = R_a + R_b, built once per scan (_tables) and
# passed to the families that need it.  Each candidate key (R_b, P(c, d) or
# -sum R_t) is looked up once, and a collision with shared positions or
# not in canonical order (sorted positions, first sign +) is dropped.
#
# Both tables hold packed residue vectors: lane i of one int holds entry
# i in B = dd.bit_length() + 1 bits, so dd < 2^(B-1) and a lane sum of two
# residues stays below 2^B.  Adding K, which repeats 2^(B-1) - dd, sets a
# lane's top bit (mask M) exactly where its sum is at least dd, and
# subtracting dd there reduces every lane at once (_lane_adder).  Packing
# is a bijection on reduced vectors, so probes and collisions are those of
# the tuples.

_QUAD_PATTERNS = ((1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def _tables(state):
    """The scan state with its tables: under each packed R_a the
    positions a, and under each P(a, b) the pairs a < b, with the pair
    sums P(a, b) in order."""
    packed, add = state["packed"], _lane_adder(state)
    singles, sums, pairs = {}, {}, {}
    for a, key in enumerate(packed):
        singles[key] = singles.get(key, ()) + (a,)
    for a, b in combinations(range(state["n"]), 2):
        key = sums[a, b] = add(packed[a], packed[b])
        pairs[key] = pairs.get(key, ()) + ((a, b),)
    return dict(state, singles=singles, sums=sums, pairs=pairs)


def _residues(h):
    """(dd, rows): the residue vectors of the unit vectors over the square
    HNF basis h, mod the exponent dd of Z^n / L, in the lanes that are not
    0 for every position.

    Row p of N h^-1, N the product of h's diagonal, is the integer y with
    y h = N e_p, solved column by column.  A column of h that is e_c is
    e_c in h^-1 too, so only the other columns are solved, and only they
    can be fractional."""
    n = len(h)
    big = prod(h[c][c] for c in range(n))
    # column c's entries above the diagonal, as (rows, entries)
    cols = {}
    for c in range(n):
        above = [i for i in range(c) if h[i][c]]
        if above or h[c][c] != 1:
            cols[c] = (above, [h[i][c] for i in above])
    ys = []
    for p in range(n):
        y = [0] * n
        y[p] = big
        for c, (above, xs) in cols.items():
            y[c] = (y[c] - sum(map(mul, map(y.__getitem__, above), xs))) // h[c][c]
        ys.append([y[c] for c in cols])
    # dd, the lcm of big / gcd(x, big) over the entries x, is big / g
    g = gcd(big, *(x for y in ys for x in y))
    dd = big // g
    rows = [[x // g % dd for x in y] for y in ys]
    lanes = [i for i, col in enumerate(zip(*rows)) if any(col)]
    return dd, [tuple(r[i] for i in lanes) for r in rows]


def _scan_state(h, supports):
    """The residues over h (_residues), packed.  Raises
    ScanCrossCheckFailed unless the residues of every 0/1 generator, given
    by its support, sum to 0."""
    dd, rows = _residues(h)
    width = dd.bit_length() + 1
    state = dict(
        n=len(rows),
        lanes=len(rows[0]),
        dd=dd,
        width=width,
        packed=[_pack(r, dd, width) for r in rows],
        negated=[_pack(r, dd, width, -1) for r in rows],
    )
    add, packed = _lane_adder(state), state["packed"]
    if any(reduce(add, (packed[p] for p in sup), 0) for sup in supports):
        raise ScanCrossCheckFailed("the residues do not vanish on the generators")
    return state


def _pack(v, dd, width, sign=1):
    """sign * v mod dd, entry i in lane i."""
    return sum((sign * x % dd) << (width * i) for i, x in enumerate(v))


def _lane_constants(state):
    """(dd, top, carry, high) of _lane_adder's lane-wise reduction."""
    dd, width = state["dd"], state["width"]
    top = width - 1
    lanes = sum(1 << (width * i) for i in range(state["lanes"]))
    return dd, top, ((1 << top) - dd) * lanes, (1 << top) * lanes


def _lane_adder(state):
    """Lane-wise (a + b) mod dd of two packed residue vectors."""
    dd, top, carry, high = _lane_constants(state)

    def add(a, b):
        s = a + b
        return s - (((s + carry) & high) >> top) * dd

    return add


def _scan_pairs(ss, counts):
    """e_a - e_b with a < b: R_b = R_a."""
    table = ss["singles"]
    hits = []
    for b, rb in enumerate(ss["packed"]):
        counts["probes"] += 1
        for a in table.get(rb, ()):
            counts["collisions"] += 1
            if b == a:
                counts["overlapping"] += 1
            elif b < a:
                counts["out_of_order"] += 1
            else:
                hits.append(((a, b), 0))
    return hits


def _scan_quads(ss, counts):
    """e_a + e_b - e_c - e_d: P(c, d) = P(a, b), where the plus pair holds
    the smallest position a."""
    table = ss["pairs"]
    hits = []
    for (c, d), pcd in ss["sums"].items():
        counts["probes"] += 1
        for a, b in table.get(pcd, ()):
            counts["collisions"] += 1
            if a in (c, d) or b in (c, d):
                counts["overlapping"] += 1
            elif c < a:
                counts["out_of_order"] += 1
            elif b < c:
                hits.append(((a, b, c, d), 0))
            elif b < d:
                hits.append(((a, c, b, d), 1))
            else:
                hits.append(((a, c, d, b), 2))
    return hits


def _scan_positive(ss, counts):
    """All-positive sets of the common support size, minus the generator
    supports: P(c, d) = -(sum over t of R) for the set's (size - 2)
    largest positions t and its two smallest c < d."""
    neg, n, size = ss["negated"], ss["n"], ss["size"]
    lookup = ss["pairs"].get
    add = _lane_adder(ss)
    # add(head, neg[z]) inlined in the loop over z
    dd, top, carry, high = _lane_constants(ss)
    hits = []
    # t = u + (z,), and two positions lie below min(t)
    for u in combinations(range(2, n), size - 3):
        head = 0
        for p in u:
            head = add(head, neg[p])
        first = u[-1] + 1 if u else 2
        counts["probes"] += n - first
        for z in range(first, n):
            key = head + neg[z]
            found = lookup(key - (((key + carry) & high) >> top) * dd)
            if not found:
                continue
            low = u[0] if u else z
            for c, d in found:
                counts["collisions"] += 1
                if d < low:
                    pos = (c, d) + u + (z,)
                    if pos in ss["supports"]:
                        counts["supports_skipped"] += 1
                    else:
                        hits.append((pos, 0))
                elif c in u or d in u or z in (c, d):
                    counts["overlapping"] += 1
                else:
                    counts["out_of_order"] += 1
    return hits


# each family returns its hits as (sorted positions, sign pattern index)
_FAMILIES = {"pairs": _scan_pairs, "quads": _scan_quads, "positive": _scan_positive}
_SCAN_COUNTS = ("probes", "collisions", "overlapping", "out_of_order", "supports_skipped")


def _scan_family(kind, ss):
    """Hits of one candidate family over the tables ss (_tables) as
    (positions, signs), in the order of positions and then sign pattern,
    with the family's probe and collision counts."""
    counts = dict.fromkeys(_SCAN_COUNTS, 0)
    hits = _FAMILIES[kind](ss, counts)
    patterns = {"pairs": ((1, -1),), "quads": _QUAD_PATTERNS}.get(
        kind, ((1,) * ss["size"],)
    )
    return [(pos, patterns[k]) for pos, k in sorted(hits)], counts


def _candidate_vector(n, positions, signs):
    out = [QZERO] * n
    for p, s in zip(positions, signs):
        out[p] = Q(s)
    return tuple(out)


def _confirm_member(v, route) -> bool:
    # a second route, no modular shortcut and no elimination: v's
    # coordinates over the generators past the first, as in coordinates(),
    # on their IntGSO, built at the first hit
    if "gso" not in route:
        route["gso"] = IntGSO.of(route["rows"], 1)
    gso = route["gso"]
    lam_w, s = _target_lam(gso, v)
    scale = gso.d[-1] * s
    coords = [Q(z * gso.den, scale) for z in _back_substitute(gso, lam_w)]
    # v is a member iff adding j times the first generator's coordinates
    # (route["shift"]) makes its own integral for some j < maxk = |a_1|:
    # the relation puts a_1 times the first in the others' span
    return any(
        all(is_integer(x + j * s) for x, s in zip(coords, route["shift"]))
        for j in range(route["maxk"])
    )


def appendix_scan(vectors, workers: int = 0) -> AppendixReport:
    """Certify the minimum of the lattice generated by 0/1 vectors of a
    common support size 3 or 5 with a unique dependence, by scanning
    every candidate family the coordinate sum congruence allows.  Stops
    after the relation check if some coefficient is a unit, since the
    downstream lift construction is already ruined in that case.

    The relation and the residues come from one echelon of
    [generators | I] over the generators' columns (lattice._dependence):
    the right part of its row with a zero left part is the relation,
    checked to combine the generators to 0, and the left parts of its
    other rows, reduced above their pivots, are an HNF basis H of the
    lattice, over which the residues are read.  Each family is a
    collision search of candidate keys in the tables of the single
    positions and of the pair sums, built once per scan and handed to
    every family scan.

    The generators are read as integer rows (linalg._int_rows): a float
    is refused with PreconditionViolated, an entry that is no integer or
    not 0 or 1 with ConstructionMismatch.  workers > 1 runs the families
    as separate pool jobs, at most one worker per family, on the same
    arguments; that is slower than the serial scan, and its one caller is
    perfbench's appendix42 workload."""
    t0 = time.monotonic()
    try:
        ints = _int_rows(vectors)
    except NotIntegral:
        raise ConstructionMismatch("generators must be 0/1 vectors") from None
    if any(len(v) != len(ints[0]) for v in ints):
        raise DimensionMismatch("ragged matrix")
    rel, basis = _dependence(ints)
    if any(sum(map(mul, rel.coefficients, col)) for col in zip(*ints)):
        raise ScanCrossCheckFailed("the relation is not a dependence")
    if any(c == 0 for c in rel.coefficients):
        raise ConstructionMismatch("dependence must involve every generator")
    if any(x != 0 and x != 1 for v in ints for x in v):
        raise ConstructionMismatch("generators must be 0/1 vectors")
    supports = frozenset(tuple(i for i, x in enumerate(v) if x) for v in ints)
    sizes = {len(sup) for sup in supports}
    if len(sizes) != 1:
        raise ConstructionMismatch("generators must share a support size")
    size = sizes.pop()
    if size not in (3, 5):
        raise ConstructionMismatch(
            "the candidate families cover support sizes 3 and 5, not %d" % size
        )
    no_unit = check_no_unit_coefficient(rel)
    families = {}
    violations = []
    stats = {}
    if no_unit:
        # a unique dependence with a nonzero first coefficient leaves the
        # generators past the first independent
        n = len(ints) - 1
        if len(ints[0]) != n:
            raise DimensionMismatch("the generators past the first must be square")
        a1 = rel.coefficients[0]
        # the first generator's coordinates over the others
        route = dict(
            rows=ints[1:],
            shift=tuple(Q(-c, a1) for c in rel.coefficients[1:]),
            maxk=abs(a1),
        )
        ss = _tables(dict(_scan_state(basis, supports), size=size, supports=supports))
        families["pairs"] = comb(n, 2)
        jobs = ["pairs"]
        if size == 5:
            families["signed_quadruples"] = 3 * comb(n, 4)
            jobs.append("quads")
        positive = "quintuples" if size == 5 else "triples"
        families[positive] = comb(n, size) - len(supports)
        jobs.append("positive")
        args = [(job, ss) for job in jobs]
        if workers > 1:
            from multiprocessing import Pool

            with Pool(min(workers, len(jobs))) as pool:
                results = pool.starmap(_scan_family, args)
        else:
            results = list(starmap(_scan_family, args))
        stats = dict(single_table=n, pair_table=comb(n, 2))
        stats.update(dict.fromkeys(_SCAN_COUNTS, 0))
        for hits, counts in results:
            for key, value in counts.items():
                stats[key] += value
            for pos, signs in hits:
                cand = _candidate_vector(n, pos, signs)
                if not _confirm_member(cand, route):
                    raise ScanCrossCheckFailed("routes differ at %r" % (pos,))
                violations.append(cand)
        stats["hits_confirmed"] = len(violations)
    return AppendixReport(
        rel, no_unit, families, violations, time.monotonic() - t0, stats
    )


def check_shortest_vectors_42(workers: int = 0) -> AppendixReport:
    return appendix_scan(_generators42(), workers)


def check_attempt21() -> AppendixReport:
    return appendix_scan(_generators21())


# ---------------------------------------------------------------------------
# difference lattice


def _difference_min_sq(m):
    """Minimum squared norm of span_Z(m e_i - (e_1+...+e_m)).

    Members are (m a_i - sum a) e_i; shifting so every a_i is 0 or 1 with
    r ones, the squared norm is m r (m - r), minimized at r = 1."""
    if m < 2:
        raise PreconditionViolated("difference lattice needs m >= 2")
    return m * m - m


def difference_lattice_min(m: int):
    """_difference_min_sq(m) with its witness m e_1 - (e_1+...+e_m)."""
    min_sq = Q(_difference_min_sq(m))
    return min_sq, tuple(Q(m - 1) if i == 0 else Q(-1) for i in range(m))


def difference_lattice_basis(m: int):
    return tuple(
        tuple(Q(m - 1) if j == i else Q(-1) for j in range(m)) for i in range(m - 1)
    )


# ---------------------------------------------------------------------------
# the glued-prime family from its generators
#
# L_k is generated by the units e_c and one glue vector g_j per block.  The
# verifiers below read the claimed vectors and the glue vectors as the
# supports ({coordinate: nonzero entry}) that constructions builds, and
# decide every verdict by exact comparisons on them; for k >= 3 none of
# them builds L_k or a d-long row.


def _sq_ratio(s):
    """The squared norm of the support s as integers (N, D), N / D, D the
    squared lcm of the entries' denominators."""
    den = lcm(*map(qden, s.values()))
    return sum((qnum(x) * (den // qden(x))) ** 2 for x in s.values()), den * den


def _is_glued_basis(params, claimed):
    """Whether the claimed vectors are a basis of L_k, decided by a count
    over the generators e_0 .. e_{d-1} and g_0 .. g_{k-1}: every claimed
    support must be +-e_c with c in [0, d) or +-g_j (so no entry is stored
    as 0), no generator may be claimed twice up to sign, the claim must
    hold all k glue vectors and d - k units, and no block [lo, hi) may
    omit two of its own units.

    The count is complete.  The relations among the generators are the
    integer combinations of rho_j = p_j g_j - e_0 - (block j's units): a
    block coordinate forces g_j's coefficient into p_j Z, and once those
    multiples of rho_j are taken off, what is left is a relation among
    the units, which is 0.  So d claimed generators are a basis iff the
    k x k matrix of the rho_j on the k omitted generators is unimodular.
    An omitted g_j gives the column p_j e_j, a factor p_j of the
    determinant; an omitted unit of block j gives -e_j and e_0 all -1s,
    and k such columns are unimodular iff no two of them are equal, that
    is iff no block omits two of its units."""
    d = params.dims[-1]
    glues = _glue_vectors(params)
    ending = {hi - 1: j for j, (_, hi) in enumerate(params.blocks)}
    held = set()
    for s in claimed:
        if len(s) == 1:
            ((c, x),) = s.items()
            key = ("e", c) if x in (1, -1) and 0 <= c < d else None
        else:
            j = ending.get(max(s, default=None))
            if s.get(0, 0) < 0:  # -g_j, as g_j is positive there
                s = {c: -x for c, x in s.items()}
            key = ("g", j) if j is not None and s == glues[j] else None
        if key is None or key in held:
            return False
        held.add(key)
    if len(held) != d or sum(kind == "g" for kind, _ in held) != params.k:
        return False
    return all(
        sum(("e", c) not in held for c in range(lo, hi)) <= 1
        for lo, hi in params.blocks
    )


def _glue_residues_priced(params, glues):
    """Whether the glue vectors carry the residue argument.  g_j must live
    on the shared coordinate and block j, every entry with denominator
    p_j, the p_j pairwise coprime, and r g_j must cost at least 1 on block
    j modulo Z for every 0 < r < p_j.  Then w = z + sum r_j g_j in L_k
    (z integral, 0 <= r_j < p_j) is integral iff every r_j is 0, so
    [L_k : Z^d] = prod p_j; and a nonzero r_j costs w at least 1 on
    block j plus a nonzero shared coordinate, so |w|^2 <= 1 makes w
    integral."""
    if any(gcd(p, q) != 1 for p, q in combinations(params.primes, 2)):
        return False
    for g, p, (lo, hi) in zip(glues, params.primes, params.blocks):
        if 0 not in g or any(c and not lo <= c < hi for c in g):
            return False
        if any(qden(x) != p for x in g.values()):
            return False
        # r g_j's cost on block j depends only on its numerators mod p_j:
        # each distinct one is priced once, times its count
        counts = Counter(qnum(x) % p for c, x in g.items() if c).items()
        for r in range(1, p):
            ts = [(r * a % p, n) for a, n in counts]
            if sum(n * min(t, p - t) ** 2 for t, n in ts) < p * p:
                return False
    return True


def _kz_walk(params, claimed):
    """One pass over the claimed KZ basis, given as supports, block by
    block: (GSO norms, the verdicts gso_norms_match, stepwise_minimality
    and tie_breaks, the largest squared norm).  The norms are None where a
    row leaves the shapes below.

    The layout claims block 0's units e_lo and e_lo+1, its glue vector,
    then e_lo+2 .. e_hi-1, and every later block's e_lo, its glue vector,
    then e_lo+2 .. e_hi-1.  Before each step it leaves m block coordinates
    unspanned (block 0's include the shared one); before the step of e_c
    past the glue vector they are keep and [c, hi), with keep the shared
    coordinate in block 0 and lo + 1 in the later blocks.

    Block j's rows may touch only its own coordinates C_j and the earlier
    blocks' ones, which the earlier blocks span.  So each row is projected
    onto the complement of its prefix inside C_j, which is R^R for a
    coordinate set R or its sum-zero hyperplane S_R.
    - On R^R a row whose restriction to R is x e_c projects to x e_c and
      leaves R^(R - c); one that is a constant v on all of R (the glue
      vector) projects to v 1_R and leaves S_R.
    - On S_R, m = |R|, a row whose restriction to R is x e_c projects to
      x (e_c - 1_R / m), of squared norm x^2 (1 - 1/m), and leaves
      S_(R - c).
    A block ends spanned, with R^{} or S_R for a single R.  A zero
    projection means a dependent row.  R and the layout's coordinates
    start equal in every block, so they are equal while the coordinates
    removed from each are: `moved` holds their symmetric difference."""
    sqs = [_sq_ratio(s) for s in claimed]
    norms = []
    placed = match = ok_steps = ok_ties = True
    i = 0
    for j, (p, (lo, hi)) in enumerate(zip(params.primes, params.blocks)):
        pp = p * p
        keep = 0 if j == 0 else lo + 1
        R = set(range(0 if j == 0 else lo, hi))
        m = len(R)
        glued = False
        moved = set()
        units = (lo, lo + 1) if j == 0 else (lo,)
        for c in chain(units, (None,), range(lo + 2, hi)):
            if i == len(claimed):
                break
            s, (sq, sq_den) = claimed[i], sqs[i]
            i += 1
            # the predicted GSO norm is pn / pd, and the row's squared
            # norm sq / sq_den: every comparison is of integers
            if c is None:
                pn, pd = pp - 1, pp
                # r = 1 is the cheapest residue: m / p^2 prices every
                # competitor
                ok_steps &= m == pn
                # every projected-norm minimizer has all remaining
                # coordinates at +/-1/p plus fractional entries on the
                # hi - lo + (j == 0) - m block coordinates already spanned
                # and, outside block 0, on the shared coordinate, so its
                # full squared norm is at least the glue vector's, floor /
                # p^2; a nonzero residue in any other block costs a
                # further >= 1
                floor = pn + hi - lo + 1 - m
                ok_ties &= sq * pp == floor * sq_den and pn + pp > floor
            elif c in units:
                pn = pd = 1
                # fractional in-block competitors cost at least m / p^2
                ok_steps &= m >= pp
                ok_ties &= sq == sq_den
            else:
                # diff step: the block-supported part of the projected
                # lattice is generated by the projections of the block's
                # rows from here on.  With the complement S_R that the
                # layout names, the walk places each of them, at its own
                # step, as x e_c for a distinct c in R, so they project
                # to x (m e_c - 1_R) / m; every diff step checks x^2 is
                # 1.  m - 1 of the m difference-lattice rows m e_c - 1_R
                # (whose sum is 0) generate the whole difference lattice,
                # of minimum m (m - 1), so the projected minimum is
                # (m - 1) / m.  The walk's R is the layout's when nothing
                # is moved, and then it is glued too: the layout has
                # removed one coordinate fewer than the block has had rows
                pn, pd = m - 1, m
                ok_steps &= not moved
                ok_steps &= [
                    (qnum(x) ** 2, qden(x))
                    for a, x in s.items()
                    if a == keep or c <= a < hi
                ] == [(1, 1)]
                ok_steps &= _difference_min_sq(m) == m * pn
                ok_ties &= sq == sq_den
            # any projected vector with content in a later block keeps
            # those coordinates untouched and pays at least 1 there
            ok_steps &= pn <= pd
            if c is not None:
                m -= 1
                moved ^= {c}
            if not placed or max(s, default=0) >= hi or min(s, default=0) < 0:
                placed = False
                continue
            r = {a: x for a, x in s.items() if a in R}
            if len(r) == 1:
                ((a, x),) = r.items()
                if glued:  # x^2 (1 - 1/|R|) on S_R
                    norm = qnum(x) ** 2 * (len(R) - 1), qden(x) ** 2 * len(R)
                else:
                    norm = qnum(x) ** 2, qden(x) ** 2
                R.discard(a)
                moved ^= {a}
            elif not glued and len(r) == len(R) and len(set(r.values())) == 1:
                x = next(iter(r.values()))
                norm = qnum(x) ** 2 * len(R), qden(x) ** 2
                glued = True
            else:
                placed = False
                continue
            placed = norm[0] != 0
            norms.append(norm)
            match &= norm[0] * pd == pn * norm[1]
        placed &= len(R) == glued
    placed &= i == len(claimed)
    checks = {
        "gso_norms_match": placed and match,
        "stepwise_minimality": placed and ok_steps,
        "tie_breaks": ok_ties,
    }
    top = max(sqs, key=cmp_to_key(lambda u, v: u[0] * v[1] - v[0] * u[1]))
    return ([Q(*t) for t in norms] if placed else None), checks, Q(*top)


def verify_kz_structure(k: int) -> TheoremReport:
    """Validate the block-structured KZ basis of the glued-prime lattice.

    At every step the minimality of the claimed vector's projection is
    certified without enumeration.  Before a block's glue vector enters
    the prefix, a residue bound prices every competitor; afterwards the
    block-supported part of the projected lattice is a scaled difference
    lattice with a closed-form minimum, while anything touching later
    blocks costs at least 1 by the same residue bound.
    """
    t0 = time.monotonic()
    params = glued_params(k)
    rep = _kz_structure(params, _kz_claim(params))
    rep.elapsed = time.monotonic() - t0
    return rep


def _gso_norms(gso):
    """The squared norms |b*_i|^2 = d_{i+1} / (d_i den^2) of an IntGSO."""
    _, d, _, den = gso
    return [Q(a, b * den * den) for a, b in zip(d[1:], d)]


def _kz_oracle(gso):
    """Is each |b*_i|^2 of the IntGSO gso the shortest norm of its lattice
    projected past its first i rows?  A walk of the levels past row i,
    under one less than M |b*_i|^2, then finds no leaf.  The walks of all
    levels read one _table of gso."""
    table = _table(gso)
    d = gso.d
    for i, wi in enumerate(table[1]):
        shorter = [wi * d[i + 1] ** 2 - 1]
        walk = _walk_on(gso, table, shorter, _Budget(DEFAULT_BUDGET), i, None)
        if next(walk, None) is not None:
            return False
    return True


def _kz_structure(params, claimed) -> TheoremReport:
    """verify_kz_structure's report on the claimed basis, given as
    supports."""
    rep = TheoremReport("glued_prime_%d" % params.k)
    rep.verdicts["claimed_is_basis"] = _is_glued_basis(params, claimed)
    _, checks, max_sq = _kz_walk(params, claimed)
    rep.verdicts.update(checks)
    rep.quantities["kz_max_norm_sq"] = max_sq
    rep.verdicts["max_is_5_4"] = max_sq == Q(5, 4)

    if params.k <= 2:
        # enumeration oracle: the claimed GSO norm at each step must equal
        # the shortest norm of the lattice projected past the claimed
        # prefix, so a walk of the levels past it, under |b*_i|^2, finds
        # no shorter leaf; and the generic reduction (whose tie choices at
        # equal projected norms may differ) must reach the same norm
        # profile up to reordering
        gso = IntGSO.of(*_scaled_rows(_dense(params.dims[-1], claimed)))
        ok = _kz_oracle(gso)
        generic = kz_reduce(glued_prime_lattice(params.k))
        ok &= sorted(norm_sq(u) for u in generic.basis) == sorted(
            Q(*_sq_ratio(s)) for s in claimed
        )
        generic_gso = IntGSO.of(*_scaled_rows(generic.basis))
        ok &= sorted(_gso_norms(generic_gso)) == sorted(_gso_norms(gso))
        rep.verdicts["matches_generic_kz"] = ok
    return rep


# ---------------------------------------------------------------------------
# the gap between the last greedy vector and the shortest-basis maximum


def verify_theorem_gap(k: int) -> TheoremReport:
    """Report the squared norm of the final greedy-reduction vector
    against the certified shortest-basis maximum of the glued-prime
    lattice.

    For k <= 2 everything is computed generically.  For larger k the
    greedy prefix is pinned down structurally: the only vectors of squared
    norm <= 1 are the signed units, all units but the shared one form a
    primitive prefix, and the determinant constraint forces any basis
    completion to carry a nonzero residue in every block, pricing the
    final vector above k.
    """
    t0 = time.monotonic()
    params = glued_params(k)
    rep = _theorem_gap(params, _short_claim(params))
    rep.elapsed = time.monotonic() - t0
    return rep


def _theorem_gap(params, sb_claim) -> TheoremReport:
    """verify_theorem_gap's report on the claimed shortest basis, given as
    supports."""
    k = params.k
    rep = TheoremReport("glued_prime_%d" % k)
    index = prod(params.primes)  # [L_k : Z^d]

    rep.verdicts["short_basis_valid"] = _is_glued_basis(params, sb_claim)
    rep.quantities["short_basis_max_sq"] = max(Q(*_sq_ratio(s)) for s in sb_claim)
    rep.verdicts["short_basis_max_5_4"] = (
        rep.quantities["short_basis_max_sq"] == Q(5, 4)
    )

    if k <= 2:
        L = glued_prime_lattice(k)
        mink = minkowski_reduce(L)
        rep.verdicts["prefix_is_units"] = all(
            norm_sq(v) == 1 for v in mink.basis[:-1]
        )
        v_last_sq = norm_sq(mink.basis[-1])
        rep.witnesses["v_last"] = mink.basis[-1]
        sb = shortest_basis(L)
        rep.quantities["lambda_bar_sq"] = sb.max_norm_sq
        rep.verdicts["lambda_bar_certified"] = sb.certified
        rep.verdicts["lambda_bar_is_5_4"] = sb.max_norm_sq == Q(5, 4)
        bar = sb.max_norm_sq
    else:
        glues = _glue_vectors(params)
        priced = _glue_residues_priced(params, glues)
        # by the residue argument the vectors of squared norm <= 1 are
        # integral, so they are the signed units
        rep.verdicts["norm_one_vectors_are_units"] = priced
        # a completion w of the unit prefix is a basis iff |w_0| equals
        # the covolume 1/index, which forces its residue tuple to satisfy
        # a unit congruence; every such tuple is priced blockwise
        tuples = _residue_tuples(params.primes, index)
        best = None
        best_tuple = None
        for t in tuples:
            val = sum(
                (Q(min(c, p - c) ** 2) for c, p in zip(t, params.primes)), QZERO
            ) + Q(1, index * index)
            if best is None or val < best:
                best, best_tuple = val, t
        witness = _gap_witness(params, glues, best_tuple, index)
        # the witness is an integer combination of generators, so it lies
        # in L_k, and [e_1..e_{d-1}; w] has determinant +-w_0: with
        # |w_0| = 1/index, the covolume, it is a basis
        rep.verdicts["unit_prefix_primitive"] = (
            priced and abs(witness[0]) * index == 1
        )
        # the units span only Z^d, which misses the first glue vector
        rep.verdicts["all_units_not_basis"] = any(
            qden(x) != 1 for x in glues[0].values()
        )
        rep.verdicts["all_blocks_fractional"] = all(
            all(c != 0 for c in t) for t in tuples
        )
        v_last_sq = best
        rep.witnesses["v_last"] = witness
        rep.verdicts["witness_matches"] = norm_sq(witness) == v_last_sq
        bar = rep.quantities["short_basis_max_sq"]

    rep.quantities["v_last_sq"] = v_last_sq
    rep.verdicts["exceeds_block_count"] = v_last_sq > k
    rep.verdicts["strict_gap"] = v_last_sq > bar
    return rep


def _residue_tuples(primes, prod):
    """Residue tuples c whose glue-coefficient combination
    sum_j c_j prod / p_j is +-1 mod the prime product, sorted; exactly the
    completions with determinant of magnitude equal to the covolume.  By
    the CRT the combination is e mod prod iff c_j prod / p_j = e mod every
    p_j, so c_j = e (prod / p_j)^-1 mod p_j with one sign e for all j (the
    two tuples coincide when prod = 2).  A factor shared by two p_j
    divides every combination, and then no inverse exists and no tuple
    either."""
    try:
        inv = [pow(prod // p, -1, p) for p in primes]
    except ValueError:
        return []
    return sorted({tuple(e * c % p for c, p in zip(inv, primes)) for e in (1, -1)})


def _gap_witness(params, glues, residues, prod):
    """w = sum r_j g_j - n e_0, summed from the sparse glue vectors, with
    r_j the residues' representatives of least magnitude and n the integer
    that puts the shared coordinate w_0 nearest to 0, or one step further
    when that is not at distance 1/prod."""
    w = [QZERO] * params.dims[-1]
    for c, p, g in zip(residues, params.primes, glues):
        r = c if c <= p - c else c - p
        for i, x in g.items():
            w[i] += r * x
    n = qround(w[0])
    if abs(w[0] - n) * prod != 1:
        n += -1 if w[0] < n else 1
    w[0] -= n
    return tuple(w)


# ---------------------------------------------------------------------------
# greedy-reduction norm bounds and similarity at equality


def _kth_root(x, k):
    num, den = int(x.numerator), int(x.denominator)

    def iroot(v):
        # integer Newton descends to the floor root from 2^ceil(bits/k)
        r = 1 << -(-v.bit_length() // k)
        while r:
            s = ((k - 1) * r + v // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
        return r if r**k == v else None

    a, b = iroot(num), iroot(den)
    if a is None or b is None:
        return None
    return Q(a, b)


def similar_to_dual_root(vectors, node_budget=DEFAULT_BUDGET) -> bool:
    """Whether the span of the vectors is similar (rotation and scaling)
    to the same-rank D_k*, decided by searching for a basis image with an
    identical scaled Gram matrix; node_budget bounds the enumeration of
    D_k*'s candidate images."""
    k = len(vectors)
    S = lattice_from_generators(vectors)
    if S.rank != k:
        return False
    D = dual_root_d(k)
    ratio = covolume_squared(S) / covolume_squared(D)
    alpha = _kth_root(ratio, k)
    if alpha is None:
        return False
    gs = gram_matrix(S.basis)
    bound = max(gs[i][i] for i in range(k)) / alpha
    pool = enumerate_up_to(D, bound, node_budget).vectors
    cands = list(pool) + [vscale(Q(-1), v) for v in pool]

    def extend(chosen):
        i = len(chosen)
        if i == k:
            # alpha Gram(chosen) = gs entry by entry, so det Gram(chosen) =
            # det(gs) / alpha^k = covolume_squared(S) / ratio =
            # covolume_squared(D), nonzero as S has rank k: chosen spans D
            # with D's covolume, so it is a basis of D
            return True
        for w in cands:
            if norm_sq(w) * alpha != gs[i][i]:
                continue
            if any(dot(w, c) * alpha != gs[i][t] for t, c in enumerate(chosen)):
                continue
            if extend(chosen + [w]):
                return True
        return False

    return extend([])


class _SharedTable(dict):
    """A read-only dict, one object per distinct content while any report
    holds it (_shared_table)."""

    __slots__ = ("__weakref__",)

    def _read_only(self, *args, **kwargs):
        raise TypeError("this report table is shared and read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _SharedTable, (dict(self),)


# each table while a report holds it; two threads racing on one content
# at worst build it twice, and both tables are correct
_TABLES = WeakValueDictionary()


def _shared_table(d):
    items = tuple(d.items())
    table = _TABLES.get(items)
    if table is None:
        table = _TABLES[items] = _SharedTable(items)
    return table


def verify_minkowski_bounds(L, node_budget=DEFAULT_BUDGET) -> TheoremReport:
    """Check the greedy-reduction norm bounds against the successive
    minima: the k/4 factor at k = 6, 7 (with similarity to D_k* exactly
    at equality) and the improved Delta table everywhere.

    The greedy and the minima pick from L's one pool and return pool
    indices (_greedy_picks, _minima_picks); indices stay valid as the pool
    grows, and every norm is rho / M over the pool's one M.  So each bound
    is an integer cross-multiplication of the pool's rhos, and only the
    reported norms, and the greedy vectors at an equality, become
    rationals."""
    t0 = time.monotonic()
    if L.rank < 6:
        raise PreconditionViolated("needs rank >= 6")
    _, greedy = _greedy_picks(L, node_budget)
    pool, minima = _minima_picks(L, node_budget)
    rhos = pool.rhos
    # keys are interned, and every table is shared read-only while a
    # report holds it: the quantities of a lattice met again, and the
    # verdict, equality and (empty) witness tables, which most lattices of
    # a rank have in common.  A caller holding the reports of many
    # lattices holds one copy of each key and table, and a table no
    # report holds is freed
    quantities, verdicts, equalities = {}, {}, {}
    table = vdw_delta_table(L.rank, True)
    all_delta = True
    for k, ((g, _), m, delta) in enumerate(zip(greedy, minima, table.values), 1):
        v, lam = rhos[g], rhos[m]  # M |v_k|^2 and M lambda_k^2
        quantities[intern("v_%d_sq" % k)] = pool.norm_sq(g)
        quantities[intern("lambda_%d_sq" % k)] = pool.norm_sq(m)
        all_delta &= v * qden(delta) <= qnum(delta) * lam
        if k in (6, 7):
            verdicts[intern("v%d_within_quarter_bound" % k)] = 4 * v <= k * lam
            eq = 4 * v == k * lam
            equalities[intern("equality_at_%d" % k)] = eq
            if eq:
                basis = tuple(pool.vector(j) for j, _ in greedy[:k])
                verdicts[intern("similar_to_dual_root_%d" % k)] = (
                    similar_to_dual_root(basis, node_budget)
                )
    verdicts["improved_delta_bounds"] = all_delta
    rep = TheoremReport(
        intern("rank_%d" % L.rank),
        _shared_table(quantities),
        _shared_table(verdicts),
        _shared_table(equalities),
        _shared_table({}),
    )
    rep.elapsed = time.monotonic() - t0
    return rep


# ---------------------------------------------------------------------------
# the lifted 43-dimensional lattice


def verify_height_lift(appendix=None) -> TheoremReport:
    """Certify that lifting the 43 generators by the default heights
    1/(HEIGHT_SCALE * q_i) produces a lattice whose shortest vector is the
    last-coordinate multiple, and that swapping that vector for any lifted
    generator never yields a basis."""
    t0 = time.monotonic()
    vecs = _generators42()
    if appendix is None:
        appendix = check_shortest_vectors_42()
    rep = TheoremReport("perturbed_43")
    rep.verdicts["base_scan_success"] = appendix.success
    rel = appendix.relation
    heights = default_heights(len(vecs))
    # the lifted rows and the height s of the relation's combination, from
    # the relation the scan checked: its HNF shows the generators'
    # dependences one-dimensional, so the relation spans them and s != 0
    # keeps the lifted rows independent
    rows, s = _lifted_rows(vecs, heights, rel)
    rep.quantities["shortest_sq"] = s * s
    # the base minimum is 5 (the scan exhausts everything shorter), so a
    # lift vector with a nonzero base component has squared norm >= 5
    rep.quantities["base_min_sq"] = Q(5)
    rep.verdicts["shortest_below_base_min"] = s * s < 5
    target = tuple([QZERO] * (len(rows) - 1)) + (s,)
    # the relation's integer combination of the lifted generators cancels
    # the base part and leaves s in the height coordinate; checking that
    # exactly also ties a caller-supplied appendix to this lattice
    is_relation = row_times_mat(rel.coefficients, rows) == target
    rep.verdicts["multiple_in_lattice"] = is_relation
    rep.witnesses["shortest"] = target

    # Cramer's rule: the lifted generators are a basis and target is
    # sum a_i lifted_i, so swapping lifted_i for target scales the
    # determinant by a_i; the swap gives a basis iff |a_i| = 1
    rep.verdicts["no_swap_gives_basis"] = is_relation and check_no_unit_coefficient(rel)
    rep.verdicts["lifted_norms_above_shortest"] = all(
        norm_sq(v) > s * s for v in rows
    )
    rep.elapsed = time.monotonic() - t0
    return rep
