"""Minkowski and Korkin-Zolotarev reduction, shortest bases, and the
van der Waerden bound table with its k = 6, 7 improvements.

The greedy and shortest-basis searches read L's one growing pool
(enumeration._grow) in integers and build rationals only for the vectors
and norms they return; KZ carries one basis of L from step to step and
walks the levels of its IntGSO past the prefix.  Ties are resolved
deterministically everywhere: candidate vectors are sign normalized and
compared lexicographically, and the per-step log records how many
candidates were tied so tests can spot tie-sensitive assertions.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from math import gcd

from .enumeration import (
    DEFAULT_BUDGET,
    _Budget,
    _grow,
    _least,
    _nearest_plane,
    _projected_shortest,
    _put,
    _table,
    _walk_on,
)
from .errors import BadParams, BudgetExceeded
from .lattice import Lattice, _Prefix
from .linalg import hnf, norm_sq
from .rationals import Q, QONE, qden, qnum


@dataclass(frozen=True)
class StepRecord:
    index: int
    vector: tuple
    norm_sq: object
    ties: int


@dataclass(frozen=True)
class ReductionResult:
    basis: tuple
    kind: str
    step_log: tuple


@dataclass(frozen=True)
class DeltaTable:
    values: tuple
    improved: tuple


@dataclass(frozen=True)
class ShortestBasisReport:
    basis: tuple
    max_norm_sq: object
    certified: bool


def lll(L: Lattice) -> ReductionResult:
    """LLL reduction with delta = 3/4: the rows of the IntGSO L caches
    over their denominator."""
    gso = L._lll[1]
    basis = tuple(tuple(Q(x, gso.den) for x in r) for r in gso.b)
    return ReductionResult(basis, "lll", ())


def minkowski_reduce(L: Lattice, node_budget=DEFAULT_BUDGET) -> ReductionResult:
    """Greedy reduction: each b_i is a shortest vector keeping the prefix
    primitive, found by scanning L's pool (enumeration._grow) in norm
    order and deciding primitivity on its integer coordinates
    (_greedy_picks)."""
    pool, picks = _greedy_picks(L, node_budget)
    log = tuple(
        StepRecord(k, pool.vector(i), pool.norm_sq(i), ties)
        for k, (i, ties) in enumerate(picks)
    )
    return ReductionResult(tuple(rec.vector for rec in log), "minkowski", log)


def _greedy_picks(L: Lattice, node_budget):
    """(pool, picks): L's pool and the greedy's (pool index, ties) per
    step.

    One scan serves every step and growth round.  The prefix P is
    primitive, so L/P is free, and a candidate that does not extend P has
    image 0 or g u with g >= 2 in L/P, and keeps such an image in L/P'
    for every larger primitive P'.  So step k + 1 resumes right after step k's
    pick, and a round that found nothing resumes at the end of its cut.
    Ties are counted over the pick's whole norm level: the candidates of
    that level before the pick do not extend the prefix either."""
    n = L.rank
    prefix = _Prefix.empty(n)
    picks = []
    start = 0

    def pick(pool, end):
        nonlocal prefix, start
        rhos, coords = pool.rhos, pool.coords
        for i in range(start, end):
            c = coords[i]
            tail = prefix.extends(c)
            if tail is not None:
                level = bisect_right(rhos, rhos[i])
                rest = coords[i + 1 : level]
                ties = 1 + sum(prefix.extends(d) is not None for d in rest)
                prefix = prefix.extended(c, tail)
                picks.append((i, ties))
                if len(picks) == n:
                    return pool
        start = end

    return _grow(L, pick, node_budget, longest=True), picks


def _kz_candidates(gso, i, budget):
    """(v, norm, ties, x) over the candidates: the vectors of the lattice
    of the IntGSO gso whose projection past its first i rows is shortest,
    and whose full norm is least among those, sign normalized.  ties is
    their number, v the lexicographically first, norm its squared norm
    and x its integer coordinates over the rows of gso.

    One walk of the levels from i on finds every projected minimizer, one
    per +/- pair.  Each is carried down the levels below i, its own fixed,
    under one full-norm bound that starts at the first one's nearest-plane
    lift and is lowered as shorter lifts arrive.  Every walk reads one
    _table of gso; the candidates stay integer (den v) until the pick,
    and the norm is the least leaf's integer M |v|^2."""
    table = _table(gso)
    tops, rho = _projected_shortest(gso, table, i, budget)
    bound = [rho + _nearest_plane(gso, table, [0] * i + list(tops[0][0]), i)]
    lifts = (_walk_on(gso, table, bound, budget, 0, (top, rho)) for top, _ in tops)
    cands = {}
    for x, u in _least(chain.from_iterable(lifts), bound):
        # sign normalization: the first nonzero entry positive
        if next(a for a in u if a) < 0:
            u, x = tuple(-a for a in u), tuple(-a for a in x)
        cands[u] = x
    u = min(cands)
    den = gso.den
    return tuple(Q(a, den) for a in u), Q(bound[0], table[0]), len(cands), cands[u]


def kz_reduce(L: Lattice, node_budget=DEFAULT_BUDGET) -> ReductionResult:
    """Korkin-Zolotarev reduction: at each step the new vector minimizes the
    projected norm and, among those minimizers, the full norm.  One basis
    of L is carried from step to step, starting at the LLL basis: step i
    walks its IntGSO past row i and puts the chosen vector there
    (enumeration._put), so its first rows are the KZ prefix.

    node_budget bounds each step's walks on its own: every step, step 0
    included, spends one _Budget of node_budget nodes.  An exhausted budget
    raises BudgetExceeded."""
    gso = L._lll[1]
    log = []
    for i in range(L.rank):
        v, norm, ties, x = _kz_candidates(gso, i, _Budget(node_budget))
        gso = _put(gso, i, x)
        log.append(StepRecord(i, v, norm, ties))
    return ReductionResult(tuple(rec.vector for rec in log), "kz", tuple(log))


# ---------------------------------------------------------------------------
# shortest basis (min-max over all bases)


def _generates(n, coords):
    """Do vectors with these integer coordinates Z-span the whole rank-n
    lattice?  Their HNF then has n pivots, all 1 (a zero or a larger
    diagonal entry means a lower rank or a proper sublattice)."""
    if len(coords) < n:
        return False
    h = hnf(coords)
    return all(h[i][i] == 1 for i in range(n))


def _basis_subset_search(L, pool, budget):
    """Depth-first search for a primitive rank-subset of the pool, a list
    of (item, integer coordinates) pairs: the items of the first one
    found, in pool order.

    Pool order is the search order; prefixes are pruned by primitivity (one
    _Prefix per level) and by the number of pool vectors left.
    """
    n = L.rank
    nodes = [0]

    def rec(prefix, held, start):
        if len(prefix) == n:
            return list(prefix)
        if len(prefix) + (len(pool) - start) < n:
            return None
        for idx in range(start, len(pool)):
            nodes[0] += 1
            if nodes[0] > budget:
                raise BudgetExceeded("subset search budget exhausted")
            item, c = pool[idx]
            tail = held.extends(c)
            if tail is None:
                continue
            got = rec(prefix + [item], held.extended(c, tail), idx + 1)
            if got is not None:
                return got
        return None

    return rec([], _Prefix.empty(n), 0)


def shortest_basis(L: Lattice, node_budget=DEFAULT_BUDGET) -> ShortestBasisReport:
    """Exact min-max basis: the least norm level of L's growing pool
    whose vectors hold a basis, certified by exhausting every level below.

    Levels are decided once each, in ascending order of M |v|^2: one whose
    vectors generate L is searched for a basis among them, rare (large-
    denominator) vectors first, then in pool order.  The largest entry
    denominator of v = w / den is den / min_c gcd(den, w_c).  A level
    holding a KZ basis holds a basis, so no KZ reduction runs until a
    search runs out of budget; then the report is uncertified, and a KZ
    basis caps the levels still tried and is the answer if none holds a
    basis."""
    done = 0  # pool index past the last decided level
    kz = None  # (KZ basis, its maximum, that times M) once a search ran out
    budget = min(node_budget, 2_000_000)

    def pick(pool, end):
        nonlocal done, kz
        rhos, coords, den = pool.rhos, pool.coords, pool.den
        while done < end:
            first = done
            done = bisect_right(rhos, rhos[first])
            if _generates(L.rank, coords[:done]):
                # a stable sort: pool order among equally rare vectors
                rare = sorted(
                    range(done), key=lambda i: min(gcd(den, a) for a in pool.ws[i])
                )
                try:
                    found = _basis_subset_search(
                        L, [(i, coords[i]) for i in rare], budget
                    )
                except BudgetExceeded:
                    found = None
                    if kz is None:
                        basis = kz_reduce(L, node_budget).basis
                        top = max(map(norm_sq, basis))
                        kz = basis, top, qnum(top) * pool.m // qden(top)
                if found is not None:
                    # pool order is (norm, lex) order
                    basis = tuple(map(pool.vector, sorted(found)))
                    return ShortestBasisReport(basis, pool.norm_sq(first), kz is None)
            if kz is not None and rhos[first] >= kz[2]:
                return ShortestBasisReport(kz[0], kz[1], False)

    return _grow(L, pick, node_budget)


# ---------------------------------------------------------------------------
# van der Waerden Delta table


def vdw_delta_table(K: int, use_improvements: bool) -> DeltaTable:
    """Exact Delta_1..Delta_K from the size-reduction recurrence
    Delta_{k+1} = max(1, (sum_i Delta_i + 1) / 4), optionally substituting
    the proven Delta_6 = 3/2 and Delta_7 = 7/4."""
    if K < 1:
        raise BadParams("the Delta table needs K >= 1")
    values = []
    improved = []
    total = Q(0)
    for k in range(1, K + 1):
        if k == 1:
            v = QONE
        else:
            v = max(QONE, (total + 1) / 4)
        flag = False
        if use_improvements and k == 6:
            v = Q(3, 2)
            flag = True
        elif use_improvements and k == 7:
            v = Q(7, 4)
            flag = True
        elif use_improvements and k >= 8:
            flag = True  # inherits the substituted entries via the recurrence
        values.append(v)
        improved.append(flag)
        total += v
    return DeltaTable(tuple(values), tuple(improved))
