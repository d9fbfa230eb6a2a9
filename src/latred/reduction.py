"""Minkowski and Korkin-Zolotarev reduction, shortest bases, and the
van der Waerden bound table with its k = 6, 7 improvements.

The greedy and shortest-basis searches and KZ's first step read L's one
growing pool (enumeration._grow); every later KZ step walks the levels of
one IntGSO past its prefix.  Ties are resolved deterministically everywhere:
candidate vectors are sign normalized and compared lexicographically, and
the per-step log records how many candidates were tied so tests can spot
tie-sensitive assertions.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from numbers import Rational
from operator import mul

from .enumeration import (
    DEFAULT_BUDGET,
    _Budget,
    _completed,
    _grow,
    _least,
    _nearest_plane,
    _projected_shortest,
    _shortest,
    _walk,
    lll_rows,
)
from .errors import BadParams, BudgetExceeded, PreconditionViolated
from .lattice import Lattice, _Prefix, _prefix_gso, integer_coordinates
from .linalg import hnf, norm_sq, normalize_sign
from .rationals import Q, QONE, qden


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


def lll(L: Lattice, delta=Q(3, 4)) -> ReductionResult:
    if not (isinstance(delta, Rational) and Q(1, 4) < delta < 1):
        raise PreconditionViolated("delta must be a rational in (1/4, 1)")
    rows = lll_rows(L.basis, delta)[0]
    return ReductionResult(rows, "lll", ())


def minkowski_reduce(L: Lattice, node_budget=DEFAULT_BUDGET) -> ReductionResult:
    """Greedy reduction: each b_i is a shortest vector keeping the prefix
    primitive, found by scanning the bounded enumeration in norm order and
    deciding primitivity on the pool's integer coordinates."""
    prefix = _Prefix.empty(L.rank)
    basis = []
    log = []

    def pick(vectors):
        # the first primitive extension, then its ties: those of equal norm
        _, _, coords, norms = L._pool
        i = next((i for i in range(len(vectors)) if prefix.extends(coords[i])), None)
        if i is not None:
            end = bisect_right(norms, norms[i])
            ties = 1 + sum(map(prefix.extends, coords[i + 1 : end]))
            return vectors[i], coords[i], norms[i], ties

    for i in range(L.rank):
        chosen, c, nsq, ties = _grow(L, pick, node_budget)
        prefix = prefix.extended(c)
        basis.append(chosen)
        log.append(StepRecord(i, chosen, nsq, ties))
    return ReductionResult(tuple(basis), "minkowski", tuple(log))


def _kz_candidates(L, held, gso, budget):
    """The vectors of L whose projection past a nonempty prefix (held its
    _Prefix, gso its IntGSO) is shortest, and whose full norm is least
    among those, sign normalized and in lexicographic order.

    On a basis [prefix; completion] of L (_completed), one walk of the
    levels past the prefix finds every projected minimizer, one per +/-
    pair.  Each is carried down the prefix's levels, its own fixed, under
    one full-norm bound that starts at the first one's nearest-plane lift
    and is lowered as shorter lifts arrive."""
    i = len(gso.b)
    gso = _completed(L, held, gso)
    tops, rho = _projected_shortest(gso, i, budget)
    bound = [rho + _nearest_plane(gso, None, [0] * i + list(tops[0]), i)]
    lifts = (_walk(gso, None, bound, budget, top=(top, rho)) for top in tops)
    found = _least(chain.from_iterable(lifts), bound)
    cols = tuple(zip(*gso.b))
    cands = {normalize_sign(tuple(sum(map(mul, x, c)) for c in cols)) for x in found}
    return [tuple(Q(a, gso.den) for a in v) for v in sorted(cands)]


def kz_reduce(L: Lattice, node_budget=DEFAULT_BUDGET) -> ReductionResult:
    """Korkin-Zolotarev reduction: at each step the new vector minimizes the
    projected norm and, among those minimizers, the full norm.  The
    prefix's IntGSO grows by one row per step, over L's denominator.

    node_budget bounds each step's enumeration on its own: step 0 reads
    L's growing pool, each enumeration it runs with node_budget nodes, and
    every later step's walks share one _Budget of node_budget nodes.  An
    exhausted budget raises BudgetExceeded."""
    prefix = []
    held = _Prefix.empty(L.rank)
    gso = _prefix_gso(L, ())
    log = []
    for i in range(L.rank):
        if i:
            cands = _kz_candidates(L, held, gso, _Budget(node_budget))
        else:
            cands = _grow(L, _shortest, node_budget)
        chosen = cands[0]
        held = held.extended(integer_coordinates(L, chosen))
        gso = gso.extended(chosen)
        prefix.append(chosen)
        log.append(StepRecord(i, chosen, norm_sq(chosen), len(cands)))
    return ReductionResult(tuple(prefix), "kz", tuple(log))


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
    of (vector, integer coordinates) pairs.

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
            v, c = pool[idx]
            if not held.extends(c):
                continue
            got = rec(prefix + [v], held.extended(c), idx + 1)
            if got is not None:
                return got
        return None

    return rec([], _Prefix.empty(n), 0)


def shortest_basis(L: Lattice, node_budget=DEFAULT_BUDGET) -> ShortestBasisReport:
    """Exact min-max basis: the least norm level of L's growing pool
    whose vectors hold a basis, certified by exhausting every level below.

    Levels are decided once each, in ascending order: one whose vectors
    generate L is searched for a basis among them, rare (large-
    denominator) vectors first, then in pool order.  A level holding a
    KZ basis holds a basis, so no KZ reduction runs until a search runs
    out of budget; then the report is uncertified, and a KZ basis caps
    the levels still tried and is the answer if none holds a basis."""
    end = 0  # pool index past the last decided level
    kz = None  # (KZ basis, its maximum) once a subset search ran out
    budget = min(node_budget, 2_000_000)

    def pick(vectors):
        nonlocal end, kz
        _, _, coords, norms = L._pool
        while end < len(vectors):
            level = norms[end]
            end = bisect_right(norms, level)
            if _generates(L.rank, coords[:end]):
                pairs = zip(vectors[:end], coords[:end])
                ordered = sorted(pairs, key=lambda e: -max(map(qden, e[0])))
                try:
                    found = _basis_subset_search(L, ordered, budget)
                except BudgetExceeded:
                    found = None
                    if kz is None:
                        basis = kz_reduce(L, node_budget).basis
                        kz = basis, max(map(norm_sq, basis))
                if found is not None:
                    found.sort(key=lambda v: (norm_sq(v), v))
                    return ShortestBasisReport(tuple(found), level, kz is None)
            if kz is not None and level >= kz[1]:
                return ShortestBasisReport(*kz, False)

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
