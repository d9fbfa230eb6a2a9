"""The benchmark's workloads: inputs made from a seed, one operation at a
time, and exact checks of every output.

Each workload is a closed loop with one client: operation i + 1 starts when
operation i has returned its verdict.  ``op(i)`` builds the i-th
operation's inputs (untimed).  An operation is a list of steps, each a
timed call into latred; ``Op.check`` gets the steps' outputs by label,
compares them with known verdicts and with the digests in
``expected.json``, and returns ``(digests, problems)``.

latred is reached through module attributes at call time
(``verification.verify_minkowski_bounds``), never through names imported
here, so that the tracer's rebinding of those attributes is seen.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


# ---------------------------------------------------------------------------
# exact arithmetic and digests, independent of latred's own kernels


def frac(x) -> Fraction:
    """A rational of any backend (Fraction, mpq) or an int, as a Fraction."""
    return Fraction(int(x.numerator), int(x.denominator))


def qs(x) -> str:
    """Canonical "p/q" string of a rational."""
    return str(frac(x))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:20]


def int_det(rows) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [[int(x) for x in r] for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def solve_rows(basis, v):
    """x with x . basis = v over Fractions (basis square, nonsingular)."""
    n = len(basis)
    a = [[Fraction(basis[r][c]) for r in range(n)] + [Fraction(v[c])] for c in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col])
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [e / p for e in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]


def sq(v) -> Fraction:
    return sum((Fraction(x) ** 2 for x in v), Fraction(0))


@dataclass
class Op:
    """One operation: timed steps (label, call) and the check of their
    outputs, given as {label: output}."""

    key: str
    steps: list
    check: Callable[[dict], tuple]


# The reference loop: a fixed exact solve in Fractions plus a fixed
# integer Euclidean elimination and modular hash, the two kinds of
# arithmetic latred spends its time on.  Timed while latred runs, it gives
# the host's speed at that moment (SpeedProbe in run.py).
REF_BASIS = [[3, -1, 4, 1, -5, 9], [2, 6, -5, 3, 5, -8], [9, 7, 9, -3, 2, 3],
             [8, -4, 6, 2, 6, 4], [-3, 3, 8, 3, 2, -7], [9, 5, 0, -2, 8, 8]]
REF_VECTOR = [1, 4, -1, 5, 9, -2]
REF_INTS = [[(i * 7919 + j * 104729) % 1009 - 504 for j in range(8)] for i in range(8)]


def reference_loop():
    solve_rows(REF_BASIS, REF_VECTOR)
    h = 0
    for _ in range(3):
        a = [row[:] for row in REF_INTS]
        for c in range(8):
            for r in range(c + 1, 8):
                while a[r][c]:
                    q = a[c][c] // a[r][c]
                    a[c] = [x - q * y for x, y in zip(a[c], a[r])]
                    a[c], a[r] = a[r], a[c]
        for i in range(2000):
            h = (h * 31 + a[i % 8][i % 7]) % 1000003
    return h


class Recording(dict):
    """Expected digests being recorded (``run.py --record``), not compared."""


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="ascii") as fh:
        return json.load(fh)


def expect_digest(expected, key, value, problems) -> str:
    got = digest(value)
    if isinstance(expected, Recording):
        expected[key] = got
    elif expected.get(key) != got:
        problems.append("%s: digest %s, expected %s" % (key, got, expected.get(key)))
    return got


# ---------------------------------------------------------------------------
# random-minkowski


# The improved Delta table for ranks <= 7 as the paper states it
# (Delta_6 = 3/2, Delta_7 = 7/4): the benchmark's own copy.
DELTA = (1, 1, 1, 1, Fraction(5, 4), Fraction(3, 2), Fraction(7, 4))

POPULATION_SEED = 2026
POPULATION_SIZE = 60
GREEDY_SAMPLE = 3


def population():
    """The lattices of random-minkowski: the criterion-2 generator (entries
    in [-4, 4]) with the rank drawn from {6, 7}, as integer bases.  They do
    not depend on --seed, which orders them: the cost of one lattice
    depends strongly on the basis it is given in, so lattices or bases
    drawn per seed would make the seed-to-seed spread measure the draw
    rather than latred."""
    rng = random.Random(POPULATION_SEED)
    out = []
    while len(out) < POPULATION_SIZE:
        n = rng.choice((6, 7))
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if int_det(rows):
            out.append(rows)
    return out


def report_doc(rep) -> dict:
    return {
        "lattice": rep.lattice_id,
        "quantities": {k: qs(v) for k, v in rep.quantities.items()},
        "verdicts": dict(rep.verdicts),
        "equalities": dict(rep.equalities),
    }


class RandomMinkowski:
    """verify_minkowski_bounds(L), one lattice per operation."""

    name = "random-minkowski"

    def __init__(self, seed, latred, expected=None):
        self.seed = seed
        self.latred = latred
        self.expected = load_expected() if expected is None else expected
        self.pop = population()
        self.pass_size = len(self.pop)
        self.greedy_sample = GREEDY_SAMPLE
        self.orders = {}
        self.seen = []  # population indices of the operations made

    def inputs(self, i):
        """(population index, integer basis) of operation i: each pass
        over the population takes it in its own seeded order."""
        p, k = divmod(i, len(self.pop))
        if p not in self.orders:
            rng = random.Random("%d:%d" % (self.seed, p))
            self.orders[p] = rng.sample(range(len(self.pop)), len(self.pop))
        j = self.orders[p][k]
        return j, self.pop[j]

    def op(self, i):
        j, rows = self.inputs(i)
        lattice, verification = self.latred.lattice, self.latred.verification
        self.seen.append(j)
        return Op(
            "rm/%d" % j,
            [("verify", lambda: verification.verify_minkowski_bounds(lattice.Lattice(rows)))],
            lambda out: self.check_report(j, out["verify"]),
        )

    def check_report(self, j, rep):
        problems = []
        if not rep.success:
            problems.append("rm/%d: verdicts %s" % (j, rep.verdicts))
        for i in range(len(self.pop[j])):
            v = frac(rep.quantities["v_%d_sq" % (i + 1)])
            lam = frac(rep.quantities["lambda_%d_sq" % (i + 1)])
            if not lam <= v <= DELTA[i] * lam:
                problems.append("rm/%d: v_%d^2 = %s, lambda^2 = %s" % (j, i + 1, v, lam))
        d = expect_digest(self.expected, "rm/%d" % j, report_doc(rep), problems)
        return [d], problems

    def final_ops(self):
        """Untimed: the greedy basis of the first lattices run.  The
        benchmark's own exact solve checks that it generates L (|det of its
        integer coordinates| = 1); its vectors and tie counts are pinned."""
        lattice, reduction = self.latred.lattice, self.latred.reduction
        picked = list(dict.fromkeys(self.seen))[: self.greedy_sample]
        return [
            Op(
                "rm-greedy/%d" % j,
                [("greedy", lambda j=j: reduction.minkowski_reduce(lattice.Lattice(self.pop[j])))],
                lambda out, j=j: self.check_greedy(j, out["greedy"]),
            )
            for j in picked
        ]

    def check_greedy(self, j, res):
        problems = []
        coords = [solve_rows(self.pop[j], v) for v in res.basis]
        if any(x.denominator != 1 for row in coords for x in row):
            problems.append("rm-greedy/%d: a greedy vector is not in L" % j)
        elif abs(int_det(coords)) != 1:
            problems.append("rm-greedy/%d: the greedy basis does not generate L" % j)
        doc = {
            "basis": [[qs(x) for x in v] for v in res.basis],
            "ties": [rec.ties for rec in res.step_log],
        }
        d = expect_digest(self.expected, "rm-greedy/%d" % j, doc, problems)
        return [d], problems

    def named_metrics(self, records):
        times = [r.seconds for r in records]
        return {
            "lattices_per_s": (len(times) / sum(times), "1/s"),
            "lattice_s.p50": (statistics.median(times), "s"),
            **tail_metric("lattice_s", times),
        }


# ---------------------------------------------------------------------------
# glued-certify


GLUED_COMMANDS = (
    ("gap", 1),
    ("gap", 2),
    ("gap", 3),
    ("kz-structure", 1),
    ("kz-structure", 2),
    ("kz-structure", 3),
)


def run_cli(cli, argv):
    """latred.cli.main in this process: (exit code, parsed JSON report)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    try:
        doc = json.loads(out.getvalue())
    except ValueError:
        doc = {"stdout": out.getvalue(), "stderr": err.getvalue()}
    return code, doc


def check_glued(suite, k, code, doc, expected, problems) -> str:
    """The known verdicts of `latred verify gap|kz-structure k`."""
    key = "glued/%s/%d" % (suite, k)
    doc = {x: y for x, y in doc.items() if x != "elapsed_seconds"}
    verdicts = doc.get("verdicts", {})
    q = {x: Fraction(y) for x, y in doc.get("quantities", {}).items()}
    want_code = 1 if (suite, k) == ("gap", 1) else 0
    if code != want_code:
        problems.append("%s: exit code %s, expected %d" % (key, code, want_code))
    if suite == "gap":
        v_last = q.get("v_last_sq")
        witness = doc.get("witnesses", {}).get("v_last")
        if q.get("short_basis_max_sq") != Fraction(5, 4):
            problems.append("%s: shortest-basis maximum is not 5/4" % key)
        if witness is None or sq(witness) != v_last:
            problems.append("%s: the witness's norm is not v_last_sq" % key)
        if k == 1:
            # L_1 has no gap: its last greedy vector meets the 5/4 maximum
            want = {x: x != "strict_gap" for x in verdicts}
            if v_last != Fraction(5, 4) or not verdicts or verdicts != want:
                problems.append("%s: expected no strict gap, got %s" % (key, verdicts))
        elif not verdicts or not all(verdicts.values()):
            problems.append("%s: verdicts %s" % (key, verdicts))
        if k == 2 and (v_last, q.get("lambda_bar_sq")) != (
            Fraction(73, 36),
            Fraction(5, 4),
        ):
            problems.append("%s: expected v_last^2 = 73/36 and bar 5/4" % key)
        if k == 3 and not (v_last is not None and v_last > 3):
            problems.append("%s: expected v_last^2 > 3" % key)
    else:
        if not verdicts or not all(verdicts.values()):
            problems.append("%s: verdicts %s" % (key, verdicts))
        if q.get("kz_max_norm_sq") != Fraction(5, 4):
            problems.append("%s: KZ maximum is not 5/4" % key)
    return expect_digest(expected, key, {"exit": code, "report": doc}, problems)


class GluedCertify:
    """One operation is one certification pass: `latred verify gap k`
    (k = 1..3) and `latred verify kz-structure k` (k = 1..3) through
    latred.cli.main, in seeded order."""

    name = "glued-certify"
    pass_size = 1

    def __init__(self, seed, latred, expected=None):
        self.seed = seed
        self.latred = latred
        self.expected = load_expected() if expected is None else expected

    def inputs(self, i):
        order = list(GLUED_COMMANDS)
        random.Random("%d:%d" % (self.seed, i)).shuffle(order)
        return [["verify", suite, str(k)] for suite, k in order]

    def op(self, i):
        cli = self.latred.cli
        steps = [(" ".join(argv[1:]), lambda argv=argv: run_cli(cli, argv)) for argv in self.inputs(i)]

        def check(out):
            problems = []
            digests = []
            for label, (code, doc) in sorted(out.items()):
                suite, k = label.split()
                digests.append(check_glued(suite, int(k), code, doc, self.expected, problems))
            return digests, problems

        return Op("glued/pass", steps, check)

    def final_ops(self):
        return []

    def named_metrics(self, records):
        def med(suite):
            return statistics.median(
                sum(s for label, s in r.steps.items() if label.startswith(suite)) for r in records
            )

        return {"theorem_gap_s": (med("gap"), "s"), "kz_structure_s": (med("kz-structure"), "s")}


# ---------------------------------------------------------------------------
# appendix42


FAMILIES_42 = {"pairs": 861, "signed_quadruples": 335790, "quintuples": 850625}


def appendix_doc(rep) -> dict:
    return {
        "relation": [int(c) for c in rep.relation.coefficients],
        "no_unit_coefficient": rep.no_unit_coefficient,
        "families_checked": dict(rep.families_checked),
        "violations": [[qs(x) for x in v] for v in rep.violations],
    }


def is_dependence(coeffs, vectors) -> bool:
    return all(
        sum(c * int(v[t]) for c, v in zip(coeffs, vectors)) == 0
        for t in range(len(vectors[0]))
    )


class Appendix42:
    """One operation is the serial 42-dim scan plus the attempt-21 check,
    in seeded order; the 2-worker scan runs once after the timed loop."""

    name = "appendix42"
    pass_size = 1

    def __init__(self, seed, latred, expected=None):
        self.seed = seed
        self.latred = latred
        self.expected = load_expected() if expected is None else expected
        self.vectors42 = latred.constructions.lattice42()[1]
        self.vectors21 = latred.constructions.attempt21()[1]
        self.workers = min(2, os.cpu_count() or 1)
        self.parallel = {}

    def inputs(self, i):
        order = ["scan42", "attempt21"]
        random.Random("%d:%d" % (self.seed, i)).shuffle(order)
        return order

    def op(self, i):
        verification = self.latred.verification
        calls = {
            "scan42": lambda: verification.check_shortest_vectors_42(),
            "attempt21": lambda: verification.check_attempt21(),
        }

        def check(out):
            problems = []
            digests = [
                self.check_42(out["scan42"], "scan42", problems),
                self.check_21(out["attempt21"], problems),
            ]
            return digests, problems

        return Op("appendix/pass", [(name, calls[name]) for name in self.inputs(i)], check)

    def check_42(self, rep, label, problems) -> str:
        doc = appendix_doc(rep)
        rel = doc["relation"]
        if doc["families_checked"] != FAMILIES_42:
            problems.append("%s: families %s" % (label, doc["families_checked"]))
        if not (rep.success and doc["no_unit_coefficient"] and not doc["violations"]):
            problems.append("%s: the scan did not certify the minimum" % label)
        if any(abs(c) == 1 for c in rel) or [abs(c) for c in rel[:2]] != [3, 2]:
            problems.append("%s: relation %s" % (label, rel))
        if not is_dependence(rel, self.vectors42):
            problems.append("%s: the relation is not a dependence" % label)
        return expect_digest(self.expected, "appendix/scan42", doc, problems)

    def check_21(self, rep, problems) -> str:
        doc = appendix_doc(rep)
        mags = sorted(abs(c) for c in doc["relation"])
        if rep.success or doc["no_unit_coefficient"]:
            problems.append("attempt21: expected a unit coefficient")
        if (mags.count(6), mags.count(2), mags.count(1)) != (1, 9, 12):
            problems.append("attempt21: relation magnitudes %s" % mags)
        if not is_dependence(doc["relation"], self.vectors21):
            problems.append("attempt21: the relation is not a dependence")
        return expect_digest(self.expected, "appendix/attempt21", doc, problems)

    def final_ops(self):
        """The scan with min(2, nproc) workers under the platform's default
        start method, with the CPU time its workers used."""
        verification = self.latred.verification

        def run():
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            t = time.perf_counter()
            rep = verification.check_shortest_vectors_42(workers=self.workers)
            wall = time.perf_counter() - t
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
            self.parallel = {"wall_s": wall, "worker_cpu_s": cpu}
            return rep

        def check(rep):
            problems = []
            return [self.check_42(rep, "parallel scan", problems)], problems

        return [Op("appendix/parallel", [("parallel", run)], lambda out: check(out["parallel"]))]

    def named_metrics(self, records):
        scan = statistics.median(r.steps["scan42"] for r in records)
        return {"scan_candidates_per_s": (sum(FAMILIES_42.values()) / scan, "1/s")}


WORKLOADS = {w.name: w for w in (RandomMinkowski, GluedCertify, Appendix42)}


def tail_metric(name, values):
    """The highest of p90, p80, p70 with at least ten samples beyond it."""
    for pct in (90, 80, 70):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            return {"%s.p%d" % (name, pct): (cut, "s")}
    return {}
