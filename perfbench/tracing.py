"""Spans and counters around calls into latred, installed from outside.

``Tracer.install`` rebinds every public function of latred's modules, at
its own module attribute (so ``linalg.rank(...)`` and the function-local
imports in ``reduction._kz_candidates`` and ``lattice.primitive_completion``
see it) and at every ``from ... import`` of it in another module.  Private
helpers are not wrapped: their time is the self time of the public function
that called them.  ``latred.rationals`` is not wrapped.

- A public function is a span wherever it is called: name, start, end,
  parent span, operation id, the time excluded from its self time (counted
  callees, speed probes) and one value of information about the call (see
  ``_INFO``).
- linalg's small vector and matrix helpers are counters (calls, seconds),
  not spans, and count only calls from outside linalg, so a linalg kernel's
  self time includes its own arithmetic.

Spans stay in memory; ``write`` saves them when the run ends.
"""

import functools
import gzip
import sys
import time
import types

MODULES = (
    "linalg",
    "lattice",
    "enumeration",
    "reduction",
    "constructions",
    "verification",
    "latfile",
    "cli",
)

# reported together as linalg.vector_ops
VECTOR_OPS = ("dot", "norm_sq", "vsub", "vscale", "vadd", "row_times_mat", "normalize_sign")

# linalg functions that are spans; every other linalg function is a counter
LINALG_KERNELS = (
    "rank",
    "determinant",
    "inverse",
    "solve_in_span",
    "nullspace",
    "gram_schmidt",
    "hnf",
    "snf_divisors",
    "int_matrix_inverse",
)

# span record fields
NAME, START, END, PARENT, OP, EXCLUDED, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}
        self.op = -1
        self.lll_seen = set()
        self.paused = 0.0
        self._patched = []

    def begin_op(self, op_id):
        self.op = op_id
        self.lll_seen = set()

    def pause(self, seconds):
        """Time the benchmark itself spent inside the innermost span (a
        speed probe): not the span's self time, nor a counter's."""
        self.paused += seconds
        if self.stack:
            self.spans[self.stack[-1]][EXCLUDED] += seconds

    # -- installation -----------------------------------------------------

    def install(self, package):
        mods = [getattr(package, m) for m in MODULES]
        wrappers = {}
        for mod in mods:
            for attr, fn in list(vars(mod).items()):
                if not _traceable(attr, fn):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn)
                self._patched.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched = []

    def _wrap(self, fn):
        home = fn.__module__
        short = home.rsplit(".", 1)[1]
        name = "%s.%s" % (short, fn.__name__)
        if short == "linalg" and fn.__name__ not in LINALG_KERNELS:
            return self._counter(name, fn, home)
        return self._span(name, fn, _INFO.get(name))

    def _span(self, name, fn, info):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before, after = info or (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0, None]
            if before:
                rec[INFO] = before(self, args)
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after:
                rec[INFO] = after(self, args, out, rec[INFO])
            return out

        return traced

    def _counter(self, name, fn, home):
        spans, stack, clock, frame = self.spans, self.stack, time.perf_counter, sys._getframe
        tally = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if frame(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            paused = self.paused
            t = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t - (self.paused - paused)
            tally[0] += 1
            tally[1] += dt
            if stack:
                spans[stack[-1]][EXCLUDED] += dt
            return out

        return counted

    # -- output -----------------------------------------------------------

    def write(self, path):
        """Spans as tab-separated lines: name, start, end, parent, op, self."""
        selfs = self_times(self.spans)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\tself_s\n")
            for rec, s in zip(self.spans, selfs):
                fh.write(
                    "%s\t%.9f\t%.9f\t%d\t%d\t%.9f\n"
                    % (rec[NAME], rec[START], rec[END], rec[PARENT], rec[OP], s)
                )


def _traceable(attr, fn) -> bool:
    return (
        isinstance(fn, types.FunctionType)
        and fn.__module__.startswith("latred.")
        and fn.__module__ != "latred.rationals"
        and not attr.startswith("_")
        and not fn.__name__.startswith("_")
    )


# -- per-call information: (before(tracer, args), after(tracer, args, out, before))


def _lll_before(tracer, args):
    # a call whose input is a basis this operation already gave LLL, or
    # got back from it, repeats work already done
    key = tuple(tuple(r) for r in args[0])
    repeat = key in tracer.lll_seen
    tracer.lll_seen.add(key)
    return repeat


def _lll_after(tracer, args, out, repeat):
    tracer.lll_seen.add(tuple(tuple(r) for r in out))
    return repeat


_INFO = {
    "enumeration.lll_rows": (_lll_before, _lll_after),
    "lattice.is_primitive_tuple": (None, lambda t, a, out, b: bool(out.verdict)),
    "enumeration.enumerate_up_to": (None, lambda t, a, out, b: len(out.vectors)),
    "verification.appendix_scan": (
        None,
        lambda t, a, out, b: sum(out.families_checked.values()),
    ),
}


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans):
    """Each span's duration minus its child spans' and its excluded time."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [
        rec[END] - rec[START] - c - rec[EXCLUDED] for rec, c in zip(spans, child)
    ]


def layer_metrics(spans, counters, ops):
    """The per-layer metrics, per operation of the traced run, as
    {name: (value, unit)}."""
    selfs = self_times(spans)
    by_name = {}
    for rec, s in zip(spans, selfs):
        agg = by_name.setdefault(rec[NAME], [0, 0.0])
        agg[0] += 1
        agg[1] += s
    modules = dict.fromkeys(MODULES, 0.0)
    for name, (_, s) in list(by_name.items()) + list(counters.items()):
        modules[name.split(".")[0]] += s

    def spans_named(name):
        return [i for i, rec in enumerate(spans) if rec[NAME] == name]

    def under(i, name):
        p = spans[i][PARENT]
        return p >= 0 and spans[p][NAME] == name

    def inside(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    out = {}

    def per_op(name, value, unit):
        out[name] = (value / ops, unit + "/op")

    def calls_self(name, calls=True):
        n, s = by_name.get(name, (0, 0.0))
        if calls:
            per_op(name + ".calls", n, "count")
        per_op(name + ".self_s", s, "s")
        return n

    def ratio(name, hits, total):
        out[name] = (hits / total if total else 0.0, "ratio")

    lll = spans_named("enumeration.lll_rows")
    calls_self("enumeration.lll_rows")
    gso = spans_named("linalg.gram_schmidt")
    per_op(
        "enumeration.lll_rows.gso_rebuilds",
        sum(under(i, "enumeration.lll_rows") for i in gso),
        "count",
    )
    ratio("enumeration.lll_rows.repeat_ratio", sum(bool(spans[i][INFO]) for i in lll), len(lll))

    prim = spans_named("lattice.is_primitive_tuple")
    calls_self("lattice.is_primitive_tuple")
    ratio(
        "lattice.is_primitive_tuple.accept_ratio",
        sum(bool(spans[i][INFO]) for i in prim),
        len(prim),
    )
    calls_self("linalg.snf_divisors")
    calls_self("lattice.coordinates")

    calls_self("reduction.minkowski_reduce")
    enum = spans_named("enumeration.enumerate_up_to")
    per_op(
        "reduction.minkowski_reduce.pool_rounds",
        sum(under(i, "reduction.minkowski_reduce") for i in enum),
        "count",
    )
    calls_self("enumeration.enumerate_up_to")
    per_op("enumeration.enumerate_up_to.vectors", sum(spans[i][INFO] or 0 for i in enum), "count")

    calls_self("reduction.kz_reduce")
    calls_self("reduction.shortest_basis")
    per_op(
        "reduction.shortest_basis.primitivity_tests",
        sum(inside(i, "reduction.shortest_basis") for i in prim),
        "count",
    )
    calls_self("enumeration.closest_vectors_all")
    calls_self("lattice.project_orthogonal_with_lift")

    calls_self("linalg.inverse")
    calls_self("linalg.solve_in_span")
    vec = [counters.get("linalg." + f, (0, 0.0)) for f in VECTOR_OPS]
    per_op("linalg.vector_ops.calls", sum(c for c, _ in vec), "count")
    per_op("linalg.vector_ops.self_s", sum(s for _, s in vec), "s")
    calls_self("verification.verify_kz_structure", calls=False)

    calls_self("verification.appendix_scan", calls=False)
    scans = spans_named("verification.appendix_scan")
    per_op(
        "verification.appendix_scan.candidates",
        sum(spans[i][INFO] or 0 for i in scans),
        "count",
    )

    for f in ("hnf", "determinant", "rank", "gram_schmidt"):
        calls_self("linalg." + f)
    for m in ("constructions", "linalg", "lattice", "enumeration", "reduction", "verification", "cli"):
        per_op(m + ".self_s", modules[m], "s")
    return out
