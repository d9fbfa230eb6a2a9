"""Command line front end.

Subcommands: construct, reduce, minima, verify.  Reports are JSON
documents whose numeric fields are exact rational strings; the only
floating-point field is the clearly-labeled elapsed_seconds convenience
entry.  Exit codes: 0 all verdicts pass, 1 some verdict failed, 2 parse
or budget or usage error.
"""

import argparse
import json
import sys
import time

from . import constructions, latfile
from .enumeration import successive_minima
from .errors import LatredError
from .linalg import norm_sq
from .rationals import Q, QONE, qstr
from .reduction import (
    kz_reduce,
    lll,
    minkowski_reduce,
    shortest_basis,
    vdw_delta_table,
)
from .verification import (
    check_shortest_vectors_42,
    verify_height_lift,
    verify_kz_structure,
    verify_minkowski_bounds,
    verify_theorem_gap,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _qvec(v):
    return [qstr(x) for x in v]


def _qmat(rows):
    return [_qvec(r) for r in rows]


def _write(text, out):
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc, out):
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _budget_kwargs(args):
    return {} if args.node_budget is None else {"node_budget": args.node_budget}


_CONSTRUCTORS = {
    "zn": (1, lambda p: constructions.hypercubic(p[0])),
    "dn": (1, lambda p: constructions.root_d(p[0])),
    "dnstar": (1, lambda p: constructions.dual_root_d(p[0])),
    "glued": (1, lambda p: constructions.glued_prime_lattice(p[0])),
    "l2_small": (0, lambda p: constructions.l2_small()),
    "lproj": (0, lambda p: constructions.l_proj()),
    "attempt21": (0, lambda p: constructions.attempt21()[0]),
    "lattice42": (0, lambda p: constructions.lattice42()[0]),
    "perturbed43": (0, lambda p: constructions.perturbed43()),
}


def cmd_construct(args) -> int:
    arity, build = _CONSTRUCTORS[args.name]
    if len(args.params) != arity:
        raise LatredError(
            "construction %r takes %d parameter(s)" % (args.name, arity)
        )
    L = build([int(x) for x in args.params])
    _write(latfile.serialize(L), args.out)
    return EXIT_PASS


def cmd_reduce(args) -> int:
    if args.alg == "lll" and args.node_budget is not None:
        raise LatredError("--node-budget applies only to --alg minkowski and kz")
    L = latfile.load(args.file)
    t0 = time.monotonic()
    kwargs = _budget_kwargs(args)
    if args.alg == "minkowski":
        res = minkowski_reduce(L, **kwargs)
    elif args.alg == "kz":
        res = kz_reduce(L, **kwargs)
    else:
        res = lll(L)
    doc = {
        "operation": "reduce",
        "algorithm": res.kind,
        "input": args.file,
        "basis": _qmat(res.basis),
        "norms_sq": _qvec(norm_sq(v) for v in res.basis),
        "max_norm_sq": qstr(max(norm_sq(v) for v in res.basis)),
        "tie_counts": [rec.ties for rec in res.step_log],
        "elapsed_seconds": time.monotonic() - t0,
    }
    _emit(doc, args.out)
    return EXIT_PASS


def cmd_minima(args) -> int:
    L = latfile.load(args.file)
    t0 = time.monotonic()
    kwargs = _budget_kwargs(args)
    minima = successive_minima(L, **kwargs)
    doc = {
        "operation": "minima",
        "input": args.file,
        "minima_sq": _qvec(minima.minima_sq),
        "witnesses": _qmat(minima.witnesses),
    }
    if args.shortest_basis:
        sb = shortest_basis(L, **kwargs)
        doc["shortest_basis"] = {
            "basis": _qmat(sb.basis),
            "max_norm_sq": qstr(sb.max_norm_sq),
            "certified": sb.certified,
        }
    doc["elapsed_seconds"] = time.monotonic() - t0
    _emit(doc, args.out)
    return EXIT_PASS


def _report_doc(rep) -> dict:
    return {
        "lattice": rep.lattice_id,
        "quantities": {k: qstr(v) for k, v in rep.quantities.items()},
        "verdicts": dict(rep.verdicts),
        "equalities": dict(rep.equalities),
        "witnesses": {k: _qvec(v) for k, v in rep.witnesses.items()},
        "elapsed_seconds": rep.elapsed,
    }


# parameters each verify suite takes
_VERIFY_ARITY = {
    "appendix42": 0,
    "height-lift": 0,
    "gap": 1,
    "kz-structure": 1,
    "minkowski-bounds": 1,
    "delta-table": 1,
}


def cmd_verify(args) -> int:
    suite = args.suite
    params = args.params
    if len(params) != _VERIFY_ARITY[suite]:
        raise LatredError(
            "verify suite %r takes %d parameter(s), got %d"
            % (suite, _VERIFY_ARITY[suite], len(params))
        )
    if args.node_budget is not None and suite != "minkowski-bounds":
        raise LatredError("--node-budget applies only to the minkowski-bounds suite")
    t0 = time.monotonic()
    if suite == "appendix42":
        rep = check_shortest_vectors_42()
        doc = {
            "operation": "verify",
            "suite": suite,
            "relation": [int(c) for c in rep.relation.coefficients],
            "no_unit_coefficient": rep.no_unit_coefficient,
            "families_checked": dict(rep.families_checked),
            "violations": _qmat(rep.violations),
            "stats": dict(rep.stats),
            "elapsed_seconds": rep.elapsed,
        }
        ok = rep.success
    elif suite == "height-lift":
        rep = verify_height_lift()
        doc = {"operation": "verify", "suite": suite, **_report_doc(rep)}
        ok = rep.success
    elif suite == "gap":
        rep = verify_theorem_gap(int(params[0]))
        doc = {"operation": "verify", "suite": suite, **_report_doc(rep)}
        ok = rep.success
    elif suite == "kz-structure":
        rep = verify_kz_structure(int(params[0]))
        doc = {"operation": "verify", "suite": suite, **_report_doc(rep)}
        ok = rep.success
    elif suite == "minkowski-bounds":
        L = latfile.load(params[0])
        rep = verify_minkowski_bounds(L, **_budget_kwargs(args))
        doc = {"operation": "verify", "suite": suite, **_report_doc(rep)}
        ok = rep.success
    else:  # delta-table
        K = int(params[0])
        plain = vdw_delta_table(K, False)
        better = vdw_delta_table(K, True)
        doc = {
            "operation": "verify",
            "suite": suite,
            "delta_unimproved": _qvec(plain.values),
            "delta_improved": _qvec(better.values),
            "improved_flags": list(better.improved),
            "elapsed_seconds": time.monotonic() - t0,
        }
        ok = _delta_tables_hold(plain.values, better.values)
    _emit(doc, args.out)
    return EXIT_PASS if ok else EXIT_FAIL


def _delta_tables_hold(plain, better) -> bool:
    """The closed forms of the Delta tables, Delta_i = max(1, (5/4)^(i-4))
    and, improved, (608/625) (5/4)^(i-4) for i >= 8, with no improved
    entry above the plain one."""
    return (
        all(x == max(QONE, Q(5, 4) ** (i - 4)) for i, x in enumerate(plain, 1))
        and all(
            x == Q(608, 625) * Q(5, 4) ** (i - 4)
            for i, x in enumerate(better, 1)
            if i >= 8
        )
        and all(b <= a for a, b in zip(plain, better))
    )


def _at_least(low):
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError("must be at least %d" % low)
        return int(text)

    return integer


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="latred", description="exact-arithmetic lattice reduction toolkit"
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report/file here instead of stdout")

    def budget(p):
        p.add_argument(
            "--node-budget",
            type=_at_least(0),
            help="enumeration node budget (default 10^8)",
        )

    p = sub.add_parser("construct", help="build a named lattice as a lattice file")
    p.add_argument("name", choices=sorted(_CONSTRUCTORS))
    p.add_argument("params", nargs="*", help="integer parameters, e.g. the rank")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("reduce", help="reduce a lattice file")
    p.add_argument("--alg", choices=["minkowski", "kz", "lll"], required=True)
    p.add_argument("file")
    common(p)
    budget(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("minima", help="successive minima of a lattice file")
    p.add_argument("file")
    p.add_argument(
        "--shortest-basis",
        action="store_true",
        help="also certify the shortest-basis maximum",
    )
    common(p)
    budget(p)
    p.set_defaults(func=cmd_minima)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=list(_VERIFY_ARITY))
    p.add_argument("params", nargs="*", help="suite parameter (k, K, or a file)")
    common(p)
    budget(p)
    p.set_defaults(func=cmd_verify)
    return top


# the parser main builds on its first call and reuses: parse_args only
# reads it, and each call gets a fresh Namespace.  It is not built at
# import, so importing latred.cli costs no parser
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except LatredError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_ERROR
    except (ValueError, IndexError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
