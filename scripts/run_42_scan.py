"""Run the exhaustive shortest-vector scan of the 42-dimensional
projective-plane lattice, serially and then with one pool job per
candidate family, and report the candidates per family, the
collision-search counts and the timings.  The pool has at most one
worker per family (three here), whatever count is asked for, and the
count it used is printed.  Exits 1 if the scan finds a vector below the
claimed minimum or the two runs disagree on the relation, the families,
the violations or the counts.

Usage: python scripts/run_42_scan.py [workers]   (default 3; 1 skips the
pool run)
"""

import sys

from latred.verification import check_shortest_vectors_42


def main() -> int:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    rep = check_shortest_vectors_42()
    print("relation: %s" % (rep.relation.coefficients,))
    print("no unit coefficient: %s" % rep.no_unit_coefficient)
    for family, count in rep.families_checked.items():
        print("  %-18s %8d candidates" % (family, count))
    for name, count in rep.stats.items():
        print("  %-18s %8d" % (name, count))
    print("violations: %d" % len(rep.violations))
    print("serial scan: %.1f ms" % (1000 * rep.elapsed))
    if workers > 1:
        par = check_shortest_vectors_42(workers=workers)
        # appendix_scan runs one pool job per family
        used = min(workers, len(par.families_checked))
        print("parallel scan (%d workers): %.1f ms" % (used, 1000 * par.elapsed))
        for what in ("relation", "families_checked", "violations", "stats"):
            if getattr(par, what) != getattr(rep, what):
                print("FAIL: parallel %s differs from the serial scan" % what)
                return 1
    return 0 if rep.success else 1


if __name__ == "__main__":
    sys.exit(main())
