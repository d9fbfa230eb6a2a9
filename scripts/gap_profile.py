"""Print the greedy-vs-shortest-basis gap profile of the glued-prime
family, with the exact per-step norm profiles of the structured KZ basis.

Usage: python scripts/gap_profile.py [max_k]

The KZ GSO norms are the exact ones the structural verifier's one pass
reads off the claimed basis's supports, block by block.  Each verifier's
time is printed on its own: at k = 10 (dimension 2,398) the gap takes
about 0.1 s and the KZ structure 0.13 s, and the whole run to k = 10
under 2 s (Python 3.11, Fraction backend); k has no cap.  Exits 1 if a KZ
structural check or a gap verdict fails.  L_1 has no strict gap (its last
greedy vector meets the 5/4 maximum), so there strict_gap must be false.
"""

import sys
import time

from latred.constructions import _kz_claim, glued_params
from latred.rationals import qstr
from latred.verification import _kz_walk, verify_kz_structure, verify_theorem_gap


def main() -> int:
    max_k = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    ok = True
    for k in range(1, max_k + 1):
        params = glued_params(k)
        t0 = time.monotonic()
        kz = verify_kz_structure(k)
        t1 = time.monotonic()
        gap = verify_theorem_gap(k)
        t2 = time.monotonic()
        print("k=%d (dim %d)" % (k, params.dims[-1]))
        print("  kz-structure verified in %.2fs, gap in %.2fs" % (t1 - t0, t2 - t1))
        print("  KZ structural check: %s" % ("ok" if kz.success else "FAILED"))
        norms, _, _ = _kz_walk(params, _kz_claim(params))
        norms = "unconfirmed" if norms is None else " ".join(qstr(x) for x in norms)
        print("  KZ GSO norms^2: %s" % norms)
        print("  KZ max norm^2:  %s" % qstr(kz.quantities["kz_max_norm_sq"]))
        print("  last greedy vector norm^2: %s" % qstr(gap.quantities["v_last_sq"]))
        print(
            "  shortest-basis max norm^2: %s"
            % qstr(gap.quantities["short_basis_max_sq"])
        )
        print("  strict gap: %s" % gap.verdicts["strict_gap"])
        failed = sorted(
            name
            for name, v in gap.verdicts.items()
            if v != (name != "strict_gap" or k > 1)
        )
        if failed:
            print("  gap verdicts FAILED: %s" % " ".join(failed))
        ok &= kz.success and not failed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
