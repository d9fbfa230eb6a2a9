"""Print the greedy-vs-shortest-basis gap profile of the glued-prime
family, with the exact per-step norm profiles of the structured KZ basis.

Usage: python scripts/gap_profile.py [max_k]

Exits 1 if a KZ structural check or a gap verdict fails.
"""

import sys
import time

from latred.constructions import glued_kz_claimed_basis, glued_prime_lattice
from latred.linalg import gram_schmidt, norm_sq
from latred.rationals import qstr
from latred.verification import verify_kz_structure, verify_theorem_gap


def main() -> int:
    max_k = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    ok = True
    for k in range(1, max_k + 1):
        d = glued_prime_lattice(k).rank
        t0 = time.monotonic()
        kz = verify_kz_structure(k)
        gap = verify_theorem_gap(k)
        elapsed = time.monotonic() - t0
        print("k=%d (dim %d), verified in %.1fs" % (k, d, elapsed))
        print("  KZ structural check: %s" % ("ok" if kz.success else "FAILED"))
        basis = glued_kz_claimed_basis(k)
        gso = gram_schmidt(basis)
        print("  KZ GSO norms^2: %s" % " ".join(qstr(x) for x in gso.norms_sq))
        print("  KZ max norm^2:  %s" % qstr(max(norm_sq(v) for v in basis)))
        print("  last greedy vector norm^2: %s" % qstr(gap.quantities["v_last_sq"]))
        print(
            "  shortest-basis max norm^2: %s"
            % qstr(gap.quantities["short_basis_max_sq"])
        )
        print("  strict gap: %s" % gap.verdicts["strict_gap"])
        if not gap.success:
            failed = sorted(name for name, v in gap.verdicts.items() if not v)
            print("  gap verdicts FAILED: %s" % " ".join(failed))
        ok &= kz.success and gap.success
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
