"""Print the greedy-vs-shortest-basis gap profile of the glued-prime
family, with the exact per-step norm profiles of the structured KZ basis.

Usage: python scripts/gap_profile.py [--generic] [max_k]

The KZ GSO norms are the exact ones the structural verifier's one pass
reads off the claimed basis's supports, block by block.  Each verifier's
time is printed on its own: at k = 10 (dimension 2,398) the gap takes
about 0.1 s and the KZ structure 0.13 s, and the whole run to k = 10
under 2 s (Python 3.11, Fraction backend); k has no cap.  Exits 1 if a KZ
structural check or a gap verdict fails.  L_1 has no strict gap (its last
greedy vector meets the 5/4 maximum), so there strict_gap must be false.

With --generic it runs the generic kz_reduce(L_k) for each k instead and
checks that its full squared norms equal those of glued_kz_claimed_basis(k)
as multisets (ties may order them differently); it exits 1 on a mismatch.
This is the KZ cross-check the verifiers run only for k <= 2; kz_reduce,
its LLL included, takes about 0.2 s at k = 3 (rank 39) and 6 s at
k = 4 (rank 88) (Python 3.11, Fraction backend, 2-core x86 VM).
"""

import sys
import time

from latred.constructions import (
    _kz_claim,
    glued_kz_claimed_basis,
    glued_params,
    glued_prime_lattice,
)
from latred.linalg import norm_sq
from latred.rationals import qstr
from latred.reduction import kz_reduce
from latred.verification import _kz_walk, verify_kz_structure, verify_theorem_gap


def generic(max_k) -> int:
    ok = True
    for k in range(1, max_k + 1):
        L = glued_prime_lattice(k)
        t0 = time.monotonic()
        basis = kz_reduce(L).basis
        t1 = time.monotonic()
        same = sorted(map(norm_sq, basis)) == sorted(
            map(norm_sq, glued_kz_claimed_basis(k))
        )
        print("k=%d (rank %d)" % (k, L.rank))
        print("  generic kz_reduce in %.2fs" % (t1 - t0))
        print("  full norms^2 equal the claim's: %s" % ("ok" if same else "FAILED"))
        ok &= same
    return 0 if ok else 1


def main() -> int:
    args = sys.argv[1:]
    if "--generic" in args:
        args.remove("--generic")
        return generic(int(args[0]) if args else 3)
    max_k = int(args[0]) if args else 3
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
