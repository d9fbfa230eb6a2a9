"""Sample random integer lattices and tabulate the ratio of greedy-basis
norms to successive minima against the certified Delta bounds.

Usage: python scripts/minkowski_vs_minima.py [count] [rank] [seed]
"""

import random
import sys

from latred.enumeration import successive_minima
from latred.errors import LatredError
from latred.lattice import Lattice
from latred.linalg import norm_sq
from latred.rationals import Q, qstr
from latred.reduction import minkowski_reduce, vdw_delta_table


def random_lattice(rng, n, limit=4):
    while True:
        rows = tuple(
            tuple(Q(rng.randint(-limit, limit)) for _ in range(n)) for _ in range(n)
        )
        try:
            return Lattice(rows)
        except LatredError:
            continue


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    rng = random.Random(seed)
    table = vdw_delta_table(n, True)
    worst = [Q(0)] * n
    failures = []
    for t in range(count):
        L = random_lattice(rng, n)
        mink = minkowski_reduce(L)
        minima = successive_minima(L)
        for i in range(n):
            ratio = norm_sq(mink.basis[i]) / minima.minima_sq[i]
            if ratio > worst[i]:
                worst[i] = ratio
            if ratio > table.values[i]:
                failures.append((t, i + 1, ratio))
    print("%d random rank-%d lattices; worst |v_i|^2 / lambda_i^2:" % (count, n))
    for i in range(n):
        print(
            "  i=%d  worst %-10s  bound %s"
            % (i + 1, qstr(worst[i]), qstr(table.values[i]))
        )
    for t, i, ratio in failures:
        print(
            "FAIL: lattice %d: |v_%d|^2 / lambda_%d^2 = %s exceeds Delta_%d = %s"
            % (t, i, i, qstr(ratio), i, qstr(table.values[i - 1]))
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
