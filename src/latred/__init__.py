"""Exact-arithmetic lattice reduction toolkit.

Everything certified is computed over exact rationals; floats never touch
a verdict.  The main entry points:

- :mod:`latred.lattice`: the Lattice type, membership, primitivity,
  duality, completion.
- :mod:`latred.enumeration`: exact shortest-vector and bounded-norm
  enumeration, and successive minima.
- :mod:`latred.reduction`: LLL, greedy (Minkowski) and Korkin-Zolotarev
  reduction, shortest-basis certification, the Delta norm-bound table.
- :mod:`latred.constructions`: root lattices, the glued-prime family,
  projective-plane lattices and the height-lifted 43-dim lattice.
- :mod:`latred.verification`: theorem-level verifiers with exact
  certificates.
- :mod:`latred.cli`: the `latred` command.
"""

from .lattice import Lattice
from .rationals import Q, qparse, qstr

__all__ = ["Lattice", "Q", "qparse", "qstr"]
__version__ = "0.1.0"
