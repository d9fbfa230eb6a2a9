"""Exact rational scalars.

Every certified quantity in this package is an exact rational.  We use
gmpy2's mpq when available (much faster big-rational arithmetic) and fall
back to the stdlib Fraction, which implements the same semantics: values
are always normalized to lowest terms with a positive denominator.
"""

import re

from .errors import PreconditionViolated

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - gmpy2 is normally present
    from fractions import Fraction as Q

QZERO = Q(0)
QONE = Q(1)

_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def qexact(x):
    """x as an exact rational.  A float is refused (numpy's float64 too):
    its binary fraction is seldom the number meant, 0.3 being
    5404319552844595/2^54."""
    if isinstance(x, float):
        raise PreconditionViolated(
            "float %r is not exact; give an int, a Fraction or a 'p/q' string"
            % (x,)
        )
    return Q(x)


def qnum(x) -> int:
    return int(x.numerator)


def qden(x) -> int:
    return int(x.denominator)


def is_integer(x) -> bool:
    return x.denominator == 1


def qfloor(x) -> int:
    return qnum(x) // qden(x)


def qceil(x) -> int:
    return -((-qnum(x)) // qden(x))


def qround(x) -> int:
    """Nearest integer, halves rounded up (deterministic size reduction)."""
    return qfloor(x + Q(1, 2))


def qstr(x) -> str:
    """Serialize as "p/q", or "p" when integral."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%s/%s" % (x.numerator, x.denominator)


def qparse(s: str):
    """Parse the exact-rational string format produced by qstr."""
    if not _RAT_RE.match(s):
        from .errors import ParseError

        raise ParseError("not a rational literal: %r" % (s,))
    return Q(s)
