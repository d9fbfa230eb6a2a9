"""Exact rational scalars.

Every certified quantity in this package is an exact rational.  We use
gmpy2's mpq when available (much faster big-rational arithmetic) and fall
back to the stdlib Fraction, which implements the same semantics: values
are always normalized to lowest terms with a positive denominator.
"""

import numbers
import re

from .errors import PreconditionViolated

try:
    from gmpy2 import mpq as Q
except ImportError:  # gmpy2 is an optional extra
    from fractions import Fraction as Q

QZERO = Q(0)
QONE = Q(1)

_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def qexact(x):
    """x as an exact rational.  A float of any width is refused (numpy's
    float16, float32, float64 and longdouble too): its binary fraction is
    seldom the number meant, 0.3 being 5404319552844595/2^54.  So is any
    value that Q cannot read."""
    if type(x) is Q:
        return x
    if type(x) is int:
        return Q(x)
    if isinstance(x, float) or (
        isinstance(x, numbers.Real) and not isinstance(x, numbers.Rational)
    ):
        raise PreconditionViolated(
            "float %r is not exact; give an int, a Fraction or a 'p/q' string"
            % (x,)
        )
    try:
        return Q(x)
    except (TypeError, ValueError):
        raise PreconditionViolated(
            "%r is not an exact rational; give an int, a Fraction or a 'p/q'"
            " string" % (x,)
        ) from None


def qnum(x) -> int:
    return int(x.numerator)


def qden(x) -> int:
    return int(x.denominator)


def is_integer(x) -> bool:
    return x.denominator == 1


def qfloor(x) -> int:
    return qnum(x) // qden(x)


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
