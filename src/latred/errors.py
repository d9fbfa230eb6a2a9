"""Exception hierarchy shared by all latred modules."""


class LatredError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LatredError):
    pass


class NotIntegral(LatredError):
    """An integer matrix was expected and an entry is not an integer."""


class DependentRows(LatredError):
    pass


class NotInSpan(LatredError):
    pass


class NotInLattice(LatredError):
    pass


class DependentTuple(LatredError):
    pass


class NotFullRank(LatredError):
    pass


class WrongRank(LatredError):
    pass


class PreconditionViolated(LatredError):
    pass


class BudgetExceeded(LatredError):
    """Enumeration node budget exhausted; the instance is out of desk scale."""


class ScanCrossCheckFailed(LatredError):
    """The modular and the rational membership tests of a scan disagree."""


class DegenerateHeights(LatredError):
    pass


class UnsupportedFieldOrder(LatredError):
    pass


class ConstructionMismatch(LatredError):
    pass


class BadParams(LatredError):
    pass


class ParseError(LatredError):
    pass
