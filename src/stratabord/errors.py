"""Exception hierarchy shared across the library.

Every error raised by the public API derives from StrataError so that the
command line tool can map failures onto its exit-code contract.
"""


class StrataError(Exception):
    """Base class for all library errors."""


class EmptyInput(StrataError):
    pass


class SimplexNotFound(StrataError):
    pass


class NotPure(StrataError):
    pass


class RidgeDegreeViolation(StrataError):
    pass


class NotOrientable(StrataError):
    pass


class MalformedFiltration(StrataError):
    pass


class NoTopSimplex(StrataError):
    pass


class NotPseudomanifold(StrataError):
    pass


class DifferentCarrier(StrataError):
    pass


class BoundaryPoint(StrataError):
    pass


class NotClassical(StrataError):
    pass


class DimensionOutOfRange(StrataError):
    pass


class NotValidated(StrataError):
    pass


class PerversityViolation(StrataError):
    pass


class UnsupportedCoefficients(StrataError):
    pass


class KindMismatch(StrataError):
    pass


class NotClosed(StrataError):
    pass


class IncompatibleOrientations(StrataError):
    pass


class IsomorphismMissing(StrataError):
    pass


class SignClash(StrataError):
    pass


class NoIsomorphism(StrataError):
    pass


class CollarMissing(StrataError):
    pass


class UnknownName(StrataError):
    pass


class InternalInvariantBreach(StrataError):
    """Raised when a re-verification of our own certificate fails."""
