"""Exception types raised across the package.

Every error that carries a witness (the offending points, sets or
sections) stores it on the instance so callers and the CLI can report
it without parsing the message.
"""


class AlgebraError(Exception):
    """Base class for all domain errors raised by this package.

    ``points`` holds the labels of the points at fault and ``witness`` any
    other algebraic witness (sets, sections, a value)."""

    def __init__(self, message, *, points=(), witness=None):
        super().__init__(message)
        self.points = tuple(points)
        self.witness = witness


class MalformedInput(ValueError):
    """An input file that does not describe a problem; the message names the
    field at fault.  Not an AlgebraError: the CLI exits with code 2."""


# -- site ------------------------------------------------------------------

class TopologyError(AlgebraError):
    pass


class NotClosedUnderUnion(TopologyError):
    pass


class NotClosedUnderIntersection(TopologyError):
    pass


class MissingEmptyOrWhole(TopologyError):
    pass


class NotAnOpen(TopologyError):
    pass


class UnknownPoint(AlgebraError):
    pass


class NotASubset(AlgebraError):
    pass


class NotAnOpenCover(AlgebraError):
    pass


# -- sheaves ---------------------------------------------------------------

class NonEnumerableSections(AlgebraError):
    pass


class IncompatibleFamily(AlgebraError):
    pass


# -- modules and matrices ---------------------------------------------------

class DomainMismatch(AlgebraError):
    pass


class DimensionMismatch(AlgebraError):
    pass


class NotSquare(AlgebraError):
    pass


class NonUnitDeterminant(AlgebraError):
    """Determinant vanishes somewhere; ``points`` lists the labels where it does."""


class NonUnitSection(AlgebraError):
    """A section that must be nowhere zero vanishes at ``points``."""


# -- exterior algebra -------------------------------------------------------

class DegreeTooLarge(AlgebraError):
    pass


class DegreeOverflow(AlgebraError):
    pass


class ArityMismatch(AlgebraError):
    pass


# -- symplectic -------------------------------------------------------------

class NotSkewSymmetric(AlgebraError):
    pass


class Degenerate(AlgebraError):
    pass


class NonConstantRank(AlgebraError):
    pass


class NotSymplectic(AlgebraError):
    pass


class DegenerateForm(AlgebraError):
    pass


# -- spectra ----------------------------------------------------------------

class CayleyHamiltonViolation(AlgebraError):
    pass
