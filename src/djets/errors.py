"""Exception types shared across the engine."""


class DjetsError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(DjetsError):
    """Operands have incompatible shapes or variable counts."""


class DomainMismatch(DjetsError):
    """An entry lies outside its coefficient domain: in a linear system, a
    constant point or the section that `sharp_integrate` integrates."""


class NonUnitDivisor(DjetsError):
    """Division by a truncated series whose constant term is zero."""


class InsufficientPrecision(DjetsError):
    """Inputs do not carry enough guaranteed orders for the request."""


class SingularPivot(DjetsError):
    """No unit pivot is available while eliminating over the series field.

    Signals a non-generic base point rather than silently reduced precision.
    """


class PointNotOnVariety(DjetsError):
    """A base point fails the defining equations."""


class BasePointMismatch(DjetsError):
    """A morphism does not send the source base point to the target one."""


class NonTriangular(DjetsError):
    """A Groebner basis element of identifications does not lead with a variable."""


class BasisLimit(DjetsError):
    """A Groebner basis grows past its fixed bound, mpoly.MAX_BASIS."""


class JetLimit(DjetsError):
    """A jet space has more coordinates than its fixed bound, mpoly.MAX_JET_COORDS."""


class InvarianceViolation(DjetsError):
    """A horizontal jet fails the jet equations at its sharp point.

    Raised when the section is invalid or the point does not solve
    x' = s(x); the message names the vector, the equation row, the lowest
    order of the residual and the guaranteed order.
    """


class DecompositionFailure(DjetsError):
    """A product jet does not decompose with constant coefficients."""


class ZeroInput(DjetsError):
    """An operand required to be nonzero is zero."""


class ParseError(DjetsError):
    def __init__(self, message, line=None, col=None):
        loc = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.col = col


class ArityError(DjetsError):
    """A declared list has the wrong length for its context."""


class UnknownName(DjetsError):
    """A reference to an undeclared block, point or variable, or a repeated variable."""
