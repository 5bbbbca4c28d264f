"""Exact rational scalars.

The coefficient field is Q with arbitrary-precision integers.  The stdlib
`fractions.Fraction` already keeps values in lowest terms with a positive
denominator and performs exact arithmetic, so it is used directly as the
scalar type.  The same field doubles as the constants of the series model:
a series is constant exactly when all of its positive-order coefficients
vanish, leaving a plain rational.
"""

from fractions import Fraction

ExactScalar = Fraction


def rat(num, den=1):
    """Shorthand rational constructor used by tests and the DSL."""
    return Fraction(num, den)
