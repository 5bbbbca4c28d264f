"""The derivation of a D-variety, and reduction modulo its ideal.

On a D-variety a derivative only ever means the Lie derivative
sum_j s_j d/dx_j on Q[x] taken modulo the ideal, the derivation of the
D-variety (Buium, Differential Algebraic Groups of Finite Dimension, 1992;
Kolchin, Differential Algebra and Algebraic Groups, 1973).  `reduce` is the
Groebner normal form modulo the generators, in the block order that ranks
the variety's eliminated variables first, and `derivation` applies the Lie
derivative to the reduced polynomial; together they are the rewrite engine
behind the symbolic tangent-space verifications.
"""

from __future__ import annotations

from .dvariety import DVariety
from .errors import DimensionMismatch
from .mpoly import MPoly, block_key, normal_form


def reduce(p: MPoly, variety: DVariety):
    """The normal form of p modulo the ideal of the variety.

    The order is mpoly.block_key with variety.eliminated as its first block,
    plain grevlex when that is empty.  When the generators are v - r with no
    eliminated variable in any r, the normal form substitutes r for each v.
    """
    if p.vars != variety.vars:
        raise DimensionMismatch("polynomial and variety variables differ")
    first = [variety.vars.index(v) for v in variety.eliminated]
    return normal_form([p], variety.generators, block_key(first))[0]


def derivation(p: MPoly, variety: DVariety):
    """The derivative of p on the variety: sum_j s_j * dp/dx_j, reduced.

    p is reduced first and the sum runs over the variables of its normal
    form; the sum is reduced again, so the result is in normal form.
    """
    images = dict(zip(variety.vars, variety.section))
    return reduce(reduce(p, variety).lie(images), variety)


def log_derivative_normal_form(variety: DVariety, w: MPoly):
    """The normal form of delta(delta(w)) * w - delta(w)^2 on the variety.

    It is the cleared-denominator form of delta(delta(w)/w), so it is zero
    exactly when the log-derivative of w is constant on the locus where w
    does not vanish.
    """
    dw = derivation(w, variety)
    return reduce(derivation(dw, variety) * w - dw * dw, variety)


def log_derivative_constant_identity(variety: DVariety, w: MPoly):
    """Division-free check that the log-derivative of w is constant on the variety."""
    return log_derivative_normal_form(variety, w).is_zero()
