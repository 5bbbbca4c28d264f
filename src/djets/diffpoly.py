"""The derivation of a presentation, and reduction modulo its algebraic rules.

A substitution system holds the presentation of a sharp-point set: first-
order rules x_j' -> s_j(x) and an ordered triangular list of algebraic
rules, each eliminating one base variable.  On such a presentation a
derivative only ever means the Lie derivative sum_j s_j d/dx_j on Q[x], the
derivation of a D-variety (Buium, Differential Algebraic Groups of Finite
Dimension, 1992; Kolchin, Differential Algebra and Algebraic Groups, 1973).
`reduce` substitutes the algebraic rules and `derivation` applies that
derivation to the reduced polynomial; together they are the rewrite engine
behind the symbolic tangent-space verifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimensionMismatch, MissingRule, NonTriangular
from .mpoly import MPoly


@dataclass(frozen=True)
class SubstitutionSystem:
    """First-order derivative rules plus a triangular algebraic tail.

    derivative_rules maps a base-variable index to the polynomial value of
    its first derivative.  algebraic_rules is an ordered tuple of (index,
    rhs) pairs, each eliminating one variable; rule i's right side may only
    mention variables eliminated later or never (checked at construction).
    """

    vars: tuple
    derivative_rules: dict = field(default_factory=dict)
    algebraic_rules: tuple = ()

    def __post_init__(self):
        eliminated = []
        for j, rhs in self.algebraic_rules:
            if j in eliminated:
                raise NonTriangular(f"variable {self.vars[j]} eliminated twice")
            if rhs.vars != self.vars:
                raise DimensionMismatch("rule right side over the wrong variables")
            for earlier in eliminated + [j]:
                if rhs.mentions(self.vars[earlier]):
                    raise NonTriangular(
                        f"rule for {self.vars[j]} mentions already-eliminated "
                        f"{self.vars[earlier]}"
                    )
            eliminated.append(j)
        for j, rhs in self.derivative_rules.items():
            if rhs.vars != self.vars:
                raise DimensionMismatch("rule right side over the wrong variables")


def reduce(p: MPoly, system: SubstitutionSystem):
    """Normal form of p modulo the algebraic rules, substituted in order.

    The result mentions no eliminated variable: each right side may only
    mention variables that later rules eliminate.
    """
    if p.vars != system.vars:
        raise DimensionMismatch("polynomial and system variables differ")
    for j, g in system.algebraic_rules:
        p = p.subs(system.vars[j], g)
    return p


def derivation(p: MPoly, system: SubstitutionSystem):
    """The derivative of p on the presentation: sum_j s_j * dp/dx_j, reduced.

    The sum runs over the variables of the reduced p, with each first-order
    rule s_j reduced too, so the result is again in normal form.  Raises
    MissingRule when the reduced p mentions a variable that has no rule.
    """
    p = reduce(p, system)
    out = MPoly.zero(system.vars)
    for j, name in enumerate(system.vars):
        if not p.mentions(name):
            continue
        if j not in system.derivative_rules:
            raise MissingRule(f"no rewrite for {name}'")
        out = out + reduce(system.derivative_rules[j], system) * p.partial(name)
    return out


def log_derivative_normal_form(system: SubstitutionSystem, w: MPoly):
    """The normal form of delta(delta(w)) * w - delta(w)^2 on the system.

    It is the cleared-denominator form of delta(delta(w)/w), so it is zero
    exactly when the log-derivative of w is constant on the locus where w
    does not vanish.
    """
    dw = derivation(w, system)
    return reduce(derivation(dw, system) * w - dw * dw, system)


def log_derivative_constant_identity(system: SubstitutionSystem, w: MPoly):
    """Division-free check that the log-derivative of w is constant on the system."""
    return log_derivative_normal_form(system, w).is_zero()
