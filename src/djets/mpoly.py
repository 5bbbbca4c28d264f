"""Sparse multivariate polynomials over exact coefficient rings.

A polynomial is a map from exponent vectors (one natural number per
variable) to nonzero coefficients.  Coefficients are rationals for the
classical ring Q[x] and truncated series when working over the series
field.  Terms are kept free of stored zeros and printed in graded
lexicographic order, which is also the order fixed for all jet index sets.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import DimensionMismatch, UnknownName
from .series import TSeries, format_terms, power


def grlex_key(alpha):
    """Sort key realizing graded-lex: by total degree, then lex on the tuple."""
    return (sum(alpha), tuple(-a for a in alpha))


def multi_indices(nvars, order):
    """All exponent vectors with 0 < |alpha| <= order, graded-lex ordered."""
    out = [a for a in _boxed(nvars, order) if 0 < sum(a) <= order]
    out.sort(key=grlex_key)
    return out


def multi_indices_with_zero(nvars, order):
    """All exponent vectors with |alpha| <= order, graded-lex ordered."""
    out = [a for a in _boxed(nvars, order) if sum(a) <= order]
    out.sort(key=grlex_key)
    return out


def _boxed(nvars, order):
    if nvars == 0:
        return [()]
    rest = _boxed(nvars - 1, order)
    return [(i,) + r for i in range(order + 1) for r in rest]


def _coerce_coeff(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


class MPoly:
    """A sparse polynomial with named variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        n = len(self.vars)
        clean = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n:
                raise DimensionMismatch(
                    f"exponent vector {exps} does not match {n} variables"
                )
            if any(e < 0 for e in exps):
                raise DimensionMismatch(f"negative exponent in {exps}")
            c = _coerce_coeff(c)
            if c == 0:
                continue
            if exps in clean:
                s = clean[exps] + c
                if s == 0:
                    del clean[exps]
                else:
                    clean[exps] = s
            else:
                clean[exps] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value):
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise UnknownName(f"variable {name!r} not among {variables}")
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(variables, {tuple(exps): 1})

    # -- queries --------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name):
        j = self.vars.index(name)
        return max((e[j] for e in self.terms), default=0)

    def leading_coeff_in(self, name):
        """The coefficient of name^deg as a polynomial in the other variables."""
        j = self.vars.index(name)
        d = self.degree_in(name)
        terms = {}
        for e, c in self.terms.items():
            if e[j] == d:
                reduced = list(e)
                reduced[j] = 0
                terms[tuple(reduced)] = c
        return MPoly(self.vars, terms)

    def mentions(self, name):
        j = self.vars.index(name)
        return any(e[j] > 0 for e in self.terms)

    # -- ring operations --------------------------------------------------------

    def _check_same_vars(self, other):
        if self.vars != other.vars:
            raise DimensionMismatch(
                f"mixed variable tuples {self.vars} vs {other.vars}"
            )

    def _lift(self, other):
        if isinstance(other, MPoly):
            self._check_same_vars(other)
            return other
        if isinstance(other, (int, Fraction, TSeries)):
            return MPoly.constant(self.vars, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, MPoly.constant(self.vars, 1))

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if set(self.terms) != set(o.terms):
            return False
        return all(self.terms[e] == o.terms[e] for e in self.terms)

    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    # -- calculus ----------------------------------------------------------------

    def hasse(self, alpha):
        """Divided-power derivative: x^beta contributes binom(beta, alpha) x^(beta-alpha)."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != len(self.vars):
            raise DimensionMismatch(
                f"derivative index {alpha} does not match {len(self.vars)} variables"
            )
        out = {}
        for e, c in self.terms.items():
            if any(b < a for b, a in zip(e, alpha)):
                continue
            factor = 1
            for b, a in zip(e, alpha):
                factor *= comb(b, a)
            shifted = tuple(b - a for b, a in zip(e, alpha))
            out[shifted] = out.get(shifted, 0) + factor * c
        return MPoly(self.vars, out)

    def partial(self, name):
        """First partial derivative with respect to a named variable."""
        exps = [0] * len(self.vars)
        exps[self.vars.index(name)] = 1
        return self.hasse(tuple(exps))

    def eval(self, point):
        """Evaluate at a point of rationals, series, or polynomials."""
        point = list(point)
        if len(point) != len(self.vars):
            raise DimensionMismatch(
                f"point of length {len(point)} for {len(self.vars)} variables"
            )
        total = None
        for e, c in self.terms.items():
            term = c
            for exp, value in zip(e, point):
                if exp:
                    term = term * value**exp
            total = term if total is None else total + term
        if total is not None:
            return total
        return _zero_like(point)

    def map_coeffs(self, fn):
        return MPoly(self.vars, {e: fn(c) for e, c in self.terms.items()})

    def subs(self, name, replacement):
        """Substitute a polynomial (same variable tuple) for one variable."""
        point = []
        for v in self.vars:
            if v == name:
                point.append(replacement)
            else:
                point.append(MPoly.variable(self.vars, v))
        result = self.eval(point)
        if not isinstance(result, MPoly):
            result = MPoly.constant(self.vars, result)
        return result

    def embed(self, variables):
        """The same polynomial over a larger variable tuple (matched by name)."""
        variables = tuple(variables)
        try:
            positions = [variables.index(v) for v in self.vars]
        except ValueError as exc:
            raise DimensionMismatch(
                f"cannot embed vars {self.vars} into {variables}"
            ) from exc
        out = {}
        for e, c in self.terms.items():
            exps = [0] * len(variables)
            for pos, exp in zip(positions, e):
                exps[pos] = exp
            out[tuple(exps)] = c
        return MPoly(variables, out)

    # -- rendering -----------------------------------------------------------------

    def __str__(self):
        keys = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        return format_terms(
            (
                self.terms[e],
                "*".join((f"{v}^{k}" if k > 1 else v) for v, k in zip(self.vars, e) if k),
            )
            for e in keys
        )

    def __repr__(self):
        return f"MPoly({self})"


def _zero_like(point):
    for v in point:
        if isinstance(v, TSeries):
            prec = min(x.prec for x in point if isinstance(x, TSeries))
            return TSeries.zero(prec)
        if isinstance(v, MPoly):
            return MPoly.zero(v.vars)
    return Fraction(0)


def hasse_derivative(p, alpha):
    """Module-level spelling of the divided-power derivative."""
    return p.hasse(alpha)


def taylor_coeffs(p, point, order):
    """Coefficients of p on the basis (z - point)^alpha, |alpha| <= order.

    Returns a sparse map from exponent vectors (including the zero vector)
    to values; absent entries are zero.  The alpha coefficient is the Hasse
    derivative of p at alpha evaluated at the point.
    """
    point = list(point)
    if len(point) != len(p.vars):
        raise DimensionMismatch(
            f"point of length {len(point)} for {len(p.vars)} variables"
        )
    out = {}
    for alpha in multi_indices_with_zero(len(p.vars), order):
        value = p.hasse(alpha).eval(point)
        if value != 0:
            out[alpha] = value
    return out
