"""Sparse multivariate polynomials over Q.

A polynomial is one canonical map from exponent vectors, tuples of natural
`int`s checked once by the constructor and `MPoly.hasse` and never coerced,
to nonzero rational coefficients, so no two of its terms are ever merged.
The constructor lifts an `int` coefficient to a `Fraction` and refuses any
other (`series.as_rational`).  A polynomial can still be evaluated at a point
of series.  Terms are kept free of stored zeros and printed in graded
lexicographic order, which is also the order fixed for all jet index sets.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from operator import add, itemgetter, le, sub

from .errors import BasisLimit, DimensionMismatch, JetLimit, UnknownName
from .series import TSeries, as_rational, format_terms, power

# Largest Groebner basis, counting elements not yet inter-reduced, that
# `groebner` and `normal_form` build before they give up.
MAX_BASIS = 64

# Most jet coordinates, C(n + m, m) - 1 for n variables at order m, that
# `multi_indices` enumerates: 16 variables at m = 3 give 968.
MAX_JET_COORDS = 1024


def multi_indices(nvars, order):
    """All exponent vectors with 0 < |alpha| <= order, graded-lex ordered.

    These are the jet coordinates; past MAX_JET_COORDS of them JetLimit is
    raised before any is built.
    """
    count = comb(nvars + order, order) - 1
    if count > MAX_JET_COORDS:
        raise JetLimit(
            f"jets of order {order} in {nvars} variables have {count} "
            f"coordinates, more than MAX_JET_COORDS = {MAX_JET_COORDS}"
        )
    return multi_indices_with_zero(nvars, order)[1:]


def multi_indices_with_zero(nvars, order):
    """All exponent vectors with |alpha| <= order, graded-lex ordered.

    Degree by degree, one vector per multiset of variable indices: the
    multisets come in lex order, which within a degree is descending lex
    order on their exponent vectors, i.e. graded-lex.
    """
    out = []
    for degree in range(order + 1):
        for picks in combinations_with_replacement(range(nvars), degree):
            alpha = [0] * nvars
            for j in picks:
                alpha[j] += 1
            out.append(tuple(alpha))
    return out


def _monomial(variables, exps):
    return "*".join((f"{v}^{k}" if k > 1 else v) for v, k in zip(variables, exps) if k)


def _check_exponents(exps, n):
    """DimensionMismatch naming exps unless it is a tuple of n natural ints;
    a bool is not one."""
    if type(exps) is not tuple or len(exps) != n or not all(
            type(e) is int and e >= 0 for e in exps):
        raise DimensionMismatch(f"exponent vector {exps!r} is not a tuple of {n} natural ints")


class MPoly:
    """A sparse polynomial over Q with named variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        n = len(self.vars)
        clean = {}
        for exps, c in terms.items():
            _check_exponents(exps, n)
            if c.__class__ is not Fraction:
                monomial = _monomial(self.vars, exps) or "1"
                c = as_rational(c, f"the coefficient on the monomial {monomial}")
            if c:
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
        if isinstance(other, (int, Fraction)):
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
        return self.terms == o.terms

    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    # -- calculus ----------------------------------------------------------------

    def hasse(self, alpha):
        """Divided-power derivative: x^beta contributes binom(beta, alpha) x^(beta-alpha)."""
        _check_exponents(alpha, len(self.vars))
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

    def lie(self, images):
        """The Lie derivative sum_v images[v] * dp/dv over the variables p mentions.

        `images` maps each mentioned variable name to an MPoly over self.vars.
        """
        out = MPoly.zero(self.vars)
        for v in self.vars:
            if self.mentions(v):
                out = out + images[v] * self.partial(v)
        return out

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
        return format_terms((self.terms[e], _monomial(self.vars, e)) for e in keys)

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


def taylor_coeffs(p, point, order):
    """Coefficients of p on the basis (z - point)^alpha, |alpha| <= order.

    Returns a sparse map from exponent vectors (including the zero vector)
    to values; absent entries are zero.  The alpha coefficient is the Hasse
    derivative of p at alpha evaluated at the point.
    """
    return hasse_values(p, point, multi_indices_with_zero(len(p.vars), order))


def hasse_values(p, point, indices):
    """The Taylor coefficients of p around the point on the given exponent
    vectors only, as the sparse map of `taylor_coeffs`; a point whose length
    is not p's number of variables raises DimensionMismatch, even when there
    are no indices.  An index of degree above p's is zero and is skipped
    unformed."""
    point = list(point)
    if len(point) != len(p.vars):
        raise DimensionMismatch(
            f"point of length {len(point)} for {len(p.vars)} variables"
        )
    top = max(map(sum, p.terms), default=-1)
    out = {}
    for alpha in indices:
        if sum(alpha) > top:
            continue
        value = p.hasse(alpha).eval(point)
        if value:
            out[alpha] = value
    return out


def grevlex_key(alpha):
    """Sort key realizing graded reverse lex: a larger key is a larger monomial."""
    return (sum(alpha), tuple(-a for a in reversed(alpha)))


def block_key(first):
    """Sort key of the block order that ranks the variables at indices `first` first.

    Monomials compare by grevlex on their exponents in the first block and,
    on a tie, by grevlex on the rest.  Any monomial that mentions the first
    block outranks every monomial free of it, so this is an elimination
    order (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, ch. 3
    sec. 1).  With an empty first block it is grevlex.
    """
    first = frozenset(first)

    def key(alpha):
        head = tuple(a for j, a in enumerate(alpha) if j in first)
        tail = tuple(a for j, a in enumerate(alpha) if j not in first)
        return grevlex_key(head), grevlex_key(tail)

    return key


def _subtract(terms, g, shift, c):
    """terms -= c * x^shift * g, in place on term maps."""
    for e, gc in g.items():
        m = tuple(map(add, e, shift))
        terms[m] = terms.get(m, 0) - c * gc
        if not terms[m]:
            del terms[m]


def _reduce(terms, basis, key=grevlex_key):
    """Remainder of a term map on full division by (lead, monic terms) pairs."""
    terms = dict(terms)
    remainder = {}
    while terms:
        lead = max(terms, key=key)
        for g_lead, g in basis:
            if all(map(le, g_lead, lead)):
                _subtract(terms, g, tuple(map(sub, lead, g_lead)), terms[lead])
                break
        else:
            remainder[lead] = terms.pop(lead)
    return remainder


def _buchberger(generators, key=grevlex_key):
    """A Groebner basis as (leading monomial, monic terms) pairs; see groebner."""
    basis, pairs = [], {}
    for g in generators:
        if g.terms:
            _extend(basis, pairs, g.terms, key)
    while pairs:
        (i, j), (_key, lcm) = min(pairs.items(), key=itemgetter(1, 0))
        del pairs[i, j]
        # Chain criterion: a g_k whose lead divides the lcm and whose pairs
        # with g_i and g_j are done gives S(g_i, g_j) a standard representation.
        if any(
            k not in (i, j) and all(map(le, lead, lcm))
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k, (lead, _g) in enumerate(basis)
        ):
            continue
        (li, gi), (lj, gj) = basis[i], basis[j]
        spoly = {tuple(map(add, e, map(sub, lcm, li))): c for e, c in gi.items()}
        _subtract(spoly, gj, tuple(map(sub, lcm, lj)), 1)
        rest = _reduce(spoly, basis, key)
        if rest:
            _extend(basis, pairs, rest, key)
    return basis


def _extend(basis, pairs, terms, key=grevlex_key):
    """Append terms, made monic, to the basis and queue its S-pairs by lcm."""
    if len(basis) == MAX_BASIS:
        raise BasisLimit(f"Groebner basis exceeds MAX_BASIS = {MAX_BASIS} elements")
    lead = max(terms, key=key)
    for i, (other, _g) in enumerate(basis):
        # Coprime leading monomials: the S-polynomial reduces to zero.
        if any(map(min, lead, other)):
            lcm = tuple(map(max, lead, other))
            pairs[i, len(basis)] = (key(lcm), lcm)
    basis.append((lead, {e: c / terms[lead] for e, c in terms.items()}))


def groebner(generators, key=grevlex_key):
    """The reduced monic Groebner basis of the ideal in the order `key`.

    The order is grevlex unless a key such as `block_key` is given.
    Buchberger's algorithm over the rationals (Buchberger 1965; Cox, Little
    & O'Shea, Ideals, Varieties, and Algorithms, ch. 2) with the normal
    selection strategy: the next S-pair is always the one whose lcm of
    leading monomials is smallest.  Pairs with coprime leading monomials
    and pairs met by the chain criterion are skipped.  The basis comes
    sorted by leading monomial.  Raises BasisLimit once the basis would
    exceed MAX_BASIS elements.
    """
    # Ascending order puts every divisor of a leading monomial first: keep
    # one element per minimal leading monomial, then reduce each by the rest.
    minimal = []
    for lead, g in sorted(_buchberger(generators, key), key=lambda pair: key(pair[0])):
        if not any(all(map(le, other, lead)) for other, _g in minimal):
            minimal.append((lead, g))
    return [
        MPoly(generators[0].vars, _reduce(g, minimal[:k] + minimal[k + 1:], key))
        for k, (_lead, g) in enumerate(minimal)
    ]


def normal_form(polys, generators, key=grevlex_key):
    """The remainders of polys on division by a Groebner basis of the generators.

    The basis is computed once for the whole list, in the order `key`
    (grevlex unless given).  Each remainder is unique for the ideal and the
    order, and zero exactly when its polynomial lies in the ideal.
    """
    basis = _buchberger(generators, key)
    return [MPoly(p.vars, _reduce(p.terms, basis, key)) for p in polys]
