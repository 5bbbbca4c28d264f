"""Ordinary differential polynomials and reduction modulo a presentation.

A differential polynomial lives in the ring generated by base variables
x_1..x_n together with their formal derivatives x_j', x_j'', ...; the
coefficients are rational constants, so the total derivative acts by the
Leibniz rule alone.  A substitution system holds the presentation of a
sharp-point set: first-order rules x_j' -> s_j(x) and an ordered triangular
list of algebraic rules, each eliminating one base variable.  `reduce`
computes the normal form of a differential polynomial modulo such a
presentation, which is the rewrite engine behind the symbolic tangent-space
verifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatch, MissingRule, NonTriangular
from .mpoly import MPoly
from .series import TSeries, format_terms, power


def _prime_str(name, order):
    if order == 0:
        return name
    if order <= 3:
        return name + "'" * order
    return f"{name}^({order})"


class DiffPoly:
    """Polynomial in base variables and their derivatives, constant coefficients.

    Term keys are sorted tuples of ((var index, derivative order), exponent).
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        clean = {}
        for key, c in terms.items():
            key = tuple(sorted((tuple(sym), int(e)) for sym, e in key if e))
            for (j, k), e in key:
                if not (0 <= j < len(self.vars)) or k < 0 or e <= 0:
                    raise DimensionMismatch(f"bad symbol {(j, k)}^{e}")
            c = Fraction(c)
            if c == 0:
                continue
            if key in clean:
                s = clean[key] + c
                if s == 0:
                    del clean[key]
                else:
                    clean[key] = s
            else:
                clean[key] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value):
        return cls(variables, {(): value})

    @classmethod
    def variable(cls, variables, name, order=0):
        variables = tuple(variables)
        j = variables.index(name)
        return cls(variables, {(((j, order), 1),): 1})

    @classmethod
    def from_mpoly(cls, p: MPoly, variables=None):
        variables = tuple(variables) if variables is not None else p.vars
        index = {v: variables.index(v) for v in p.vars}
        terms = {}
        for exps, c in p.terms.items():
            key = tuple(
                ((index[v], 0), e) for v, e in zip(p.vars, exps) if e
            )
            terms[key] = terms.get(key, 0) + c
        return cls(variables, terms)

    # -- ring operations --------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, DiffPoly):
            if self.vars != other.vars:
                raise DimensionMismatch("mixed base variable tuples")
            return other
        if isinstance(other, (int, Fraction)):
            return DiffPoly.constant(self.vars, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            out[k] = out.get(k, 0) + c
        return DiffPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly(self.vars, {k: -c for k, c in self.terms.items()})

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
        for k1, c1 in self.terms.items():
            for k2, c2 in o.terms.items():
                merged = dict(k1)
                for sym, e in k2:
                    merged[sym] = merged.get(sym, 0) + e
                key = tuple(sorted(merged.items()))
                out[key] = out.get(key, 0) + c1 * c2
        return DiffPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, DiffPoly.constant(self.vars, 1))

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # -- structure ----------------------------------------------------------------

    def symbols(self):
        """All (var index, order) symbols occurring in some term."""
        out = set()
        for key in self.terms:
            out.update(sym for sym, _ in key)
        return out

    def max_order(self):
        return max((k for (_, k) in self.symbols()), default=0)

    def substitute_symbol(self, symbol, replacement: "DiffPoly"):
        """Replace every occurrence of one derivative symbol by a polynomial."""
        out = DiffPoly.zero(self.vars)
        for key, c in self.terms.items():
            power = 0
            rest = []
            for sym, e in key:
                if sym == tuple(symbol):
                    power = e
                else:
                    rest.append((sym, e))
            term = DiffPoly(self.vars, {tuple(rest): c})
            if power:
                term = term * replacement**power
            out = out + term
        return out

    def to_mpoly(self):
        """Convert an order-0 polynomial back to an MPoly over the base variables."""
        terms = {}
        for key, c in self.terms.items():
            exps = [0] * len(self.vars)
            for (j, k), e in key:
                if k != 0:
                    raise MissingRule(
                        f"unreduced derivative symbol {_prime_str(self.vars[j], k)}"
                    )
                exps[j] += e
            exps = tuple(exps)
            terms[exps] = terms.get(exps, 0) + c
        return MPoly(self.vars, terms)

    def eval_at_series(self, coords):
        """Evaluate at a series point, derivatives taken termwise.

        coords[j] supplies x_j(t); x_j^(k) evaluates to its k-th derivative,
        so the result precision drops by the highest order used.
        """
        if len(coords) != len(self.vars):
            raise DimensionMismatch("coordinate count mismatch")
        cache = {(j, 0): coords[j] for j in range(len(coords))}

        def lookup(j, k):
            if (j, k) not in cache:
                cache[(j, k)] = lookup(j, k - 1).derive()
            return cache[(j, k)]

        total = None
        for key, c in self.terms.items():
            term = c
            for (j, k), e in key:
                term = term * lookup(j, k) ** e
            total = term if total is None else total + term
        if total is None:
            prec = min(x.prec for x in coords)
            return TSeries.zero(max(prec - self.max_order(), 0))
        return total

    def __str__(self):
        def key_sort(item):
            key, _ = item
            deg = sum(e for _, e in key)
            return (-deg, [(j, k, -e) for (j, k), e in key])

        return format_terms(
            (
                c,
                "*".join(
                    _prime_str(self.vars[j], k) + (f"^{e}" if e > 1 else "")
                    for (j, k), e in key
                ),
            )
            for key, c in sorted(self.terms.items(), key=key_sort)
        )

    def __repr__(self):
        return f"DiffPoly({self})"


def total_derivative(p: DiffPoly):
    """The formal total derivative: Leibniz over each term, x_j^(k) -> x_j^(k+1)."""
    out = DiffPoly.zero(p.vars)
    for key, c in p.terms.items():
        for (j, k), e in key:
            factors = dict(key)
            factors[(j, k)] = e - 1
            factors[(j, k + 1)] = factors.get((j, k + 1), 0) + 1
            newkey = tuple(sorted((s, x) for s, x in factors.items() if x))
            out = out + DiffPoly(p.vars, {newkey: c * e})
    return out


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


def reduce(p: DiffPoly, system: SubstitutionSystem):
    """Normal form of p modulo the presentation, as an MPoly in the free variables.

    Algebraic rules are applied first, at every derivative order (the rule
    x_j -> g rewrites x_j^(k) to the k-th total derivative of g); then
    derivative symbols are rewritten from the highest order down via the
    first-order rules.  MissingRule is raised when some derivative symbol
    has no rewrite.
    """
    if p.vars != system.vars:
        raise DimensionMismatch("polynomial and system variables differ")
    # Phase 1: triangular elimination of algebraic variables at all orders.
    for j, g in system.algebraic_rules:
        p = _eliminate_variable(p, j, g)

    # Normalized first-order rules, algebraic tail applied.
    normalized = {}
    for j, rhs in system.derivative_rules.items():
        q = DiffPoly.from_mpoly(rhs, system.vars)
        for jj, g in system.algebraic_rules:
            q = _eliminate_variable(q, jj, g)
        normalized[j] = q

    # Phase 2: kill derivative symbols, highest order first.
    while True:
        symbols = [(k, j) for (j, k) in p.symbols() if k >= 1]
        if not symbols:
            break
        k, j = max(symbols)
        if j not in normalized:
            raise MissingRule(
                f"no rewrite for {_prime_str(system.vars[j], k)}"
            )
        repl = normalized[j]
        for _ in range(k - 1):
            repl = total_derivative(repl)
        p = p.substitute_symbol((j, k), repl)
    return p.to_mpoly()


def _eliminate_variable(p: DiffPoly, j, g: MPoly):
    """Rewrite x_j^(k) -> k-th total derivative of g, for every order k in p."""
    base = DiffPoly.from_mpoly(g, p.vars)
    orders = sorted({k for (jj, k) in p.symbols() if jj == j}, reverse=True)
    derivs = {0: base}
    if orders:
        for k in range(1, orders[0] + 1):
            derivs[k] = total_derivative(derivs[k - 1])
    for k in orders:
        p = p.substitute_symbol((j, k), derivs[k])
    return p


def log_derivative_constant_identity(system: SubstitutionSystem, w: DiffPoly):
    """Division-free check that the log-derivative of w is constant on the system.

    Verifies delta(delta(w)) * w - delta(w)^2 reduces to the zero normal
    form, which is the cleared-denominator form of delta(delta(w)/w) = 0 on
    the locus where w does not vanish.
    """
    dw = total_derivative(w)
    ddw = total_derivative(dw)
    expr = ddw * w - dw * dw
    return reduce(expr, system).is_zero()
