"""Algebraic D-varieties and their differential jet spaces.

A D-variety is an affine variety together with a polynomial section of its
prolongation: generators P(x) = 0 plus a tuple s = (s_1..s_n) with the
property that each sum_j dP/dx_j * s_j lies back in the ideal.  Its sharp
points are the series solutions of x' = s(x) starting on the variety; at
such a point the section induces a derivation d on the truncated local
algebra by

    d(f) = delta(coefficients of f) + sum_j (s_j(x) - s_j(a)) * df/dx_j

and the differential jet space is the kernel of the dual operator D inside
the algebraic jet space.  The flow of the section carries jets at x(0) to
jets at x(t), and its matrix on jets solves M' = B M, so the horizontal
basis is the rational jet basis at x(0) moved by one linear-ODE solve
(series.fundamental_matrix on B itself): as many vectors over the
constants as the jet dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul

from .errors import (
    ArityError,
    DimensionMismatch,
    InsufficientPrecision,
    InvarianceViolation,
    PointNotOnVariety,
    UnknownName,
)
from .jets import JetSpace, jet_equations, jet_space, taylor_tails, truncated_mul
from .mpoly import MPoly, multi_indices, normal_form
from .series import (
    DEFAULT_PRECISION,
    TSeries,
    as_rational,
    first_nonzero_product,
    format_point,
    from_hurwitz,
    fundamental_matrix,
    integer_scaled,
    transpose,
)


@dataclass(frozen=True)
class DVariety:
    """Ambient variables, ideal generators, and a section of the prolongation.

    diffpoly.reduce ranks the `eliminated` variables first (mpoly.block_key).
    """

    vars: tuple
    generators: tuple
    section: tuple
    name: str = ""
    eliminated: tuple = ()

    def __post_init__(self):
        for i, v in enumerate(self.vars):
            if v in self.vars[:i]:
                raise UnknownName(f"variable {v!r} is declared twice among {self.vars}")
        if len(self.section) != len(self.vars):
            raise ArityError(
                f"section has {len(self.section)} components for "
                f"{len(self.vars)} variables"
            )
        for p in tuple(self.generators) + tuple(self.section):
            if p.vars != tuple(self.vars):
                raise DimensionMismatch("polynomial over the wrong variable tuple")
        if not set(self.eliminated) <= set(self.vars):
            raise UnknownName(f"eliminated {self.eliminated} not among {self.vars}")

    @property
    def nvars(self):
        return len(self.vars)


@dataclass
class SectionValidation:
    ok: bool
    residuals: list


def validate_section(variety: DVariety):
    """Check that the section lands in the prolongation over the variety.

    For each generator P the residual E_P = sum_j dP/dx_j * s_j must lie in
    the ideal.  Membership is exact: the returned residuals are the grevlex
    normal forms of the E_P (mpoly.normal_form), all zero exactly when the
    section is valid.  With no generators the check is vacuous.
    """
    images = dict(zip(variety.vars, variety.section))
    residuals = normal_form([P.lie(images) for P in variety.generators],
                            variety.generators)
    return SectionValidation(all(r.is_zero() for r in residuals), residuals)


@dataclass
class SharpPoint:
    """A series solution of x' = s(x) staying on the variety."""

    variety: DVariety
    coords: tuple

    @property
    def prec(self):
        return min(c.prec for c in self.coords)


def sharp_integrate(variety: DVariety, initial, order):
    """Integrate x' = s(x) from a rational point of the variety, s rational.

    Online Taylor recursion (Brent & Kung 1978; van der Hoeven 2002) on
    Hurwitz coefficients X_k = k! x_k (Keigher, Comm. Algebra 1997), in
    which a product is the binomial convolution (fg)_k = sum_i C(k,i) f_i
    g_(k-i) and x' = s(x) reads X_(k+1) = S_k, with no division by k+1.
    Each monomial of the section is a node of a tree: the constant monomial
    has the series 1, 0, 0, ... and every other monomial is its parent
    times one variable.  Step k forms only coefficient k of each node, one
    binomial convolution of length k+1, then X_j[k+1] = sum of a * node_e[k]
    over the terms (a, e) of s_j.  The binomial row is updated by additions
    from step to step, and only when some node convolves.

    The work runs on integers.  Time and space are rescaled to y(tau) =
    mu * x(lam * tau), with mu the lcm of the initial denominators and lam
    the least integer making every coefficient of the scaled section
    integral, so the a = c * lam * mu^(1-|e|) are fixed integers, every
    Hurwitz coefficient is an integer and the loop makes no division and no
    gcd.  With N = order the run makes O(N^2) integer multiply-adds per node
    and O(N^2) integer additions for the binomial rows.
    `series.from_hurwitz` turns the rows into series, which are reduced only
    when a reader needs the reduced form.  The section is rational, as every
    `MPoly` is; a negative order raises InsufficientPrecision before any
    work.  The defining equations are re-checked on the resulting series to
    guaranteed precision.
    """
    if order < 0:
        raise InsufficientPrecision(f"sharp_integrate: order must be >= 0, got {order}")
    one = (0,) * variety.nvars
    # monomial -> (parent monomial, variable index), parents first; a loop,
    # not a recursion, so a high degree needs no stack frame per degree.
    parents = {}
    for s in variety.section:
        for e in s.terms:
            chain = []
            while e != one and e not in parents:
                i = next(i for i, a in enumerate(e) if a)
                parent = e[:i] + (e[i] - 1,) + e[i + 1 :]
                chain.append((e, (parent, i)))
                e = parent
            parents.update(reversed(chain))
    initial = tuple(as_rational(c, f"coordinate {i} of the initial point")
                    for i, c in enumerate(initial))
    if len(initial) != variety.nvars:
        raise DimensionMismatch("initial point arity mismatch")
    for P in variety.generators:
        val = P.eval(initial)
        if val:
            raise PointNotOnVariety(f"{P} evaluates to {val} at {format_point(initial)}")

    # y(tau) = mu * x(lam * tau) solves y' = sum_e lam * mu^(1-|e|) c_e y^e.
    mu, x0 = integer_scaled(initial)
    scaled = [{e: c * Fraction(mu) ** (1 - sum(e)) for e, c in s.terms.items()}
              for s in variety.section]
    lam = lcm(*(c.denominator for s in scaled for c in s.values()))
    terms = [[(int(c * lam), e) for e, c in s.items()] for s in scaled]
    convolved = {j for parent, j in parents.values() if parent != one}
    xs = [[a] for a in x0]
    nodes = {one: [1]}
    nodes.update((e, []) for e in parents)
    binom = [1]
    for k in range(order):
        if k:
            if convolved:
                binom = [1, *map(add, binom, binom[1:]), 1]
            nodes[one].append(0)
        # weighted[j][i] = C(k,i) * X_j[k-i], shared by the nodes of coordinate
        # j; a child of the constant monomial is the coordinate itself.
        weighted = {j: list(map(mul, binom, reversed(xs[j]))) for j in convolved}
        for e, (parent, j) in parents.items():
            if parent == one:
                nodes[e].append(xs[j][k])
            else:
                nodes[e].append(sum(map(mul, nodes[parent], weighted[j])))
        for x, row in zip(xs, terms):
            x.append(sum([a * nodes[e][k] for a, e in row]))
    point = tuple(from_hurwitz(xs, order, mu, lam))
    for P in variety.generators:
        val = P.eval(point)
        if val:
            raise PointNotOnVariety(
                f"integrated point leaves the variety: {P} -> {val}"
            )
    return SharpPoint(variety, point)


def _derivation_matrix(point: SharpPoint, order_m):
    """Matrix B of the induced derivation on the ambient monomial basis.

    Row alpha holds the coordinates of d((x-a)^alpha) on the basis
    (x-a)^beta, beta in Lambda: by d(x_j - a_j) = s_j(x) - s_j(a), the sum
    over j of alpha_j (x-a)^(alpha - e_j) times the Taylor tail of s_j
    around a, truncated past order m, with s the section of `point.variety`.
    """
    lam = multi_indices(point.variety.nvars, order_m)
    zero = TSeries.zero(point.prec)
    tails = taylor_tails(point.variety.section, point.coords, order_m)
    B = []
    for alpha in lam:
        row = {}
        for j, a in enumerate(alpha):
            if a:
                lowered = {alpha[:j] + (a - 1,) + alpha[j + 1 :]: a}
                for e, c in truncated_mul(lowered, tails[j], order_m).items():
                    row[e] = row.get(e, zero) + c
        B.append([row.get(beta, zero) for beta in lam])
    return B


@dataclass
class DeltaJetSpace:
    """A differential jet space: the algebraic jet space and a horizontal basis.

    `jet` is the rational jet space at x(0), which the flow of the section
    carries onto the jet space at x(t).  The horizontal vectors are a basis
    over the constants of the jets v with Dv = 0, as many as `dim_k`.
    `equations` are the jet equations the vectors were checked against.
    """

    jet: JetSpace
    horizontal: list
    equations: list

    @property
    def dim_k(self):
        return self.jet.dim

    @property
    def dim_c(self):
        return len(self.horizontal)

    @property
    def precision(self):
        return min((e.prec for v in self.horizontal for e in v), default=None)


def delta_jet_space(point: SharpPoint, order_m):
    """Horizontal jets at a sharp point: {v in Jet^m(V)_x(t) : Dv = 0}, V = point.variety.

    The flow of the section on jets, M' = B M with M(0) = I, carries the
    jets at a = x(0) to those at x(t), so horizontal_i = M(t) v0_i solves
    v' = B v from v0_i, the rational jet basis vector at a over its free
    coordinate.  The solve runs from the jet basis alone: the columns v0_i
    are the initial value of v' = B v, so neither M(t) nor a product with
    it is formed.  B is built from the point truncated one order below its
    precision N, which is all a solution through order N reads (at N = 0
    the point itself, with the solution cut back to order 0).

    The solutions are the columns of `series.fundamental_matrix(B, low + 1,
    initial)`, so no delta-module is built and no entry is negated.  The jet
    equations at x(t) are checked on every horizontal vector through the
    guaranteed order by `series.first_nonzero_product`, on the family packed
    one integer per coordinate and order, with no gcd; a residual (an
    invalid section, or a point not solving x' = s(x)) raises
    InvarianceViolation naming the first failing equation, then vector.
    With no generators the check is vacuous, and v' = B v is not re-checked.
    The checked rows are kept as the space's `equations`.
    """
    variety = point.variety
    a = tuple(c.constant_term for c in point.coords)
    js = jet_space(variety.generators, a, order_m)
    low = max(point.prec - 1, 0)
    short = SharpPoint(variety, tuple(c.at_precision(low) for c in point.coords))
    B = _derivation_matrix(short, order_m)
    # Column i is v0_i = b_i / b_i[f_i]; with no basis, dim empty rows.
    initial = [[Fraction(b[r], b[f]) for b, f in zip(js.basis, js.free_columns)]
               for r in range(len(B))]
    horizontal = transpose(fundamental_matrix(B, low + 1, initial))
    if low == point.prec:
        horizontal = [[e.at_precision(low) for e in v] for v in horizontal]
    rows = jet_equations(variety.generators, point.coords, order_m)
    failure = first_nonzero_product(rows, horizontal)
    if failure:
        r, i, order, prec = failure
        raise InvarianceViolation(
            f"horizontal vector {i} fails jet equation {r}: residual "
            f"nonzero at order {order}, guaranteed to order {prec}"
        )
    return DeltaJetSpace(js, horizontal, rows)


def constants_variety_jets(variety_generators, point, order_m, order=DEFAULT_PRECISION):
    """Jets of the constant points of a variety defined over the constants.

    The horizontal vectors are exactly the rational nullspace of the jet
    equations, lifted to constant series of order `order`; this realizes
    the zero-section D-variety structure on V(C), with the rational rows as
    `equations`.  A non-rational coordinate, such as a series, raises
    DomainMismatch (`jet_space`).
    """
    js = jet_space(variety_generators, point, order_m)
    horizontal = [
        [TSeries.constant(c, order) for c in vec] for vec in js.basis
    ]
    return DeltaJetSpace(js, horizontal, js.system.rows)


def fresh_names(taken, names):
    """`names` in order, each with "_" appended until no name of `taken` and no
    earlier one of the result has it."""
    used = list(taken)
    for name in names:
        while name in used:
            name += "_"
        used.append(name)
    return tuple(used[len(taken) :])


def product_dvariety(left: DVariety, right: DVariety):
    """The product D-variety with componentwise section, variables renamed as needed."""
    right_vars = fresh_names(left.vars, right.vars)
    allvars = tuple(left.vars) + right_vars

    def move(p, source_vars):
        moved = MPoly(source_vars, p.terms)
        return moved.embed(allvars)

    gens = tuple(p.embed(allvars) for p in left.generators) + tuple(
        move(p, right_vars) for p in right.generators
    )
    section = tuple(p.embed(allvars) for p in left.section) + tuple(
        move(p, right_vars) for p in right.section
    )
    name = f"{left.name or 'X1'}*{right.name or 'X2'}"
    return DVariety(allvars, gens, section, name=name)


def product_sharp_point(left: SharpPoint, right: SharpPoint):
    """The two sharp points as one point of `product_dvariety` of their varieties."""
    product = product_dvariety(left.variety, right.variety)
    return SharpPoint(product, tuple(left.coords) + tuple(right.coords))
