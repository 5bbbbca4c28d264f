"""Algebraic D-varieties and their differential jet spaces.

A D-variety is an affine variety together with a polynomial section of its
prolongation: generators P(x) = 0 plus a tuple s = (s_1..s_n) with the
property that each sum_j dP/dx_j * s_j lies back in the ideal.  Its sharp
points are the series solutions of x' = s(x) starting on the variety; at
such a point the section induces a derivation d on the truncated local
algebra by

    d(f) = delta(coefficients of f) + sum_j (s_j(x) - s_j(a)) * df/dx_j

and the differential jet space is the kernel of the dual operator D inside
the algebraic jet space.  Its horizontal basis is computed by restricting
the coordinate ODE v' = B v to the jet kernel and solving with a
fundamental matrix, so the dimension over the constants automatically
matches the jet dimension over the series field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ArityError,
    DimensionMismatch,
    InsufficientPrecision,
    InvarianceViolation,
    PointNotOnVariety,
    UnknownName,
)
from .jets import JetIndexSet, JetSpace, jet_space
from .linalg import RATIONAL
from .mpoly import MPoly, normal_form, taylor_coeffs
from .series import TSeries, dot, fundamental_matrix, mat_mul, mat_vec, transpose


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
    residuals = []
    for P in variety.generators:
        E = MPoly.zero(variety.vars)
        for v, s in zip(variety.vars, variety.section):
            E = E + P.partial(v) * s
        residuals.append(E)
    residuals = normal_form(residuals, variety.generators)
    return SectionValidation(all(r.is_zero() for r in residuals), residuals)


@dataclass
class SharpPoint:
    """A series solution of x' = s(x) staying on the variety."""

    variety: DVariety
    coords: tuple
    initial: tuple

    @property
    def prec(self):
        return min(c.prec for c in self.coords)


def sharp_integrate(variety: DVariety, initial, order):
    """Integrate x' = s(x) from a rational point of the variety.

    Online Taylor recursion (Brent & Kung 1978; van der Hoeven 2002).  Each
    monomial of the section is a node of a tree: the constant monomial has
    the series 1, 0, 0, ... and every other monomial is its parent times one
    variable.  Step k forms only coefficient k of each node, one convolution
    of length k+1, then s_j[k] = sum over the terms of s_j of coefficient
    (*) node at index k, and x_j[k+1] = s_j[k] / (k+1).  A rational
    coefficient is the length-1 case of that convolution, so series
    coefficients take the same path.  With N = order the whole run costs
    O(N^2 * nodes) rational operations.  Series coefficients of the section
    must be guaranteed through order N-1.  The defining equations are
    re-checked on the resulting series to guaranteed precision.
    """
    initial = tuple(Fraction(c) for c in initial)
    if len(initial) != variety.nvars:
        raise DimensionMismatch("initial point arity mismatch")
    for P in variety.generators:
        val = P.eval(initial)
        if val != 0:
            raise PointNotOnVariety(f"{P} evaluates to {val} at {initial}")
    one = (0,) * variety.nvars
    parents = {}  # monomial -> (parent monomial, variable index), parents first

    def add_node(e):
        if e == one or e in parents:
            return
        j = next(i for i, a in enumerate(e) if a)
        parent = e[:j] + (e[j] - 1,) + e[j + 1 :]
        add_node(parent)
        parents[e] = (parent, j)

    terms = []
    for s in variety.section:
        row = []
        for e, c in s.terms.items():
            if isinstance(c, TSeries):
                if c.prec < order - 1:
                    raise InsufficientPrecision(
                        f"section coefficient guaranteed to order {c.prec}, "
                        f"need {order - 1}"
                    )
                row.append((c.coeffs, e))
            else:
                row.append(((c,), e))
            add_node(e)
        terms.append(row)
    nodes = {e: [] for e in parents}
    nodes[one] = [Fraction(1)] + [Fraction(0)] * order
    coeffs = [[c] for c in initial]
    for k in range(order):
        for e, (parent, j) in parents.items():
            nodes[e].append(_coefficient_of_product(nodes[parent], coeffs[j], k))
        for j, row in enumerate(terms):
            value = sum(
                (_coefficient_of_product(c, nodes[e], k) for c, e in row),
                Fraction(0),
            )
            coeffs[j].append(value / (k + 1))
    point = tuple(TSeries(cs, order) for cs in coeffs)
    for P in variety.generators:
        val = P.eval(point)
        if val != 0:
            raise PointNotOnVariety(
                f"integrated point leaves the variety: {P} -> {val}"
            )
    return SharpPoint(variety, point, initial)


def _coefficient_of_product(a, b, k):
    """Coefficient k of (sum a_i t^i)(sum b_i t^i); a may stop before index k."""
    acc = 0
    for i in range(min(k + 1, len(a))):
        x = a[i]
        if x:
            y = b[k - i]
            if y:
                acc += x * y
    return acc


def _derivation_matrix(variety: DVariety, point: SharpPoint, order_m):
    """Matrix B of the induced derivation on the ambient monomial basis.

    Row alpha holds the coordinates of d((x-a)^alpha) on the basis
    (x-a)^beta, beta in Lambda, using d(x_j - a_j) = Taylor expansion of
    s_j(x) - s_j(a) around a, truncated past order m.
    """
    lam = JetIndexSet.build(variety.nvars, order_m)
    pos = {alpha: i for i, alpha in enumerate(lam.indices)}
    prec = point.prec
    zero = TSeries.zero(prec)
    # Taylor data of each section component around the moving point; the
    # constant term cancels in s_j(x) - s_j(a).
    tails = []
    for s in variety.section:
        coeffs = dict(taylor_coeffs(s, point.coords, order_m))
        coeffs.pop((0,) * variety.nvars, None)
        tails.append(coeffs)
    size = len(lam)
    B = [[zero for _ in range(size)] for _ in range(size)]
    for alpha in lam.indices:
        row = B[pos[alpha]]
        for j in range(variety.nvars):
            if alpha[j] == 0:
                continue
            lowered = list(alpha)
            lowered[j] -= 1
            for beta, value in tails[j].items():
                combined = tuple(l + b for l, b in zip(lowered, beta))
                if 0 < sum(combined) <= order_m:
                    target = pos[combined]
                    row[target] = row[target] + alpha[j] * value
    return B


@dataclass
class DeltaJetSpace:
    """A differential jet space: jet kernel, restricted derivation, horizontal basis."""

    jet: JetSpace
    derivation: list
    horizontal: list

    @property
    def dim_k(self):
        return self.jet.dim

    @property
    def dim_c(self):
        return len(self.horizontal)

    @property
    def precision(self):
        precs = [e.prec for v in self.horizontal for e in v if isinstance(e, TSeries)]
        return min(precs) if precs else None


def induced_module_derivation(variety: DVariety, point: SharpPoint, order_m):
    """The derivation matrix on the ambient truncated local algebra.

    When the variety is a proper subvariety, stability of the jet kernel
    under the dual operator is asserted to precision (InvarianceViolation
    otherwise) before the matrix is returned.
    """
    B = _derivation_matrix(variety, point, order_m)
    if variety.generators:
        _restricted_system(variety, point, order_m, B)
    return B


def _restricted_system(variety, point, order_m, B):
    """Jet kernel basis plus the matrix R of the horizontal ODE on it.

    For a kernel basis vector b, the combination w = B b - b' must lie back
    in the kernel; its expansion coefficients are read off the free
    coordinates and the expansion residual witnesses invariance.
    """
    js = jet_space(variety.generators, point.coords, order_m)
    basis, free = js.basis, js.free_columns
    size = len(js.indices)
    R = [[None] * len(basis) for _ in range(len(basis))]
    columns = transpose(basis)
    for i, b in enumerate(basis):
        kept = [
            c for c in range(size)
            if not (isinstance(b[c], TSeries) and b[c].is_zero())
        ]
        Bb = []
        for row in B:
            cols = [c for c in kept if not row[c].is_zero()]
            if cols:
                Bb.append(dot([row[c] for c in cols], [b[c] for c in cols]))
            else:
                Bb.append(TSeries.zero(point.prec))
        w = [Bb[r] - b[r].derive() for r in range(size)]
        coeffs = [w[fc] for fc in free]
        # residual = w - sum_j coeffs[j] * basis[j], must vanish to precision
        expansion = mat_vec(columns, coeffs)
        for r in range(size):
            acc = w[r] - expansion[r]
            if not acc.is_zero():
                raise InvarianceViolation(
                    "dual derivation leaves the jet kernel (residual "
                    f"{acc} in coordinate {r})"
                )
        for j, c in enumerate(coeffs):
            R[j][i] = c
    return js, R


def delta_jet_space(variety: DVariety, point: SharpPoint, order_m):
    """Horizontal jets at a sharp point: {v in Jet^m(V)_a : Dv = 0}.

    The horizontal coordinates satisfy v' = B v; restricting to the jet
    kernel gives a small ODE c' = R c whose fundamental matrix delivers a
    basis over the constants of the same cardinality as the jet dimension
    over the series field.
    """
    B = _derivation_matrix(variety, point, order_m)
    if variety.generators:
        js, R = _restricted_system(variety, point, order_m, B)
    else:
        js = jet_space(variety.generators, point.coords, order_m)
        R = B
    if not js.basis:
        return DeltaJetSpace(js, R, [])
    rprec = min(e.prec for row in R for e in row)
    order = rprec + 1
    phi = fundamental_matrix(R, order)
    # horizontal[k] = sum_i phi[i][k] * basis[i]
    horizontal = mat_mul(transpose(phi), js.basis)
    return DeltaJetSpace(js, R, horizontal)


def constants_variety_jets(variety_generators, point, order_m, order=None):
    """Jets of the constant points of a variety defined over the constants.

    The horizontal vectors are exactly the rational nullspace of the jet
    equations, lifted to constant series; this realizes the zero-section
    D-variety structure on V(C).
    """
    from .series import DEFAULT_PRECISION

    order = DEFAULT_PRECISION if order is None else order
    point = tuple(Fraction(c) for c in point)
    js = jet_space(variety_generators, point, order_m)
    assert js.domain == RATIONAL
    horizontal = [
        [TSeries.constant(c, order) for c in vec] for vec in js.basis
    ]
    zero_matrix = [
        [TSeries.zero(order) for _ in range(len(js.basis))]
        for _ in range(len(js.basis))
    ]
    return DeltaJetSpace(js, zero_matrix, horizontal)


def product_dvariety(left: DVariety, right: DVariety):
    """The product D-variety with componentwise section, variables renamed as needed."""
    used = list(left.vars)
    rename = {}
    for v in right.vars:
        name = v
        while name in used:
            name = name + "_"
        rename[v] = name
        used.append(name)
    allvars = tuple(used)
    right_vars = tuple(rename[v] for v in right.vars)

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


def product_sharp_point(product: DVariety, left: SharpPoint, right: SharpPoint):
    coords = tuple(left.coords) + tuple(right.coords)
    initial = tuple(left.initial) + tuple(right.initial)
    return SharpPoint(product, coords, initial)
