"""Algebraic jet spaces in coordinates.

The m-th jet space of V at a point a is the space of linear functionals on
the local algebra of V at a truncated past order m.  In the monomial
coordinates z_alpha, alpha running over the graded-lex index set
Lambda = {alpha : 0 < |alpha| <= m} (`mpoly.multi_indices`), it is the
kernel of one linear row per pair (ideal generator P, shift gamma with
|gamma| <= m-1): the row of divided-power Taylor coefficients of
(z-a)^gamma * P around a.  The shift rows are what cut the functionals down
to those killing the whole ideal image, not just the generators themselves;
at m = 1 they reduce to the familiar Jacobian rows.

Every jet-layer matrix is built from the same Taylor data: sparse maps from
exponent vectors to coefficients (`mpoly.taylor_coeffs`), or, for the
expansions of p(z) - p(a), the same coefficients on Lambda alone
(`taylor_tails`, which never computes the constant term p(a)), multiplied
by one product truncated past order m (`truncated_mul`).  The jet
equations, the matrix of a morphism on jets and the derivation matrix of
`dvariety` all read their rows off such products.

Jet spaces are computed at rational points only, with kernels over Q: a
series or other non-rational coordinate raises DomainMismatch
(`series.as_rational`).  The matrix of a morphism on jets reads its base
point and its one order m off the source jet space.  The differential jet
space at a sharp point carries the rational jet space at x(0) along the flow
(`dvariety.delta_jet_space`), and reads the jet equations at the sharp point
only to check its answer, against the packed horizontal family
(`series.first_nonzero_product`).  `render_jet_space` gives the JSON form through
`series.render_vector`; errors print points by `series.format_point`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BasePointMismatch, DimensionMismatch, PointNotOnVariety
from .linalg import LinSystem, nullspace_with_free
from .mpoly import hasse_values, multi_indices, multi_indices_with_zero, taylor_coeffs
from .series import as_rational, format_point, render_vector

_ZERO = Fraction(0)


def taylor_tails(polys, point, order):
    """Taylor data of each polynomial around the point, constant term dropped.

    One sparse map per polynomial p, from exponent vectors 0 < |alpha| <=
    order to the coefficients of (z - point)^alpha in p(z) - p(point).  The
    constant term p(point) is never computed: at a series point it is the
    one coefficient that needs p's top-degree monomials.
    """
    lam = multi_indices_with_zero(len(point), order)[1:]
    return [hasse_values(p, point, lam) for p in polys]


def truncated_mul(d1, d2, order):
    """The product of two sparse Taylor maps, terms of degree > order dropped."""
    out = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if sum(e) > order:
                continue
            term = c1 * c2
            out[e] = out[e] + term if e in out else term
    return {e: c for e, c in out.items() if c}


def jet_equations(generators, point, order):
    """The rows of the linear system cutting out the order-m jet space.

    One row per (generator, shift) pair as described in the module
    docstring, the shifted product read off on Lambda; raises
    PointNotOnVariety when a generator fails to vanish at the point
    (exactly over Q, to guaranteed precision over series).  At a series
    point an entry is a series, or an exact rational where the Taylor
    coefficient is constant; `series.mat_mul` and
    `series.first_nonzero_product` give such an entry the precision of its
    partner.
    """
    point = tuple(point)
    n = len(point)
    lam = multi_indices(n, order)
    rows = []
    for P in generators:
        if len(P.vars) != n:
            raise DimensionMismatch(
                f"point of length {n} for {len(P.vars)} ambient variables"
            )
        coeffs = taylor_coeffs(P, point, order)
        value = coeffs.get((0,) * n, 0)
        if value:
            raise PointNotOnVariety(
                f"generator {P} evaluates to {value} at {format_point(point)}"
            )
        for gamma in multi_indices_with_zero(n, order - 1):
            shifted = truncated_mul({gamma: 1}, coeffs, order)
            rows.append([shifted.get(alpha, _ZERO) for alpha in lam])
    return rows


@dataclass
class JetSpace:
    """An algebraic jet space with its cut-out system and a kernel basis.

    `indices` is the graded-lex index set Lambda of the jet coordinates;
    each `basis` vector is a primitive `int` vector, leading entry positive.
    """

    point: tuple
    order: int
    indices: tuple
    system: LinSystem
    basis: list
    free_columns: list

    @property
    def dim(self):
        return len(self.basis)


def jet_space(generators, point, order):
    """Solve the jet equations at a rational point over Q.

    The basis spans the exact kernel, normalized to primitive `int`
    vectors.  Each coordinate passes `series.as_rational`: an int lifts to
    a Fraction, and a series or other non-rational one raises DomainMismatch.
    """
    point = tuple(as_rational(c, f"coordinate {i} of a constant point")
                  for i, c in enumerate(point))
    lam = multi_indices(len(point), order)
    system = LinSystem(jet_equations(generators, point, order), len(lam))
    basis, free = nullspace_with_free(system)
    return JetSpace(point, order, tuple(lam), system, basis, free)


def jet_of_morphism(f, source: JetSpace, target: JetSpace):
    """Matrix of the induced linear map on jets of a polynomial morphism.

    The base point a and the order m are those of `source`; `target` must
    sit at f(a) and have order m too, since jets of order m map only to
    jets of order m (DimensionMismatch otherwise).  Row beta (target index),
    column alpha (source index) holds the coefficient of (z-a)^alpha in the
    Taylor expansion of (f(z)-f(a))^beta around a, truncated at order m; a
    source jet v maps to the vector (sum_alpha M[beta][alpha] * v_alpha)_beta.
    """
    point, order = source.point, source.order
    if target.order != order:
        raise DimensionMismatch(
            f"source jets of order {order}, target jets of order {target.order}"
        )
    image = tuple(fi.eval(point) for fi in f)
    if len(image) != len(target.point):
        raise DimensionMismatch("morphism arity does not match the target space")
    if not all(a == b for a, b in zip(image, target.point)):
        raise BasePointMismatch(
            f"morphism sends the base point to {format_point(image)}, "
            f"not {format_point(target.point)}"
        )
    expansions = taylor_tails(f, point, order)
    rows = []
    for beta in target.indices:
        prod = {(0,) * len(point): Fraction(1)}
        for comp, power in enumerate(beta):
            for _ in range(power):
                prod = truncated_mul(prod, expansions[comp], order)
        rows.append([prod.get(alpha, _ZERO) for alpha in source.indices])
    return rows


def render_jet_space(space: JetSpace):
    """JSON-ready description with exact rationals as strings."""
    return {
        "point": render_vector(space.point),
        "order": space.order,
        "lambda": [list(a) for a in space.indices],
        "equations": [render_vector(row) for row in space.system.rows],
        "basis": [render_vector(v) for v in space.basis],
        "dim": space.dim,
    }
