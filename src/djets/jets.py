"""Algebraic jet spaces in coordinates.

The m-th jet space of V at a point a is the space of linear functionals on
the local algebra of V at a truncated past order m.  In the monomial
coordinates z_alpha, alpha running over the graded-lex index set
Lambda = {alpha : 0 < |alpha| <= m}, it is the kernel of one linear row per
pair (ideal generator P, shift gamma with |gamma| <= m-1): the row of
divided-power Taylor coefficients of (z-a)^gamma * P around a.  The shift
rows are what cut the functionals down to those killing the whole ideal
image, not just the generators themselves; at m = 1 they reduce to the
familiar Jacobian rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import BasePointMismatch, DimensionMismatch, PointNotOnVariety
from .linalg import RATIONAL, SERIES, LinSystem, nullspace_with_free
from .mpoly import multi_indices, multi_indices_with_zero, taylor_coeffs
from .series import TSeries


@dataclass(frozen=True)
class JetIndexSet:
    """Graded-lex ordered exponent vectors 0 < |alpha| <= order."""

    nvars: int
    order: int
    indices: tuple

    @classmethod
    def build(cls, nvars, order):
        idx = tuple(multi_indices(nvars, order))
        assert len(idx) == comb(nvars + order, order) - 1
        return cls(nvars, order, idx)

    def __len__(self):
        return len(self.indices)


def point_domain(point):
    return SERIES if any(isinstance(c, TSeries) for c in point) else RATIONAL


def _point_precision(point):
    precs = [c.prec for c in point if isinstance(c, TSeries)]
    return min(precs) if precs else None


def jet_equations(generators, point, order):
    """The linear system cutting out the order-m jet space at the point.

    One row per (generator, shift) pair as described in the module
    docstring; raises PointNotOnVariety when a generator fails to vanish at
    the point (exactly over Q, to guaranteed precision over series).
    """
    point = tuple(point)
    domain = point_domain(point)
    prec = _point_precision(point)
    lam = None
    rows = []
    for P in generators:
        n = len(P.vars)
        if len(point) != n:
            raise DimensionMismatch(
                f"point of length {len(point)} for {n} ambient variables"
            )
        if lam is None:
            lam = JetIndexSet.build(n, order)
        coeffs = taylor_coeffs(P, point, order)
        value = coeffs.get((0,) * n, 0)
        if value != 0:
            raise PointNotOnVariety(f"generator {P} evaluates to {value} at {point}")
        if domain == SERIES:
            # A constant Hasse derivative evaluates to a bare rational.
            coeffs = {a: TSeries.lift(c, prec) for a, c in coeffs.items()}
        zero = TSeries.zero(prec) if domain == SERIES else Fraction(0)
        for gamma in multi_indices_with_zero(n, order - 1):
            row = []
            for alpha in lam.indices:
                shifted = tuple(a - g for a, g in zip(alpha, gamma))
                if any(s < 0 for s in shifted):
                    row.append(zero)
                else:
                    row.append(coeffs.get(shifted, zero))
            rows.append(row)
    if lam is None:
        # No generators: the ambient space contributes no constraints, but the
        # caller still needs the column count.
        lam = JetIndexSet.build(len(point), order)
    return LinSystem(rows, len(lam), domain, prec=prec)


@dataclass
class JetSpace:
    """An algebraic jet space with its cut-out system and a kernel basis."""

    point: tuple
    order: int
    indices: JetIndexSet
    system: LinSystem
    basis: list
    free_columns: list

    @property
    def dim(self):
        return len(self.basis)

    @property
    def domain(self):
        return self.system.domain


def jet_space(generators, point, order):
    """Solve the jet equations; basis vectors span the exact kernel.

    Over Q the basis is normalized to primitive integer vectors; over the
    series field each basis vector has a designated free coordinate set to
    the exact constant 1.
    """
    point = tuple(point)
    system = jet_equations(generators, point, order)
    lam = JetIndexSet.build(len(point), order)
    basis, free = nullspace_with_free(system)
    return JetSpace(point, order, lam, system, basis, free)


def jet_of_morphism(f, point, order, source: JetSpace, target: JetSpace):
    """Matrix of the induced linear map on jets of a polynomial morphism.

    Row beta (target index), column alpha (source index) holds the
    coefficient of (z-a)^alpha in the Taylor expansion of (f(z)-f(a))^beta
    around a, truncated at the jet order; a source jet v maps to the vector
    (sum_alpha M[beta][alpha] * v_alpha)_beta.
    """
    point = tuple(point)
    if len(point) != source.indices.nvars:
        raise DimensionMismatch("point does not match the source ambient space")
    if tuple(source.point) != point:
        raise BasePointMismatch("point differs from the source base point")
    image = tuple(fi.eval(point) for fi in f)
    if len(image) != target.indices.nvars:
        raise DimensionMismatch("morphism arity does not match the target space")
    if not all(a == b for a, b in zip(image, target.point)):
        raise BasePointMismatch(
            f"morphism sends the base point to {image}, not {tuple(target.point)}"
        )
    domain = point_domain(point)
    prec = _point_precision(point)

    def zero():
        return TSeries.zero(prec) if domain == SERIES else Fraction(0)

    # Taylor data of each component, constant term removed.
    expansions = []
    for fi in f:
        coeffs = dict(taylor_coeffs(fi, point, order))
        coeffs.pop((0,) * len(point), None)
        expansions.append(coeffs)

    one_key = (0,) * len(point)
    rows = []
    for beta in target.indices.indices:
        prod = {one_key: Fraction(1)}
        for comp, power in enumerate(beta):
            for _ in range(power):
                prod = _truncated_mul(prod, expansions[comp], order)
        rows.append([prod.get(alpha, zero()) for alpha in source.indices.indices])
    return rows


def _truncated_mul(d1, d2, order):
    out = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if sum(e) > order:
                continue
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def render_jet_space(space: JetSpace):
    """JSON-ready description with exact rationals as strings."""
    from .render import render_scalar

    return {
        "point": [render_scalar(c) for c in space.point],
        "order": space.order,
        "lambda": [list(a) for a in space.indices.indices],
        "equations": [[render_scalar(e) for e in row] for row in space.system.rows],
        "basis": [[render_scalar(e) for e in v] for v in space.basis],
        "dim": space.dim,
    }
