"""Cross-module invariants that tie several subsystems together."""

import random
from fractions import Fraction as F

from djets.dvariety import (
    DVariety,
    constants_variety_jets,
    delta_jet_space,
    sharp_integrate,
)
from djets.linalg import constant_combination
from djets.mpoly import MPoly
from djets.series import TSeries


def test_horizontal_bases_stable_under_higher_precision():
    # recomputing at a higher order must reproduce every coefficient prefix
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    X = DVariety(xy, (), (x**2 - y**2, x**2 - x * y))
    lo = delta_jet_space(X, sharp_integrate(X, (2, 1), 10), 1)
    hi = delta_jet_space(X, sharp_integrate(X, (2, 1), 20), 1)
    assert lo.dim_c == hi.dim_c
    for a, b in zip(lo.horizontal, hi.horizontal):
        for ea, eb in zip(a, b):
            assert eb.coeffs[: ea.prec + 1] == ea.coeffs


def test_constant_point_jets_agree_with_zero_section_route():
    # two routes to the jets of constant points: the rational nullspace and
    # the zero-section D-variety machinery at a constant sharp point
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    generators = (y - x**2,)
    for order_m in (1, 2):
        direct = constants_variety_jets(generators, (1, 1), order_m, order=12)
        zero_section = DVariety(xy, generators, (MPoly.zero(xy), MPoly.zero(xy)))
        point = sharp_integrate(zero_section, (1, 1), 12)
        via_flow = delta_jet_space(zero_section, point, order_m)
        assert direct.dim_c == via_flow.dim_c
        for a, b in ((direct, via_flow), (via_flow, direct)):
            assert None not in constant_combination(a.horizontal, b.horizontal)
        for vec in via_flow.horizontal:
            assert all(e.is_constant() for e in vec)


def test_horizontal_space_is_constant_linear():
    # random constant combinations of horizontal vectors stay horizontal
    rng = random.Random(51)
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    X = DVariety(xy, (), (x**2 - y**2, x**2 - x * y))
    point = sharp_integrate(X, (2, 1), 14)
    space = delta_jet_space(X, point, 1)
    a, b = point.coords
    for _ in range(25):
        c1, c2 = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        u = [c1 * p + c2 * q for p, q in zip(*space.horizontal)]
        assert u[0].derive() == 2 * (a * u[0] - b * u[1])
        assert u[1].derive() == 2 * a * u[0] - b * u[0] - a * u[1]
        assert constant_combination([u], space.horizontal)[0] == [c1, c2]
