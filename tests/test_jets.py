import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from djets.dsl import parse_document
from djets.errors import (
    BasePointMismatch,
    DimensionMismatch,
    DomainMismatch,
    PointNotOnVariety,
    SingularPivot,
)
from djets.jets import (
    jet_equations,
    jet_of_morphism,
    jet_space,
    taylor_tails,
    truncated_mul,
)
from djets.linalg import RATIONAL, SERIES, rref
from djets.mpoly import MPoly, multi_indices, multi_indices_with_zero, taylor_coeffs
from djets.series import TSeries, exp_series, mat_mul


def plane():
    xy = ("x", "y")
    return xy, MPoly.variable(xy, "x"), MPoly.variable(xy, "y")


def test_index_set_size():
    lam = multi_indices(3, 2)
    assert len(lam) == 9  # binom(5, 2) - 1


def test_ambient_space_has_no_constraints():
    assert jet_equations((), (F(1), F(2)), 1) == []
    space = jet_space((), (F(1), F(2)), 1)
    assert space.system.ncols == 2 and space.dim == 2 and space.basis == [[1, 0], [0, 1]]
    assert jet_space((), (F(1), F(2)), 2).dim == 5


def test_parabola_order_one_equation():
    xy, x, y = plane()
    assert jet_equations((y - x**2,), (F(1), F(1)), 1) == [[F(-2), F(1)]]
    space = jet_space((y - x**2,), (F(1), F(1)), 1)
    assert space.basis == [[F(1), F(2)]]


def test_parabola_order_two_rows_and_dimension():
    # Hand oracle: on the curve the local parameter is u = x-1 and
    # y-1 = 2u + u^2, so an order-2 functional is determined by its values
    # (p, q) on u, u^2, giving coordinates
    #   z10 = p, z01 = 2p + q, z20 = q, z11 = 2q, z02 = 4q.
    oracle_basis = [
        [F(1), F(2), F(0), F(0), F(0)],   # p = 1, q = 0
        [F(0), F(1), F(1), F(2), F(4)],   # p = 0, q = 1
    ]
    xy, x, y = plane()
    rows = jet_equations((y - x**2,), (F(1), F(1)), 2)
    # one row per (generator, shift): shifts 0, (1,0), (0,1)
    assert len(rows) == 3
    # the unshifted row carries the divided-power Taylor coefficients
    assert rows[0] == [F(-2), F(1), F(-1), F(0), F(0)]
    space = jet_space((y - x**2,), (F(1), F(1)), 2)
    assert space.dim == 2
    # both bases must solve each other's systems exactly
    for v in oracle_basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    for v in space.basis:
        # membership in the oracle span: v = v[0]*(first) + coeff*(second)
        p, q = v[0], v[2]
        expected = [
            p * oracle_basis[0][k] + q * oracle_basis[1][k] for k in range(5)
        ]
        assert v == expected


def test_point_must_lie_on_variety():
    xy, x, y = plane()
    with pytest.raises(PointNotOnVariety):
        jet_equations((y - x**2,), (F(1), F(2)), 1)


def test_series_point_equations_hold_only_series():
    # At the cusp's singular point the Hessian entry of y^2 - x^3 is the
    # constant 1, the only nonzero entry.  It stays an exact rational, and
    # a product with a series vector takes that vector's precision.
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    origin = (TSeries.zero(8), TSeries.zero(8))
    rows = jet_equations([y**2 - x**3], origin, 2)
    assert len(rows) == 3
    assert sum(1 for row in rows for e in row if e != 0) == 1
    assert rows[0][4] == 1 and not isinstance(rows[0][4], TSeries)
    vec = [exp_series(k, 5) for k in range(1, 6)]
    products = mat_mul(rows, [[v] for v in vec])
    assert all(isinstance(p, TSeries) and p.prec == 5 for (p,) in products)
    assert products[0][0] == vec[4]
    assert all(p.is_zero() for (p,) in products[1:])


def test_dimension_law_random():
    rng = random.Random(13)
    xy, x, y = plane()
    for _ in range(25):
        # generators vanishing at (1, 1), assembled from (x-1) and (y-1)
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = (x - 1) ** rng.randint(1, 2) * rng.randint(1, 3) + (
                y - 1
            ) * rng.randint(-2, 2)
            if not g.is_zero():
                gens.append(g)
        order = rng.randint(1, 3)
        space = jet_space(tuple(gens), (F(1), F(1)), order)
        system = space.system
        assert space.dim == len(space.indices) - len(
            rref(system.rows, system.ncols, RATIONAL)[1]
        )


def test_jet_of_identity_is_identity():
    xy, x, y = plane()
    space = jet_space((), (F(1), F(2)), 2)
    matrix = jet_of_morphism((x, y), space, space)
    size = len(space.indices)
    assert matrix == [
        [F(int(i == j)) for j in range(size)] for i in range(size)
    ]


def test_jet_of_squaring_scales_by_derivative():
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    # oracle: x^2 - 1 = 2(x-1) + (x-1)^2, so the order-1 coefficient is 2
    src = jet_space((), (F(1),), 1)
    tgt = jet_space((), (F(1),), 1)
    matrix = jet_of_morphism((x**2,), src, tgt)
    assert matrix == [[F(2)]]


def test_jet_functoriality_specific():
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    f = (x**2,)
    g = (x + 1,)
    a = (F(1),)
    fa = (F(1),)
    gfa = (F(2),)
    src = jet_space((), a, 2)
    mid = jet_space((), fa, 2)
    tgt = jet_space((), gfa, 2)
    Tf = jet_of_morphism(f, src, mid)
    Tg = jet_of_morphism(g, mid, tgt)
    composed = (x**2 + 1,)
    Tgf = jet_of_morphism(composed, src, tgt)
    # oracle: by direct Taylor composition,
    #   f - 1 = 2u + u^2 and (f - 1)^2 = 4u^2 + O(u^3)   (u = x - 1)
    #   g - 2 = v and (g - 2)^2 = v^2                    (v = y - 1)
    assert Tf == [[F(2), F(1)], [F(0), F(4)]]
    assert Tg == [[F(1), F(0)], [F(0), F(1)]]
    product = [
        [sum(Tg[i][k] * Tf[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert product == Tgf


def test_a_morphism_maps_jets_of_one_order_only():
    # the order and base point come from the source space; J^m -> J^m' with
    # m != m' is not defined, in either direction
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    one, two = jet_space((), (F(1),), 1), jet_space((), (F(1),), 2)
    for src, tgt in ((one, two), (two, one)):
        message = f"source jets of order {src.order}, target jets of order {tgt.order}"
        with pytest.raises(DimensionMismatch, match=message):
            jet_of_morphism((x**2,), src, tgt)
    # oracle: x^2 - 1 = 2u + u^2 and (x^2 - 1)^2 = 4u^2 + O(u^3), u = x - 1
    assert jet_of_morphism((x**2,), two, two) == [[F(2), F(1)], [F(0), F(4)]]


def test_jet_morphism_base_point_checked():
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    src = jet_space((), (F(1),), 1)
    tgt = jet_space((), (F(5),), 1)
    with pytest.raises(BasePointMismatch):
        jet_of_morphism((x**2,), src, tgt)


def test_a_morphism_off_the_base_point_prints_both_points():
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    src = jet_space((), (F(1),), 1)
    tgt = jet_space((), (F(5, 2),), 1)
    with pytest.raises(BasePointMismatch, match=r"to \(1\), not \(5/2\)$"):
        jet_of_morphism((x**2,), src, tgt)


def test_jet_space_rejects_a_series_point():
    # Jets at a series point are carried from x(0) along the flow
    # (`dvariety.delta_jet_space`); the algebraic jet layer works over Q.
    # jet_of_morphism reads its point off a jet space, so it has none to refuse.
    xy, x, y = plane()
    a = exp_series(1, 12)
    with pytest.raises(DomainMismatch, match="coordinate 1 of a constant point is a TSeries"):
        jet_space((), (F(1), a), 2)
    with pytest.raises(DomainMismatch, match="coordinate 0 of a constant point is a TSeries"):
        jet_space((y - x**2,), (a, a * a), 1)
    # an inexact coordinate is refused too, not read as a binary fraction
    with pytest.raises(DomainMismatch, match="coordinate 0 of a constant point is a float"):
        jet_space((), (0.1, F(1)), 1)


def squaring_jet_matrix(a, order):
    """The jet matrix of x -> x^2 on the affine line at the series point a.

    Read off the Taylor data that the jet layer still forms at a series
    point (as the derivation matrix of `dvariety` does), with every entry
    lifted to a series of a's precision.
    """
    x = MPoly.variable(("x",), "x")
    (tail,) = taylor_tails((x**2,), (a,), order)
    lam = multi_indices(1, order)
    rows = []
    for (power,) in lam:
        prod = {(0,): F(1)}
        for _ in range(power):
            prod = truncated_mul(prod, tail, order)
        row = [prod.get(alpha, F(0)) for alpha in lam]
        rows.append([e if isinstance(e, TSeries) else TSeries.constant(e, a.prec) for e in row])
    return rows


def test_squaring_map_invertible_at_series_unit_point():
    # the doubling cover away from zero: full rank at a unit series point
    a = exp_series(1, 12)
    matrix = squaring_jet_matrix(a, 2)
    assert matrix[0][0] == 2 * a and matrix[1][1] == 4 * a * a
    # eliminate with unit pivots: success means invertibility over the series field
    _, pivots = rref(matrix, 2, SERIES)
    assert pivots == [0, 1]


def test_squaring_map_singular_at_origin_point():
    t = TSeries([0, 1], 8)
    matrix = squaring_jet_matrix(t, 1)
    assert matrix == [[2 * t]]
    with pytest.raises(SingularPivot):
        rref(matrix, 1, SERIES)


def test_apply_jet_matrix_maps_source_basis_into_target():
    # the parabola maps to the line by projection (x, y) -> x
    xy, x, y = plane()
    xs = ("x",)
    proj = (MPoly.variable(xy, "x"),)
    src = jet_space((y - x**2,), (F(1), F(1)), 1)
    tgt = jet_space((), (F(1),), 1)
    matrix = jet_of_morphism(proj, src, tgt)
    image = mat_mul(matrix, [[e] for e in src.basis[0]])
    assert image == [[F(1)]]


# -- Taylor tails ------------------------------------------------------------------------

DJV = Path(__file__).resolve().parent.parent / "djv"


def exact_items(taylor):
    """The entries of a Taylor map in order, a series as its integer form."""
    return [(alpha, (c.nums, c.den, c.prec) if isinstance(c, TSeries) else c)
            for alpha, c in taylor.items()]


def assert_tails_drop_only_the_constant_term(polys, point, order):
    zero = (0,) * len(point)
    tails = taylor_tails(polys, point, order)
    assert len(tails) == len(polys)
    for p, tail in zip(polys, tails):
        full = taylor_coeffs(p, point, order)
        # every Hasse derivative formed and evaluated, zeros dropped
        every = {alpha: p.hasse(alpha).eval(point)
                 for alpha in multi_indices_with_zero(len(point), order)}
        assert exact_items(full) == exact_items({a: c for a, c in every.items() if c != 0})
        assert exact_items(tail) == [e for e in exact_items(full) if e[0] != zero]


def test_taylor_tails_are_taylor_coeffs_without_the_constant_term_on_djv_points():
    cases = 0
    for path in sorted(DJV.glob("*.djv")):
        doc = parse_document(path.read_text(encoding="utf-8"))
        for name, decl in doc.points.items():
            variety = doc.variety(decl.variety)
            polys = tuple(variety.section) + tuple(variety.generators)
            points = (doc.rational_point(name), doc.sharp_point(name, 8).coords)
            for point in points:
                for order in (1, 2, 3):
                    assert_tails_drop_only_the_constant_term(polys, point, order)
                    cases += 1
    assert cases == 6 * 17  # 17 points, each rational and sharp, at m = 1..3


def test_taylor_tails_are_taylor_coeffs_without_the_constant_term_on_random_polynomials():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(1, 3)
        names = tuple(f"x{i}" for i in range(n))
        polys = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                e = tuple(rng.randint(0, 3) for _ in range(n))
                terms[e] = F(rng.randint(-9, 9), rng.randint(1, 4))
            polys.append(MPoly(names, terms))
        prec = rng.randint(0, 6)
        rational = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
        series = tuple(
            TSeries([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(prec + 1)], prec)
            for _ in range(n)
        )
        for point in (rational, series):
            for order in (0, 1, 2, 3):
                assert_tails_drop_only_the_constant_term(polys, point, order)


def test_taylor_tails_keep_the_arity_error_and_the_empty_order_zero():
    xy, x, y = plane()
    section = (x**2 - y**2, x**2 - x * y)
    for order in (0, 1, 3):
        with pytest.raises(DimensionMismatch) as raised:
            taylor_tails(section, (F(2), F(1), F(0)), order)
        assert str(raised.value) == "point of length 3 for 2 variables"
    assert taylor_tails(section, (F(2), F(1)), 0) == [{}, {}]
    assert taylor_tails(section, (exp_series(1, 6), exp_series(2, 6)), 0) == [{}, {}]
    assert taylor_tails((), (F(2), F(1)), 2) == []
