import itertools
import random
from fractions import Fraction as F
from math import comb

import pytest

import djets.mpoly
from djets.errors import BasisLimit, DimensionMismatch, DomainMismatch, JetLimit
from djets.mpoly import (
    MAX_JET_COORDS,
    MPoly,
    groebner,
    multi_indices,
    multi_indices_with_zero,
    normal_form,
    taylor_coeffs,
)
from djets.series import TSeries


# -- independent oracles -------------------------------------------------------
# Plain dict polynomials {exponent tuple: Fraction}, no MPoly involved.

def naive_partial(poly, j):
    out = {}
    for exps, c in poly.items():
        if exps[j] == 0:
            continue
        e = list(exps)
        e[j] -= 1
        e = tuple(e)
        out[e] = out.get(e, F(0)) + c * exps[j]
    return {e: c for e, c in out.items() if c}


def naive_hasse(poly, alpha):
    # repeated formal differentiation divided by alpha!
    out = dict(poly)
    for j, a in enumerate(alpha):
        for _ in range(a):
            out = naive_partial(out, j)
    divisor = 1
    for a in alpha:
        for k in range(2, a + 1):
            divisor *= k
    return {e: c / divisor for e, c in out.items() if c}


def naive_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def naive_eval(poly, point):
    total = F(0)
    for exps, c in poly.items():
        term = c
        for e, v in zip(exps, point):
            term *= v**e
        total += term
    return total


def as_dict(p: MPoly):
    return dict(p.terms)


# -- hasse derivatives -----------------------------------------------------------

def test_hasse_cube():
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    # oracle: (1/2!) d^2/dx^2 (x^3) = 3x
    expected = naive_hasse({(3,): F(1)}, (2,))
    assert expected == {(1,): F(3)}
    assert as_dict((x**3).hasse((2,))) == expected


def test_hasse_partial_on_parabola():
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    expected = naive_partial({(0, 1): F(1), (2, 0): F(-1)}, 0)
    assert as_dict((y - x**2).hasse((1, 0))) == expected == {(1, 0): F(-2)}


def test_hasse_zero_vector_is_identity():
    xy = ("x", "y")
    p = MPoly(xy, {(2, 1): F(3), (0, 0): F(-1)})
    assert p.hasse((0, 0)) == p


def test_hasse_dimension_error():
    xs = ("x",)
    with pytest.raises(DimensionMismatch):
        MPoly.variable(xs, "x").hasse((1, 0))


def test_hasse_product_rule_randomized():
    rng = random.Random(7)
    variables = ("x", "y", "z")
    for _ in range(100):
        p = {tuple(rng.randint(0, 2) for _ in range(3)): F(rng.randint(-3, 3))
             for _ in range(4)}
        q = {tuple(rng.randint(0, 2) for _ in range(3)): F(rng.randint(-3, 3))
             for _ in range(4)}
        p = {e: c for e, c in p.items() if c}
        q = {e: c for e, c in q.items() if c}
        alpha = tuple(rng.randint(0, 2) for _ in range(3))
        lhs = naive_hasse(naive_mul(p, q), alpha)
        rhs = {}
        for beta in multi_indices_with_zero(3, sum(alpha)):
            if any(b > a for b, a in zip(beta, alpha)):
                continue
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            for e, c in naive_mul(naive_hasse(p, beta), naive_hasse(q, gamma)).items():
                rhs[e] = rhs.get(e, F(0)) + c
        rhs = {e: c for e, c in rhs.items() if c}
        assert lhs == rhs
        P = MPoly(variables, p)
        Q = MPoly(variables, q)
        assert as_dict((P * Q).hasse(alpha)) == lhs


# -- taylor coefficients -----------------------------------------------------------

def brute_expand_around(poly, center):
    """Expand a univariate dict polynomial around a center by substituting
    x = center + u and collecting u powers."""
    out = {}
    for (e,), c in poly.items():
        # (center + u)^e via binomial expansion
        from math import comb

        for k in range(e + 1):
            key = (k,)
            out[key] = out.get(key, F(0)) + c * comb(e, k) * center ** (e - k)
    return {e: c for e, c in out.items() if c}


def test_taylor_square_about_one():
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    expected = brute_expand_around({(2,): F(1)}, F(1))
    assert expected == {(0,): F(1), (1,): F(2), (2,): F(1)}
    assert taylor_coeffs(x**2, (F(1),), 2) == expected


def test_taylor_constant():
    xy = ("x", "y")
    p = MPoly.constant(xy, F(7, 2))
    assert taylor_coeffs(p, (F(3), F(-1)), 3) == {(0, 0): F(7, 2)}


def test_taylor_parabola_at_point():
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    got = taylor_coeffs(y - x**2, (F(1), F(1)), 1)
    assert got == {(1, 0): F(-2), (0, 1): F(1)}


def test_taylor_reconstructs_polynomial():
    rng = random.Random(8)
    variables = ("x", "y")
    for _ in range(40):
        terms = {
            (rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-4, 4))
            for _ in range(4)
        }
        p = MPoly(variables, terms)
        a = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
        coeffs = taylor_coeffs(p, a, max(sum(e) for e in p.terms))
        x = MPoly.variable(variables, "x")
        y = MPoly.variable(variables, "y")
        rebuilt = MPoly.zero(variables)
        for alpha, c in coeffs.items():
            rebuilt = rebuilt + c * (x - a[0]) ** alpha[0] * (y - a[1]) ** alpha[1]
        assert rebuilt == p


# -- ring structure and rendering ----------------------------------------------------

def test_index_sets_graded_lex():
    assert multi_indices(2, 1) == [(1, 0), (0, 1)]
    assert multi_indices(2, 2) == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(multi_indices(3, 3)) == 19


def box_indices(nvars, order):
    """Reference: the (order+1)^nvars box, cut to |alpha| <= order, sorted graded-lex."""
    box = [a for a in itertools.product(range(order + 1), repeat=nvars) if sum(a) <= order]
    return sorted(box, key=lambda a: (sum(a), [-e for e in a]))


@pytest.mark.parametrize("nvars", range(6))
def test_index_sets_match_the_sorted_box(nvars):
    for order in range(5):
        want = box_indices(nvars, order)
        assert multi_indices_with_zero(nvars, order) == want
        assert multi_indices(nvars, order) == want[1:]
        assert len(want) == comb(nvars + order, order)


def test_index_sets_do_not_walk_the_box():
    # the box of exponents 0..3 in 16 variables holds 4^16 vectors
    assert len(multi_indices(16, 3)) == comb(19, 3) - 1 == 968


def test_jet_coordinates_are_bounded():
    assert len(multi_indices(MAX_JET_COORDS, 1)) == MAX_JET_COORDS
    for nvars, order in ((MAX_JET_COORDS + 1, 1), (17, 3), (44, 2)):
        with pytest.raises(JetLimit, match=f"in {nvars} variables"):
            multi_indices(nvars, order)


def test_rendering_canonical():
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    assert str(x**2 - y**2) == "x^2 - y^2"
    assert str(y - x**2) == "-x^2 + y"
    assert str(MPoly.zero(xy)) == "0"
    assert str(2 * x * y - x) == "2*x*y - x"
    assert str(MPoly.constant(xy, F(-3, 2))) == "-3/2"


def test_eval_matches_naive():
    rng = random.Random(9)
    variables = ("x", "y", "z")
    for _ in range(40):
        terms = {
            tuple(rng.randint(0, 3) for _ in range(3)): F(rng.randint(-4, 4))
            for _ in range(5)
        }
        p = MPoly(variables, terms)
        point = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3))
        assert p.eval(point) == naive_eval({e: c for e, c in terms.items() if c}, point)


def test_eval_at_series_point():
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    a = TSeries([1, 1], 6)
    value = (y - x**2).eval((a, a * a))
    assert isinstance(value, TSeries) and value.is_zero()


def test_embed_and_subs():
    xy = ("x", "y")
    xyz = ("x", "y", "z")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    p = (y - x**2).embed(xyz)
    assert p.vars == xyz and p.degree_in("z") == 0
    q = MPoly.variable(xy, "y").eval([x, x**2]).embed(xyz)
    assert q == MPoly.variable(xyz, "x") ** 2


def test_coefficients_that_are_not_rational_are_refused_on_construction():
    xy = ("x", "y")
    for names, terms, monomial, kind in (
        (xy, {(0, 0): 1, (1, 1): TSeries([1, 1], 8)}, "x\\*y", "TSeries"),
        (xy, {(0, 0): 1, (1, 1): 0.5}, "x\\*y", "float"),
        (XYZ, {(1, 0, 0): TSeries([1, 1], 4)}, "x", "TSeries"),
    ):
        with pytest.raises(DomainMismatch, match=(
            f"^the coefficient on the monomial {monomial} is a {kind}, not a rational$"
        )):
            MPoly(names, terms)
    p = MPoly(xy, {(1, 1): 2, (0, 0): True})
    assert all(type(c) is F for c in p.terms.values())
    assert p == MPoly(xy, {(1, 1): F(2), (0, 0): F(1)})


class _Items:
    """A term map whose one key is a list, which no dict can hold."""

    def __init__(self, key):
        self.key = key

    def items(self):
        return [(self.key, 1)]


# Each vector is refused as it is, never rounded, parsed or merged: coerced
# by int(), (1.5,) would be the monomial x and (0.5,) would leave x^3 as it is.
BAD_EXPONENTS = (
    ((1.5,), r"\(1\.5,\)"),
    ((0.5,), r"\(0\.5,\)"),
    ((1.9,), r"\(1\.9,\)"),
    (("2",), r"\('2',\)"),
    ((True,), r"\(True,\)"),
    ((-1,), r"\(-1,\)"),
    ([1], r"\[1\]"),
    ((1, 0), r"\(1, 0\)"),
    ((), r"\(\)"),
)


@pytest.mark.parametrize("exps, shown", BAD_EXPONENTS)
def test_an_exponent_vector_that_is_not_a_tuple_of_naturals_is_refused(exps, shown):
    message = f"^exponent vector {shown} is not a tuple of 1 natural ints$"
    terms = _Items(exps) if isinstance(exps, list) else {exps: 1}
    with pytest.raises(DimensionMismatch, match=message):
        MPoly(("x",), terms)
    with pytest.raises(DimensionMismatch, match=message):
        (MPoly.variable(("x",), "x") ** 3).hasse(exps)


def test_a_key_that_int_would_merge_with_another_is_refused():
    with pytest.raises(DimensionMismatch, match=r"^exponent vector \(1\.5,\) "):
        MPoly(("x",), {(1.5,): 1, (1,): 2})


def test_polynomials_are_equal_exactly_when_their_term_maps_are():
    xy = ("x", "y")
    p = MPoly(xy, {(1, 0): F(1, 2), (0, 2): -3})
    assert p == MPoly(xy, {(0, 2): F(-3), (1, 0): F(2, 4)})
    assert p != MPoly(xy, {(1, 0): F(1, 2)})
    assert p != MPoly(xy, {(1, 0): F(1, 2), (0, 2): 3})
    assert p != MPoly(xy, {(1, 0): F(1, 2), (0, 2): -3, (1, 1): 1})
    assert MPoly(xy, {(0, 0): 5}) == 5 and MPoly.zero(xy) == 0
    assert MPoly.zero(xy) != MPoly(xy, {(0, 0): 1})
    with pytest.raises(DimensionMismatch, match="mixed variable tuples"):
        p == MPoly(("y", "x"), p.terms)


# -- Groebner bases and normal forms -----------------------------------------------

XYZ = ("x", "y", "z")


def random_poly(rng, degree, terms):
    return MPoly(XYZ, {
        tuple(rng.randint(0, degree) for _ in XYZ): F(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(rng.randint(1, terms))
    })


def test_normal_form_matches_sympy_grevlex_reduction():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(XYZ)

    def to_sympy(p):
        rep = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
        return sympy.Poly.from_dict(rep or {(0, 0, 0): 0}, *gens, domain="QQ")

    for seed in range(150):
        rng = random.Random(3000 + seed)
        ideal = [random_poly(rng, 2, 3) for _ in range(rng.randint(1, 3))]
        p = random_poly(rng, 3, 5)
        want = sympy.groebner([to_sympy(g) for g in ideal], *gens, order="grevlex", domain="QQ")
        assert to_sympy(normal_form([p], ideal)[0]) == want.reduce(to_sympy(p))[1], seed
        assert {to_sympy(g) for g in groebner(ideal)} == set(want.polys), seed


def lifo_blowup_ideal():
    # Popping S-pairs last-in-first-out ran for minutes on this ideal; the
    # normal strategy (smallest lcm first) finishes at once.
    x, y, z = (MPoly.variable(XYZ, v) for v in XYZ)
    return [-x**2 * z + z**2 + z, 3 * x**2 * y**2, 3 * x * y * z**2 - 2 * y * z**2 + 2 * x**2]


def test_groebner_of_the_lifo_blowup_ideal():
    x, y, z = (MPoly.variable(XYZ, v) for v in XYZ)
    ideal = lifo_blowup_ideal()
    basis = groebner(ideal)
    assert len(basis) == 7
    assert basis[0] == z**3 + x**2 + 3 * z**2 + 2 * z
    assert all(r == 0 for r in normal_form(ideal, basis))
    assert normal_form([x**2 * y], ideal) == [-y * z**2 - y * z]


def test_groebner_edge_cases():
    x, y, z = (MPoly.variable(XYZ, v) for v in XYZ)
    assert groebner([]) == [] and groebner([MPoly.zero(XYZ)]) == []
    assert normal_form([x * y + 1], []) == [x * y + 1]
    assert groebner([2 * x, x + 3]) == [MPoly.constant(XYZ, 1)]
    assert normal_form([x * y + z], [2 * x, x + 3]) == [0]
    assert groebner([2 * x * y - 4, 3 * x * y]) == [MPoly.constant(XYZ, 1)]
    assert groebner([x**2 - y, x**2 - y]) == [x**2 - y]


def test_groebner_basis_bound(monkeypatch):
    monkeypatch.setattr(djets.mpoly, "MAX_BASIS", 5)
    with pytest.raises(BasisLimit, match="MAX_BASIS = 5"):
        groebner(lifo_blowup_ideal())


def test_lie_derivative_matches_sympy():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(XYZ)

    def to_sympy(p):
        rep = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
        return sympy.Poly.from_dict(rep or {(0, 0, 0): 0}, *gens, domain="QQ")

    for seed in range(100):
        rng = random.Random(5000 + seed)
        p = random_poly(rng, 3, 5)
        # only the variables p mentions need an image
        images = {v: random_poly(rng, 2, 3) for v in XYZ if p.mentions(v)}
        want = to_sympy(MPoly.zero(XYZ))
        for v, g in zip(XYZ, gens):
            if v in images:
                want += to_sympy(images[v]) * to_sympy(p).diff(g)
        assert to_sympy(p.lie(images)) == want, seed
