import random
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest

import djets.mpoly
from djets.dvariety import (
    DVariety,
    SharpPoint,
    constants_variety_jets,
    delta_jet_space,
    product_dvariety,
    product_sharp_point,
    sharp_integrate,
    validate_section,
)
from djets.dsl import parse_document
from djets.dvariety import _derivation_matrix
from djets.errors import DomainMismatch, InvarianceViolation, PointNotOnVariety, UnknownName
from djets.jets import jet_equations
from djets.mpoly import MPoly, multi_indices
from djets.series import TSeries, exp_series


def line(coeff=1):
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    return DVariety(xs, (), (coeff * x,))


def parabola():
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    return DVariety(xy, (y - x**2,), (MPoly.constant(xy, 1), 2 * x))


def plane_system():
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    return DVariety(xy, (), (x**2 - y**2, x**2 - x * y), name="X")


# -- section validation ----------------------------------------------------------

def test_validate_plane_system_vacuous():
    result = validate_section(plane_system())
    assert result.ok and result.residuals == []


def test_validate_parabola_section():
    assert validate_section(parabola()).ok


def test_validate_rejects_bad_section():
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    one = MPoly.constant(xy, 1)
    bad = DVariety(xy, (y - x**2,), (one, one))
    result = validate_section(bad)
    assert not result.ok
    # the residual is its grevlex normal form: x^2 reduces to y
    assert result.residuals[0] == -2 * MPoly.variable(xy, "x") + 1
    bad = DVariety(xy, (y - x**2,), (x, one))
    assert validate_section(bad).residuals == [-2 * y + 1]


def test_validate_circle_exactly():
    # the circle ideal has no generator of the shape x_k - g(others)
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    circle = DVariety(xy, (x**2 + y**2 - 1,), (-y, x))
    result = validate_section(circle)
    assert result.ok and result.residuals == [MPoly.zero(xy)]
    swapped = DVariety(xy, circle.generators, (y, x))
    assert validate_section(swapped).residuals == [4 * x * y]


def test_validate_runs_buchberger_once(monkeypatch):
    # one basis serves every residual: the twisted cubic with a redundant generator
    xyz = ("x", "y", "z")
    x, y, z = (MPoly.variable(xyz, v) for v in xyz)
    cubic = DVariety(xyz, (y - x**2, z - x**3, x * z - y**2),
                     (MPoly.constant(xyz, 1), 2 * x, 3 * x**2))
    calls = []
    buchberger = djets.mpoly._buchberger
    monkeypatch.setattr(djets.mpoly, "_buchberger",
                        lambda gens, key: calls.append(gens) or buchberger(gens, key))
    result = validate_section(cubic)
    assert result.ok and len(result.residuals) == 3
    assert len(calls) == 1


# -- sharp integration -------------------------------------------------------------

def test_sharp_integrate_exponential():
    point = sharp_integrate(line(), (1,), 8)
    assert list(point.coords[0].coeffs) == [F(1, factorial(k)) for k in range(9)]


def test_sharp_integrate_geometric():
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    growth = DVariety(xs, (), (x * x,))
    point = sharp_integrate(growth, (1,), 8)
    assert list(point.coords[0].coeffs) == [F(1)] * 9


def test_sharp_integrate_equilibrium():
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    shifted = DVariety(xs, (), (x - 2,))
    point = sharp_integrate(shifted, (2,), 6)
    assert point.coords[0].is_constant()


def test_a_repeated_variable_is_refused():
    # `MPoly.lie` and `embed` would conflate the two x
    xx = ("x", "x")
    x = MPoly.variable(xx, "x")
    with pytest.raises(UnknownName, match="variable 'x' is declared twice"):
        DVariety(xx, (), (x, x))


def test_sharp_integrate_refuses_an_initial_point_that_is_not_rational():
    for initial, i, kind in (((1.0, 1), 0, "float"), ((1, "1"), 1, "str")):
        with pytest.raises(DomainMismatch, match=(
            f"^coordinate {i} of the initial point is a {kind}, not a rational$"
        )):
            sharp_integrate(parabola(), initial, 6)


def test_sharp_integrate_requires_point_on_variety():
    with pytest.raises(PointNotOnVariety):
        sharp_integrate(parabola(), (1, 2), 6)


def test_sharp_point_stays_on_variety():
    point = sharp_integrate(parabola(), (2, 4), 16)
    x, y = point.coords
    assert y == x * x
    assert x.derive() == 1
    assert y.derive() == 2 * x


# -- the induced derivation ---------------------------------------------------------

def test_induced_derivation_identity_flow():
    point = sharp_integrate(line(), (1,), 8)
    matrix = _derivation_matrix(point, 1)
    assert matrix[0][0] == 1


def test_induced_derivation_constant_section():
    xs = ("x",)
    const = DVariety(xs, (), (MPoly.constant(xs, 5),))
    point = sharp_integrate(const, (0,), 8)
    matrix = _derivation_matrix(point, 1)
    assert matrix[0][0].is_zero()


def test_induced_derivation_plane_system_is_jacobian():
    X = plane_system()
    point = sharp_integrate(X, (2, 1), 10)
    a1, a2 = point.coords
    matrix = _derivation_matrix(point, 1)
    assert matrix[0][0] == 2 * a1 and matrix[0][1] == -2 * a2
    assert matrix[1][0] == 2 * a1 - a2 and matrix[1][1] == -a1


def test_induced_derivation_satisfies_leibniz_on_monomials():
    # d((x-a)^(alpha+beta)) must equal the Leibniz combination, truncated
    rng = random.Random(29)
    X = plane_system()
    point = sharp_integrate(X, (2, 1), 10)
    for order_m in (2, 3):
        B = _derivation_matrix(point, order_m)
        lam = multi_indices(X.nvars, order_m)
        pos = {a: i for i, a in enumerate(lam)}

        def d_of(alpha):
            return {
                beta: B[pos[alpha]][pos[beta]]
                for beta in lam
                if not B[pos[alpha]][pos[beta]].is_zero()
            }

        for _ in range(20):
            alpha = lam[rng.randrange(len(lam))]
            beta = lam[rng.randrange(len(lam))]
            total = tuple(a + b for a, b in zip(alpha, beta))
            lhs = d_of(total) if sum(total) <= order_m else {}
            rhs = {}
            for gamma, value in d_of(alpha).items():
                key = tuple(g + b for g, b in zip(gamma, beta))
                if sum(key) <= order_m:
                    rhs[key] = rhs.get(key, TSeries.zero(value.prec)) + value
            for gamma, value in d_of(beta).items():
                key = tuple(g + a for g, a in zip(gamma, alpha))
                if sum(key) <= order_m:
                    rhs[key] = rhs.get(key, TSeries.zero(value.prec)) + value
            keys = set(lhs) | set(rhs)
            for key in keys:
                left = lhs.get(key, TSeries.zero(point.prec))
                right = rhs.get(key, TSeries.zero(point.prec))
                assert left == right


def test_the_derivation_matrix_never_evaluates_a_section_component(monkeypatch):
    # B reads only the Taylor tails of the section: the value s_j(x(t)), a
    # Hasse derivative of order 0, is dropped, so it is never computed
    cases = [(plane_system(), (2, 1)), (parabola(), (1, 1)), (line(3), (2,))]
    points = [(v, sharp_integrate(v, start, 8)) for v, start in cases]
    evaluated = []
    original = MPoly.eval

    def spy(self, point):
        evaluated.append(self)
        return original(self, point)

    monkeypatch.setattr(MPoly, "eval", spy)
    for variety, point in points:
        for order_m in (1, 2, 3):
            evaluated.clear()
            _derivation_matrix(point, order_m)
            assert evaluated
            assert not [p for p in evaluated if any(p == s for s in variety.section)]


# -- differential jet spaces -----------------------------------------------------------

def test_delta_jets_of_zero_section_are_constants():
    xs = ("x",)
    flat = DVariety(xs, (), (MPoly.zero(xs),))
    point = sharp_integrate(flat, (4,), 8)
    space = delta_jet_space(point, 1)
    assert space.dim_k == space.dim_c == 1
    assert all(e.is_constant() for v in space.horizontal for e in v)


def test_delta_jets_of_exponential_flow():
    point = sharp_integrate(line(), (1,), 10)
    space = delta_jet_space(point, 1)
    assert space.dim_c == 1
    (v,) = space.horizontal
    assert v[0].derive() == v[0]


def test_delta_jets_of_plane_system_satisfy_displayed_equations():
    X = plane_system()
    point = sharp_integrate(X, (2, 1), 12)
    x, y = point.coords
    space = delta_jet_space(point, 1)
    assert space.dim_k == space.dim_c == 2
    for u, v in space.horizontal:
        assert u.derive() == 2 * (x * u - y * v)
        assert v.derive() == 2 * x * u - y * u - x * v


def test_delta_jets_dimension_law_across_examples():
    cases = [
        (line(), (1,), 1),
        (line(), (1,), 2),
        (parabola(), (1, 1), 1),
        (parabola(), (1, 1), 2),
        (plane_system(), (2, 1), 1),
        (plane_system(), (2, 1), 2),
    ]
    for variety, start, order_m in cases:
        point = sharp_integrate(variety, start, 14)
        space = delta_jet_space(point, order_m)
        assert space.dim_c == space.dim_k
        # horizontal vectors satisfy the jet equations at the sharp point and
        # the dual condition
        rows = jet_equations(variety.generators, point.coords, order_m)
        assert space.equations == rows
        B = _derivation_matrix(point, order_m)
        lam = multi_indices(variety.nvars, order_m)
        for v in space.horizontal:
            for row in rows:
                acc = None
                for a, b in zip(row, v):
                    term = a * b
                    acc = term if acc is None else acc + term
                assert acc.is_zero()
            for i, alpha in enumerate(lam):
                rhs = None
                for j in range(len(lam)):
                    term = B[i][j] * v[j]
                    rhs = term if rhs is None else rhs + term
                assert v[i].derive() == rhs


def test_parabola_horizontal_jets_at_point_precision_zero_and_one():
    # pinned as (numerators, denominator, precision) per entry; the flow reads
    # the point one order below its precision, and at N = 0 only x(0)
    want = {
        0: [[((1,), 2, 0), ((1,), 1, 0), ((0,), 1, 0), ((0,), 1, 0), ((0,), 1, 0)],
            [((-1,), 8, 0), ((0,), 1, 0), ((1,), 4, 0), ((1,), 2, 0), ((1,), 1, 0)]],
        1: [[((1, 0), 2, 1), ((1, 1), 1, 1), ((0, 0), 1, 1), ((0, 0), 1, 1),
             ((0, 0), 1, 1)],
            [((-1, 0), 8, 1), ((0, -1), 4, 1), ((1, 0), 4, 1), ((1, 1), 2, 1),
             ((1, 2), 1, 1)]],
    }
    for prec, vectors in want.items():
        space = delta_jet_space(sharp_integrate(parabola(), (1, 1), prec), 2)
        assert (space.dim_k, space.dim_c, space.precision) == (2, 2, prec)
        assert [[(e.nums, e.den, e.prec) for e in v] for v in space.horizontal] == vectors


def test_invariance_violation_for_fake_sharp_point():
    # a point on the parabola that does not integrate the section
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    variety = DVariety(xy, (y - x**2,), (x, 2 * x**2))
    good = sharp_integrate(variety, (1, 1), 10)
    assert delta_jet_space(good, 1).dim_c == 1
    drift = TSeries([1, 1], 10)  # 1 + t, not a solution of x' = x
    fake = SharpPoint(variety, (drift, drift * drift))
    # The unshifted row (-2x, 1) is an exact rational in its second entry;
    # the residual keeps the precision of the point and of the horizontal
    # vector.
    with pytest.raises(InvarianceViolation) as raised:
        delta_jet_space(fake, 1)
    assert str(raised.value) == (
        "horizontal vector 0 fails jet equation 0: residual nonzero at order 2, "
        "guaranteed to order 10"
    )


# -- jets of constant points ------------------------------------------------------------

def test_constant_points_parabola():
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    space = constants_variety_jets((y - x**2,), (1, 1), 1, order=10)
    assert space.jet.basis == [[F(1), F(2)]]
    assert space.equations == space.jet.system.rows == [[F(-2), F(1)]]
    assert all(e.is_constant() for v in space.horizontal for e in v)


def test_constant_points_affine_line_order_two():
    space = constants_variety_jets((), (0,), 2, order=10)
    assert space.dim_k == space.dim_c == 2


def test_constant_points_diagonal():
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    for c in (F(1), F(-2), F(3, 7)):
        space = constants_variety_jets((x - y,), (c, c), 1, order=8)
        assert space.jet.basis == [[F(1), F(1)]]


def test_constant_points_reject_a_series_coordinate():
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    with pytest.raises(DomainMismatch, match="coordinate 1 of a constant point"):
        constants_variety_jets((x - y,), (1, exp_series(1, 6)), 1)


# -- flow derivatives (dual numbers) -------------------------------------------------


class Dual:
    """First-order jets in a formal parameter eps, over series."""

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def _lift(self, other):
        if isinstance(other, Dual):
            return other
        if isinstance(other, (int, F, TSeries)):
            zero = self.re - self.re
            return Dual(self.re._lift(other) if isinstance(other, (int, F)) else other,
                        zero)
        return None

    def __add__(self, other):
        o = self._lift(other)
        return Dual(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._lift(other)
        return Dual(self.re * o.re, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Dual(TSeries.constant(1, self.re.prec), TSeries.zero(self.re.prec))
        for _ in range(n):
            out = out * self
        return out


def test_flow_derivative_satisfies_linearized_system():
    # integrate from a0 + eps*b to first order; the eps part must be horizontal
    for variety, start, tangent in [
        (plane_system(), (2, 1), (1, 0)),
        (plane_system(), (2, 1), (0, 1)),
        (parabola(), (1, 1), (1, 2)),  # tangent to the curve at (1, 1)
    ]:
        order = 10
        main = [[F(c)] for c in start]
        eps = [[F(b)] for b in tangent]
        for k in range(order):
            point = [
                Dual(TSeries(m, k), TSeries(e, k)) for m, e in zip(main, eps)
            ]
            for j, s in enumerate(variety.section):
                value = s.eval(point)
                if not isinstance(value, Dual):
                    value = Dual(TSeries.constant(value, k), TSeries.zero(k))
                main[j].append(value.re.coeffs[k] / (k + 1))
                eps[j].append(value.im.coeffs[k] / (k + 1))
        flow = [TSeries(m, order) for m in main]
        deriv = [TSeries(e, order) for e in eps]
        sharp = sharp_integrate(variety, start, order)
        assert all(a == b for a, b in zip(flow, sharp.coords))
        # eps part solves v' = J_s(a(t)) v
        for i, s in enumerate(variety.section):
            rhs = None
            for j, v in enumerate(variety.vars):
                term = s.partial(v).eval(flow) * deriv[j]
                rhs = term if rhs is None else rhs + term
            assert deriv[i].derive() == rhs
        # and satisfies the order-1 jet constraints when the variety is proper
        if variety.generators:
            for row in jet_equations(variety.generators, sharp.coords, 1):
                acc = None
                for a, b in zip(row, deriv):
                    term = a * b
                    acc = term if acc is None else acc + term
                assert acc.is_zero()


# -- horizontal jets against the flow on jets of order m ---------------------------------
#
# A horizontal jet is the push-forward of its value v0 at a = x(0) by the flow
# Phi_t of x' = s(x), so its entry on (x - x(t))^beta is
#     sum_alpha v0[alpha] * [eps^alpha] (Phi_t(a + eps) - Phi_t(a))^beta.
# The flow from a + eps is solved here in Q[t, eps] truncated past t^N and past
# eps-degree m, with Fraction dicts, as the Dual class does at order 1;
# neither B nor a fundamental matrix is formed.  v0 is read off the t^0 values
# of each horizontal vector, so what is checked is the motion from v0.

DJV = Path(__file__).resolve().parent.parent / "djv"


def truncated_product(f, g, n, m):
    """Product of maps (k, alpha) -> coefficient of t^k eps^alpha, dropping
    t-degrees past n and eps-degrees past m."""
    out = {}
    for (k1, a1), c1 in f.items():
        for (k2, a2), c2 in g.items():
            a = tuple(x + y for x, y in zip(a1, a2))
            if k1 + k2 <= n and sum(a) <= m:
                key = (k1 + k2, a)
                out[key] = out.get(key, 0) + c1 * c2
    return out


def flow_from_perturbed_start(section, start, n, m):
    """Phi_t(start + eps) through t^n and eps-degree m, one map per coordinate,
    one order of t per step: x_(k+1) = [t^k] s(x) / (k + 1)."""
    nvars = len(start)
    zero = (0,) * nvars
    flow = []
    for j, a in enumerate(start):
        unit = tuple(int(i == j) for i in range(nvars))
        flow.append({(0, zero): F(a), (0, unit): F(1)})
    for k in range(n):
        steps = []
        for s in section:
            value = {}
            for e, c in s.terms.items():
                term = {(0, zero): c}
                for i, power in enumerate(e):
                    for _ in range(power):
                        term = truncated_product(term, flow[i], k, m)
                for key, v in term.items():
                    value[key] = value.get(key, 0) + v
            steps.append({(k + 1, a): v / (k + 1) for (kk, a), v in value.items() if kk == k})
        for x, step in zip(flow, steps):
            x.update(step)
    return flow


def assert_horizontal_jets_follow_the_flow(variety, start, order_m, n):
    space = delta_jet_space(sharp_integrate(variety, start, n), order_m)
    assert space.dim_c == space.dim_k > 0
    lam = multi_indices(variety.nvars, order_m)
    flow = flow_from_perturbed_start(variety.section, start, n, order_m)
    moved = [{key: c for key, c in x.items() if any(key[1])} for x in flow]
    # (Phi_t(a + eps) - Phi_t(a))^beta, each from a power of one degree less
    powers = {(0,) * variety.nvars: {(0, (0,) * variety.nvars): F(1)}}
    for beta in lam:
        j = next(i for i, b in enumerate(beta) if b)
        lower = beta[:j] + (beta[j] - 1,) + beta[j + 1:]
        powers[beta] = truncated_product(powers[lower], moved[j], n, order_m)
    for v in space.horizontal:
        v0 = {alpha: e.coeffs[0] for alpha, e in zip(lam, v)}
        for beta, entry in zip(lam, v):
            want = [sum(v0[alpha] * powers[beta].get((k, alpha), 0) for alpha in lam)
                    for k in range(n + 1)]
            assert entry.prec == n
            assert list(entry.coeffs) == want, (order_m, beta)


@pytest.mark.parametrize("order_m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("variety, start", [
    (plane_system(), (2, 1)),
    (parabola(), (1, 1)),
], ids=["plane", "parabola"])
def test_horizontal_jets_are_the_flow_of_their_initial_jet(variety, start, order_m):
    assert_horizontal_jets_follow_the_flow(variety, start, order_m, 6)


@pytest.mark.parametrize("name", ["c11", "c00", "t111", "thalf", "p23"])
def test_horizontal_jets_at_corpus_points_are_the_flow_of_their_initial_jet(name):
    # jet bases whose vectors are not unit vectors, and a singular point
    doc = parse_document((DJV / "corpus.djv").read_text(encoding="utf-8"))
    variety = doc.variety(doc.point(name).variety)
    for order_m in (2, 3):
        assert_horizontal_jets_follow_the_flow(variety, doc.rational_point(name), order_m, 6)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name, curve", [
    ("parabola", lambda s: (s, s**2)),
    ("cusp", lambda s: (s**2, s**3)),
    ("cubic", lambda s: (s, s**2, s**3)),
], ids=["parabola", "cusp", "cubic"])
def test_horizontal_jets_at_random_curve_points_are_the_flow_of_their_initial_jet(
        name, curve, seed):
    rng = random.Random(f"{name}-{seed}")
    s = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    doc = parse_document((DJV / "corpus.djv").read_text(encoding="utf-8"))
    for order_m in (2, 3):
        assert_horizontal_jets_follow_the_flow(doc.variety(name), curve(s), order_m, 6)


# -- products ---------------------------------------------------------------------------

def test_product_variety_renames_and_integrates():
    prod = product_dvariety(line(), line(2))
    assert prod.vars == ("x", "x_")
    left = sharp_integrate(line(), (1,), 8)
    right = sharp_integrate(line(2), (1,), 8)
    point = product_sharp_point(left, right)
    space = delta_jet_space(point, 1)
    assert space.dim_k == space.dim_c == 2


def test_a_product_sharp_point_lies_on_the_product_of_its_factors_varieties():
    lp = sharp_integrate(parabola(), (1, 1), 8)
    rp = sharp_integrate(plane_system(), (2, 1), 6)
    point = product_sharp_point(lp, rp)
    prod = product_dvariety(lp.variety, rp.variety)
    assert point.variety.vars == prod.vars == ("x", "y", "x_", "y_")
    assert point.variety.generators == prod.generators
    assert point.variety.section == prod.section
    assert point.variety.name == prod.name
    assert point.coords == lp.coords + rp.coords
    assert point.prec == 6
