import random
import sys
from fractions import Fraction as F

import pytest

import djets.dvariety
import djets.series
import djets.tangent
from djets.acceptance import corpus
from djets.delta_modules import horizontal_sections, is_horizontal, rank_at_zero
from djets.diffpoly import log_derivative_constant_identity
from djets.dvariety import (
    DeltaJetSpace,
    DVariety,
    delta_jet_space,
    sharp_integrate,
    validate_section,
)
from djets.errors import (
    InsufficientPrecision,
    NonTriangular,
    NonUnitDivisor,
    PointNotOnVariety,
    ZeroInput,
)
from djets.mpoly import MPoly
from djets.series import TSeries, exp_series
from djets.tangent import (
    WITNESS_RATIOS,
    LinearDVariety,
    RestrictionRule,
    TangentEquivalenceReport,
    counterexample_report,
    counterexample_variety,
    degree_identity_check,
    delta_tangent,
    diagonal_restriction,
    fiber_linearity_check,
    in_log_constant_group,
    log_constant,
    log_derivative,
    m1_equivalence,
    restrict,
)


def line(coeff):
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    return DVariety(xs, (), (coeff * x,))


# -- tangent bundles ---------------------------------------------------------------

def test_delta_tangent_of_plane_system():
    T = delta_tangent(counterexample_variety(), fiber_names=("u", "v"))
    allv = T.all_vars
    x, y = MPoly.variable(allv, "x"), MPoly.variable(allv, "y")
    u, v = MPoly.variable(allv, "u"), MPoly.variable(allv, "v")
    eqs = T.fiber_equations()
    assert eqs[0] == 2 * x * u - 2 * y * v
    assert eqs[1] == (2 * x - y) * u - x * v


def test_delta_tangent_of_exponential_line():
    T = delta_tangent(line(1))
    eqs = T.fiber_equations()
    allv = T.all_vars
    assert eqs[0] == MPoly.variable(allv, "u_x")


def test_delta_tangent_of_constant_section():
    xs = ("x",)
    T = delta_tangent(DVariety(xs, (), (MPoly.constant(xs, 7),)))
    assert T.fiber_equations()[0].is_zero()


def test_delta_tangent_carries_ideal_constraints():
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    parabola = DVariety(xy, (y - x**2,), (MPoly.constant(xy, 1), 2 * x))
    T = delta_tangent(parabola)
    assert len(T.fiber_constraints) == 1
    row = T.fiber_constraints[0]
    assert row[0] == -2 * x and row[1] == MPoly.constant(xy, 1)


# -- restriction -------------------------------------------------------------------

def test_restriction_reproduces_diagonal_presentation():
    T = delta_tangent(counterexample_variety(), fiber_names=("u", "v"))
    W = restrict(T, diagonal_restriction())
    assert W.presentation_text() == [
        "x = y",
        "delta x = 0",
        "delta u = 2*x*u - 2*x*v",
        "delta v = x*u - x*v",
    ]


def test_empty_restriction_is_identity():
    T = delta_tangent(counterexample_variety(), fiber_names=("u", "v"))
    W = restrict(T, [])
    assert W.presentation_text()[2:] == [
        f"delta u = {T.fiber_equations()[0]}",
        f"delta v = {T.fiber_equations()[1]}",
    ]


def test_restrict_twice_equals_composed_rules():
    xy = ("x", "y")
    T = delta_tangent(counterexample_variety(), fiber_names=("u", "v"))
    first = [RestrictionRule("identify", "x", MPoly.variable(xy, "y"))]
    second = [RestrictionRule("derivative", "x", MPoly.zero(xy))]
    W_stepwise = restrict(restrict(T, first), second)
    W_composed = restrict(T, first + second)
    assert W_stepwise.presentation_text() == W_composed.presentation_text()


def chain_bundle():
    """The plane system on (x, y, z) restricted by the chain x = z, z = y."""
    xyz = ("x", "y", "z")
    x, y, z = (MPoly.variable(xyz, v) for v in xyz)
    plane = DVariety(xyz, (), (x**2 - y**2, x**2 - x * y, z))
    return restrict(delta_tangent(plane), [RestrictionRule("identify", "x", z),
                                           RestrictionRule("identify", "z", y)])


def test_chained_identifications_reduce_fully():
    W = chain_bundle()
    y = MPoly.variable(("x", "y", "z"), "y")
    assert W.substitutions == {"x": y, "z": y}
    assert W.presentation_text() == [
        "x = z",
        "z = y",
        "delta y = 0",
        "delta u_x = 2*y*u_x - 2*y*u_y",
        "delta u_y = y*u_x - y*u_y",
        "delta u_z = u_z",
    ]


def triangular_bundle():
    """Section (y, w, x*w) on (x, y, w) restricted by y = w^2, x = y + 1."""
    xyw = ("x", "y", "w")
    x, y, w = (MPoly.variable(xyw, v) for v in xyw)
    base = DVariety(xyw, (), (y, w, x * w))
    return restrict(delta_tangent(base), [RestrictionRule("identify", "y", w**2),
                                          RestrictionRule("identify", "x", y + 1)])


def test_restricted_dvariety_passes_section_validation():
    for W in (restricted_bundle(), chain_bundle(), triangular_bundle()):
        V = W.dvariety()
        assert V.vars == W.all_vars and V.eliminated == tuple(W.substitutions)
        assert len(V.generators) == len(W.substitutions)
        assert validate_section(V).ok
    # an eliminated variable moves as its replacement: y = w^2, x = w^2 + 1
    V = triangular_bundle().dvariety()
    w = MPoly.variable(V.vars, "w")
    assert V.section[:3] == (2 * w**4 + 2 * w**2, 2 * w**4 + 2 * w**2, w**3 + w)


def test_restricted_dvariety_keeps_the_base_ideal():
    # the parabola y = x^2 with section (x, 2x^2), restricted by no rules
    xy = ("x", "y")
    x, y = (MPoly.variable(xy, v) for v in xy)
    parabola = DVariety(xy, (y - x**2,), (x, 2 * x**2))
    V = restrict(delta_tangent(parabola), []).dvariety()
    assert V.generators == ((y - x**2).embed(V.vars),)
    assert validate_section(V).ok
    # y'/y = 2 on the locus, on the bundle as on the parabola itself
    assert log_derivative_constant_identity(parabola, y)
    assert log_derivative_constant_identity(V, y.embed(V.vars))


def test_restricted_dvariety_reduces_the_base_ideal():
    xy = ("x", "y")
    x, y = (MPoly.variable(xy, v) for v in xy)
    circle = DVariety(xy, (x**2 + y**2 - 1,), (-y, x))
    W = restrict(delta_tangent(circle), [RestrictionRule("identify", "y", x)])
    assert W.dvariety().generators == tuple(
        g.embed(W.all_vars) for g in (y - x, 2 * x**2 - 1)
    )
    # a base generator in the ideal of the identifications reduces to 0
    parabola = DVariety(xy, (y - x**2,), (MPoly.constant(xy, 1), 2 * x))
    W = restrict(delta_tangent(parabola), [RestrictionRule("identify", "y", x**2)])
    assert W.dvariety().generators == ((y - x**2).embed(W.all_vars),)


def test_kernel_identity_runs_on_the_chain_bundle():
    W = chain_bundle()
    ux, uy = (MPoly.variable(W.all_vars, u) for u in ("u_x", "u_y"))
    assert log_derivative_constant_identity(W.dvariety(), ux - uy)
    assert not log_derivative_constant_identity(W.dvariety(), ux)


def test_restrict_rejects_an_override_on_an_eliminated_variable():
    xy = ("x", "y")
    rules = [
        RestrictionRule("identify", "x", MPoly.variable(xy, "y")),
        RestrictionRule("derivative", "y", MPoly.constant(xy, 1)),
    ]
    T = delta_tangent(counterexample_variety(), fiber_names=("u", "v"))
    with pytest.raises(NonTriangular) as info:
        restrict(T, rules)
    assert str(info.value) == (
        "derivative override delta y = 1 is on y, which the identification "
        "x = y eliminates"
    )


# -- log derivative and the group -----------------------------------------------------

def test_log_derivative_of_exponential_is_its_rate():
    for c in (F(1), F(-2), F(5, 3)):
        assert log_derivative(exp_series(c, 14)) == c


def test_log_derivative_of_one_is_zero():
    assert log_derivative(TSeries.constant(1, 10)).is_zero()


def test_log_derivative_needs_unit():
    with pytest.raises(NonUnitDivisor):
        log_derivative(TSeries([0, 1], 8))


def test_log_derivative_homomorphism_randomized():
    rng = random.Random(41)
    for _ in range(100):
        a = TSeries([F(rng.choice([1, -1, 2]))] + [F(rng.randint(-3, 3)) for _ in range(10)], 10)
        b = TSeries([F(rng.choice([1, -1, 3]))] + [F(rng.randint(-3, 3)) for _ in range(10)], 10)
        assert log_derivative(a * b) == log_derivative(a) + log_derivative(b)


def test_group_membership():
    assert in_log_constant_group(exp_series(3, 12))
    assert in_log_constant_group(TSeries.constant(5, 12))
    assert not in_log_constant_group(TSeries([1, 1], 12))


def test_group_closure_and_kernel():
    rng = random.Random(42)
    for _ in range(100):
        a = TSeries.constant(F(rng.choice([1, 2, -1, F(1, 2)])), 12) * exp_series(
            rng.randint(-3, 3), 12
        )
        b = TSeries.constant(F(rng.choice([1, -2, 3])), 12) * exp_series(
            rng.randint(-3, 3), 12
        )
        assert in_log_constant_group(a) and in_log_constant_group(b)
        assert in_log_constant_group(a * b)
        assert in_log_constant_group(1 / a)
        if log_derivative(a).is_zero():
            assert a.is_constant()


def division_oracle(a):
    """log_constant through the series division: the constant term of
    delta(a)/a when its derivative vanishes, else None."""
    log = log_derivative(a)
    return log.constant_term if log.derive().is_zero() else None


def exponential_units():
    """Seeded members of the group: scaled exponentials, their products and
    inverses, at orders 2..40."""
    rng = random.Random(43)
    units = []
    for prec in (2, 3, 7, 16, 40):
        for _ in range(4):
            a = F(rng.choice([1, -2, 3, F(1, 2), F(-5, 7)])) * exp_series(
                F(rng.randint(-4, 4), rng.randint(1, 5)), prec)
            b = F(rng.choice([1, 2, F(-3, 4)])) * exp_series(rng.randint(-3, 3), prec)
            units += [a, a * b, 1 / a]
    return units


def random_units():
    """One seeded unit with small random coefficients at each order 2..40."""
    rng = random.Random(44)
    return [TSeries([F(rng.choice([1, -1, 2, F(3, 2)]))]
                    + [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(prec)],
                    prec)
            for prec in range(2, 41)]


def bumped(a, k):
    """a with 1/den, one step of its numerators, added at order k."""
    return a + TSeries([0] * k + [F(1, a.den)], a.prec)


def test_log_constant_matches_the_division_oracle():
    for unit in exponential_units() + random_units():
        for a in (unit, bumped(unit, 1), bumped(unit, unit.prec)):
            c = log_constant(a)
            assert c == division_oracle(a)
            assert in_log_constant_group(a) == (c is not None)
            if c is not None:
                assert type(c) is F and log_derivative(a) == c


def test_log_constant_sees_a_change_at_the_top_order():
    for a in exponential_units():
        assert log_constant(a) is not None
        assert log_constant(bumped(a, a.prec)) is None


@pytest.mark.parametrize("a, error, message", [
    (TSeries([1], 0), InsufficientPrecision, "cannot differentiate a precision-0 series"),
    (TSeries([0], 0), InsufficientPrecision, "cannot differentiate a precision-0 series"),
    (TSeries([0, 1], 1), NonUnitDivisor, "divisor has zero constant term"),
    (TSeries([0, 1, 2], 2), NonUnitDivisor, "divisor has zero constant term"),
    (TSeries([2, 1], 1), InsufficientPrecision, "cannot differentiate a precision-0 series"),
])
def test_log_constant_raises_as_the_division_oracle(a, error, message):
    # order 0 first, then a non-unit, then order 1
    for check in (log_constant, in_log_constant_group, division_oracle):
        with pytest.raises(error) as caught:
            check(a)
        assert str(caught.value) == message


# -- the counterexample chain ----------------------------------------------------------

def test_counterexample_chain_passes():
    report = counterexample_report(precision=24)
    assert report.kernel_identity
    assert report.ok
    assert report.tangent_equations == [
        "delta u = 2*x*u - 2*y*v",
        "delta v = 2*x*u - x*v - y*u",
    ]
    assert report.restricted_equations == [
        "x = y",
        "delta x = 0",
        "delta u = 2*x*u - 2*x*v",
        "delta v = x*u - x*v",
    ]


def test_counterexample_witness_detail():
    # the unit-rate witness: delta(2g) = 2*1*(2g - g) and delta(g) = 1*(2g - g)
    report = counterexample_report(precision=16)
    (witness,) = [w for w in report.witnesses if w.ratio == 1]
    assert witness.ok
    g = exp_series(1, 16)
    assert (2 * g).derive() == 2 * 1 * (2 * g - g)
    assert g.derive() == 1 * (2 * g - g)
    assert witness.image_ratio_matches


def test_counterexample_witness_zero_rate():
    report = counterexample_report(precision=12)
    (witness,) = [w for w in report.witnesses if w.ratio == 0]
    assert witness.ok  # the constant point (0, 0, 2, 1)


def test_counterexample_report_makes_no_series_division(monkeypatch):
    divisions, presentations, texts = [], [], []
    truediv = TSeries.__truediv__
    presentation = LinearDVariety.presentation
    equation_text = djets.tangent._equation_text
    monkeypatch.setattr(TSeries, "__truediv__",
                        lambda a, b: divisions.append(b) or truediv(a, b))
    monkeypatch.setattr(LinearDVariety, "presentation",
                        lambda self: presentations.append(self) or presentation(self))
    monkeypatch.setattr(djets.tangent, "_equation_text",
                        lambda *eq: texts.append(eq) or equation_text(*eq))
    report = counterexample_report(precision=96)
    assert report.ok and len(report.witnesses) == len(WITNESS_RATIOS) == 7
    assert divisions == []
    assert len(presentations) == 1
    # each equation is rendered once, not once more per witness
    assert len(texts) == len(report.tangent_equations) + len(report.restricted_equations)


def test_counterexample_witnesses_follow_the_ratios():
    report = counterexample_report(precision=12)
    assert [w.ratio for w in report.witnesses] == list(WITNESS_RATIOS)
    assert all(type(w.ratio) is F for w in report.witnesses)


# -- the degree step --------------------------------------------------------------------

XYT = ("x", "y", "t")


def xyt(terms):
    """The polynomial sum of c * x^ex * y^ey * t^et over {(ex, ey, et): c}."""
    return MPoly(XYT, terms)


def test_degree_step_linear_example():
    rep = degree_identity_check(xyt({(0, 1, 0): 1}), xyt({(0, 0, 0): 1}), 12)   # y, 1
    assert rep.deg_y_rhs == 0 and rep.deg_y_lhs == 2 and rep.ok


def test_degree_step_constant_example():
    one = xyt({(0, 0, 0): 1})
    rep = degree_identity_check(one, one, 12)
    assert rep.deg_y_rhs == 0 and rep.deg_y_lhs == 1 and rep.ok


def test_degree_step_zero_rejected():
    with pytest.raises(ZeroInput):
        degree_identity_check(MPoly.zero(XYT), xyt({(0, 0, 0): 1}), 12)
    with pytest.raises(InsufficientPrecision):
        degree_identity_check(xyt({(0, 0, 0): 1}), xyt({(0, 0, 0): 1}), 0)


def random_xyt(rng, ydeg, lead_constants, tdeg=2, skip=0.4):
    """Random coefficients of x^ex y^ey t^et for ex < 2, ey <= ydeg, et <= tdeg;
    the x^0 y^ydeg coefficient has its t^0 term drawn from lead_constants."""
    terms = {}
    for ey in range(ydeg + 1):
        for ex in range(2):
            lead = ey == ydeg and ex == 0
            if rng.random() < skip and not lead:
                continue
            coeffs = [rng.randint(-2, 2) for _ in range(tdeg + 1)]
            if lead:
                coeffs[0] = rng.choice(lead_constants)
            terms.update(((ex, ey, et), c) for et, c in enumerate(coeffs))
    return terms


def test_degree_step_randomized():
    rng = random.Random(43)
    count = 0
    while count < 100:
        P = xyt(random_xyt(rng, rng.randint(0, 3), [1, -1, 2]))
        Q = xyt(random_xyt(rng, rng.randint(0, 3), [1, -1, 2]))
        rep = degree_identity_check(P, Q, 12)
        if not rep.leading_unit:
            continue
        assert rep.deg_y_rhs <= rep.deg_y_p + rep.deg_y_q
        assert rep.deg_y_lhs == rep.deg_y_p + rep.deg_y_q + 1
        count += 1


def test_degree_step_leads_without_a_constant_term_are_not_units():
    P = xyt({(0, 1, 1): 1, (0, 0, 0): 1})    # t*y + 1: its lead t is no unit
    Q = xyt({(1, 2, 2): 3, (0, 0, 0): 1})    # 3*x*t^2*y^2 + 1
    rep = degree_identity_check(P, Q, 4)
    assert (rep.deg_y_p, rep.deg_y_q, rep.leading_unit, rep.ok) == (1, 2, False, False)
    assert rep.deg_y_lhs == 4      # 3*x*t^3*y^4 survives the cut past t^4


def test_degree_step_cuts_terms_past_the_precision_on_entry():
    y, one = xyt({(0, 1, 0): 1}), xyt({(0, 0, 0): 1})
    past = xyt({(0, 3, 5): 1, (1, 2, 9): 7})      # t^5*y^3 + 7*x*t^9*y^2
    assert series_poly(past.terms, 4) == {(0, 3): TSeries.zero(4), (1, 2): TSeries.zero(4)}
    assert degree_identity_check(y + past, one, 4) == degree_identity_check(y, one, 4)
    assert degree_identity_check(y + past, one, 5).deg_y_p == 3
    with pytest.raises(ZeroInput):
        degree_identity_check(past, one, 4)


# An oracle over series coefficients: {(ex, ey): TSeries of precision N}, with
# delta applied coefficientwise by `derive`; no MPoly involved.

def series_poly(terms, prec):
    """{(ex, ey, et): c} as {(ex, ey): sum of c * t^et, to precision prec}."""
    rows = {}
    for (ex, ey, et), c in terms.items():
        rows.setdefault((ex, ey), {})[et] = c
    return {k: TSeries([row.get(et, 0) for et in range(max(row) + 1)], prec)
            for k, row in rows.items()}


def series_mul(a, b):
    out = {}
    for (ax, ay), c in a.items():
        for (bx, by), d in b.items():
            k = (ax + bx, ay + by)
            out[k] = out[k] + c * d if k in out else c * d
    return out


def series_sub(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] - c if k in out else -c
    return out


def series_deg_y(a):
    return max((ey for (_ex, ey), c in a.items() if not c.is_zero()), default=0)


def series_lead_y(a):
    d = series_deg_y(a)
    return {(ex, 0): c for (ex, ey), c in a.items() if ey == d}


def report_fields(rep):
    return (rep.deg_y_p, rep.deg_y_q, rep.deg_y_rhs, rep.deg_y_lhs, rep.leading_unit)


def series_degree_report(P, Q):
    """(deg_y P, deg_y Q, deg_y rhs, deg_y lhs, leading_unit) over series."""
    Pd = {k: c.derive() for k, c in P.items()}
    Qd = {k: c.derive() for k, c in Q.items()}
    rhs = series_sub(series_mul(Pd, Q), series_mul(Qd, P))
    lhs = {(ex, ey + 1): c for (ex, ey), c in series_mul(P, Q).items()}
    lead = series_mul(series_lead_y(P), series_lead_y(Q))
    return (series_deg_y(P), series_deg_y(Q), series_deg_y(rhs), series_deg_y(lhs),
            any(c.is_unit() for c in lead.values()))


def test_degree_step_matches_the_series_oracle():
    rng = random.Random(44)
    compared = units = 0
    while compared < 300:
        prec = rng.randint(1, 4)
        tp, tq = (random_xyt(rng, rng.randint(0, 3), [0, 1, -2], tdeg=5) for _ in "PQ")
        P, Q = series_poly(tp, prec), series_poly(tq, prec)
        if all(c.is_zero() for c in P.values()) or all(c.is_zero() for c in Q.values()):
            continue
        rep = degree_identity_check(xyt(tp), xyt(tq), prec)
        assert report_fields(rep) == series_degree_report(P, Q)
        compared += 1
        units += rep.leading_unit
    assert 0 < units < compared


def test_degree_step_cuts_the_derivative_side_one_order_lower():
    # (dP/dt) Q - (dQ/dt) P = t^2*y: gone at precision 2, kept at 3.
    P, Q = xyt({(0, 1, 2): 1}), xyt({(0, 0, 1): 1})      # t^2*y, t
    for prec, deg_y_rhs in ((2, 0), (3, 1)):
        rep = degree_identity_check(P, Q, prec)
        assert rep.deg_y_rhs == deg_y_rhs
        assert report_fields(rep) == series_degree_report(
            series_poly(P.terms, prec), series_poly(Q.terms, prec))


# -- fiber linearity -----------------------------------------------------------------

def restricted_bundle():
    T = delta_tangent(counterexample_variety(), fiber_names=("u", "v"))
    return restrict(T, diagonal_restriction())


def test_fiber_linearity_at_diagonal_points():
    W = restricted_bundle()
    reports = fiber_linearity_check(W, [(1, 1), (F(-2), F(-2)), (F(1, 3), F(1, 3))],
                                    order=12)
    assert all(r.ok for r in reports)


def test_fiber_witness_family_is_additive():
    # explicit check: (2g, g) + (2h, h) satisfies the fiber equations over (1, 1)
    g = exp_series(1, 12)
    h = exp_series(1, 12) * 3
    s = [2 * g + 2 * h, g + h]
    assert s[0].derive() == 2 * 1 * (s[0] - s[1])
    assert s[1].derive() == 1 * (s[0] - s[1])


def test_fiber_linearity_rejects_off_base_samples():
    W = restricted_bundle()
    with pytest.raises(PointNotOnVariety):
        fiber_linearity_check(W, [(1, 2)], order=8)


@pytest.mark.parametrize("restricted, sample, message", [
    (True, (1, F(1, 2)), "sample (1, 1/2) violates identification x = y"),
    (False, (1, 2), "sample (1, 2) is not constant for delta x = x^2 - y^2"),
])
def test_an_off_base_sample_prints_as_a_point(restricted, sample, message):
    bundle = restricted_bundle() if restricted else delta_tangent(counterexample_variety())
    with pytest.raises(PointNotOnVariety) as excinfo:
        fiber_linearity_check(bundle, [sample], order=8)
    assert str(excinfo.value) == message


def test_report_json_lists_the_fields_then_ok():
    assert list(TangentEquivalenceReport(2, 2, True).to_json().items()) == [
        ("dim_jet_route", 2), ("dim_ode_route", 2), ("mutually_contained", True),
        ("ok", True),
    ]


def exact(matrix):
    """Every entry of a series matrix as (numerators, denominator, precision)."""
    return [[(tuple(e.nums), e.den, e.prec) for e in row] for row in matrix]


def parabola():
    xy = ("x", "y")
    x, y = MPoly.variable(xy, "x"), MPoly.variable(xy, "y")
    return DVariety(xy, (y - x**2,), (MPoly.constant(xy, 1), 2 * x))


def test_fiber_module_is_minus_the_evaluated_fiber_matrix():
    # the matrices m1_equivalence built by hand at a sharp point ...
    for variety, start in [(counterexample_variety(), (2, 1)), (parabola(), (1, 1))]:
        point = sharp_integrate(variety, start, 12)
        J = [[TSeries.lift(s.partial(v).eval(point.coords), point.prec)
              for v in variety.vars] for s in variety.section]
        module = delta_tangent(variety).fiber_module(point.coords, point.prec)
        assert exact(module.matrix) == exact([[-e for e in row] for row in J])
    # ... and fiber_linearity_check at a constant point of the restricted bundle
    W = restricted_bundle()
    pt = (F(1, 3), F(1, 3))
    A = [[TSeries.constant(e.eval(pt), 9) for e in row] for row in W.fiber_matrix]
    assert exact(W.fiber_module(pt, 9).matrix) == exact([[-e for e in row] for row in A])


def test_every_linear_ode_is_solved_by_horizontal_sections(monkeypatch):
    original = djets.series.fundamental_matrix
    inside = []  # per call: is horizontal_sections on the stack

    def counted(A, order, initial=None):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        inside.append("horizontal_sections" in names)
        return original(A, order, initial)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "djets" and vars(module).get("fundamental_matrix") is original:
            monkeypatch.setattr(module, "fundamental_matrix", counted)
    plane, curve = counterexample_variety(), parabola()
    plane_point = sharp_integrate(plane, (2, 1), 10)
    curve_point = sharp_integrate(curve, (1, 1), 10)
    delta_jet_space(plane, plane_point, 2)  # no generators
    delta_jet_space(curve, curve_point, 2)  # with generators, checked on the jet equations
    m1_equivalence(plane, plane_point)
    m1_equivalence(curve, curve_point)
    fiber_linearity_check(restricted_bundle(), [(1, 1)], order=8)
    assert inside == [True] * 7


# -- the order-one equivalence ---------------------------------------------------------

def test_m1_equivalence_on_plane_system_and_lines():
    X = counterexample_variety()
    for variety, start in [(X, (2, 1)), (line(1), (1,)), (line(0), (5,))]:
        point = sharp_integrate(variety, start, 16)
        rep = m1_equivalence(variety, point)
        assert rep.ok


def test_m1_equivalence_at_zero_dimensional_points():
    # the jet rows leave no constant combination of the ODE columns
    xs, xy = ("x",), ("x", "y")
    x = MPoly.variable(xs, "x")
    point_on_line = DVariety(xs, (x,), (MPoly.zero(xs),))
    plane_point = DVariety(
        xy, (MPoly.variable(xy, "x"), MPoly.variable(xy, "y")),
        (MPoly.zero(xy), MPoly.zero(xy)),
    )
    for variety, start in [(point_on_line, (0,)), (plane_point, (0, 0))]:
        rep = m1_equivalence(variety, sharp_integrate(variety, start, 16))
        assert (rep.dim_jet_route, rep.dim_ode_route, rep.ok) == (0, 0, True)


def test_m1_equivalence_sees_a_wrong_derivation_matrix_by_the_residual(monkeypatch):
    # B off by one entry: the jet route starts from the same jet basis, so
    # the t^0 ranks agree, and only the residual in the fiber module sees it
    original = djets.dvariety._derivation_matrix

    def wrong(variety, point, order_m):
        B = original(variety, point, order_m)
        B[0][1] = B[0][1] + TSeries.constant(1, B[0][1].prec)
        return B

    monkeypatch.setattr(djets.dvariety, "_derivation_matrix", wrong)
    entries = {variety.name: (variety, point) for variety, point in corpus()}
    for name in ("X", "line1*line2", "X*line1"):
        variety, point = entries[name]
        djs = delta_jet_space(variety, point, 1)
        assert rank_at_zero(djs.horizontal, djs.dim_k) == djs.dim_k
        rep = m1_equivalence(variety, point)
        assert rep.to_json() == {"dim_jet_route": djs.dim_k, "dim_ode_route": djs.dim_k,
                                 "mutually_contained": False, "ok": False}, name


def test_m1_equivalence_sees_a_jet_route_leaving_the_jet_space_by_the_rank(monkeypatch):
    # the solution through (1, 0) solves v' = J_s(x(t)) v, but its t^0
    # value is off the parabola's tangent line (1, 2)
    curve = parabola()
    point = sharp_integrate(curve, (1, 1), 16)
    module = delta_tangent(curve).fiber_module(point.coords, point.prec)
    off = horizontal_sections(module, [[1], [0]])
    assert is_horizontal(module, *off)
    jets = delta_jet_space(curve, point, 1)
    monkeypatch.setattr(djets.tangent, "delta_jet_space",
                        lambda *args: DeltaJetSpace(jets.jet, off))
    rep = m1_equivalence(curve, point)
    assert (rep.dim_jet_route, rep.dim_ode_route, rep.mutually_contained) == (1, 1, False)


def test_m1_equivalence_at_precision_0_on_the_corpus_singles():
    # no derivative to check: the t^0 values alone decide
    for variety, point in corpus()[:6]:
        start = tuple(c.constant_term for c in point.coords)
        rep = m1_equivalence(variety, sharp_integrate(variety, start, 0))
        assert rep.ok and rep.dim_jet_route == rep.dim_ode_route, variety.name
