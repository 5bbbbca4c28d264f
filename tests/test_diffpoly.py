import random

import pytest

from djets.diffpoly import (
    SubstitutionSystem,
    derivation,
    log_derivative_constant_identity,
    log_derivative_normal_form,
    reduce,
)
from djets import acceptance, diffpoly
from djets.dvariety import DVariety, sharp_integrate
from djets.errors import MissingRule, NonTriangular
from djets.mpoly import MPoly
from djets.tangent import counterexample_variety

VARS = ("x", "y", "u", "v")
IDX = {name: i for i, name in enumerate(VARS)}


def mvar(name):
    return MPoly.variable(VARS, name)


def w_system():
    """Presentation of the restricted bundle: y -> x, x' -> 0,
    u' -> 2x(u - v), v' -> x(u - v)."""
    x, u, v = mvar("x"), mvar("u"), mvar("v")
    return SubstitutionSystem(
        VARS,
        derivative_rules={
            IDX["x"]: MPoly.zero(VARS),
            IDX["u"]: 2 * x * u - 2 * x * v,
            IDX["v"]: x * u - x * v,
        },
        algebraic_rules=((IDX["y"], x),),
    )


def random_poly(rng, variables, nterms=3):
    out = MPoly.zero(variables)
    for _ in range(nterms):
        term = MPoly.constant(variables, rng.randint(-2, 2))
        for _ in range(rng.randint(0, 3)):
            term = term * MPoly.variable(variables, variables[rng.randrange(len(variables))])
        out = out + term
    return out


# -- the derivation ----------------------------------------------------------------

def rotation():
    """x' -> y, y' -> -x, u' -> u, v' -> 0."""
    x, y = mvar("x"), mvar("y")
    rules = {IDX["x"]: y, IDX["y"]: -x, IDX["u"]: mvar("u"), IDX["v"]: MPoly.zero(VARS)}
    return SubstitutionSystem(VARS, derivative_rules=rules)


def test_derivation_of_square():
    x, y = mvar("x"), mvar("y")
    assert derivation(x**2, rotation()) == 2 * x * y


def test_derivation_is_linear():
    assert derivation(2 * mvar("u") - 3 * mvar("v") + 5, rotation()) == 2 * mvar("u")


def test_derivation_of_product():
    x, y = mvar("x"), mvar("y")
    assert derivation(x * y, rotation()) == y**2 - x**2
    assert derivation(x**2 + y**2, rotation()).is_zero()


def test_derivation_of_constant_is_zero():
    assert derivation(MPoly.constant(VARS, 7), SubstitutionSystem(VARS)).is_zero()


def test_derivation_reduces_its_rules():
    # u' -> y*u with y -> x: the result is in normal form, free of y
    x, y, u = mvar("x"), mvar("y"), mvar("u")
    system = SubstitutionSystem(
        VARS, derivative_rules={IDX["u"]: y * u}, algebraic_rules=((IDX["y"], x),)
    )
    assert derivation(u**2, system) == 2 * x * u**2

def test_derivation_is_leibniz_randomized():
    rng = random.Random(17)
    for _ in range(100):
        rules = {j: random_poly(rng, VARS) for j in range(len(VARS))}
        algebraic = ()
        if rng.random() < 0.5:
            g = random_poly(rng, ("x", "u")).embed(VARS)
            algebraic = ((IDX["y"], g),)
        system = SubstitutionSystem(VARS, rules, algebraic)
        p, q = random_poly(rng, VARS), random_poly(rng, VARS)
        assert derivation(p * q, system) == (
            derivation(p, system) * reduce(q, system)
            + reduce(p, system) * derivation(q, system)
        )


def test_missing_rule_detected():
    system = SubstitutionSystem(VARS, derivative_rules={IDX["x"]: MPoly.zero(VARS)})
    with pytest.raises(MissingRule, match="no rewrite for u'"):
        derivation(mvar("u"), system)
    # a variable the algebraic rules eliminate needs no rule of its own
    system = SubstitutionSystem(
        VARS,
        derivative_rules={IDX["x"]: MPoly.zero(VARS)},
        algebraic_rules=((IDX["y"], mvar("x")),),
    )
    assert derivation(mvar("y"), system).is_zero()


# -- reduction -------------------------------------------------------------------

def test_reduce_difference_derivative():
    x, u, v = mvar("x"), mvar("u"), mvar("v")
    assert derivation(u - v, w_system()) == x * u - x * v


def test_reduce_kills_base_derivative():
    assert derivation(mvar("x"), w_system()).is_zero()


def test_reduce_without_rules_is_identity():
    p = mvar("x") * mvar("y") + 3
    assert reduce(p, SubstitutionSystem(VARS)) == p


def test_reduce_eliminates_identified_variable_at_all_orders():
    x, y = mvar("x"), mvar("y")
    system = w_system()
    assert reduce(y**2 + y, system) == x**2 + x
    # y'' -> x'' -> 0 and y -> x
    assert reduce(derivation(derivation(y, system), system) + y, system) == x


def test_reduce_applies_rules_in_order():
    x, y, u = mvar("x"), mvar("y"), mvar("u")
    # rule for x mentions y, which the later rule eliminates
    system = SubstitutionSystem(VARS, algebraic_rules=((IDX["x"], y + 1), (IDX["y"], u**2)))
    assert reduce(x * y, system) == u**4 + u**2


def test_reduce_is_idempotent():
    rng = random.Random(19)
    system = w_system()
    for _ in range(30):
        once = reduce(random_poly(rng, VARS), system)
        assert reduce(once, system) == once
        assert not once.mentions("y")


def test_non_triangular_rules_rejected():
    x, y = mvar("x"), mvar("y")
    with pytest.raises(NonTriangular):
        SubstitutionSystem(VARS, algebraic_rules=((IDX["y"], x), (IDX["x"], y)))
    with pytest.raises(NonTriangular):
        SubstitutionSystem(VARS, algebraic_rules=((IDX["x"], x + 1),))
    with pytest.raises(NonTriangular):
        SubstitutionSystem(VARS, algebraic_rules=((IDX["x"], y), (IDX["x"], y)))


# -- the kernel identity -----------------------------------------------------------

def test_kernel_identity_on_restricted_bundle():
    assert log_derivative_constant_identity(w_system(), mvar("u") - mvar("v"))


def test_kernel_identity_fails_for_perturbed_system():
    x, u, v = mvar("x"), mvar("u"), mvar("v")
    perturbed = SubstitutionSystem(
        VARS,
        derivative_rules={
            IDX["x"]: MPoly.zero(VARS),
            IDX["u"]: 2 * x * u - 2 * x * v,
            IDX["v"]: x * u,
        },
        algebraic_rules=((IDX["y"], x),),
    )
    assert not log_derivative_constant_identity(perturbed, mvar("u") - mvar("v"))
    # delta w = x u - 2 x v, delta(delta w) = -2 x^2 v on this system.
    assert log_derivative_normal_form(perturbed, mvar("u") - mvar("v")) == (
        -(x**2) * u**2 + 2 * x**2 * u * v - 2 * x**2 * v**2
    )


def test_kernel_identity_trivial_when_everything_is_constant():
    frozen = SubstitutionSystem(
        VARS,
        derivative_rules={
            IDX["x"]: MPoly.zero(VARS),
            IDX["u"]: MPoly.zero(VARS),
            IDX["v"]: MPoly.zero(VARS),
        },
    )
    assert log_derivative_constant_identity(frozen, mvar("u") - mvar("v"))


def test_kernel_identity_check_derives_twice(monkeypatch):
    calls = []
    original = diffpoly.derivation

    def counted(p, system):
        calls.append(p)
        return original(p, system)

    monkeypatch.setattr(diffpoly, "derivation", counted)
    result = acceptance.check_kernel_identity()
    assert result.passed and result.detail == "normal form = 0"
    assert len(calls) == 2


# -- consistency with the series model -----------------------------------------------

def _parabola():
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    variety = DVariety(xy, (y - x**2,), (MPoly.constant(xy, 1), 2 * x))
    system = SubstitutionSystem(
        xy, derivative_rules=dict(enumerate(variety.section)), algebraic_rules=((1, x**2),)
    )
    return variety, system, (1, 1)


def _plane_x():
    variety = counterexample_variety()
    return variety, SubstitutionSystem(variety.vars, dict(enumerate(variety.section))), (1, 2)


def test_reduction_commutes_with_series_evaluation():
    # at a sharp point t -> x(t), d/dt p(x(t)) = (derivation p)(x(t)): on the
    # parabola through its algebraic rule y -> x^2, on X through its rules alone
    rng = random.Random(23)
    for variety, system, start in (_parabola(), _plane_x()):
        point = sharp_integrate(variety, start, 12)
        for _ in range(100):
            p = random_poly(rng, variety.vars)
            if p.is_constant():
                continue
            assert derivation(p, system).eval(point.coords) == p.eval(point.coords).derive()
