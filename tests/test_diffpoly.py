import random

import pytest

from djets.diffpoly import (
    derivation,
    log_derivative_constant_identity,
    log_derivative_normal_form,
    reduce,
)
from djets import acceptance, diffpoly
from djets.dvariety import DVariety, sharp_integrate
from djets.errors import NonTriangular
from djets.mpoly import MPoly, block_key, groebner
from djets.tangent import (
    RestrictionRule,
    counterexample_variety,
    delta_tangent,
    restrict,
)

VARS = ("x", "y", "u", "v")
ZERO = MPoly.zero(VARS)


def mvar(name):
    return MPoly.variable(VARS, name)


def variety(section, generators=(), eliminated=()):
    """A D-variety on VARS; section maps names to rules, absent ones are 0."""
    return DVariety(VARS, tuple(generators), tuple(section.get(v, ZERO) for v in VARS),
                    eliminated=tuple(eliminated))


def w_system():
    """The restricted bundle: y = x, x' = 0, u' = 2x(u - v), v' = x(u - v)."""
    x, y, u, v = (mvar(n) for n in VARS)
    return variety({"u": 2 * x * u - 2 * x * v, "v": x * u - x * v},
                   generators=(y - x,), eliminated=("y",))


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
    """x' = y, y' = -x, u' = u, v' = 0."""
    return variety({"x": mvar("y"), "y": -mvar("x"), "u": mvar("u")})


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
    assert derivation(MPoly.constant(VARS, 7), variety({})).is_zero()


def test_derivation_reduces_its_rules():
    # u' = y*u with y = x: the result is in normal form, free of y
    x, y, u = mvar("x"), mvar("y"), mvar("u")
    system = variety({"u": y * u}, generators=(y - x,), eliminated=("y",))
    assert derivation(u**2, system) == 2 * x * u**2


def test_derivation_is_leibniz_randomized():
    rng = random.Random(17)
    for _ in range(100):
        section = {v: random_poly(rng, VARS) for v in VARS}
        generators, eliminated = (), ()
        if rng.random() < 0.5:
            # y = g(x, u), with y' the derivative of g: a valid section
            g = random_poly(rng, ("x", "u")).embed(VARS)
            section["y"] = section["x"] * g.partial("x") + section["u"] * g.partial("u")
            generators, eliminated = (mvar("y") - g,), ("y",)
        system = variety(section, generators, eliminated)
        p, q = random_poly(rng, VARS), random_poly(rng, VARS)
        assert derivation(p * q, system) == (
            derivation(p, system) * reduce(q, system)
            + reduce(p, system) * derivation(q, system)
        )


# -- reduction -------------------------------------------------------------------

def test_reduce_difference_derivative():
    x, u, v = mvar("x"), mvar("u"), mvar("v")
    assert derivation(u - v, w_system()) == x * u - x * v


def test_reduce_kills_base_derivative():
    assert derivation(mvar("x"), w_system()).is_zero()


def test_reduce_without_rules_is_identity():
    p = mvar("x") * mvar("y") + 3
    assert reduce(p, variety({})) == p


def test_reduce_eliminates_identified_variable_at_all_orders():
    x, y = mvar("x"), mvar("y")
    system = w_system()
    assert reduce(y**2 + y, system) == x**2 + x
    # y'' -> x'' -> 0 and y -> x
    assert reduce(derivation(derivation(y, system), system) + y, system) == x


def test_any_rule_order_gives_the_same_normal_form():
    x, y, u = mvar("x"), mvar("y"), mvar("u")
    # x = y + 1 mentions y, which y = u^2 eliminates: the chain reduces fully
    rules = [x - y - 1, y - u**2]
    for generators in (rules, rules[::-1]):
        for eliminated in (("x", "y"), ("y", "x")):
            system = variety({}, generators, eliminated)
            assert reduce(x * y, system) == u**4 + u**2


def test_reduce_is_idempotent():
    rng = random.Random(19)
    system = w_system()
    for _ in range(30):
        once = reduce(random_poly(rng, VARS), system)
        assert reduce(once, system) == once
        assert not once.mentions("y")


def test_reduce_matches_sympy_under_the_block_order():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import MonomialOrder, grevlex

    class Block(MonomialOrder):
        """grevlex on the first `size` generators, ties broken by grevlex on the rest."""

        alias = "block"
        is_global = True

        def __init__(self, size):
            self.size = size

        def __call__(self, monomial):
            return grevlex(monomial[:self.size]), grevlex(monomial[self.size:])

        def __eq__(self, other):
            return isinstance(other, Block) and other.size == self.size

        def __hash__(self):
            return hash((Block, self.size))

    symbols = dict(zip(VARS, sympy.symbols(VARS)))

    def to_sympy(p):
        return sum(
            (sympy.Rational(c.numerator, c.denominator)
             * sympy.Mul(*(symbols[v] ** k for v, k in zip(VARS, e)))
             for e, c in p.terms.items()),
            sympy.Integer(0),
        )

    rng = random.Random(29)
    for seed in range(12):
        eliminated = tuple(v for v in VARS if rng.random() < 0.5)
        generators = [random_poly(rng, VARS, nterms=2) for _ in range(rng.randint(1, 2))]
        generators = [g for g in generators if not g.is_zero()]
        gens = [symbols[v] for v in eliminated] + [symbols[v] for v in VARS if v not in eliminated]
        order = Block(len(eliminated))
        want = sympy.groebner([to_sympy(g) for g in generators], *gens, order=order, domain="QQ")
        key = block_key(VARS.index(v) for v in eliminated)
        assert {to_sympy(g) for g in groebner(generators, key)} == set(want.exprs), seed
        system = variety({}, generators, eliminated)
        for _ in range(5):
            p = random_poly(rng, VARS, nterms=4)
            _, rest = sympy.reduced(to_sympy(p), list(want.exprs), *gens, order=order, domain="QQ")
            assert sympy.expand(to_sympy(reduce(p, system)) - rest) == 0, seed


def test_non_triangular_rules_rejected():
    # identifications whose basis has an element not leading with a variable
    xy = ("x", "y")
    x, y = MPoly.variable(xy, "x"), MPoly.variable(xy, "y")
    bundle = delta_tangent(counterexample_variety())
    with pytest.raises(NonTriangular, match=r"x = x\^2 \+ y"):
        restrict(bundle, [RestrictionRule("identify", "x", x**2 + y)])
    with pytest.raises(NonTriangular, match=r"x = y \+ 1 gives the basis element 1"):
        restrict(bundle, [RestrictionRule("identify", "x", y),
                          RestrictionRule("identify", "x", y + 1)])
    # a cyclic pair is only one identification written twice
    W = restrict(bundle, [RestrictionRule("identify", "y", x),
                          RestrictionRule("identify", "x", y)])
    assert list(W.substitutions) == ["y"] and W.substitutions["y"] == x


# -- the kernel identity -----------------------------------------------------------

def test_kernel_identity_on_restricted_bundle():
    assert log_derivative_constant_identity(w_system(), mvar("u") - mvar("v"))


def test_kernel_identity_fails_for_perturbed_system():
    x, y, u, v = (mvar(n) for n in VARS)
    perturbed = variety({"u": 2 * x * u - 2 * x * v, "v": x * u},
                        generators=(y - x,), eliminated=("y",))
    assert not log_derivative_constant_identity(perturbed, mvar("u") - mvar("v"))
    # delta w = x u - 2 x v, delta(delta w) = -2 x^2 v on this system.
    assert log_derivative_normal_form(perturbed, mvar("u") - mvar("v")) == (
        -(x**2) * u**2 + 2 * x**2 * u * v - 2 * x**2 * v**2
    )


def test_kernel_identity_trivial_when_everything_is_constant():
    assert log_derivative_constant_identity(variety({}), mvar("u") - mvar("v"))


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
    return DVariety(xy, (y - x**2,), (MPoly.constant(xy, 1), 2 * x), eliminated=("y",)), (1, 1)


def test_reduction_commutes_with_series_evaluation():
    # at a sharp point t -> x(t), d/dt p(x(t)) = (derivation p)(x(t)): on the
    # parabola modulo y - x^2, on X through its rules alone
    rng = random.Random(23)
    for system, start in (_parabola(), (counterexample_variety(), (1, 2))):
        point = sharp_integrate(system, start, 12)
        for _ in range(100):
            p = random_poly(rng, system.vars)
            if p.is_constant():
                continue
            assert derivation(p, system).eval(point.coords) == p.eval(point.coords).derive()
