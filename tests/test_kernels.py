"""Differential tests of the series kernels against naive references.

`sharp_integrate` is compared with the re-evaluate-every-step Taylor loop,
and `TSeries.__mul__` with a plain Fraction double loop.  All randomness is
seeded, so every run checks the same cases.
"""

import random
from fractions import Fraction as F

import pytest

from djets.dvariety import DVariety, sharp_integrate
from djets.errors import InsufficientPrecision
from djets.mpoly import MPoly, multi_indices_with_zero
from djets.series import TSeries

NAMES = ("x", "y", "z")


# -- references ----------------------------------------------------------------

def reference_integrate(section, initial, order):
    """Coefficient k+1 of x_j is coefficient k of s_j(x truncated at k), / (k+1)."""
    coeffs = [[F(c)] for c in initial]
    for k in range(order):
        truncated = [TSeries(cs, k) for cs in coeffs]
        for j, s in enumerate(section):
            value = s.eval(truncated)
            if not isinstance(value, TSeries):
                value = TSeries.constant(value, k)
            coeffs[j].append(value.coeffs[k] / (k + 1))
    return [TSeries(cs, order) for cs in coeffs]


def naive_mul(a, b):
    n = min(a.prec, b.prec)
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return out, n


# -- sharp_integrate -------------------------------------------------------------

def random_rational(rng):
    return F(rng.randint(-4, 4), rng.randint(1, 3))


def random_section(rng, nvars):
    variables = NAMES[:nvars]
    monomials = multi_indices_with_zero(nvars, 3)
    section = []
    for _ in range(nvars):
        chosen = rng.sample(monomials, rng.randint(1, min(4, len(monomials))))
        section.append(MPoly(variables, {e: random_rational(rng) for e in chosen}))
    return DVariety(variables, (), tuple(section))


def assert_matches_reference(variety, initial, order):
    point = sharp_integrate(variety, initial, order)
    expected = reference_integrate(variety.section, initial, order)
    for got, want in zip(point.coords, expected):
        assert got.prec == want.prec == order
        assert got.coeffs == want.coeffs
        assert all(type(c) is F for c in got.coeffs)


@pytest.mark.parametrize("seed", range(12))
def test_sharp_integrate_matches_reference_on_random_sections(seed):
    rng = random.Random(seed)
    nvars = 1 + seed % 3
    variety = random_section(rng, nvars)
    initial = [random_rational(rng) for _ in range(nvars)]
    assert_matches_reference(variety, initial, 7)


def test_sharp_integrate_zero_section():
    xy = NAMES[:2]
    variety = DVariety(xy, (), (MPoly.zero(xy), MPoly.zero(xy)))
    assert_matches_reference(variety, (F(3, 2), -1), 9)
    point = sharp_integrate(variety, (F(3, 2), -1), 9)
    assert all(c.is_constant() for c in point.coords)


def test_sharp_integrate_equilibrium():
    # s = (x - 2)*y, y*(y + 1): the point (2, -1) does not move.
    xy = NAMES[:2]
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    variety = DVariety(xy, (), ((x - 2) * y, y * (y + 1)))
    assert_matches_reference(variety, (2, -1), 10)
    point = sharp_integrate(variety, (2, -1), 10)
    assert point.coords == (TSeries.constant(2, 10), TSeries.constant(-1, 10))


def test_sharp_integrate_constant_terms_only():
    xyz = NAMES
    section = tuple(MPoly.constant(xyz, c) for c in (1, F(-1, 2), 0))
    assert_matches_reference(DVariety(xyz, (), section), (0, 1, 2), 6)


def test_sharp_integrate_series_coefficient():
    # x' = c1(t) x + c0(t) + x^2 with series coefficients c0, c1.
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    order = 9
    c1 = TSeries([1, 1, F(1, 2), 0, F(-1, 3)], order)
    c0 = TSeries([0, 2, 0, F(5, 7)], order)
    variety = DVariety(xs, (), (MPoly(xs, {(1,): c1, (0,): c0}) + x**2,))
    assert_matches_reference(variety, (F(1, 3),), order)


def test_sharp_integrate_series_coefficient_needs_precision():
    xs = ("x",)
    section = MPoly(xs, {(1,): TSeries([1, 1], 3)})
    variety = DVariety(xs, (), (section,))
    assert_matches_reference(variety, (1,), 4)
    with pytest.raises(InsufficientPrecision):
        sharp_integrate(variety, (1,), 5)


def test_sharp_integrate_on_a_proper_subvariety():
    xy = NAMES[:2]
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    parabola = DVariety(xy, (y - x**2,), (MPoly.constant(xy, 1), 2 * x))
    assert_matches_reference(parabola, (F(1, 2), F(1, 4)), 12)


# -- TSeries.__mul__ ---------------------------------------------------------------

def is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_from(start, count):
    out = []
    n = start
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return out


def assert_product_matches(a, b):
    want, n = naive_mul(a, b)
    for got in (a * b, b * a):
        assert got.prec == n
        assert list(got.coeffs) == want
        assert all(type(c) is F for c in got.coeffs)


@pytest.mark.parametrize("seed", range(10))
def test_mul_matches_naive_with_mismatched_precisions(seed):
    rng = random.Random(100 + seed)
    pa, pb = rng.randint(0, 14), rng.randint(0, 14)
    a = TSeries([random_rational(rng) for _ in range(pa + 1)], pa)
    b = TSeries([random_rational(rng) for _ in range(pb + 1)], pb)
    assert_product_matches(a, b)


@pytest.mark.parametrize("seed", range(6))
def test_mul_matches_naive_on_zero_heavy_series(seed):
    rng = random.Random(200 + seed)
    prec = 16

    def sparse():
        return TSeries(
            [random_rational(rng) if rng.random() < 0.2 else 0 for _ in range(prec + 1)],
            prec,
        )

    assert_product_matches(sparse(), sparse())
    assert_product_matches(sparse(), TSeries.zero(prec))
    assert_product_matches(TSeries([0] * 9 + [F(2, 3)], prec), sparse())


def test_mul_matches_naive_with_large_prime_denominators():
    rng = random.Random(7)
    primes = primes_from(10**12, 24)
    a = TSeries([F(rng.randint(-10**6, 10**6), p) for p in primes[:12]], 11)
    b = TSeries([F(rng.randint(1, 10**6), p) for p in primes[12:]], 11)
    assert_product_matches(a, b)
    assert_product_matches(a, a)


def test_mul_by_scalars():
    a = TSeries([F(1, 2), 0, F(-3, 5)], 2)
    assert (a * 4).coeffs == (F(2), F(0), F(-12, 5))
    assert (F(5, 3) * a).coeffs == (F(5, 6), F(0), F(-1))
    assert (a * 0).is_zero()
