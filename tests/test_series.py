import random
from fractions import Fraction as F

import pytest

from djets.errors import DomainMismatch, InsufficientPrecision, NonUnitDivisor
from djets.mpoly import MPoly
from djets.series import (
    TSeries,
    exp_series,
    as_rational,
    fundamental_matrix,
    mat_mul,
    power,
)


# -- independent oracles -----------------------------------------------------

def geometric_inverse(prec):
    # 1/(1-t) by the recursion c_k = c_{k-1}, c_0 = 1
    coeffs = [F(1)]
    for _ in range(prec):
        coeffs.append(coeffs[-1])
    return coeffs


def exp_recursion(c, prec):
    # y' = c y, y(0) = 1:  c_{k+1} = c * c_k / (k+1)
    coeffs = [F(1)]
    for k in range(prec):
        coeffs.append(F(c) * coeffs[-1] / (k + 1))
    return coeffs


def naive_fundamental(acoeffs, dim, order):
    # Phi_{k+1} = (A Phi)_k / (k+1) done with plain list convolution
    ident = [[F(int(i == j)) for j in range(dim)] for i in range(dim)]
    phis = [ident]
    for k in range(order):
        acc = [[F(0)] * dim for _ in range(dim)]
        for i in range(min(k, len(acoeffs) - 1) + 1):
            Ai, Pk = acoeffs[i], phis[k - i]
            for r in range(dim):
                for s in range(dim):
                    for c in range(dim):
                        acc[r][c] += Ai[r][s] * Pk[s][c]
        phis.append([[x / (k + 1) for x in row] for row in acc])
    return phis


# -- arithmetic ----------------------------------------------------------------

def test_difference_of_squares():
    assert TSeries([1, 1], 4) * TSeries([1, -1], 4) == TSeries([1, 0, -1], 4)


def test_geometric_series_division():
    inv = 1 / TSeries([1, -1], 4)
    assert list(inv.coeffs) == geometric_inverse(4)


def test_termwise_derivative():
    assert TSeries([1, 1, F(1, 2)], 2).derive() == TSeries([1, 1], 1)


def test_division_by_non_unit_rejected():
    with pytest.raises(NonUnitDivisor):
        TSeries([1], 3) / TSeries([0, 1], 3)


def test_division_inverts_multiplication():
    rng = random.Random(1)
    for _ in range(50):
        a = TSeries([F(rng.randint(-4, 4)) for _ in range(9)], 8)
        b = TSeries([F(rng.choice([1, 2, -1, 3]))] + [F(rng.randint(-4, 4)) for _ in range(8)], 8)
        assert (a / b) * b == a


class Counted:
    """An integer whose products are logged as squarings or other products."""

    def __init__(self, value, log):
        self.value, self.log = value, log

    def __mul__(self, other):
        self.log.append("square" if other is self else "product")
        return Counted(self.value * other.value, self.log)


@pytest.mark.parametrize("n", range(65))
def test_power_squares_only_while_bits_remain(n):
    log = []
    got = power(Counted(3, log), n, Counted(1, log))
    assert got.value == 3**n
    assert log.count("square") == max(n.bit_length() - 1, 0)
    assert log.count("product") == max(bin(n).count("1") - 1, 0)
    if n == 0:
        assert log == []


def test_power_rejects_negative_and_non_integer_exponents():
    s = TSeries([1, 2], 3)
    assert power(s, -1, TSeries.constant(1, 3)) is NotImplemented
    assert power(s, F(1, 2), TSeries.constant(1, 3)) is NotImplemented
    with pytest.raises(TypeError):
        s ** -1


@pytest.mark.parametrize("seed", range(6))
def test_series_and_polynomial_powers_equal_repeated_products(seed):
    rng = random.Random(700 + seed)
    prec = rng.randint(0, 10)
    s = TSeries([F(rng.randint(-9, 9), rng.choice([1, 2, 7, 1099511627689]))
                 for _ in range(prec + 1)], prec)
    names = ("x", "y")
    p = MPoly(names, {
        (rng.randint(0, 2), rng.randint(0, 2)): F(rng.randint(-5, 5), rng.randint(1, 4))
        for _ in range(3)
    })
    s_prod, p_prod = TSeries.constant(1, prec), MPoly.constant(names, 1)
    for n in range(12):
        got = s**n
        assert (got.nums, got.den, got.prec) == (s_prod.nums, s_prod.den, s_prod.prec)
        assert p**n == p_prod
        s_prod, p_prod = s_prod * s, p_prod * p


def test_precision_tracking():
    a = TSeries([1, 2, 3], 5)
    b = TSeries([1, 1], 3)
    assert (a + b).prec == 3
    assert (a * b).prec == 3
    assert (a / b).prec == 3
    assert a.derive().prec == 4
    with pytest.raises(InsufficientPrecision):
        TSeries([7], 0).derive()


def test_prefix_stability_under_higher_precision():
    # recompute the same expressions at higher order and compare prefixes
    rng = random.Random(2)
    for _ in range(30):
        lo, hi = 6, 12
        coeffs_a = [F(rng.randint(-3, 3)) for _ in range(hi + 1)]
        coeffs_b = [F(rng.choice([1, -1, 2]))] + [F(rng.randint(-3, 3)) for _ in range(hi)]
        for op in (lambda x, y: x + y, lambda x, y: x * y, lambda x, y: x / y):
            small = op(TSeries(coeffs_a, lo), TSeries(coeffs_b, lo))
            big = op(TSeries(coeffs_a, hi), TSeries(coeffs_b, hi))
            assert big.coeffs[: small.prec + 1] == small.coeffs


def test_equality_is_agreement_to_shared_precision():
    assert TSeries([1, 2, 3], 2) == TSeries([1, 2], 1)
    assert TSeries([1, 2], 5) != TSeries([1, 3], 5)
    assert TSeries.constant(F(5, 2), 4) == F(5, 2)


def test_leibniz_rule_randomized():
    rng = random.Random(3)
    for _ in range(100):
        a = TSeries([F(rng.randint(-3, 3)) for _ in range(9)], 8)
        b = TSeries([F(rng.randint(-3, 3)) for _ in range(9)], 8)
        assert (a * b).derive() == a.derive() * b + a * b.derive()


def test_constants_form_a_field():
    rng = random.Random(4)
    for _ in range(50):
        a = TSeries.constant(F(rng.randint(-5, 5)), 8)
        b = TSeries.constant(F(rng.choice([1, 2, -3, 5])), 8)
        assert (a * b).is_constant()
        assert (a / b).is_constant()
        assert (a + b).is_constant()


def test_rendering():
    assert str(exp_series(1, 3)) == "1 + t + 1/2*t^2 + 1/6*t^3 + O(t^4)"
    assert str(TSeries.zero(2)) == "0 + O(t^3)"
    assert str(TSeries([0, -1], 3)) == "-t + O(t^4)"


# -- exponentials ----------------------------------------------------------------

def test_exp_series_against_recursion():
    assert list(exp_series(1, 3).coeffs) == exp_recursion(1, 3)
    assert exp_series(0, 7) == 1
    assert list(exp_series(2, 2).coeffs) == exp_recursion(2, 2) == [F(1), F(2), F(2)]


def test_exp_series_solves_its_ode():
    for c in (F(1), F(-2), F(1, 3)):
        y = exp_series(c, 16)
        assert y.derive() == c * y
        assert y.constant_term == 1


# -- fundamental matrices ----------------------------------------------------------

def test_fundamental_matrix_zero_and_scalar():
    phi = fundamental_matrix([[TSeries.zero(5)]], 5)
    assert phi[0][0] == 1
    phi = fundamental_matrix([[TSeries.constant(1, 3)]], 3)
    assert list(phi[0][0].coeffs) == exp_recursion(1, 3)


def test_fundamental_matrix_nilpotent():
    A = [[TSeries.zero(3), TSeries.constant(1, 3)],
         [TSeries.zero(3), TSeries.zero(3)]]
    phi = fundamental_matrix(A, 3)
    assert phi[0][0] == 1 and phi[1][1] == 1 and phi[1][0] == 0
    assert phi[0][1] == TSeries([0, 1], 3)


def test_fundamental_matrix_against_naive_recursion():
    rng = random.Random(5)
    for _ in range(20):
        dim = rng.randint(1, 3)
        deg = 2
        acoeffs = [
            [[F(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
            for _ in range(deg + 1)
        ]
        A = [
            [TSeries([acoeffs[k][r][c] for k in range(deg + 1)], 10)
             for c in range(dim)]
            for r in range(dim)
        ]
        phi = fundamental_matrix(A, 10)
        phis = naive_fundamental(acoeffs, dim, 10)
        for r in range(dim):
            for c in range(dim):
                assert list(phi[r][c].coeffs) == [phis[k][r][c] for k in range(11)]


def test_fundamental_matrix_satisfies_ode_and_initial_value():
    rng = random.Random(6)
    for _ in range(20):
        dim = rng.randint(1, 4)
        A = [
            [TSeries([F(rng.randint(-2, 2)) for _ in range(3)], 12)
             for _ in range(dim)]
            for _ in range(dim)
        ]
        phi = fundamental_matrix(A, 12)
        for r in range(dim):
            for c in range(dim):
                assert phi[r][c].constant_term == int(r == c)
                lhs = phi[r][c].derive()
                rhs = sum((A[r][k] * phi[k][c] for k in range(dim)),
                          TSeries.zero(12))
                assert lhs == rhs


def test_fundamental_matrix_precision_guard():
    with pytest.raises(InsufficientPrecision):
        fundamental_matrix([[TSeries.constant(1, 3)]], 10)


# -- the rationality guard -------------------------------------------------------

def test_the_guard_lifts_ints_and_passes_fractions():
    half = F(1, 2)
    assert as_rational(half, "x") is half
    for value in (3, True, -7):
        lifted = as_rational(value, "x")
        assert type(lifted) is F and lifted == value


@pytest.mark.parametrize("build, what, kind", [
    # Fraction(0.1) would store 3602879701896397/36028797018963968.
    (lambda: TSeries([0.1], 2), "a series coefficient", "float"),
    # Fraction("1/3") would parse the string.
    (lambda: TSeries.constant("1/3"), "the value of a constant series", "str"),
    (lambda: TSeries([1, "2"], 2), "a series coefficient", "str"),
    (lambda: exp_series(0.5, 4), "the rate of exp_series", "float"),
    (lambda: mat_mul([[0.5]], [[TSeries([1, 1], 2)]]), "a matrix entry", "float"),
    (lambda: as_rational(TSeries([1], 1), "a value"), "a value", "TSeries"),
])
def test_an_exact_type_refuses_what_is_not_rational(build, what, kind):
    with pytest.raises(DomainMismatch, match=f"^{what} is a {kind}, not a rational$"):
        build()


# -- products by a rational -------------------------------------------------------

def test_a_rational_factor_is_never_lifted_to_a_series(monkeypatch):
    x = TSeries([F(1, 3), 0, F(-2, 5), 7], 3)
    cases = [
        (lambda: x * F(2, 3), [F(2, 9), 0, F(-4, 15), F(14, 3)]),
        (lambda: 3 * x, [F(1), 0, F(-6, 5), F(21)]),
        (lambda: x * True, [F(1, 3), 0, F(-2, 5), F(7)]),
        (lambda: x * 0, [F(0)] * 4),
        (lambda: F(0) * x, [F(0)] * 4),
    ]
    lifted = []
    for name in ("constant", "lift"):
        real = getattr(TSeries, name)
        monkeypatch.setattr(TSeries, name, classmethod(
            lambda cls, *args, real=real, name=name: lifted.append(name) or real(*args)))
    for product, want in cases:
        got = product()
        assert got.prec == 3 and list(got.coeffs) == want
    assert lifted == []


def test_reflected_products_and_sums_are_aliases():
    # bench/tracer.py wraps `__mul__` and `__add__` at every binding: a
    # reflected operator written as its own method would escape the trace
    assert vars(TSeries)["__rmul__"] is vars(TSeries)["__mul__"]
    assert vars(TSeries)["__radd__"] is vars(TSeries)["__add__"]
