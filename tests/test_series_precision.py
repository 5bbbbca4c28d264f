"""Precision bookkeeping of TSeries, checked as properties.

Sums, products and quotients keep the smaller guaranteed order and their
coefficients through any order m depend only on the inputs through m;
`derive` loses exactly one order; `at_precision` only lowers; `==` means
agreement through the shared order.  Hypothesis runs derandomized, so
every run draws the same examples.
"""

import operator

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from djets.errors import InsufficientPrecision
from djets.series import TSeries

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9)


@st.composite
def series(draw, max_prec=8):
    prec = draw(st.integers(0, max_prec))
    return TSeries(draw(st.lists(rationals, min_size=prec + 1, max_size=prec + 1)), prec)


checked = settings(derandomize=True, max_examples=50, deadline=None)


@checked
@given(series(), series(), st.sampled_from([operator.add, operator.mul, operator.truediv]),
       st.integers(0, 8))
def test_arithmetic_keeps_the_minimum_precision(a, b, op, m):
    if op is operator.truediv:
        assume(b.coeffs[0] != 0)
    result = op(a, b)
    n = min(a.prec, b.prec)
    assert result.prec == n
    m = min(m, n)
    assert result.at_precision(m).coeffs == op(a.at_precision(m), b.at_precision(m)).coeffs


@checked
@given(series())
def test_derive_loses_exactly_one_order(a):
    if a.prec == 0:
        with pytest.raises(InsufficientPrecision):
            a.derive()
        return
    d = a.derive()
    assert d.prec == a.prec - 1
    assert list(d.coeffs) == [(k + 1) * a.coeffs[k + 1] for k in range(a.prec)]


@checked
@given(series(), st.integers(0, 10))
def test_at_precision_only_lowers(a, m):
    if m > a.prec:
        with pytest.raises(InsufficientPrecision):
            a.at_precision(m)
        return
    low = a.at_precision(m)
    assert low.prec == m and low.coeffs == a.coeffs[: m + 1]


@checked
@given(series(), series(), st.integers(0, 8), rationals.filter(bool))
def test_equality_is_agreement_through_the_shared_order(a, b, k, shift):
    n = min(a.prec, b.prec)
    agree = a.coeffs[: n + 1] == b.coeffs[: n + 1]
    assert (a == b) == agree == (b == a)
    # changing one coefficient matters exactly when it lies within the shared order
    same = TSeries(a.coeffs[: b.prec + 1] + b.coeffs[a.prec + 1:], b.prec)
    assert same == a
    k %= same.prec + 1
    changed = TSeries(
        [c + shift if i == k else c for i, c in enumerate(same.coeffs)], same.prec
    )
    assert (changed == a) == (k > min(a.prec, same.prec))
    if a.is_constant():
        assert a == a.coeffs[0]
