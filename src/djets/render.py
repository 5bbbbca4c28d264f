"""Shared JSON-friendly rendering of exact values.

Rationals serialize as their strings ("p" or "p/q"), an `int` such as a
jet basis entry (a primitive `int` vector, leading entry positive) as its
digits, so no numeric channel can round them; series serialize as their
coefficient strings from the stored integers, plus the guaranteed order.
"""

from math import gcd

from .series import TSeries


def _ratio(n, d):
    """str(Fraction(n, d)) for an integer n and d > 0, with one gcd."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def render_scalar(value):
    if isinstance(value, TSeries):
        den = value.den
        return {"coeffs": [_ratio(x, den) for x in value.nums], "prec": value.prec}
    return str(value)


def render_vector(vec):
    return [render_scalar(x) for x in vec]
