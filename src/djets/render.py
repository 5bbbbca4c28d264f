"""Shared JSON-friendly rendering of exact values.

Rationals serialize as strings ("p" or "p/q") so no numeric channel can
round them; series serialize as their coefficient strings plus the
guaranteed order.
"""

from fractions import Fraction

from .series import TSeries


def render_scalar(value):
    if isinstance(value, TSeries):
        return {"coeffs": [str(c) for c in value.coeffs], "prec": value.prec}
    return str(Fraction(value))


def render_vector(vec):
    return [render_scalar(x) for x in vec]
