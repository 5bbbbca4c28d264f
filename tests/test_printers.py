"""Pinned text of the term printers.

`str` of seeded random series, polynomials with rational and with series
coefficients, and differential polynomials, together with their powers, is
hashed into one SHA-256 digest.  The digest was recorded before the three
printers shared one term-joining helper; any change to signs, separators,
coefficient forms or term order shows up here.
"""

import hashlib
import random
from fractions import Fraction

from djets.diffpoly import DiffPoly
from djets.mpoly import MPoly
from djets.series import TSeries

PINNED = "f8ef5b956ec323ef45f4f3a5d6112eb7db7b41da6a2f22c5130ec7e693a3840d"
COUNT = 800


def _scalar(rng):
    return rng.choice(
        [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4), 12]
    )


def _series(rng):
    prec = rng.randint(0, 6)
    return TSeries([_scalar(rng) for _ in range(prec + 1)], prec)


def _exponents(rng, n):
    return tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(n))


def _mpoly(rng, coeff):
    xyz = ("x", "y", "z")
    return MPoly(xyz, {_exponents(rng, 3): coeff(rng) for _ in range(rng.randint(0, 4))})


def _diffpoly(rng):
    xy = ("x", "y")
    terms = {}
    for _ in range(rng.randint(0, 4)):
        key = tuple(
            ((rng.randint(0, 1), rng.randint(0, 5)), rng.randint(1, 3))
            for _ in range(rng.randint(0, 2))
        )
        terms[key] = _scalar(rng)
    return DiffPoly(xy, terms)


def _texts(seed=20131):
    rng = random.Random(seed)
    makers = (
        _series,
        lambda r: _mpoly(r, _scalar),
        lambda r: _mpoly(r, _series),
        _diffpoly,
    )
    out = []
    for _ in range(40):
        for make in makers:
            value = make(rng)
            out.append(str(value))
            out += [str(value**n) for n in range(4)]
    return out


def test_printed_values_are_pinned():
    texts = _texts()
    digest = hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()
    assert (len(texts), digest) == (COUNT, PINNED)


def test_printed_values_cover_every_form():
    joined = "\n".join(_texts())
    for fragment in (" - ", " + ", "O(t^", "t^", "*x", "(", "x'", "^(", "-5/3", "0 + O("):
        assert fragment in joined, fragment
