"""Pinned text of the term printers.

`str` of seeded random series and of polynomials with rational
coefficients, together with their powers, is hashed into one
SHA-256 digest.  Any change to signs, separators, coefficient forms or term
order shows up here.  To re-pin after an intended output change:

    PYTHONPATH=src python tests/test_printers.py --record
"""

import hashlib
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from djets.mpoly import MPoly
from djets.series import TSeries

PINNED = "bea9fc22520d6d2d2a8d2f1cd0fd7b86aae18d8798e7e0cf1f861c44b83d2818"
COUNT = 400


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


def _texts(seed=20131):
    rng = random.Random(seed)
    makers = (
        _series,
        lambda r: _mpoly(r, _scalar),
    )
    out = []
    for _ in range(40):
        for make in makers:
            value = make(rng)
            out.append(str(value))
            out += [str(value**n) for n in range(4)]
    return out


def _pin():
    texts = _texts()
    return len(texts), hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()


def test_printed_values_are_pinned():
    assert _pin() == (COUNT, PINNED)


def test_printed_values_cover_every_form():
    joined = "\n".join(_texts())
    for fragment in (" - ", " + ", "O(t^", "t^", "*x", "(", "-5/3", "0 + O("):
        assert fragment in joined, fragment


def _record():
    count, digest = _pin()
    path = Path(__file__)
    text = path.read_text(encoding="utf-8")
    text = re.sub(r'^PINNED = ".*"$', f'PINNED = "{digest}"', text, count=1, flags=re.M)
    text = re.sub(r"^COUNT = \d+$", f"COUNT = {count}", text, count=1, flags=re.M)
    path.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
