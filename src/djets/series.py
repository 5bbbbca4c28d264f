"""Truncated formal power series in one variable t over the rationals.

A series carries an explicit guaranteed order (`prec`): the coefficients of
t^0 .. t^prec are exact and nothing is claimed beyond.  Every operation
records the guaranteed order of its result, e.g. differentiating a
precision-N series yields precision N-1, while sums, products and divisions
keep the minimum of the input precisions.  The derivation is d/dt and its
constants are exactly the degree-0 series, i.e. plain rationals.

Equality between two series means agreement through the smaller of the two
guaranteed orders; comparing against an int or Fraction lifts the scalar to
a constant series first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, InsufficientPrecision, NonUnitDivisor

#: Default guaranteed order used when none is requested explicitly.
DEFAULT_PRECISION = 24

#: Largest guaranteed order the command line accepts.
MAX_PRECISION = 1024


class TSeries:
    """A truncated power series c0 + c1*t + ... + cN*t^N + O(t^(N+1))."""

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs, prec):
        if prec < 0:
            raise InsufficientPrecision("series precision must be >= 0")
        cs = [Fraction(c) for c in list(coeffs)[: prec + 1]]
        cs.extend([Fraction(0)] * (prec + 1 - len(cs)))
        self.coeffs = tuple(cs)
        self.prec = prec

    @classmethod
    def _of(cls, coeffs, prec):
        """Wrap exactly prec+1 Fractions without converting them again."""
        out = object.__new__(cls)
        out.coeffs = tuple(coeffs)
        out.prec = prec
        return out

    @classmethod
    def constant(cls, value, prec=DEFAULT_PRECISION):
        return cls([Fraction(value)], prec)

    @classmethod
    def zero(cls, prec=DEFAULT_PRECISION):
        return cls([], prec)

    @classmethod
    def var(cls, prec=DEFAULT_PRECISION):
        """The series t."""
        return cls([0, 1], prec)

    # -- coercion -----------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, TSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TSeries.constant(other, self.prec)
        return None

    # -- queries ------------------------------------------------------------

    @property
    def constant_term(self):
        return self.coeffs[0]

    def is_unit(self):
        return self.coeffs[0] != 0

    def is_constant(self):
        return all(c == 0 for c in self.coeffs[1:])

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def order(self):
        """Index of the first nonzero coefficient, or None if zero to precision."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return None

    def at_precision(self, prec):
        """The same series with guaranteed order lowered to `prec`."""
        if prec > self.prec:
            raise InsufficientPrecision(
                f"cannot raise precision from {self.prec} to {prec}"
            )
        return TSeries(self.coeffs, prec)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = min(self.prec, o.prec)
        return TSeries._of([a + b for a, b in zip(self.coeffs, o.coeffs)], n)

    __radd__ = __add__

    def __neg__(self):
        return TSeries._of([-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = min(self.prec, o.prec)
        # Convolve numerators over common denominators; normalise each output once.
        da, xs = integer_scaled(self.coeffs[: n + 1])
        db, ys = integer_scaled(o.coeffs[: n + 1])
        nonzero_ys = [(j, b) for j, b in enumerate(ys) if b]
        out = [0] * (n + 1)
        for i, a in enumerate(xs):
            if a:
                for j, b in nonzero_ys:
                    if i + j > n:
                        break
                    out[i + j] += a * b
        den = da * db
        return TSeries._of([Fraction(c, den) for c in out], n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.coeffs[0] == 0:
            raise NonUnitDivisor("divisor has zero constant term")
        n = min(self.prec, o.prec)
        inv0 = Fraction(1) / o.coeffs[0]
        out = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(k):
                if out[j] != 0 and o.coeffs[k - j] != 0:
                    acc -= out[j] * o.coeffs[k - j]
            out.append(acc * inv0)
        return TSeries._of(out, n)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = TSeries.constant(1, self.prec)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def derive(self):
        """Termwise d/dt; the result is guaranteed one order less."""
        if self.prec == 0:
            raise InsufficientPrecision("cannot differentiate a precision-0 series")
        out = [(k + 1) * self.coeffs[k + 1] for k in range(self.prec)]
        return TSeries._of(out, self.prec - 1)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = min(self.prec, o.prec)
        return self.coeffs[: n + 1] == o.coeffs[: n + 1]

    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                mono = ""
            elif k == 1:
                mono = "t"
            else:
                mono = f"t^{k}"
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        tail = f"O(t^{self.prec + 1})"
        if not parts:
            return f"0 + {tail}"
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return f"{text} + {tail}"

    def __repr__(self):
        return f"TSeries({self})"


_ZERO = Fraction(0)


def integer_scaled(values):
    """Common denominator d of rationals and the integers d * value."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def exp_series(c, prec=DEFAULT_PRECISION):
    """The solution of y' = c*y with y(0) = 1: coefficient k is c^k / k!."""
    c = Fraction(c)
    out = [Fraction(1)]
    for k in range(prec):
        out.append(out[-1] * c / (k + 1))
    return TSeries(out, prec)


# -- matrices of series ------------------------------------------------------


def mat_vec(A, v):
    if any(len(row) != len(v) for row in A):
        raise DimensionMismatch("matrix/vector size mismatch")
    out = []
    for row in A:
        acc = None
        for a, x in zip(row, v):
            term = a * x
            acc = term if acc is None else acc + term
        out.append(acc)
    return out

def transpose(A):
    return [list(col) for col in zip(*A)]


def fundamental_matrix(A, order):
    """Fundamental solution of Y' = A(t) Y with Y(0) = I.

    The coefficient recursion Y_(k+1) = (A Y)_k / (k+1) runs on integer
    matrices over common denominators: the coefficients of A are brought
    once over the lcm of their denominators, each Y_k is an integer matrix
    with one denominator, reduced by a gcd once per step, and zero entries
    of both are skipped.  The entries of A must be guaranteed through order
    `order`-1; the result is guaranteed through `order` and its columns form
    a basis of the solution space over the constants.
    """
    d = len(A)
    if any(len(row) != d for row in A):
        raise DimensionMismatch("fundamental_matrix needs a square matrix")
    if order < 0:
        raise InsufficientPrecision("order must be >= 0")
    if d == 0:
        return []
    aprec = min(e.prec for row in A for e in row)
    if aprec < order - 1:
        raise InsufficientPrecision(
            f"matrix entries guaranteed to order {aprec}, need {order - 1}"
        )
    # Sparse integer rows [(s, a), ...] of den_a * A_i, trimmed to the support.
    needed = range(min(aprec, max(order - 1, 0)) + 1)
    den_a = lcm(*(e.coeffs[i].denominator for row in A for e in row for i in needed))
    acoeffs = []
    for i in needed:
        Ai = []
        for row in A:
            Ai.append([
                (s, e.coeffs[i].numerator * (den_a // e.coeffs[i].denominator))
                for s, e in enumerate(row)
                if e.coeffs[i]
            ])
        acoeffs.append(Ai)
    while acoeffs and not any(acoeffs[-1]):
        acoeffs.pop()

    # Y_k = nums[k] / dens[k].
    nums = [[[int(r == c) for c in range(d)] for r in range(d)]]
    dens = [1]
    for k in range(order):
        terms = range(min(k + 1, len(acoeffs)))
        den = lcm(*(dens[k - i] for i in terms))
        acc = [[0] * d for _ in range(d)]
        for i in terms:
            P = nums[k - i]
            scale = den // dens[k - i]
            for accr, Ar in zip(acc, acoeffs[i]):
                for s, a in Ar:
                    a *= scale
                    for c, x in enumerate(P[s]):
                        if x:
                            accr[c] += a * x
        den *= den_a * (k + 1)
        g = gcd(den, *(x for row in acc for x in row))
        acc = [[x // g for x in row] for row in acc]
        nums.append(acc)
        dens.append(den // g)

    return [
        [
            TSeries._of(
                [Fraction(n[r][c], q) if n[r][c] else _ZERO for n, q in zip(nums, dens)],
                order,
            )
            for c in range(d)
        ]
        for r in range(d)
    ]


def horizontal_test(v, A):
    """Check v' = A v to guaranteed precision.

    Returns (True, constants) where `constants` are the coordinates of v in
    the fundamental basis (necessarily constant), or (False, None).
    """
    d = len(v)
    if len(A) != d or any(len(row) != d for row in A):
        raise DimensionMismatch("horizontal_test needs matching dimensions")
    lhs = [x.derive() for x in v]
    rhs = mat_vec(A, v)
    if not all(a == b for a, b in zip(lhs, rhs)):
        return False, None
    nv = min(x.prec for x in v)
    na = min(e.prec for row in A for e in row)
    order = min(nv, na + 1)
    # Psi = Phi^{-1}: solves Psi' = -Psi A with Psi(0) = I, obtained from the
    # fundamental matrix of -A^T by transposing.
    neg_at = [[-A[c][r] for c in range(d)] for r in range(d)]
    psi = transpose(fundamental_matrix(neg_at, order))
    coords = mat_vec(psi, v)
    for x in coords:
        if not x.is_constant():
            raise InsufficientPrecision(
                "solution coordinates failed to be constant at this precision"
            )
    return True, [x.constant_term for x in coords]
