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

A series is stored as prec+1 raw integer numerators over one positive raw
denominator, with a flag that says whether they are reduced.  `nums` and
`den` read the reduced form, gcd(den, *nums) == 1 with den == 1 for the
zero series: the first read divides the raw integers by their one gcd, in
place, as FLINT's fmpq_poly keeps every result canonical (Hart, "Fast
Library for Number Theory: An Introduction", ICMS 2010), but only once a
reader needs it.  Products, division and `mat_mul` read their operands
reduced, so denominators do not grow along a chain of products, and store
their results raw.  A product with an all-zero operand is the zero series,
and one with a rational or a series constant through the product's precision
scales the other operand's numerators: neither convolves.  The linear
readers (`packed_kron`, `integer_rows`, `pack_family`) take the
stored integers over one common denominator (`over_one_denominator`) and
reduce nothing: their results are eliminated or tested for zero, never
multiplied along a chain, and a family from one `from_hurwitz` call
already shares its stored denominator, so it costs no gcd.
Sums, negation, `derive`, `at_precision`, `==`, the zero, unit, constant
and order tests, `coeffs` and `render_scalar` are correct on raw integers
and read them as they are, so a residual that is only tested for zero, or
only printed, never takes a gcd.  Division keeps the quotient so far as
integers over the lcm of its reduced denominators, which leaves it
reduced.  `from_hurwitz` turns integer rows of Hurwitz coefficients
k! x_k, the form in which `dvariety.sharp_integrate` integrates,
`exp_series` is built and `fundamental_matrix` runs its recursion, into
series over the one denominator N! * scale * step^N of their scaled time
and space.
`pack` puts integers into b-bit slots of one integer and `unpack` reads
them back with a 2^(b-1) offset for the signs, as in Kronecker
substitution across columns: `fundamental_matrix` packs each matrix row,
`packed_kron` each factor column, and `pack_family` a family of vectors,
one integer per coordinate and order, always with slots wide enough for a
majorant of what they hold.  `pack_family` serves
`delta_modules.is_horizontal` and `first_nonzero_product`, which finds the
first nonzero entry of a matrix of rows times such a family, as `mat_mul`
and a zero test would, in one sum of products per row and order.  `packed_kron`, the Kronecker product of two matrices of series,
is one integer convolution over t per output column.
The integers are the only stored form: the tuple of Fractions `coeffs` is
built from them on each read.  Only this module builds a series from
integers, through `TSeries._ints`, and only it reads the raw integers: a
reader outside it sees either the reduced form or, through
`over_one_denominator`, the stored integers over one common denominator.
The printers of exact values live here too: `format_terms` (terms),
`format_point` (points in messages) and `render_scalar` (JSON strings), and
so does `as_rational`, the one guard on what enters a series or a polynomial.

`mat_mul` is the one product of matrices of series and rationals, and a
vector is a one-column matrix: each entry lists its nonzero numerators
once, and each sum of products is one integer convolution over the lcm of
the pair denominators.  The dot product of two vectors is
`mat_mul([xs], transpose([ys]))[0][0]`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, zip_longest
from math import comb, gcd, lcm
from operator import lshift, mul

from .errors import DimensionMismatch, DomainMismatch, InsufficientPrecision, NonUnitDivisor

#: Default guaranteed order used when none is requested explicitly.
DEFAULT_PRECISION = 24

#: Largest guaranteed order the command line accepts.
MAX_PRECISION = 1024


class TSeries:
    """A truncated power series c0 + c1*t + ... + cN*t^N + O(t^(N+1)).

    Stored as N+1 raw integer numerators over one positive raw denominator,
    with a flag that says whether gcd(den, *nums) == 1.  `nums` and `den`
    read the reduced form, reducing in place on the first read; the zero
    series then has den == 1.  `coeffs`, the tuple of Fractions nums[k]/den,
    is built on each read.
    """

    __slots__ = ("_raw_nums", "_raw_den", "_is_reduced", "prec")

    def __init__(self, coeffs, prec):
        if prec < 0:
            raise InsufficientPrecision("series precision must be >= 0")
        cs = [as_rational(c, "a series coefficient") for c in list(coeffs)[: prec + 1]]
        # Over the lcm of reduced denominators the numerators are coprime to it.
        self._raw_den, nums = integer_scaled(cs)
        self._raw_nums = tuple(nums + [0] * (prec + 1 - len(cs)))
        self._is_reduced = True
        self.prec = prec

    @classmethod
    def _ints(cls, nums, den, prec, reduced=False):
        """Wrap prec+1 integer numerators over den > 0, reduced on first read.

        `reduced` marks integers that are already reduced: a negation of
        reduced integers, a constant from one Fraction, a quotient, or the
        zero product.
        """
        out = object.__new__(cls)
        out._raw_nums = tuple(nums)
        out._raw_den = den
        out._is_reduced = reduced
        out.prec = prec
        return out

    def _reduce_raw(self):
        """Divide the raw integers by their one gcd, once."""
        g = gcd(self._raw_den, *self._raw_nums)
        if g != 1:
            self._raw_den //= g
            self._raw_nums = tuple([x // g for x in self._raw_nums])
        self._is_reduced = True

    @property
    def nums(self):
        """The numerators over `den`, with gcd(den, *nums) == 1."""
        if not self._is_reduced:
            self._reduce_raw()
        return self._raw_nums

    @property
    def den(self):
        """The least positive denominator of every coefficient."""
        if not self._is_reduced:
            self._reduce_raw()
        return self._raw_den

    @classmethod
    def constant(cls, value, prec=DEFAULT_PRECISION):
        if prec < 0:
            raise InsufficientPrecision("series precision must be >= 0")
        value = as_rational(value, "the value of a constant series")
        return cls._ints((value.numerator,) + (0,) * prec, value.denominator, prec,
                         reduced=True)

    @classmethod
    def zero(cls, prec=DEFAULT_PRECISION):
        return cls.constant(0, prec)

    @classmethod
    def lift(cls, value, prec):
        """A series as it is; a rational as the constant series of order `prec`."""
        return value if isinstance(value, TSeries) else cls.constant(value, prec)

    # -- coercion -----------------------------------------------------------

    def _lift(self, other):
        liftable = isinstance(other, (TSeries, int, Fraction))
        return TSeries.lift(other, self.prec) if liftable else None

    # -- queries ------------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients c0 .. cN as Fractions, built from the raw integers
        on each read (`Fraction` reduces)."""
        den = self._raw_den
        return tuple(Fraction(x, den) if x else _ZERO for x in self._raw_nums)

    @property
    def constant_term(self):
        return Fraction(self._raw_nums[0], self._raw_den)

    # The queries below and `+`, `-`, `derive`, `at_precision` and `==` read
    # the raw integers: they are correct on unreduced data and a gcd would
    # only add to their cost.

    def is_unit(self):
        return self._raw_nums[0] != 0

    def is_constant(self):
        return not any(self._raw_nums[1:])

    def is_zero(self):
        return not any(self._raw_nums)

    def order(self):
        """Index of the first nonzero coefficient, or None if zero to precision."""
        for k, x in enumerate(self._raw_nums):
            if x:
                return k
        return None

    def at_precision(self, prec):
        """The same series with guaranteed order lowered to `prec`."""
        if prec > self.prec:
            raise InsufficientPrecision(
                f"cannot raise precision from {self.prec} to {prec}"
            )
        if prec < 0:
            raise InsufficientPrecision("series precision must be >= 0")
        return TSeries._ints(self._raw_nums[: prec + 1], self._raw_den, prec)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = min(self.prec, o.prec)
        xs, ys = self._raw_nums, o._raw_nums
        da, db = self._raw_den, o._raw_den
        if da == db:
            return TSeries._ints([a + b for a, b in zip(xs, ys)], da, n)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return TSeries._ints([a * fa + b * fb for a, b in zip(xs, ys)], da * fa, n)

    __radd__ = __add__

    def __neg__(self):
        return TSeries._ints([-x for x in self._raw_nums], self._raw_den, self.prec,
                             self._is_reduced)

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
        # A rational, or an operand constant through the product's precision,
        # scales the other operand's reduced numerators in one pass; any other
        # product is one integer convolution.  Operands are read reduced, so
        # denominators do not grow along a chain; the product is stored raw.
        o = other if isinstance(other, TSeries) else None
        if o is None and not isinstance(other, (int, Fraction)):
            return NotImplemented
        n = self.prec if o is None else min(self.prec, o.prec)
        if not any(self._raw_nums) or not (other if o is None else any(o._raw_nums)):
            return TSeries._ints((0,) * (n + 1), 1, n, reduced=True)
        if o is None:
            s, c, d = self, other.numerator, other.denominator
        elif not any(o._raw_nums[1 : n + 1]):
            s, c, d = self, o.nums[0], o.den
        elif not any(self._raw_nums[1 : n + 1]):
            s, c, d = o, self.nums[0], self.den
        else:
            nonzero_ys = [(j, b) for j, b in enumerate(o.nums[: n + 1]) if b]
            out = [0] * (n + 1)
            for i, a in enumerate(self.nums[: n + 1]):
                if a:
                    for j, b in nonzero_ys:
                        if i + j > n:
                            break
                        out[i + j] += a * b
            return TSeries._ints(out, self.den * o.den, n)
        return TSeries._ints([x * c for x in s.nums[: n + 1]], s.den * d, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o.nums[0]:
            raise NonUnitDivisor("divisor has zero constant term")
        n = min(self.prec, o.prec)
        # q_k = (x_k - sum_(j<k) q_j y_(k-j)) / y_0 with q_j = out[j] / den,
        # where den is the lcm of the reduced denominators of q_0 .. q_(k-1).
        xs, dx, dy, y0 = self.nums, self.den, o.den, o.nums[0]
        ys = [(j, b) for j, b in enumerate(o.nums[1 : n + 1], 1) if b]
        out, den = [], 1
        for k in range(n + 1):
            s = 0
            for j, b in ys:
                if j > k:
                    break
                s += out[k - j] * b
            num = xs[k] * den * dy - dx * s
            d = dx * den * y0
            g = gcd(num, d)
            if d < 0:
                g = -g
            num //= g
            d //= g
            h = gcd(den, d)
            if h != d:
                out = [x * (d // h) for x in out]
            out.append(num * (den // h))
            den *= d // h
        # den is the lcm of the reduced denominators of the q_k: no gcd is left.
        return TSeries._ints(out, den, n, reduced=True)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, n):
        return power(self, n, TSeries.constant(1, self.prec))

    def derive(self):
        """Termwise d/dt; the result is guaranteed one order less."""
        if self.prec == 0:
            raise InsufficientPrecision("cannot differentiate a precision-0 series")
        xs = self._raw_nums
        out = [(k + 1) * xs[k + 1] for k in range(self.prec)]
        return TSeries._ints(out, self._raw_den, self.prec - 1)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = min(self.prec, o.prec)
        xs, ys = self._raw_nums[: n + 1], o._raw_nums[: n + 1]
        da, db = self._raw_den, o._raw_den
        # Equal denominators, reduced or not, make equal values equal numerators.
        if da == db:
            return xs == ys
        return all(a * db == b * da for a, b in zip(xs, ys))

    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        terms = (
            (c, "" if k == 0 else "t" if k == 1 else f"t^{k}")
            for k, c in enumerate(self.coeffs)
            if c
        )
        return f"{format_terms(terms)} + O(t^{self.prec + 1})"

    def __repr__(self):
        return f"TSeries({self})"


_ZERO = Fraction(0)


def as_rational(value, what):
    """`value` as a Fraction: an int or bool lifts, a Fraction passes as it
    is, and anything else raises DomainMismatch saying `what` was refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainMismatch(f"{what} is a {type(value).__name__}, not a rational")


def power(base, n, one):
    """base**n by square-and-multiply; NotImplemented unless n is natural.

    For n >= 1 it makes n.bit_length() - 1 squarings of the base and
    popcount(n) - 1 products into the result: the first power of the base
    that a set bit selects is the first partial result, not a product with
    `one`, so `one` must be an exact unit for the base (a series `one`
    carries the base's own precision).  The base is squared only while bits
    of n remain (Knuth, TAOCP vol. 2, sec. 4.6.3).  For n == 0 it returns
    `one` and makes no product.
    """
    if not isinstance(n, int) or n < 0:
        return NotImplemented
    if n == 0:
        return one
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


def format_terms(terms):
    """Sign-joined text of (rational coefficient, monomial) pairs; "0" when
    there are none.

    A coefficient prints as its absolute value before `*monomial`, omitted
    when it is 1 and the monomial is not, and its sign joins the term.
    """
    text = ""
    for c, mono in terms:
        sign, a = ("-" if c < 0 else "+"), abs(c)
        body = f"{a}*{mono}" if mono and a != 1 else mono or str(a)
        text += f" {sign} {body}" if text else ("-" if sign == "-" else "") + body
    return text or "0"


def format_point(coords):
    """Text of a point, "(2, 1)": each coordinate as its `str`."""
    return "(" + ", ".join(map(str, coords)) + ")"


def _ratio(n, d):
    """str(Fraction(n, d)) for an integer n and d > 0, with one gcd."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def render_scalar(value):
    """JSON form of an exact value: a rational or an int as its string ("p" or
    "p/q", so no numeric channel can round it), a series as the strings of its
    coefficients, read off the stored integers, and its guaranteed order."""
    if isinstance(value, TSeries):
        den = value._raw_den
        return {"coeffs": [_ratio(x, den) for x in value._raw_nums], "prec": value.prec}
    return str(value)


def render_vector(vec):
    return [render_scalar(x) for x in vec]


def integer_scaled(values):
    """Common denominator d of rationals and the integers d * value."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def over_one_denominator(entries):
    """(D, numerators): the series `entries` over one denominator D.

    D is the lcm of the stored denominators, and each entry's stored
    numerators are scaled to it; nothing is reduced, so a family that
    already shares one stored denominator, such as the series of one
    `from_hurwitz` call, costs no gcd.  The numerators of an entry are D
    times its coefficients.
    """
    den = lcm(*(e._raw_den for e in entries))
    return den, [
        e._raw_nums if e._raw_den == den else [x * (den // e._raw_den) for x in e._raw_nums]
        for e in entries
    ]


def integer_rows(entries, prec):
    """Rows k = 0..prec of the t^k coefficients of the series `entries`.

    Row k holds the entries' numerators over one denominator
    (`over_one_denominator`): a positive multiple of the rational row,
    which spans the same equations.
    """
    nums = over_one_denominator(entries)[1]
    return [[xs[k] for xs in nums] for k in range(prec + 1)]


def from_hurwitz(rows, order, scale=1, step=1):
    """Series x_k = X_k / (k! * scale * step**k), k = 0 .. order, from integer rows X.

    Each row holds the Hurwitz numerators X_0 .. X_order of one series, X_k
    being k! times coefficient k (Keigher, "On the ring of Hurwitz series",
    Comm. Algebra 1997) in the time and space scaled by `step` and `scale`;
    entries past `order` are not read.  Every series is put over the one
    denominator N! * scale * step**N with N = `order`, so numerator k is
    X_k * (N!/k!) * step**(N-k), and is reduced on its first read.
    """
    factors = [1] * (order + 1)
    for k in range(order, 0, -1):
        factors[k - 1] = factors[k] * k * step
    den = factors[0] * scale
    return [TSeries._ints(list(map(mul, row, factors)), den, order) for row in rows]


def exp_series(c, prec=DEFAULT_PRECISION):
    """The solution of y' = c*y with y(0) = 1: coefficient k is c^k / k!,
    built by `from_hurwitz` from the Hurwitz coefficients p^k over the step
    q of c = p/q."""
    if prec < 0:
        raise InsufficientPrecision("series precision must be >= 0")
    c = as_rational(c, "the rate of exp_series")
    p = c.numerator
    return from_hurwitz([[p**k for k in range(prec + 1)]], prec, step=c.denominator)[0]


# -- matrices of series ------------------------------------------------------


def _scaled(e):
    """(denominator, nonzero (index, numerator) pairs, precision or None).

    A rational has precision None and at most the pair (0, numerator).
    """
    if isinstance(e, TSeries):
        return e.den, [(i, a) for i, a in enumerate(e.nums) if a], e.prec
    e = as_rational(e, "a matrix entry")
    return e.denominator, [(0, e.numerator)] if e.numerator else [], None


def _dot_scaled(xs, ys):
    """Sum of x_i * y_i over `_scaled` entries, as one series or a rational."""
    n = min((p for x, y in zip(xs, ys) for p in (x[2], y[2]) if p is not None),
            default=None)
    top = 0 if n is None else n
    # A pair whose lowest terms already multiply past `top` contributes nothing.
    terms = [
        (dx * dy, ix, iy) for (dx, ix, _), (dy, iy, _) in zip(xs, ys)
        if ix and iy and ix[0][0] + iy[0][0] <= top
    ]
    den = lcm(*(d for d, _, _ in terms))
    out = [0] * (top + 1)
    for d, ix, iy in terms:
        f = den // d
        for i, a in ix:
            if i > top:
                break
            a *= f
            for j, b in iy:
                if i + j > top:
                    break
                out[i + j] += a * b
    if n is None:
        return Fraction(out[0], den)
    return TSeries._ints(out, den, n)


def mat_mul(A, B):
    """A B for matrices of series or rationals; a vector is a one-column matrix.

    Entry (i, k) is sum_j A[i][j] * B[j][k], equal to the left fold of `*`
    and `+`: guaranteed to the minimum precision over all pairs of the sum,
    where a rational takes its partner's precision; a pair of rationals
    only adds to the constant term.  When no entry of row i or of column k
    is a series the entry is the rational sum.  The nonzero numerators of
    every entry of A and B are listed once and reused for every pair of a
    row of A and a column of B; each sum is one integer convolution over
    the lcm of the pair denominators.
    """
    if any(len(row) != len(B) for row in A):
        raise DimensionMismatch("matrix size mismatch")
    sa = [[_scaled(a) for a in row] for row in A]
    sb = transpose([[_scaled(b) for b in row] for row in B])
    return [[_dot_scaled(row, col) for col in sb] for row in sa]


def transpose(A):
    return [list(col) for col in zip(*A)]


def pack(xs, b):
    """sum_c xs[c] * 2^(b*c): the integers xs in b-bit slots, as in Kronecker
    substitution (Harvey, JSC 2009).  Sums and products of packed integers
    act slot by slot while every slot stays below 2^(b-1) in absolute value;
    then the packed integer is 0 exactly when every slot is."""
    return sum(map(lshift, xs, range(0, b * len(xs), b)))


def unpack(xs, b, n):
    """Slots 0 .. n-1 of the packed integers xs, one list per slot, inverting
    `pack`: an offset of 2^(b-1) per slot makes every slot nonnegative, so
    each is read by a shift and a mask and the offset is taken off again."""
    half = 1 << (b - 1)
    offset = pack([half] * n, b)
    mask = (1 << b) - 1
    xs = [x + offset for x in xs]
    return [[((x >> shift) & mask) - half for x in xs] for shift in range(0, b * n, b)]


def pack_family(vectors, dim, weight):
    """(D, b, packed): a family of series vectors of length `dim`, packed.

    The vectors share their precisions entry by entry.  They go over one
    denominator D (`over_one_denominator`, no gcd), and packed[s][k] holds
    D times entry s at t^k, one b-bit slot per vector.  b is two more than
    the bit length of `weight` times the largest absolute numerator, so a
    sum of slots whose weights add up to at most `weight` fits too.
    """
    den, nums = over_one_denominator([e for v in vectors for e in v])
    b = (weight * max((max(map(abs, xs)) for xs in nums), default=0)).bit_length() + 2
    return den, b, [[pack(xs, b) for xs in zip(*nums[s::dim])] for s in range(dim)]


def first_nonzero_product(rows, vectors):
    """The first nonzero entry of mat_mul(rows, transpose(vectors)), as
    (row, vector, order, prec), or None when every entry vanishes.

    Rows are taken in turn and, within a row, vectors by index; `order` is
    the entry's first nonzero coefficient and `prec` its guaranteed order
    under `mat_mul`'s rule.  The vectors, of series sharing their
    precisions entry by entry, are `pack_family`ed, and each row is put over
    one denominator a (`over_one_denominator`), so slot i of the row's packed product at t^m is a*D
    times entry i at t^m: one sum of products per row and order, zero
    exactly when every slot is.  A nonzero row is `unpack`ed to find the
    vector.  Nothing takes a gcd.
    """
    if not rows or not vectors:
        return None
    dim = len(vectors[0])
    if any(len(row) != dim for row in rows) or any(len(v) != dim for v in vectors):
        raise DimensionMismatch("matrix size mismatch")
    if not dim:
        return None
    # A rational lifted to the vectors' lowest order takes its partner's.
    low = min(e.prec for e in vectors[0])
    scaled, most = [], 0
    for row in rows:
        row = [TSeries.lift(e, low) for e in row]
        top = min(low, *(e.prec for e in row))
        terms = sorted((t, s, x) for s, xs in enumerate(over_one_denominator(row)[1])
                       for t, x in enumerate(xs[: top + 1]) if x)
        most = max(most, sum(abs(x) for *_, x in terms))
        scaled.append((top, terms))
    _, b, packed = pack_family(vectors, dim, most)
    for r, (top, terms) in enumerate(scaled):
        products = []
        for m in range(top + 1):
            acc = 0
            for t, s, x in terms:
                if t > m:
                    break
                acc += x * packed[s][m - t]
            products.append(acc)
        if any(products):
            for i, slots in enumerate(unpack(products, b, len(vectors))):
                if any(slots):
                    return r, i, next(m for m, x in enumerate(slots) if x), top
    return None


def packed_kron(A, B, weight):
    """The Kronecker product of two matrices of series, packed: (den, b, columns).

    For B of shape r x s, columns[j*s + l][m] holds den times A[i][j] *
    B[k][l] at t^m in b-bit slot r*i + k, through the lower of the two
    columns' top orders, with den the product of the factors'
    `over_one_denominator`s.  Column j of A is packed across its rows in
    (r*b)-bit slots and column l of B in b-bit slots, so each output column
    is one integer convolution over t.  No slot exceeds the product N of the
    largest absolute numerator sums of A and B, and b is two more than the
    bit length of `weight` * N, so a sum of slots whose weights add up to at
    most `weight` fits too.
    """
    r = len(B)
    da, anums = over_one_denominator([e for row in A for e in row])
    db, bnums = over_one_denominator([e for row in B for e in row])

    def norm(nums):
        return max((sum(map(abs, xs)) for xs in nums), default=0)

    def columns(M, nums, width):
        """Per column: its top order and its t^k coefficients packed across rows."""
        q = len(M[0]) if M else 0
        return [(max(row[j].prec for row in M),
                 [pack(xs, width) for xs in zip_longest(*nums[j::q], fillvalue=0)])
                for j in range(q)]

    b = (norm(anums) * norm(bnums) * weight).bit_length() + 2
    bcols = columns(B, bnums, b)
    acols = columns(A, anums, r * b) if r else []  # r = 0: 0-bit slots, no output
    return da * db, b, [
        [sum(map(mul, ap[: m + 1], bp[m::-1])) for m in range(min(atop, btop) + 1)]
        for atop, ap in acols for btop, bp in bcols]


def fundamental_matrix(A, order, initial=None):
    """The solution of Y' = A(t) Y with Y(0) = `initial`, by default I.

    `initial` is a d x k matrix of rationals, so the k columns of the result
    are the solutions through its columns; the default gives the
    fundamental matrix.  The recursion runs on the Hurwitz integers
    H_k = k! * step^k * s * Y_k (Keigher, Comm. Algebra 1997): H_0 = s * Y(0)
    with s the lcm of the denominators of `initial` (1 for I), and
    H_(k+1) = sum_i C(k,i) C_i H_(k-i), where C_i = step^(i+1) * i! * A_i and
    `step` is the lcm of the denominators of the i! * A_i, so the C_i are
    integer matrices and no step takes a gcd or a division.  Row s of each
    H_k is `pack`ed into one integer of one b-bit slot per column, so each
    row of a step is one sum of products of packed rows.  The majorant
    m_0 = the largest row sum of |H_0|, m_(k+1) = sum_i C(k,i) rho_i
    m_(k-i), with rho_i the largest row sum of |C_i|, bounds every
    |H_k[s][c]|, and b is two more than the bit length of the largest m_k,
    so the slots never carry into each other.  The rows are `unpack`ed once
    at the end, and `from_hurwitz` makes each row of Y.  The entries of A
    must be guaranteed through order `order`-1; the result is guaranteed
    through `order`, and with the default `initial` its columns form a
    basis of the solution space over the constants.
    """
    d = len(A)
    if any(len(row) != d for row in A):
        raise DimensionMismatch("fundamental_matrix needs a square matrix")
    if initial is None:
        initial = [[int(r == c) for c in range(d)] for r in range(d)]
    elif len(initial) != d or any(len(row) != len(initial[0]) for row in initial):
        raise DimensionMismatch("initial value must have one row per matrix row")
    if order < 0:
        raise InsufficientPrecision(f"fundamental_matrix: order must be >= 0, got {order}")
    if d == 0:
        return []
    aprec = min(e.prec for row in A for e in row)
    if aprec < order - 1:
        raise InsufficientPrecision(f"fundamental_matrix: matrix entries guaranteed "
                                    f"to order {aprec}, need {order - 1}")
    # `step` and the C_i depend only on the values, so the raw integers serve.
    entries = [(e._raw_nums, e._raw_den) for row in A for e in row]
    facts = list(accumulate(range(1, order), mul, initial=1))
    step = lcm(*(
        den // gcd(den, *map(mul, facts, nums)) for nums, den in entries if den != 1
    ))
    # Sparse integer rows [(s, c), ...] of C_i, trimmed to the support.
    layers = list(zip(*(nums[:order] for nums, _ in entries)))
    while layers and not any(layers[-1]):
        layers.pop()
    cs = []
    for i, layer in enumerate(layers):
        f = facts[i] * step ** (i + 1)
        ci = [[] for _ in range(d)]
        for k, x in enumerate(layer):
            if x:
                r, s = divmod(k, d)
                ci[r].append((s, x * f // entries[k][1]))
        cs.append(ci)
    width = len(initial[0])
    scale, h0 = integer_scaled([e for row in initial for e in row])
    h0 = [h0[r * width : (r + 1) * width] for r in range(d)]
    bounds = [max(sum(map(abs, row)) for row in h0)]
    rhos = [max(sum(abs(c) for _, c in row) for row in ci) for ci in cs]
    binoms = [[comb(k, i) for i in range(min(k + 1, len(cs)))] for k in range(order)]
    for ws in binoms:
        bounds.append(sum(map(mul, map(mul, ws, rhos), reversed(bounds))))
    b = max(bounds).bit_length() + 2

    # hs[k][s] is row s of H_k packed as sum_c H_k[s][c] * 2^(b*c).
    hs = [[pack(row, b) for row in h0]]
    for ws in binoms:
        terms = list(zip(ws, reversed(hs), cs))
        hs.append([sum([w * c * h[s] for w, h, ci in terms for s, c in ci[r]])
                   for r in range(d)])

    out = []
    for r in range(d):
        rows = unpack([h[r] for h in hs], b, width)
        out.append(from_hurwitz(rows, order, scale, step))
    return out
