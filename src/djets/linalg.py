"""Exact linear algebra over Q, and elimination over the truncated-series field.

Homogeneous systems (`LinSystem`) and their kernels (`nullspace`) are over
Q only.  `rref` and `solve` also take the series domain, which only the
product decomposition of `delta_modules` uses: there a pivot must be a unit
(nonzero constant term), and a column that contains nonzero non-unit
entries but no unit raises SingularPivot instead of silently losing
precision.  Over the rationals any nonzero entry can pivot, and
elimination is fraction-free in the spirit of Bareiss (Math. Comp.
1968): rows are scaled once to primitive integer vectors, updated by
integer cross-multiplication and kept primitive by a gcd, and only the
pivot rows are divided back into Fractions at the end.  The pivots and
pivot rows equal those of Fraction elimination; each row below them is a
nonzero multiple of its Fraction counterpart.
Kernel bases are primitive `int` vectors with a positive leading entry,
each read off the pivot rows over one common denominator.
Constant combinations of series vectors are one rational elimination of
all their integer equations, one per coordinate and t-power.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DimensionMismatch, DomainMismatch, SingularPivot
from .series import integer_rows, integer_scaled

RATIONAL = "rational"
SERIES = "series"

_ZERO = Fraction(0)


@dataclass
class LinSystem:
    """A homogeneous linear system M z = 0 over Q."""

    rows: list
    ncols: int

    def __post_init__(self):
        for i, r in enumerate(self.rows):
            if len(r) != self.ncols:
                raise DimensionMismatch(
                    f"row of length {len(r)} in a {self.ncols}-column system"
                )
            for j, e in enumerate(r):
                if not isinstance(e, (int, Fraction)):
                    raise DomainMismatch(
                        f"{type(e).__name__} entry at ({i}, {j}) of a rational system"
                    )


def rref(rows, ncols, domain, pivot_limit=None):
    """Reduced row echelon form; returns (rows, pivot column indices).

    Only columns below `pivot_limit` (default all) are eligible to pivot,
    which lets callers append right-hand-side columns.  In the series domain
    a column holding nonzero entries but no unit raises SingularPivot.  Over
    Q the pivot rows are the unique reduced rows; a row below the pivots is
    determined only up to a nonzero factor, so only whether it vanishes
    carries meaning.
    """
    if pivot_limit is None:
        pivot_limit = ncols
    if domain == SERIES:
        return _rref_series(rows, pivot_limit)
    return _rref_rational(rows, pivot_limit)


def _rref_series(rows, pivot_limit):
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(pivot_limit):
        if r == len(m):
            break
        piv = None
        saw_nonzero = False
        for i in range(r, len(m)):
            e = m[i][c]
            if e.is_zero():
                continue
            saw_nonzero = True
            if e.is_unit():
                piv = i
                break
        if piv is None:
            if saw_nonzero:
                raise SingularPivot(f"rref: no unit pivot available in column {c}")
            continue
        m[r], m[piv] = m[piv], m[r]
        # e * (1/u) equals e / u in coefficients and precision.
        inv = 1 / m[r][c]
        m[r] = [e * inv for e in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                # No zero-skipping here: a - f*0 still lowers a's precision.
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _rref_rational(rows, pivot_limit):
    """Fraction-free Gauss-Jordan over Q on primitive integer rows.

    Each row is scaled to integers once (a row of ints is used as it is,
    and never changed).  Eliminating row i against pivot row r replaces it
    by p*row_i - f*row_r (p the pivot, f the entry of row i), divided by
    the gcd of its entries, so every row stays a nonzero multiple of the
    row plain Fraction elimination would hold, with the same pivot
    choices.  Only the pivot rows are divided by their pivots, at the end.
    """
    m = [_primitive(_integers(r)) for r in rows]
    pivots = []
    r = 0
    for c in range(pivot_limit):
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                m[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
    out = []
    for i, row in enumerate(m):
        p = row[pivots[i]] if i < r else 1
        out.append([Fraction(x, p) if x else _ZERO for x in row])
    return out, pivots


def _integers(v):
    """v itself when it holds only ints, else its `integer_scaled` numerators."""
    return v if all(type(x) is int for x in v) else integer_scaled(v)[1]


def _primitive(ints):
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def nullspace(system: LinSystem):
    """A basis of exact kernel vectors, one per non-pivot column."""
    return nullspace_with_free(system)[0]


def nullspace_with_free(system: LinSystem):
    """A kernel basis of primitive `int` vectors with a positive leading
    entry, read off the pivot rows over one denominator, and their free columns."""
    red, pivots = rref(system.rows, system.ncols, RATIONAL)
    free = [c for c in range(system.ncols) if c not in pivots]
    basis = []
    for fc in free:
        d, nums = integer_scaled([row[fc] for _, row in zip(pivots, red)])
        v = [0] * system.ncols
        v[fc] = d
        for pc, n in zip(pivots, nums):
            v[pc] = -n
        basis.append(primitive_vector(v))
    return basis, free


def primitive_vector(v):
    """Scale a rational vector to a new list of coprime `int`s, leading
    entry positive."""
    ints = _primitive(_integers(v))
    return [-x for x in ints] if next((x for x in ints if x), 0) < 0 else list(ints)


def solve(rows, ncols, rhs_columns, domain):
    """Solve M x = b for each right-hand-side column simultaneously.

    Requires the solution to be unique (full column rank); raises
    ValueError("underdetermined") otherwise.  Returns one entry per
    right-hand side: its solution vector, or None when it is inconsistent
    with the eliminated system.
    """
    k = len(rhs_columns)
    nrows = len(rows)
    for col in rhs_columns:
        if len(col) != nrows:
            raise DimensionMismatch("right-hand side length mismatch")
    aug = [list(rows[i]) + [col[i] for col in rhs_columns] for i in range(nrows)]
    red, pivots = rref(aug, ncols + k, domain, pivot_limit=ncols)
    if len(pivots) < ncols:
        raise ValueError("underdetermined")
    return _read_solutions(red, pivots, ncols, ncols + k)


def constant_combination(targets, basis):
    """Rational coefficients expressing each target through the basis.

    Returns one entry per target: a list c with target = sum c_i * basis_i,
    or None when the target is not a constant combination of the basis.
    The vectors have TSeries entries; each coordinate and each t-power up to
    the order guaranteed by the basis and all targets contributes one
    integer equation, and one `rref` of [basis | targets] over all of them
    decides every target, so a returned combination is exact to that
    precision.  When the basis is dependent, the coefficients of its
    non-pivot vectors are zero.  An empty basis contains only zero targets.
    """
    targets = list(targets)
    k = len(basis)
    vectors = list(basis) + targets
    prec = min((e.prec for v in vectors for e in v), default=0)
    ncoords = len(targets[0]) if targets else 0
    rows = [row for coord in range(ncoords)
            for row in integer_rows([v[coord] for v in vectors], prec)]
    red, pivots = rref(rows, len(vectors), RATIONAL, pivot_limit=k)
    return _read_solutions(red, pivots, k, len(vectors))


def _read_solutions(red, pivots, first, stop):
    """One entry per right-hand-side column j in range(first, stop) of `red`.

    The entry is None when column j does not vanish below the pivot rows;
    otherwise it has one coordinate per unknown column (those below
    `first`): the pivot rows' column j at the pivot columns, zero elsewhere.
    """
    tail = red[len(pivots):]
    out = []
    for j in range(first, stop):
        if any(row[j] for row in tail):
            out.append(None)
            continue
        x = [_ZERO] * first
        for row, pc in zip(red, pivots):
            x[pc] = row[j]
        out.append(x)
    return out
