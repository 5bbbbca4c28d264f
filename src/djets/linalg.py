"""Exact linear algebra over Q and over the truncated-series field.

Gaussian elimination is exact in both domains.  Over the series field a
pivot must be a unit (nonzero constant term), and a column that contains
nonzero non-unit entries but no unit raises SingularPivot instead of
silently losing precision.  Over the rationals any nonzero entry can pivot,
and elimination is fraction-free in the spirit of Bareiss (Math. Comp.
1968): rows are scaled once to primitive integer vectors, updated by
integer cross-multiplication and kept primitive by a gcd, and only the
pivot rows are divided back into Fractions at the end.  The pivots and
pivot rows equal those of Fraction elimination; each row below them is a
nonzero multiple of its Fraction counterpart.
Nullspace bases over Q are normalized to primitive integer vectors with a
positive leading entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, DomainMismatch, SingularPivot
from .series import TSeries, integer_scaled

RATIONAL = "rational"
SERIES = "series"

_ENTRY_TYPES = {RATIONAL: (int, Fraction), SERIES: (TSeries,)}

_ZERO = Fraction(0)


@dataclass
class LinSystem:
    """A homogeneous linear system M z = 0 with tagged coefficient domain."""

    rows: list
    ncols: int
    domain: str
    labels: list | None = None
    prec: int | None = None  # series domain: precision for synthesized zeros

    def __post_init__(self):
        if self.domain not in _ENTRY_TYPES:
            raise DomainMismatch(f"unknown domain {self.domain!r}")
        kinds = _ENTRY_TYPES[self.domain]
        for i, r in enumerate(self.rows):
            if len(r) != self.ncols:
                raise DimensionMismatch(
                    f"row of length {len(r)} in a {self.ncols}-column system"
                )
            for j, e in enumerate(r):
                if not isinstance(e, kinds):
                    raise DomainMismatch(
                        f"{type(e).__name__} entry at ({i}, {j}) of a "
                        f"{self.domain} system"
                    )

    def zero_entry(self):
        if self.domain == SERIES:
            prec = self.prec
            if prec is None:
                prec = min(
                    (e.prec for row in self.rows for e in row),
                    default=0,
                )
            return TSeries.zero(prec)
        return Fraction(0)

    def one_entry(self):
        if self.domain == SERIES:
            z = self.zero_entry()
            return TSeries.constant(1, z.prec)
        return Fraction(1)


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
                raise SingularPivot(f"no unit pivot available in column {c}")
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [e / inv for e in m[r]]
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

    Each row is scaled to integers once.  Eliminating row i against pivot
    row r replaces it by p*row_i - f*row_r (p the pivot, f the entry of
    row i), divided by the gcd of its entries, so every row stays a nonzero
    multiple of the row plain Fraction elimination would hold, with the
    same pivot choices.  Only the pivot rows are divided by their pivots,
    at the end.
    """
    m = [_primitive(integer_scaled(r)[1]) for r in rows]
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


def _primitive(ints):
    g = gcd(*ints)
    if g > 1:
        return [x // g for x in ints]
    return ints


def rank(system: LinSystem):
    _, pivots = rref(system.rows, system.ncols, system.domain)
    return len(pivots)


def nullspace(system: LinSystem):
    """A basis of exact kernel vectors; count = ncols - rank."""
    red, pivots = rref(system.rows, system.ncols, system.domain)
    free = [c for c in range(system.ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [system.zero_entry() for _ in range(system.ncols)]
        v[fc] = system.one_entry()
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        if system.domain == RATIONAL:
            v = primitive_vector(v)
        basis.append(v)
    return basis


def nullspace_with_free(system: LinSystem):
    """Like nullspace, but also reports the free column of each basis vector."""
    red, pivots = rref(system.rows, system.ncols, system.domain)
    free = [c for c in range(system.ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [system.zero_entry() for _ in range(system.ncols)]
        v[fc] = system.one_entry()
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        basis.append(v)
    return basis, free


def primitive_vector(v):
    """Scale a rational vector to coprime integers, leading entry positive."""
    if all(x == 0 for x in v):
        return list(v)
    denom = 1
    for x in v:
        denom = lcm(denom, x.denominator)
    ints = [x * denom for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x.numerator)
    ints = [x / g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return ints


def solve(rows, ncols, rhs_columns, domain):
    """Solve M x = b for each right-hand-side column simultaneously.

    Requires the solution to be unique (full column rank); raises
    ValueError("underdetermined") otherwise.  Returns None when some
    right-hand side is inconsistent with the eliminated system, and a list
    of solution vectors when all are solvable.
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
    # Rows beyond the pivots must have vanishing right-hand sides.
    for i in range(len(pivots), nrows):
        for j in range(k):
            if red[i][ncols + j] != 0:
                return None
    solutions = []
    for j in range(k):
        x = [None] * ncols
        for ri, pc in enumerate(pivots):
            x[pc] = red[ri][ncols + j]
        solutions.append(x)
    return solutions


def constant_combination(targets, basis, min_prec=None):
    """Rational coefficients expressing each target through the basis.

    Returns one entry per target: a list c with target = sum c_i * basis_i,
    or None when the target is not a constant combination of the basis.
    The vectors have TSeries entries; each coordinate and each t-power up to
    the order guaranteed by the basis and all targets (and at most
    `min_prec`) contributes one rational equation, so a returned combination
    is exact to that precision.  All targets share one elimination of the
    augmented system [basis | targets]; a target is contained exactly when
    its column vanishes below the pivots.  When the basis is dependent, the
    coefficients of its non-pivot vectors are zero.  An empty basis contains
    only zero targets.
    """
    targets = list(targets)
    k = len(basis)
    vectors = list(basis) + targets
    prec = min((e.prec for v in vectors for e in v), default=0)
    if min_prec is not None:
        prec = min(prec, min_prec)
    ncoords = len(targets[0]) if targets else 0
    rows = [
        [v[coord].coeffs[power] for v in vectors]
        for coord in range(ncoords)
        for power in range(prec + 1)
    ]
    red, pivots = rref(rows, len(vectors), RATIONAL, pivot_limit=k)
    tail = red[len(pivots):]
    out = []
    for j in range(k, len(vectors)):
        if any(row[j] for row in tail):
            out.append(None)
            continue
        x = [_ZERO] * k
        for row, pc in zip(red, pivots):
            x[pc] = row[j]
        out.append(x)
    return out


def mutually_contained(basis_a, basis_b):
    """True when two series-vector families span the same constant space."""
    return all(
        c is not None
        for targets, basis in ((basis_a, basis_b), (basis_b, basis_a))
        for c in constant_combination(targets, basis)
    )
