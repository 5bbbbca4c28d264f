"""Exact linear algebra over Q and over the truncated-series field.

Gaussian elimination is exact in both domains.  Over the rationals any
nonzero entry can pivot; over the series field a pivot must be a unit
(nonzero constant term), and a column that contains nonzero non-unit
entries but no unit raises SingularPivot instead of silently losing
precision.  Nullspace bases over Q are normalized to primitive integer
vectors with a positive leading entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, DomainMismatch, SingularPivot
from .series import TSeries

RATIONAL = "rational"
SERIES = "series"

_ENTRY_TYPES = {RATIONAL: (int, Fraction), SERIES: (TSeries,)}


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


def _pivot_ok(entry, domain):
    if domain == SERIES:
        return entry.is_unit()
    return entry != 0


def rref(rows, ncols, domain, pivot_limit=None):
    """Reduced row echelon form; returns (rows, pivot column indices).

    Only columns below `pivot_limit` (default all) are eligible to pivot,
    which lets callers append right-hand-side columns.  In the series domain
    a column holding nonzero entries but no unit raises SingularPivot.
    """
    m = [list(r) for r in rows]
    if pivot_limit is None:
        pivot_limit = ncols
    pivots = []
    r = 0
    for c in range(pivot_limit):
        if r == len(m):
            break
        piv = None
        saw_nonzero = False
        for i in range(r, len(m)):
            e = m[i][c]
            if e == 0:
                continue
            saw_nonzero = True
            if _pivot_ok(e, domain):
                piv = i
                break
        if piv is None:
            if saw_nonzero and domain == SERIES:
                raise SingularPivot(f"no unit pivot available in column {c}")
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [e / inv for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


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


def constant_combination(target, basis, min_prec=None):
    """Rational coefficients c with target = sum c_i * basis_i, or None.

    The vectors have TSeries entries; each coordinate and each t-power up to
    the shared guaranteed order contributes one rational equation, so a
    returned combination is exact to precision.  An empty basis succeeds only
    on a zero target.
    """
    rows = []
    rhs = []
    precs = [e.prec for e in target] + [e.prec for v in basis for e in v]
    prec = min(precs) if precs else 0
    if min_prec is not None:
        prec = min(prec, min_prec)
    for coord in range(len(target)):
        for power in range(prec + 1):
            rows.append([v[coord].coeffs[power] for v in basis])
            rhs.append(target[coord].coeffs[power])
    if not basis:
        return [] if all(x == 0 for x in rhs) else None
    try:
        sol = solve(rows, len(basis), [rhs], RATIONAL)
    except ValueError:
        # Dependent basis: fall back to consistency-only elimination.
        aug = [row + [b] for row, b in zip(rows, rhs)]
        red, pivots = rref(aug, len(basis) + 1, RATIONAL, pivot_limit=len(basis))
        for i in range(len(pivots), len(aug)):
            if red[i][len(basis)] != 0:
                return None
        x = [Fraction(0)] * len(basis)
        for ri, pc in enumerate(pivots):
            x[pc] = red[ri][len(basis)]
        return x
    if sol is None:
        return None
    return sol[0]


def mutually_contained(basis_a, basis_b):
    """True when two series-vector families span the same constant space."""
    for v in basis_a:
        if constant_combination(v, basis_b) is None:
            return False
    for v in basis_b:
        if constant_combination(v, basis_a) is None:
            return False
    return True
