"""Finite-dimensional modules over the series field with a derivation.

A module is presented in a fixed basis by the matrix A of its derivation:
the action on a coordinate vector c is delta(c) + A c, which satisfies the
twisted Leibniz rule d(r c) = delta(r) c + r d(c) by construction.  Duals,
tensor products, horizontal sections, and the pairing of horizontal dual
vectors are all coordinate computations; the horizontal sections are the
columns of one fundamental matrix.  The pairings of two families of
horizontal dual vectors are the rows of their Kronecker product, formed by
`series.packed_kron` as one integer per tensor coordinate and order, one
slot per pairing, and checked so by the residual loop `is_horizontal` runs
on any family packed by `series.pack_family`, over one stored denominator,
with no gcd.  The
differential jet space does not come through here: `dvariety` solves
v' = B v with `series.fundamental_matrix` on B itself.

Whether the pairings span the dual tensor's horizontal space is decided
at t = 0, with no sections of the dual tensor formed.  A solution of
c' = -A c over Q[[t]] is fixed through its guaranteed order by its value
at t = 0, since c_(k+1) = -(1/(k+1)) sum_i A_i c_(k-i) (van der Put and
Singer 2003, section 1.1).  So once the packed residual has shown the
pairings to be solutions, they span the d solutions of the fundamental
matrix exactly when their t^0 values, unpacked from the packed product,
have rank d, that is when each of the d unit vectors, the fundamental
matrix at t = 0, is a constant combination of them: one
`linalg.constant_combination` elimination, which the benchmark traces.
`rank_at_zero` is the same rank read as a number, which
`tangent.m1_equivalence` compares across two families of solutions.

A horizontal jet on a product, extended by zero to a matrix V over the two
factor index sets with the unit index put first, decomposes as
V = W0 C W0'^T, where W0 and W0' are the factor jet bases beside the unit
functional.  C is solved exactly over the series field through the two
factors, one solve per factor for a whole batch of jets, and its entries
are then required to be constants.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from .errors import DecompositionFailure, DimensionMismatch, DomainMismatch
from .errors import InsufficientPrecision
from .linalg import RATIONAL, SERIES, constant_combination, rref, solve
from .series import TSeries, format_point, fundamental_matrix, over_one_denominator
from .series import pack_family, packed_kron, transpose, unpack


@dataclass(frozen=True)
class DeltaModule:
    """dim-by-dim derivation matrix over truncated series; an entry that is
    not a `TSeries` raises DomainMismatch (`from_rows` lifts rationals)."""

    matrix: tuple

    def __post_init__(self):
        d = len(self.matrix)
        for r, row in enumerate(self.matrix):
            if len(row) != d:
                raise DimensionMismatch("derivation matrix must be square")
            for c, e in enumerate(row):
                if not isinstance(e, TSeries):
                    raise DomainMismatch(f"entry ({r}, {c}) of the derivation matrix "
                                         f"is a {type(e).__name__}, not a series")

    @property
    def dim(self):
        return len(self.matrix)

    @property
    def prec(self):
        return min((e.prec for row in self.matrix for e in row), default=None)

    @classmethod
    def from_rows(cls, rows, prec=None):
        """Lift rational entries to constant series of order `prec`.

        Without `prec` they take the lowest order among the series entries;
        a rational entry with no series entry to take it from raises
        InsufficientPrecision.
        """
        rows = [tuple(row) for row in rows]
        if prec is None:
            prec = min(
                (e.prec for row in rows for e in row if isinstance(e, TSeries)),
                default=None,
            )
            if prec is None and any(rows):
                raise InsufficientPrecision(
                    "from_rows needs a precision when no entry is a series"
                )
        return cls(tuple(tuple(TSeries.lift(e, prec) for e in row) for row in rows))


def dual(module: DeltaModule):
    """Dual module: derivation matrix -A^T, so that
    delta(v(mu)) = (Dv)(mu) + v(d mu) holds identically on coordinates."""
    A = module.matrix
    d = module.dim
    return DeltaModule(tuple(tuple(-A[c][r] for c in range(d)) for r in range(d)))


def tensor(left: DeltaModule, right: DeltaModule):
    """Tensor product on the lexicographic product basis: A (x) I + I (x) B."""
    A, B = left.matrix, right.matrix
    da, db = left.dim, right.dim
    rows = []
    for i in range(da):
        for j in range(db):
            row = []
            for k in range(da):
                for l in range(db):
                    entry = None
                    if j == l:
                        entry = A[i][k]
                    if i == k:
                        entry = B[j][l] if entry is None else entry + B[j][l]
                    if entry is None:
                        entry = TSeries.zero(min(A[i][k].prec, B[j][l].prec))
                    row.append(entry)
            rows.append(tuple(row))
    return DeltaModule(tuple(rows))


def horizontal_sections(module: DeltaModule):
    """A basis over the constants of {c : delta(c) + A c = 0}.

    The solutions of c' = -A c are the columns of the fundamental matrix of
    -A, so the count always equals the module dimension.  They are
    guaranteed one order past the module's precision.
    """
    if module.dim == 0:
        return []
    neg = [[-e for e in row] for row in module.matrix]
    return transpose(fundamental_matrix(neg, module.prec + 1))


def is_horizontal(module: DeltaModule, *vectors):
    """Whether delta(v) + A v vanishes to guaranteed precision for every v.

    Vectors with the same precisions form one family, packed by
    `series.pack_family` over one denominator D, with no gcd: packed[s][t]
    holds D times entry s at t^t, one slot per vector, in slots so wide
    that `_residuals_vanish` sees no carry.
    """
    d = module.dim
    if any(len(v) != d for v in vectors):
        raise DimensionMismatch("matrix/vector size mismatch")
    if not d:
        return True
    packs = {}
    for v in vectors:
        packs.setdefault(tuple(e.prec for e in v), []).append(v)
    rows, most = _residual_rows(module, max(map(max, packs), default=0))
    for precs, vs in packs.items():
        if 0 in precs:
            raise InsufficientPrecision(
                "is_horizontal: cannot differentiate a precision-0 series")
        if not _residuals_vanish(rows, pack_family(vs, d, most)[2], precs):
            return False
    return True


def _residual_rows(module, prec):
    """(rows, most): per row r of A, its one denominator a, the numerators
    (t, s, x) of a*A[r][s] at t^t sorted by t, and its precision; a residual
    slot through order `prec` is at most `most` times a vector numerator."""
    rows = []
    for row in module.matrix:
        a, nums = over_one_denominator(row)
        terms = sorted((t, s, x) for s, xs in enumerate(nums)
                       for t, x in enumerate(xs) if x)
        rows.append((a, terms, min(e.prec for e in row)))
    return rows, max((a * prec + sum(abs(x) for *_, x in terms) for a, terms, _ in rows),
                     default=1)


def _residuals_vanish(rows, packed, precs):
    """Whether v' + A v vanishes for packed vectors, entry s guaranteed to
    order precs[s]: row r through min(precs[r] - 1, its precision in A,
    min(precs)), where slot c of row r at t^m is a*D*(v_c' + A v_c)[r]."""
    low = min(precs, default=0)
    for r, (a, terms, arow) in enumerate(rows):
        for m in range(min(precs[r] - 1, arow, low) + 1):
            res = a * (m + 1) * packed[r][m + 1]
            for t, s, x in terms:
                if t > m:
                    break
                res += x * packed[s][m - t]
            if res:
                return False
    return True


def rank_at_zero(vectors, dim):
    """The rank over Q of the t^0 values of series vectors of length `dim`:
    one rational `rref` of their constant terms.  For solutions of one
    c' = -A c this is the dimension of their span over the constants."""
    values = [[e.constant_term for e in v] for v in vectors]
    return len(rref(values, dim, RATIONAL)[1])


@dataclass
class TensorPairingReport:
    dim_left: int
    dim_right: int
    dim_pairings: int
    dim_tensor_horizontal: int
    pairings_horizontal: bool
    mutually_contained: bool

    @property
    def ok(self):
        return (
            self.dim_pairings == self.dim_tensor_horizontal
            and self.dim_pairings == self.dim_left * self.dim_right
            and self.pairings_horizontal
            and self.mutually_contained
        )

    def to_json(self):
        return {**asdict(self), "ok": self.ok}


def verify_tensor_pairing(left: DeltaModule, right: DeltaModule):
    """Check that pairings of horizontal dual vectors span the dual tensor's
    horizontal space, with equal dimensions and exact-zero residuals.

    The pairings are the coordinate tensors of the factor solutions, one
    fundamental matrix per factor dual, so all their entries share one
    precision.  `series.packed_kron` forms them packed, in slots wide enough
    for `_residuals_vanish` against the dual tensor, which unpacks and
    solves nothing.  Solutions are fixed by their values at t = 0, so the
    span is decided there: the dual tensor's horizontal space has dimension
    d, and the pairings span it when each of the d unit vectors is a
    constant combination of their t^0 values, the t^0 slots of the same
    product (at most the product of the factor norms, so read back exactly).
    The dual tensor is the tensor of the factor duals: the dual of the tensor
    entry for entry, precisions included, without negating its whole matrix.
    """
    dual_left, dual_right = dual(left), dual(right)
    hm = horizontal_sections(dual_left)
    hn = horizontal_sections(dual_right)
    dual_tensor = tensor(dual_left, dual_right)
    d = dual_tensor.dim
    prec = min((e.prec for v in hm + hn for e in v), default=0)
    rows, most = _residual_rows(dual_tensor, prec)
    den, b, packed = packed_kron(hm, hn, most)
    zero, one = TSeries.zero(0), TSeries.constant(1, 0)
    units = [[one if r == c else zero for c in range(d)] for r in range(d)]
    initial = [[TSeries.constant(Fraction(x, den), 0) for x in xs]
               for xs in unpack([conv[0] for conv in packed], b, len(hm) * len(hn))]
    return TensorPairingReport(
        dim_left=left.dim,
        dim_right=right.dim,
        dim_pairings=len(initial),
        dim_tensor_horizontal=d,
        pairings_horizontal=_residuals_vanish(rows, packed, [prec] * d),
        mutually_contained=None not in constant_combination(units, initial),
    )


@dataclass
class ProductDecomposition:
    """The constant matrix C of V = W0 C W0'^T, by blocks: C[0][0], column 0
    and row 0 past it, and the rest."""

    unit: Fraction
    left: list
    right: list
    pair: list  # matrix indexed [i][j] over (left basis, right basis)

    def to_json(self):
        return {
            "unit": str(self.unit),
            "left": [str(c) for c in self.left],
            "right": [str(c) for c in self.right],
            "pair": [[str(c) for c in row] for row in self.pair],
            "all_constant": True,
        }


def product_jet_decompose(product, left, right):
    """Decompose the horizontal jets of a product against its factors'.

    The arguments are `dvariety.DeltaJetSpace`s, read by attribute, as
    `delta_modules` sits below `dvariety`; their orders must agree, and
    the product's base point be the factors' concatenated.  Each product
    jet v, indexed by `product.jet.indices`, extends by zero to one matrix
    V over ({0} u L) x ({0} u R), L and R the factor index sets: V[a1][a2]
    is v at the concatenated index a1 + a2 while its total degree stays
    within the jet order, and zero beyond it and at (0, 0).  With W0 =
    [e_0 | W] and W0' = [e_0 | W'], the factor bases put beside the unit
    functional, a decomposition is one constant matrix C with V = W0 C
    W0'^T: C[0][0] is the unit, column 0 below it the left coefficients,
    row 0 past it the right coefficients, and the rest the mixed pairs.
    The extension by zero is what makes the system uniquely solvable, so
    the exact solve over the series field must recover the constants.

    V = W0 C W0'^T is solved through the two factors, in two series solves
    for all jets: M_L Y = V on the rows below row 0, one column of Y per
    column of V, then M_R X^T = Y^T past column 0, with row 0 of V and the
    rows of Y.  Column 0 of Y is column 0 of C below row 0, X is C past
    column 0, and C[0][0] = V[0][0].  An empty factor basis is a solve with
    no unknowns, consistent exactly when its right-hand side is zero.  The
    factor blocks demand full column rank, so the solution is the unique
    one of the whole system, and consistent exactly when both steps are.
    Pivots are chosen among the basis columns alone, so every solution
    equals that of a single-jet solve.  Returns one ProductDecomposition
    per jet.  Any non-constant coefficient or inconsistency raises
    DecompositionFailure: the first one met jet by jet, taking the left,
    right and mixed block of each jet in turn.
    """
    spaces = product.jet, left.jet, right.jet
    if len({js.order for js in spaces}) > 1:
        raise DimensionMismatch("jet orders differ: product {}, factors {} and {}"
                                .format(*(js.order for js in spaces)))
    if product.jet.point != left.jet.point + right.jet.point:
        raise DimensionMismatch("base points differ: product {}, factors {} and {}"
                                .format(*(format_point(js.point) for js in spaces)))
    for space, message in ((product, "jet vector does not match the product index set"),
                           (left, "left basis vector has the wrong length"),
                           (right, "right basis vector has the wrong length")):
        if any(len(v) != len(space.jet.indices) for v in space.horizontal):
            raise DimensionMismatch(message)
    lam_prod, lam_left, lam_right = (js.indices for js in spaces)
    vs, basis_left, basis_right = product.horizontal, left.horizontal, right.horizontal
    if not vs:
        return []
    n_l, n_r, width = len(basis_left), len(basis_right), 1 + len(lam_right)
    alphas_left = ((0,) * len(left.jet.point), *lam_left)
    alphas_right = ((0,) * len(right.jet.point), *lam_right)
    Vs = []
    for v in vs:
        vmap, zero = dict(zip(lam_prod, v)), TSeries.zero(min(x.prec for x in v))
        Vs.append([[vmap.get(a1 + a2, zero) for a2 in alphas_right]
                   for a1 in alphas_left])

    # M_L Y = V below row 0, width columns per jet.
    m_left = [[w[i] for w in basis_left] for i in range(len(lam_left))]
    rhs = [[row[c] for row in V[1:]] for V in Vs for c in range(width)]
    sols = _solve(m_left, n_l, rhs, "left")
    ys = [sols[j * width : (j + 1) * width] for j in range(len(Vs))]
    found = [all(col is not None for col in y[1:]) for y in ys]
    # The first jet meets the left block before the right solve can raise.
    _constants(ys[0][0], "left", 0, not n_l)

    # M_R X^T = Y^T past column 0: row 0 of V, then the n_l rows of each Y
    # that was found.
    m_right = [[w[i] for w in basis_right] for i in range(len(lam_right))]
    rhs = []
    for V, y, ok in zip(Vs, ys, found):
        rhs.append(V[0][1:])
        if ok:
            rhs += [[col[p] for col in y[1:]] for p in range(n_l)]
    xs = iter(_solve(m_right, n_r, rhs, "right"))

    out = []
    for j, (V, y, ok) in enumerate(zip(Vs, ys, found)):
        left = _constants(y[0], "left", j, not n_l)
        right = _constants(next(xs), "right", j, not n_r)
        pair = [next(xs) for _ in range(n_l)] if ok else [None]
        flat = None if any(x is None for x in pair) else [e for x in pair for e in x]
        flat = _constants(flat, "mixed", j, not (n_l and n_r), n_r)
        pair = [flat[i * n_r : (i + 1) * n_r] for i in range(n_l)]
        out.append(ProductDecomposition(V[0][0].constant_term, left, right, pair))
    return out


def _solve(rows, ncols, rhs_columns, label):
    """The series solve of one factor block; dependent basis columns raise."""
    try:
        return solve(rows, ncols, rhs_columns, SERIES)
    except ValueError as exc:
        raise DecompositionFailure(
            f"{label} block is underdetermined; basis vectors are dependent"
        ) from exc


def _constants(x, label, jet, empty, width=None):
    """The constant terms of a solution.  No solution, or a non-constant
    coefficient, raises DecompositionFailure; `empty` words the first for a
    block without a basis, and `width` reads mixed positions as (left,
    right) pairs in the second."""
    if x is None:
        raise DecompositionFailure(
            f"{label} block inconsistent with empty basis" if empty
            else f"{label} block is inconsistent"
        )
    for i, e in enumerate(x):
        if not e.is_constant():
            pos = i if width is None else divmod(i, width)
            k = next(k for k, a in enumerate(e.nums) if k and a)
            raise DecompositionFailure(
                f"non-constant coefficient {pos} of jet {jet} in the {label} "
                f"block: nonzero at order {k}, guaranteed to order {e.prec}"
            )
    return [e.constant_term for e in x]
