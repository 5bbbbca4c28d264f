"""Finite-dimensional modules over the series field with a derivation.

A module is presented in a fixed basis by the matrix A of its derivation:
the action on a coordinate vector c is delta(c) + A c, which satisfies the
twisted Leibniz rule d(r c) = delta(r) c + r d(c) by construction.  Duals,
tensor products, horizontal sections, and the pairing of horizontal dual
vectors are all coordinate computations; the decomposition of a horizontal
product jet against bases of the factor jet spaces is solved exactly over
the series field and its coefficients are then required to be constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DecompositionFailure, DimensionMismatch
from .linalg import SERIES, constant_combination, solve
from .mpoly import multi_indices
from .series import TSeries, fundamental_matrix, mat_vec


@dataclass(frozen=True)
class DeltaModule:
    """dim-by-dim derivation matrix over truncated series."""

    matrix: tuple

    def __post_init__(self):
        d = len(self.matrix)
        for row in self.matrix:
            if len(row) != d:
                raise DimensionMismatch("derivation matrix must be square")

    @property
    def dim(self):
        return len(self.matrix)

    @property
    def prec(self):
        return min((e.prec for row in self.matrix for e in row), default=None)

    @classmethod
    def from_rows(cls, rows, prec=None):
        lifted = []
        for row in rows:
            lifted.append(
                tuple(
                    e if isinstance(e, TSeries) else TSeries.constant(e, prec)
                    for e in row
                )
            )
        return cls(tuple(lifted))


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


def horizontal_sections(module: DeltaModule, order=None):
    """A basis over the constants of {c : delta(c) + A c = 0}.

    The solutions of c' = -A c are the columns of the fundamental matrix of
    -A, so the count always equals the module dimension.
    """
    if module.dim == 0:
        return []
    order = module.prec + 1 if order is None else order
    neg = [[-e for e in row] for row in module.matrix]
    phi = fundamental_matrix(neg, order)
    return [[phi[r][c] for r in range(module.dim)] for c in range(module.dim)]


def is_horizontal(module: DeltaModule, vec):
    """Whether delta(v) + A v vanishes to guaranteed precision."""
    Av = mat_vec(list(map(list, module.matrix)), vec)
    return all((x.derive() + y).is_zero() for x, y in zip(vec, Av))


def pairing_phi(v, w):
    """Coordinate tensor of two functionals: (v (x) w)[i*dim_w + j] = v_i w_j."""
    return [vi * wj for vi in v for wj in w]


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
        return {
            "dim_left": self.dim_left,
            "dim_right": self.dim_right,
            "dim_pairings": self.dim_pairings,
            "dim_tensor_horizontal": self.dim_tensor_horizontal,
            "pairings_horizontal": self.pairings_horizontal,
            "mutually_contained": self.mutually_contained,
            "ok": self.ok,
        }


def verify_tensor_pairing(left: DeltaModule, right: DeltaModule, order=None):
    """Check that pairings of horizontal dual vectors span the dual tensor's
    horizontal space, with equal dimensions and exact-zero residuals.

    Both sides are computed independently: the pairings as coordinate
    tensors of the factor solutions, the target space from the fundamental
    matrix of the dual tensor module.  Mutual containment is decided by one
    exact rational elimination per direction on stacked series coefficients.
    """
    hm = horizontal_sections(dual(left), order)
    hn = horizontal_sections(dual(right), order)
    pairings = [pairing_phi(v, w) for v in hm for w in hn]
    dual_tensor = dual(tensor(left, right))
    target = horizontal_sections(dual_tensor, order)
    pairings_horizontal = all(is_horizontal(dual_tensor, p) for p in pairings)
    contained = all(c is not None for c in constant_combination(pairings, target))
    contained = contained and all(
        c is not None for c in constant_combination(target, pairings)
    )
    return TensorPairingReport(
        dim_left=left.dim,
        dim_right=right.dim,
        dim_pairings=len(pairings),
        dim_tensor_horizontal=len(target),
        pairings_horizontal=pairings_horizontal,
        mutually_contained=contained,
    )


@dataclass
class ProductDecomposition:
    """Constant coefficients expressing a product jet through factor bases."""

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


def product_jet_decompose(v, basis_left, basis_right, n_left, n_right, order_m):
    """Decompose a horizontal jet on a product against factor horizontal bases.

    The jet v is indexed by the graded-lex index set of the product ambient
    space; the functional extends by zero to the full tensor of the factor
    truncated algebras, so every pair (alpha1, alpha2) of factor indices
    contributes one equation -- with right side v at the concatenated index
    when its total degree stays within the jet order and zero beyond it.
    That extension is what makes the linear system uniquely solvable, so the
    exact solve over the series field must recover the constants; any
    non-constant coefficient or inconsistency raises DecompositionFailure.
    """
    lam_prod = multi_indices(n_left + n_right, order_m)
    lam_left = multi_indices(n_left, order_m)
    lam_right = multi_indices(n_right, order_m)
    if len(v) != len(lam_prod):
        raise DimensionMismatch("jet vector does not match the product index set")
    for w in basis_left:
        if len(w) != len(lam_left):
            raise DimensionMismatch("left basis vector has the wrong length")
    for w in basis_right:
        if len(w) != len(lam_right):
            raise DimensionMismatch("right basis vector has the wrong length")
    vmap = {alpha: x for alpha, x in zip(lam_prod, v)}
    prec = min(x.prec for x in v)
    zero = TSeries.zero(prec)

    posL = {a: i for i, a in enumerate(lam_left)}
    posR = {a: i for i, a in enumerate(lam_right)}

    def entry(alpha):
        if sum(alpha) <= order_m:
            return vmap[alpha]
        return zero

    # Pure-left block: rows alpha1 in Lambda_left, unknowns per left basis vector.
    rows = [[w[posL[a]] for w in basis_left] for a in lam_left]
    rhs = [entry(a + (0,) * n_right) for a in lam_left]
    c_left = _solve_block(rows, len(basis_left), rhs, "left")

    rows = [[w[posR[a]] for w in basis_right] for a in lam_right]
    rhs = [entry((0,) * n_left + a) for a in lam_right]
    c_right = _solve_block(rows, len(basis_right), rhs, "right")

    # Mixed block over the full rectangle of factor indices.
    rows = []
    rhs = []
    for a1 in lam_left:
        for a2 in lam_right:
            rows.append(
                [
                    wl[posL[a1]] * wr[posR[a2]]
                    for wl in basis_left
                    for wr in basis_right
                ]
            )
            rhs.append(entry(a1 + a2))
    flat = _solve_block(rows, len(basis_left) * len(basis_right), rhs, "mixed")
    pair = [
        flat[i * len(basis_right) : (i + 1) * len(basis_right)]
        for i in range(len(basis_left))
    ]
    return ProductDecomposition(Fraction(0), c_left, c_right, pair)


def _solve_block(rows, ncols, rhs, label):
    if ncols == 0:
        if any(x != 0 for x in rhs):
            raise DecompositionFailure(f"{label} block inconsistent with empty basis")
        return []
    try:
        sols = solve(rows, ncols, [rhs], SERIES)
    except ValueError as exc:
        raise DecompositionFailure(
            f"{label} block is underdetermined; basis vectors are dependent"
        ) from exc
    if sols is None:
        raise DecompositionFailure(f"{label} block is inconsistent")
    out = []
    for x in sols[0]:
        if not x.is_constant():
            raise DecompositionFailure(
                f"non-constant coefficient {x} in the {label} block"
            )
        out.append(x.constant_term)
    return out
