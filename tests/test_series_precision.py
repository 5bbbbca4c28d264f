"""Precision bookkeeping of TSeries, checked as properties.

Sums, products and quotients keep the smaller guaranteed order and their
coefficients through any order m depend only on the inputs through m;
`derive` loses exactly one order; `at_precision` only lowers; `==` means
agreement through the shared order.  `fundamental_matrix` and
`horizontal_sections` read their inputs only through the order they need:
extending every entry past it with random coefficients changes neither the
output nor its claimed order, with or without a rational initial value,
and from an initial value Y0 the solution is the fundamental matrix times
Y0 in every entry and every precision.  `packed_kron`, `mat_mul` and
`is_horizontal` read their inputs the same way: an extended entry of a
Kronecker product or of a matrix product agrees with the original through
its claimed order, which does not drop (for `mat_mul` it is the least
precision of the series in the row and column it pairs), and the
horizontality verdict neither changes when either side is extended past
the order the other side limits the check to, nor misses a change at that
order.  `sharp_integrate` on a rational section agrees at order N with its
answer at order N + k cut to N, and `from_hurwitz` reads its rows only
through its order and claims exactly that order.  `product_jet_decompose`
on the pinned products decomposes the same at precision N and N + 3,
reads its factor bases only through their precision, and raises the same
failure for a jet entry changed at its top guaranteed order whether or
not the bases are extended.  Hypothesis runs derandomized, so every run
draws the same examples.
"""

import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from djets.delta_modules import (
    DeltaModule,
    horizontal_sections,
    is_horizontal,
    product_jet_decompose,
)
from djets.dsl import parse_document
from djets.dvariety import (
    DVariety,
    delta_jet_space,
    product_sharp_point,
    sharp_integrate,
)
from djets.errors import DecompositionFailure, InsufficientPrecision
from djets.mpoly import MPoly, multi_indices_with_zero
from djets.series import TSeries, from_hurwitz, fundamental_matrix, mat_mul, packed_kron, unpack

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9)


@st.composite
def series(draw, max_prec=8):
    prec = draw(st.integers(0, max_prec))
    return TSeries(draw(st.lists(rationals, min_size=prec + 1, max_size=prec + 1)), prec)


checked = settings(derandomize=True, max_examples=50, deadline=None)


@checked
@given(series(), series(), st.sampled_from([operator.add, operator.mul, operator.truediv]),
       st.integers(0, 8))
def test_arithmetic_keeps_the_minimum_precision(a, b, op, m):
    if op is operator.truediv:
        assume(b.coeffs[0] != 0)
    result = op(a, b)
    n = min(a.prec, b.prec)
    assert result.prec == n
    m = min(m, n)
    assert result.at_precision(m).coeffs == op(a.at_precision(m), b.at_precision(m)).coeffs


@checked
@given(series())
def test_derive_loses_exactly_one_order(a):
    if a.prec == 0:
        with pytest.raises(InsufficientPrecision):
            a.derive()
        return
    d = a.derive()
    assert d.prec == a.prec - 1
    assert list(d.coeffs) == [(k + 1) * a.coeffs[k + 1] for k in range(a.prec)]


@checked
@given(series(), st.integers(0, 10))
def test_at_precision_only_lowers(a, m):
    if m > a.prec:
        with pytest.raises(InsufficientPrecision):
            a.at_precision(m)
        return
    low = a.at_precision(m)
    assert low.prec == m and low.coeffs == a.coeffs[: m + 1]


@checked
@given(series(), series(), st.integers(0, 8), rationals.filter(bool))
def test_equality_is_agreement_through_the_shared_order(a, b, k, shift):
    n = min(a.prec, b.prec)
    agree = a.coeffs[: n + 1] == b.coeffs[: n + 1]
    assert (a == b) == agree == (b == a)
    # changing one coefficient matters exactly when it lies within the shared order
    same = TSeries(a.coeffs[: b.prec + 1] + b.coeffs[a.prec + 1:], b.prec)
    assert same == a
    k %= same.prec + 1
    changed = TSeries(
        [c + shift if i == k else c for i, c in enumerate(same.coeffs)], same.prec
    )
    assert (changed == a) == (k > min(a.prec, same.prec))
    if a.is_constant():
        assert a == a.coeffs[0]


@st.composite
def extended_matrix(draw, max_dim=3, max_prec=8):
    """A square matrix of series at one precision p, and the same matrix with
    every entry extended past p by one to three random coefficients."""
    d = draw(st.integers(1, max_dim))
    p = draw(st.integers(0, max_prec))
    A, B = [], []
    for _ in range(d):
        row, ext = [], []
        for _ in range(d):
            cs = draw(st.lists(rationals, min_size=p + 1, max_size=p + 1))
            more = draw(st.lists(rationals, min_size=1, max_size=3))
            row.append(TSeries(cs, p))
            ext.append(TSeries(cs + more, p + len(more)))
        A.append(row)
        B.append(ext)
    return A, B, p


def exact(matrix):
    return [[(e.nums, e.den, e.prec) for e in row] for row in matrix]


@checked
@given(extended_matrix())
def test_fundamental_matrix_reads_only_through_order_minus_one(case):
    A, B, p = case
    order = p + 1
    got = fundamental_matrix(A, order)
    assert all(e.prec == order for row in got for e in row)
    assert exact(fundamental_matrix(B, order)) == exact(got)
    with pytest.raises(InsufficientPrecision):
        fundamental_matrix(A, order + 1)


@checked
@given(extended_matrix())
def test_horizontal_sections_keep_their_order_past_the_module(case):
    A, B, p = case
    got = horizontal_sections(DeltaModule(A))
    longer = horizontal_sections(DeltaModule(B))
    assert all(e.prec == p + 1 for v in got for e in v)
    assert all(e.prec >= p + 1 for v in longer for e in v)
    assert [[e.at_precision(p + 1) for e in v] for v in longer] == got


@st.composite
def extended_with_initial(draw):
    """An `extended_matrix` case and a d x k rational initial value, k <= d + 1."""
    A, B, p = draw(extended_matrix())
    k = draw(st.integers(0, len(A) + 1))
    row = st.lists(rationals, min_size=k, max_size=k)
    return A, B, p, draw(st.lists(row, min_size=len(A), max_size=len(A)))


@checked
@given(extended_with_initial())
def test_solutions_from_an_initial_value_read_only_through_order_minus_one(case):
    A, B, p, Y0 = case
    order = p + 1
    got = fundamental_matrix(A, order, Y0)
    assert all(e.prec == order for row in got for e in row)
    assert exact(got) == exact(mat_mul(fundamental_matrix(A, order), Y0))
    assert exact(fundamental_matrix(B, order, Y0)) == exact(got)
    with pytest.raises(InsufficientPrecision):
        fundamental_matrix(A, order + 1, Y0)
    sections = horizontal_sections(DeltaModule(A), Y0)
    longer = horizontal_sections(DeltaModule(B), Y0)
    assert len(sections) == len(Y0[0])
    assert all(e.prec == order for v in sections for e in v)
    assert [[e.at_precision(order) for e in v] for v in longer] == sections


def extended_rectangle(rng, max_dim=3, max_prec=6, shape=None):
    """A matrix of series of mixed precisions, and the same matrix with every
    entry extended past its precision by one to three random coefficients;
    its (rows, cols) are `shape`, or drawn up to `max_dim`."""
    def rational():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 9))

    rows, cols = shape or (rng.randint(1, max_dim), rng.randint(1, max_dim))
    A, B = [], []
    for _ in range(rows):
        row, ext = [], []
        for _ in range(cols):
            p = rng.randint(0, max_prec)
            cs = [rational() for _ in range(p + 1)]
            more = [rational() for _ in range(rng.randint(1, 3))]
            row.append(TSeries(cs, p))
            ext.append(TSeries(cs + more, p + len(more)))
        A.append(row)
        B.append(ext)
    return A, B


def packed_kron_slots(A, B):
    """`packed_kron(A, B, 1)` read back: entry (i*r + k, j*s + l), for B of
    shape r x s, is the list of rationals slot r*i + k of column j*s + l
    holds, one per order of the column."""
    den, b, packed = packed_kron(A, B, 1)
    out = [[] for _ in range(len(A) * len(B))]
    for conv in packed:
        for row, xs in zip(out, unpack(conv, b, len(out))):
            row.append([Fraction(x, den) for x in xs])
    return out


@checked
@given(st.randoms(use_true_random=False))
def test_packed_kron_reads_its_factors_only_through_the_claimed_order(rng):
    (A, A2), (B, B2) = extended_rectangle(rng), extended_rectangle(rng)
    got, longer = packed_kron_slots(A, B), packed_kron_slots(A2, B2)
    precs = [[min(x.prec, y.prec) for x in v for y in w] for v in A for w in B]
    for row, row2, prow in zip(got, longer, precs):
        for xs, xs2, e in zip(row, row2, prow):
            assert len(xs2) >= len(xs) > e
            assert xs2[: e + 1] == xs[: e + 1]


@checked
@given(st.randoms(use_true_random=False))
def test_mat_mul_reads_its_factors_only_through_the_claimed_order(rng):
    n, k, m = (rng.randint(1, 3) for _ in range(3))
    (A, A2), (B, B2) = (extended_rectangle(rng, shape=shape) for shape in ((n, k), (k, m)))
    # about a quarter of the entries are rationals, the same in both copies
    for M, M2 in ((A, A2), (B, B2)):
        for row, row2 in zip(M, M2):
            for j in range(len(row)):
                if rng.random() < 0.25:
                    row[j] = row2[j] = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
    got, longer = mat_mul(A, B), mat_mul(A2, B2)
    for i, (row, row2) in enumerate(zip(got, longer)):
        for l, (e, e2) in enumerate(zip(row, row2)):
            precs = [x.prec for j in range(k) for x in (A[i][j], B[j][l])
                     if isinstance(x, TSeries)]
            if not precs:
                assert isinstance(e, Fraction) and e2 == e
                continue
            assert e.prec == min(precs) and e2.prec >= e.prec
            assert exact([[e2.at_precision(e.prec)]]) == exact([[e]])


@checked
@given(extended_matrix(max_prec=6), st.randoms(use_true_random=False))
def test_is_horizontal_reads_its_inputs_only_through_the_checked_order(case, rng):
    A, B, p = case
    sections = horizontal_sections(DeltaModule(A))
    # sections extended past order p + 1: the module still limits the check to p
    longer = [[TSeries(list(e.coeffs) + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))],
                       p + 2) for e in v] for v in sections]
    assert is_horizontal(DeltaModule(A), *longer)
    # the extended module: the sections still limit the check to order p
    assert is_horizontal(DeltaModule(B), *sections)
    # a change at order p of the residual is still seen
    row = rng.randrange(len(A))
    bump = TSeries([0] * (p + 1) + [1], p + 1)
    changed = [e + bump if r == row else e for r, e in enumerate(sections[0])]
    assert not is_horizontal(DeltaModule(B), *sections, changed)
    assert not is_horizontal(DeltaModule(A), *longer, changed)


def rational_section(rng):
    """A section of degree at most 3 with seeded rational coefficients on one
    to three variables, and a rational initial point."""
    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    nvars = rng.randint(1, 3)
    names = ("x", "y", "z")[:nvars]
    monomials = multi_indices_with_zero(nvars, 3)
    section = tuple(
        MPoly(names, {e: rational() for e in rng.sample(monomials, rng.randint(1, 4))})
        for _ in range(nvars)
    )
    return DVariety(names, (), section), [rational() for _ in range(nvars)]


@checked
@given(st.randoms(use_true_random=False), st.integers(0, 8), st.integers(1, 3))
def test_sharp_integrate_agrees_with_a_longer_run_through_its_order(rng, order, more):
    variety, initial = rational_section(rng)
    got = sharp_integrate(variety, initial, order).coords
    longer = sharp_integrate(variety, initial, order + more).coords
    assert all(c.prec == order for c in got)
    assert exact([[c.at_precision(order) for c in longer]]) == exact([got])


@checked
@given(st.randoms(use_true_random=False), st.integers(0, 10))
def test_from_hurwitz_reads_its_rows_only_through_its_order(rng, order):
    scale, step = rng.randint(1, 30), rng.randint(1, 6)
    rows = [[rng.randint(-50, 50) for _ in range(order + 1)] for _ in range(3)]
    # every row extended past the order by one to three nonzero entries
    longer = [row + [rng.choice([-1, 1]) * rng.randint(1, 50)
                     for _ in range(rng.randint(1, 3))] for row in rows]
    got = from_hurwitz(rows, order, scale, step)
    assert all(s.prec == order for s in got)
    assert exact([from_hurwitz(longer, order, scale, step)]) == exact([got])


DJV = Path(__file__).resolve().parent.parent / "djv"

# (document, left dvariety and point, right dvariety and point)
PRODUCTS = [
    ("lines.djv", "L1", "a", "L2", "b"),
    ("corpus.djv", "parabola", "p23", "L", "l1"),
    ("corpus.djv", "cubic", "thalf", "L", "l1"),
    ("corpus.djv", "L", "l1", "Pt", "pt0"),
]


def product_jets(doc, lpoint, rpoint, m, n):
    """The product's horizontal jets and the two factor bases at order m,
    all from sharp points integrated to precision n."""
    lp, rp = doc.sharp_point(lpoint, n), doc.sharp_point(rpoint, n)
    pp = product_sharp_point(lp, rp)
    return (delta_jet_space(pp, m).horizontal,
            delta_jet_space(lp, m).horizontal,
            delta_jet_space(rp, m).horizontal)


def decompose(jets, W, Wp, nvars, m):
    return [d.to_json() for d in product_jet_decompose(jets, W, Wp, *nvars, m)]


def decomposition_failure(jets, W, Wp, nvars, m):
    with pytest.raises(DecompositionFailure) as info:
        product_jet_decompose(jets, W, Wp, *nvars, m)
    return str(info.value)


def extended(vectors, rng):
    """Every entry extended past its precision by one to three random
    coefficients."""
    def entry(e):
        more = [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                for _ in range(rng.randint(1, 3))]
        return TSeries(list(e.coeffs) + more, e.prec + len(more))

    return [[entry(e) for e in v] for v in vectors]


@pytest.mark.parametrize("n", [8, 24])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("case", PRODUCTS, ids=lambda c: f"{c[1]}x{c[3]}")
def test_product_jet_decompose_reads_its_inputs_only_through_their_precision(case, m, n):
    name, left, lpoint, right, rpoint = case
    doc = parse_document((DJV / name).read_text(encoding="utf-8"))
    nvars = (doc.variety(left).nvars, doc.variety(right).nvars)
    jets, W, Wp = product_jets(doc, lpoint, rpoint, m, n)
    got = decompose(jets, W, Wp, nvars, m)
    assert len(got) == len(jets) > 0
    assert decompose(*product_jets(doc, lpoint, rpoint, m, n + 3), nvars, m) == got
    rng = random.Random(100 * m + n)
    W2, Wp2 = extended(W, rng), extended(Wp, rng)
    assert decompose(jets, W2, Wp2, nvars, m) == got
    # one jet entry changed at its top guaranteed order
    j = rng.randrange(len(jets))
    i = rng.randrange(len(jets[j]))
    e = jets[j][i]
    changed = [list(v) for v in jets]
    changed[j][i] = e + TSeries([0] * e.prec + [1], e.prec)
    failure = decomposition_failure(changed, W, Wp, nvars, m)
    assert decomposition_failure(changed, W2, Wp2, nvars, m) == failure
