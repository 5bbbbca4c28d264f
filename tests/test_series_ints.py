"""The stored form of a series, and the integer rows read from it.

A TSeries reads as prec+1 integer numerators `nums` over one positive
denominator `den`, reduced so that gcd(den, *nums) == 1, with den == 1 for
the zero series.
Every operation below starts from seeded operands with 40-bit prime
denominators, negative entries and mismatched precisions, checks that its
result is in that form, and compares `coeffs` with a plain Fraction loop
kept in this file.  The readers of the stored numerators -- rational `rref`
on integer rows and `constant_combination` -- are compared with the same
computation on Fraction rows.

A result is stored unreduced and reduced in place on the first read of
`nums` or `den`.  Chains of products -- a power, a polynomial evaluated at
a series point, a loop s = s*h + g -- match a Fraction oracle built from
sums of exponentials, and a product stores a denominator no larger than the
product of its operands' reduced denominators, so denominators do not grow
along a chain.  An unreduced series prints, compares and answers the zero,
unit and order tests as its reduced copy does, without being reduced.  A
product with an all-zero operand equals the convolved one.

`kron`, `integer_rows` and `is_horizontal` read the stored integers over
one common denominator and reduce nothing: on unreduced inputs they match
the reduced products, the Fraction rows and the true sections, and the
tensor pairing check takes no gcd.
"""

import json
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from djets import series
from djets.acceptance import _random_module
from djets.delta_modules import (
    DeltaModule, dual, horizontal_sections, is_horizontal, tensor, verify_tensor_pairing,
)
from djets.errors import InsufficientPrecision, NonUnitDivisor
from djets.linalg import RATIONAL, constant_combination, rref
from djets.mpoly import MPoly
from djets.series import (
    TSeries, exp_series, fundamental_matrix, kron, mat_mul, render_scalar,
)

PRIMES = (1099511627689, 1099511627609, 549755813911)  # 40-bit primes
DENOMINATORS = PRIMES + (1, 2, 3, 12)


def assert_canonical(s):
    assert type(s.den) is int and all(type(x) is int for x in s.nums)
    assert s.den > 0
    assert gcd(s.den, *s.nums) == 1
    assert len(s.nums) == s.prec + 1
    if not any(s.nums):
        assert s.den == 1


def assert_matches(got, want):
    """`got` is canonical and equals the reference (coefficients, prec)."""
    coeffs, prec = want
    assert_canonical(got)
    assert got.prec == prec
    assert list(got.coeffs) == coeffs
    assert all(type(c) is F for c in got.coeffs)


def random_operand(rng, prec=None, unit=False):
    """A series and its reference (Fraction coefficients, prec)."""
    prec = rng.randint(0, 9) if prec is None else prec
    coeffs = []
    for _ in range(prec + 1):
        u = rng.random()
        if u < 0.25 or (u < 0.35 and not unit):
            coeffs.append(F(0))
        elif u < 0.45:
            coeffs.append(F(rng.randint(-9, 9)))
        else:
            coeffs.append(F(rng.randint(-10**6, 10**6), rng.choice(DENOMINATORS)))
    if unit and coeffs[0] == 0:
        coeffs[0] = F(rng.choice([1, -1]), rng.choice(PRIMES))
    return TSeries(coeffs, prec), (coeffs, prec)


# -- Fraction references ------------------------------------------------------

def ref_add(a, b):
    n = min(a[1], b[1])
    return [a[0][k] + b[0][k] for k in range(n + 1)], n


def ref_neg(a):
    return [-c for c in a[0]], a[1]


def ref_mul(a, b):
    n = min(a[1], b[1])
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[0][i] * b[0][j]
    return out, n


def ref_div(a, b):
    n = min(a[1], b[1])
    out = []
    for k in range(n + 1):
        acc = a[0][k] - sum((out[j] * b[0][k - j] for j in range(k)), F(0))
        out.append(acc / b[0][0])
    return out, n


def ref_derive(a):
    return [(k + 1) * a[0][k + 1] for k in range(a[1])], a[1] - 1


def ref_dot(xs, ys):
    total = ref_mul(xs[0], ys[0])
    for x, y in zip(xs[1:], ys[1:]):
        total = ref_add(total, ref_mul(x, y))
    return total


def ref_fundamental(A, order):
    """Y_(k+1) = (A Y)_k / (k+1) over Fractions; entry (r, c) as (coeffs, order)."""
    d = len(A)
    ys = [[[F(int(r == c)) for c in range(d)] for r in range(d)]]
    for k in range(order):
        nxt = [[F(0)] * d for _ in range(d)]
        for i in range(k + 1):
            for r in range(d):
                for s in range(d):
                    a = A[r][s][0][i]
                    for c in range(d):
                        nxt[r][c] += a * ys[k - i][s][c]
        ys.append([[x / (k + 1) for x in row] for row in nxt])
    return [[([y[r][c] for y in ys], order) for c in range(d)] for r in range(d)]


# -- the stored form after each operation ---------------------------------------

@pytest.mark.parametrize("seed", range(25))
def test_arithmetic_keeps_the_reduced_form(seed):
    rng = random.Random(4000 + seed)
    (a, ra), (b, rb) = random_operand(rng), random_operand(rng)
    (u, ru) = random_operand(rng, unit=True)
    assert_canonical(a)
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(a - b, ref_add(ra, ref_neg(rb)))
    assert_matches(-a, ref_neg(ra))
    assert_matches(a * b, ref_mul(ra, rb))
    assert_matches(a / u, ref_div(ra, ru))
    if a.prec:
        assert_matches(a.derive(), ref_derive(ra))
    m = rng.randint(0, a.prec)
    assert_matches(a.at_precision(m), (ra[0][: m + 1], m))


def test_cancellation_reduces_to_the_lowest_denominator():
    p = PRIMES[0]
    a = TSeries([F(1, p), F(-3, 2 * p), F(5, 6)], 2)
    assert_matches(a - a, ([F(0)] * 3, 2))
    assert_matches(a + (-a), ([F(0)] * 3, 2))
    assert_matches(a * 0, ([F(0)] * 3, 2))
    # equal denominators whose sum shares a factor with them
    sixth = TSeries([F(1, 6), F(-1, 6)], 1)
    assert_matches(sixth + sixth, ([F(1, 3), F(-1, 3)], 1))
    assert (sixth + sixth).den == 3
    # dropping the coefficient with the largest denominator
    assert a.at_precision(0).den == p
    assert TSeries([F(1, 2), F(1, p)], 1).at_precision(0).den == 2
    # the derivative of t^2/2 is t, over 1
    assert_matches(TSeries([0, 0, F(1, 2)], 2).derive(), ([F(0), F(1)], 1))
    assert TSeries([0, 0, F(1, 2)], 2).derive().den == 1


def test_constructor_accepts_ints_fractions_and_strings():
    s = TSeries(["1/2", 3, F(-2, 6)], 4)
    assert (s.nums, s.den, s.prec) == ((3, 18, -2, 0, 0), 6, 4)
    assert s.coeffs == (F(1, 2), F(3), F(-1, 3), F(0), F(0))
    assert_canonical(TSeries([F(1, 4), 7, "5/3"], 1))
    assert TSeries([F(1, 4), 7, "5/3"], 1).den == 4
    assert (TSeries.zero(3).nums, TSeries.zero(3).den) == ((0, 0, 0, 0), 1)
    assert_canonical(TSeries.constant(F(-4, 6), 2))
    with pytest.raises(AttributeError):
        s.coeffs = (F(0),)


def random_matrix(rng, rows, cols, low=0):
    """Series of precisions low..low+9, and their references."""
    pairs = [[random_operand(rng, rng.randint(low, low + 9)) for _ in range(cols)]
             for _ in range(rows)]
    return ([[s for s, _ in row] for row in pairs],
            [[r for _, r in row] for row in pairs])


@pytest.mark.parametrize("seed", range(15))
def test_series_linear_algebra_keeps_the_reduced_form(seed):
    rng = random.Random(4100 + seed)
    rows, inner, cols = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
    A, RA = random_matrix(rng, rows, inner)
    B, RB = random_matrix(rng, inner, cols)
    v, rv = [row[0] for row in B], [row[0] for row in RB]
    column = [[x] for x in v]
    assert_matches(mat_mul([A[0]], column)[0][0], ref_dot(RA[0], rv))
    for (got,), row in zip(mat_mul(A, column), RA):
        assert_matches(got, ref_dot(row, rv))
    product = mat_mul(A, B)
    for r in range(rows):
        for c in range(cols):
            assert_matches(product[r][c], ref_dot(RA[r], [row[c] for row in RB]))


@pytest.mark.parametrize("d", range(1, 4))
def test_fundamental_matrix_keeps_the_reduced_form(d):
    rng = random.Random(4200 + d)
    order = rng.randint(3, 7)
    A, RA = random_matrix(rng, d, d, low=order - 1)
    phi = fundamental_matrix(A, order)
    want = ref_fundamental(RA, order)
    for got_row, want_row in zip(phi, want):
        for got, ref in zip(got_row, want_row):
            assert_matches(got, ref)


# -- division ------------------------------------------------------------------------

def reference(s):
    return list(s.coeffs), s.prec


def rescales(coeffs):
    """Whether some denominator does not divide the lcm of those before it."""
    dens = [c.denominator for c in coeffs]
    return any(lcm(*dens[:k]) % dens[k] for k in range(1, len(dens)))


@pytest.mark.parametrize("seed", range(12))
def test_division_when_quotient_denominators_shrink_then_grow(seed):
    rng = random.Random(4400 + seed)
    prec = rng.randint(6, 14)
    p, r = rng.sample(PRIMES, 2)
    q = []
    for k in range(prec + 1):
        # a large denominator, then small ones, then a new large one
        den = p if k < 2 else rng.choice((1, 2, 3)) if k < prec // 2 else p * r
        q.append(F(rng.randint(-10**6, 10**6) or 1, den))
    assert rescales(q)
    quotient = TSeries(q, prec)
    u, ru = random_operand(rng, prec, unit=True)
    x = quotient * u
    got = x / u
    assert_matches(got, ref_div(reference(x), ru))
    assert got.coeffs == quotient.coeffs


@pytest.mark.parametrize("seed", range(12))
def test_division_by_large_negative_constant_terms(seed):
    rng = random.Random(4500 + seed)
    a, ra = random_operand(rng)
    u, ru = random_operand(rng, unit=True)
    head = F(-(2**60 + rng.randrange(2**60)), rng.choice(PRIMES))
    u = TSeries((head,) + u.coeffs[1:], u.prec)
    ru = ([head] + ru[0][1:], ru[1])
    assert_matches(a / u, ref_div(ra, ru))
    assert_matches(1 / u, ref_div(reference(TSeries.constant(1, u.prec)), ru))


@pytest.mark.parametrize("prec", [96, 200])
def test_inverse_of_exponential(prec):
    c = F(-3, 7)
    u = exp_series(c, prec)
    inv = 1 / u
    assert_matches(inv, ref_div(reference(TSeries.constant(1, prec)), reference(u)))
    assert inv.coeffs == exp_series(-c, prec).coeffs


@pytest.mark.parametrize("c", [0, 1, -1, 2, -2, F(1, 2), F(-3, 5), F(7, 3)])
@pytest.mark.parametrize("prec", [0, 1, 96, 256])
def test_exp_series_is_reduced_and_equals_powers_over_factorials(c, prec):
    want, term = [], F(1)
    for k in range(prec + 1):
        want.append(term)
        term = term * c / (k + 1)
    assert_matches(exp_series(c, prec), (want, prec))


def test_exp_series_rejects_a_negative_precision():
    with pytest.raises(InsufficientPrecision):
        exp_series(F(1, 2), -1)


@pytest.mark.parametrize("seed", range(12))
def test_product_divided_by_a_factor_is_the_other_factor(seed):
    rng = random.Random(4600 + seed)
    u, _ = random_operand(rng, unit=True)
    v, _ = random_operand(rng, u.prec)
    got = (u * v) / u
    assert (got.nums, got.den, got.prec) == (v.nums, v.den, v.prec)


@pytest.mark.parametrize("seed", range(8))
def test_division_by_constants(seed):
    rng = random.Random(4700 + seed)
    a, ra = random_operand(rng)
    for c in (F(-3, rng.choice(PRIMES)), F(rng.choice(PRIMES), 12), 5, -1):
        want = ref_div(ra, reference(TSeries.constant(c, a.prec)))
        assert_matches(a / c, want)
        assert_matches(a / TSeries.constant(c, a.prec), want)


def test_division_by_a_zero_constant_term_is_rejected():
    p = PRIMES[0]
    for divisor in (TSeries([0, F(1, p), 2], 2), TSeries.zero(3), TSeries([0], 0)):
        with pytest.raises(NonUnitDivisor):
            TSeries([1, 2, 3], 3) / divisor
        with pytest.raises(NonUnitDivisor):
            1 / divisor


# -- integer rows ------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_rational_rref_on_integer_rows_equals_fraction_rows(seed):
    rng = random.Random(4300 + seed)
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[rng.randint(-6, 6) if rng.random() < 0.7 else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows > 1:
        # a dependent row, so that some systems have rows below the pivots
        rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]
    limit = rng.randint(0, ncols)
    want = rref([[F(x) for x in row] for row in rows], ncols, RATIONAL, pivot_limit=limit)
    before = [list(row) for row in rows]
    got = rref(rows, ncols, RATIONAL, pivot_limit=limit)
    assert got == want
    # integer rows are read, never changed or handed back
    assert rows == before
    assert not any(out is row for out in got[0] for row in rows)
    # a positive multiple of each row, as the series readers build them
    scaled = [[F(x, q) for x in row] for row, q in zip(rows, PRIMES * 2)]
    assert rref(scaled, ncols, RATIONAL, pivot_limit=limit) == want


def reference_combination(targets, basis):
    """constant_combination on Fraction rows read from `coeffs`."""
    k = len(basis)
    vectors = list(basis) + list(targets)
    prec = min(e.prec for v in vectors for e in v)
    rows = [[v[c].coeffs[p] for v in vectors]
            for c in range(len(vectors[0])) for p in range(prec + 1)]
    red, pivots = rref(rows, len(vectors), RATIONAL, pivot_limit=k)
    out = []
    for j in range(k, len(vectors)):
        if any(row[j] for row in red[len(pivots):]):
            out.append(None)
            continue
        x = [F(0)] * k
        for row, pc in zip(red, pivots):
            x[pc] = row[j]
        out.append(x)
    return out


def test_constant_combination_equals_fraction_rows_on_acceptance_pairs():
    # the module pairs of the acceptance tensor-pairing check (seed 1)
    rng = random.Random(1)
    for _ in range(20):
        dm, dn = rng.randint(1, 3), rng.randint(1, 3)
        left, right = _random_module(rng, dm), _random_module(rng, dn)
        hm = horizontal_sections(dual(left))
        hn = horizontal_sections(dual(right))
        pairings = kron(hm, hn)
        target = horizontal_sections(dual(tensor(left, right)))
        for targets, basis in ((pairings, target), (target, pairings)):
            got = constant_combination(targets, basis)
            assert got == reference_combination(targets, basis)
            assert all(c is not None for c in got)


# -- constant combinations: cases the t^0 rows alone would decide wrongly ------
#
# A basis equal at t^0, a dependent basis, and targets off by one term past
# t^0: each is compared with the Fraction elimination of every row.

def t_power(k, prec, c=1):
    """The series c * t^k at precision prec."""
    return TSeries([0] * k + [c], prec)


def random_vectors(rng, count, ncoords, prec):
    return [[random_operand(rng, prec)[0] for _ in range(ncoords)] for _ in range(count)]


def random_coeffs(rng, count):
    return [F(rng.randint(-5, 5), rng.choice(DENOMINATORS)) for _ in range(count)]


def combine(coeffs, basis, prec):
    return [sum((c * v[i] for c, v in zip(coeffs, basis)), TSeries.zero(prec))
            for i in range(len(basis[0]))]


def assert_combination_matches(targets, basis):
    got = constant_combination(targets, basis)
    assert got == reference_combination(targets, basis)
    return got


@pytest.mark.parametrize("seed", range(8))
def test_a_basis_equal_at_t0_doubles_the_head(seed):
    rng = random.Random(5100 + seed)
    k, ncoords, prec = rng.randint(2, 3), rng.randint(1, 3), rng.randint(7, 9)
    shared = random_vectors(rng, 1, ncoords, prec)[0]
    late = rng.randint(1, 4)
    basis = [[e + t_power(late, prec) * random_operand(rng, prec)[0] for e in shared]
             for _ in range(k)]
    coeffs = [random_coeffs(rng, k) for _ in range(3)]
    targets = [combine(cs, basis, prec) for cs in coeffs]
    targets.append([e + t_power(prec, prec) for e in targets[0]])
    got = assert_combination_matches(targets, basis)
    assert got == coeffs + [None]


@pytest.mark.parametrize("seed", range(8))
def test_a_dependent_basis_is_eliminated_on_every_row(seed):
    rng = random.Random(5200 + seed)
    ncoords, prec = rng.randint(2, 4), rng.randint(2, 6)
    b0, b1 = random_vectors(rng, 2, ncoords, prec)
    zero = [TSeries.zero(prec)] * ncoords
    basis = [b0, zero, b1, [2 * x - y for x, y in zip(b0, b1)]]
    coeffs = [random_coeffs(rng, 2) for _ in range(3)]
    targets = [combine(cs, [b0, b1], prec) for cs in coeffs]
    targets.append([x + t_power(prec, prec) for x in b0])
    got = assert_combination_matches(targets, basis)
    # the non-pivot vectors (the zero and the dependent one) get coefficient 0
    assert got == [[c0, F(0), c1, F(0)] for c0, c1 in coeffs] + [None]


@pytest.mark.parametrize("seed", range(8))
def test_only_the_row_check_sees_a_difference_past_t0(seed):
    rng = random.Random(5300 + seed)
    k = rng.randint(1, 3)
    ncoords, prec = k + rng.randint(0, 2), rng.randint(1, 8)
    basis = random_vectors(rng, k, ncoords, prec)
    # triangular at t^0: vector i starts at coordinate i
    for i, v in enumerate(basis):
        v[:i] = [t_power(1, prec) * x for x in v[:i]]
        v[i] = random_operand(rng, prec, unit=True)[0]
    coeffs = random_coeffs(rng, k)
    combo = combine(coeffs, basis, prec)
    # equal to the combination through t^(prec-1), different at t^prec
    at_top = [x + t_power(prec, prec) for x in combo]
    # different in the last coordinate only, at any order
    power = rng.randint(0, prec)
    last = combo[:-1] + [combo[-1] + t_power(power, prec, rng.choice([-2, 1, 3]))]
    got = assert_combination_matches([combo, at_top, last], basis)
    assert got == [coeffs, None, None]


@pytest.mark.parametrize("seed", range(4))
def test_an_empty_basis_contains_only_zero_targets(seed):
    rng = random.Random(5400 + seed)
    ncoords, prec = rng.randint(1, 3), rng.randint(0, 6)
    zero = [TSeries.zero(prec)] * ncoords
    top_last = zero[:-1] + [t_power(prec, prec)]
    dense = [random_operand(rng, prec, unit=True)[0] for _ in range(ncoords)]
    got = assert_combination_matches([zero, top_last, dense, zero], [])
    assert got == [[], None, None, []]


@pytest.mark.parametrize("seed", range(6))
def test_targets_below_the_basis_precision_cut_every_row(seed):
    rng = random.Random(5500 + seed)
    k = rng.randint(1, 3)
    ncoords, prec = k + rng.randint(0, 1), rng.randint(4, 9)
    basis = random_vectors(rng, k, ncoords, prec)
    coeffs = [random_coeffs(rng, k) for _ in range(2)]
    low = prec - rng.randint(1, 3)
    targets = [[x.at_precision(low) for x in combine(cs, basis, prec)] for cs in coeffs]
    # a difference past the targets' precision is not an equation
    targets.append([x + t_power(prec, prec) for x in targets[0]])
    targets.append([x + t_power(low, prec) for x in targets[1]])
    got = assert_combination_matches(targets, basis)
    assert got == coeffs + [coeffs[0], None]
    # and the other way round: the basis through the low targets
    assert_combination_matches(basis, targets[:k])


# -- reduction on read ----------------------------------------------------------

CHAIN_PREC = 96
G_RATE, H_RATE = F(1, 3), F(-2, 5)  # g = exp(t/3), h = exp(-2t/5)


def ref_exps(weighted_rates):
    """sum of w * exp(r t) over (w, r) pairs, through order CHAIN_PREC."""
    total = [F(0)] * (CHAIN_PREC + 1)
    for w, r in weighted_rates:
        term = F(w)
        for k in range(CHAIN_PREC + 1):
            total[k] += term
            term = term * r / (k + 1)
    return total, CHAIN_PREC


def ref_den(ref):
    return lcm(*(c.denominator for c in ref[0]))


def stored_den(s, monkeypatch):
    """The denominator `s` stores before its first read, seen through the one
    gcd with which reading `den` reduces it in place; later reads take none."""
    seen = []

    def spy(*args):
        seen.append(args)
        return gcd(*args)

    with monkeypatch.context() as m:
        m.setattr(series, "gcd", spy)
        den, nums = s.den, s.nums
        assert (s.den, s.nums) == (den, nums)
    assert len(seen) == 1
    stored, *raw = seen[0]
    assert stored % den == 0
    assert raw == [x * (stored // den) for x in nums]
    return stored


def poly():
    x, y = (MPoly.variable(("x", "y"), v) for v in "xy")
    return (x + 2 * y + 1) ** 5 - x * y


def power_chain(g, h):
    return g**16


def eval_chain(g, h):
    return poly().eval((g, h))


def step_chain(g, h):
    s = g
    for _ in range(12):
        s = s * h + g
    return s


CHAINS = {
    "power": (power_chain, [(1, 16 * G_RATE)]),
    "eval": (eval_chain,
             [(c, i * G_RATE + j * H_RATE) for (i, j), c in poly().terms.items()]),
    # s_12 = g + g h + ... + g h^12
    "steps": (step_chain, [(1, G_RATE + i * H_RATE) for i in range(13)]),
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_chains_of_products_match_the_fraction_oracle(name):
    chain, rates = CHAINS[name]
    g, h = exp_series(G_RATE, CHAIN_PREC), exp_series(H_RATE, CHAIN_PREC)
    assert_matches(chain(g, h), ref_exps(rates))


def test_a_product_stores_at_most_the_product_of_reduced_denominators(monkeypatch):
    g, h = exp_series(G_RATE, CHAIN_PREC), exp_series(H_RATE, CHAIN_PREC)
    # fresh products, not yet read, as operands of another product
    a, b = g * h, g * g
    p = a * b
    bound = (ref_den(ref_exps([(1, G_RATE + H_RATE)]))
             * ref_den(ref_exps([(1, 2 * G_RATE)])))
    assert stored_den(p, monkeypatch) <= bound
    assert_matches(p, ref_exps([(1, 3 * G_RATE + H_RATE)]))
    # the last step of g**16 is the square of g**8
    assert stored_den(g**16, monkeypatch) <= ref_den(ref_exps([(1, 8 * G_RATE)])) ** 2


def test_an_unreduced_series_reads_like_its_reduced_copy(monkeypatch):
    g, h = exp_series(G_RATE, CHAIN_PREC), exp_series(H_RATE, CHAIN_PREC)
    t2 = TSeries([0, 0, F(1, 6)], CHAIN_PREC)

    def fresh():
        return (g * h) * t2

    raw, other, reduced = fresh(), fresh(), fresh()
    unit = g * h
    reduced.nums
    assert json.dumps(render_scalar(raw)) == json.dumps(render_scalar(reduced))
    assert raw.coeffs == reduced.coeffs and str(raw) == str(reduced)
    assert raw.constant_term == reduced.constant_term == 0
    # unequal stored denominators cross-multiply, equal ones compare numerators
    assert raw == reduced and reduced == raw and raw == other
    assert raw != reduced + TSeries([0] * CHAIN_PREC + [1], CHAIN_PREC)
    assert (raw - reduced).is_zero() and (raw - other).is_zero()
    assert not raw.is_zero() and not (-raw).is_zero()
    assert raw.order() == (-raw).order() == reduced.order() == 2
    assert not raw.is_unit() and not raw.is_constant()
    assert unit.is_unit() and not unit.is_constant()
    # none of these reads reduced `raw` or `unit`: each first read of `den`
    # still takes the one gcd
    assert stored_den(raw, monkeypatch) > raw.den
    assert stored_den(unit, monkeypatch) > unit.den


# -- linear readers over one stored denominator ----------------------------------
#
# `kron`, `integer_rows` and `is_horizontal` read the stored integers over the
# lcm of the stored denominators and reduce nothing.  Each is compared with
# the reduced form on unreduced inputs, and the tensor pairing check, whose
# families share one stored denominator, takes no gcd at all.

def count_gcds(monkeypatch):
    """The list of every `series.gcd` call made from now on."""
    seen = []

    def spy(*args):
        seen.append(args)
        return gcd(*args)

    monkeypatch.setattr(series, "gcd", spy)
    return seen


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2)])
def test_the_tensor_pairing_check_takes_no_gcd(shape, monkeypatch):
    rng = random.Random(29)
    left, right = (_random_module(rng, dim, prec=24) for dim in shape)
    seen = count_gcds(monkeypatch)
    report = verify_tensor_pairing(left, right)
    assert report.ok
    assert seen == []


def rational_module(rng, dim, prec):
    """A module whose entries have coefficients such as 1/3 and -2/5."""
    return DeltaModule.from_rows(
        [[TSeries([F(rng.randint(-3, 3), rng.choice((1, 3, 5))) for _ in range(3)], prec)
          for _ in range(dim)] for _ in range(dim)]
    )


def raw_sums(rng, rows, cols, prec):
    """Sums a + b over the stored denominator 15 whose values are in Z/3."""
    def entry():
        xs = [F(-2, 5), F(1, 3)] + [F(rng.randint(-9, 9), 15) for _ in range(prec)]
        ys = [F(rng.randint(-9, 9), 3) for _ in range(prec + 1)]
        a = TSeries(xs, prec + 1)
        return a + TSeries([y - x for x, y in zip(xs, ys)], prec)
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def kron_factors(seed):
    """One from_hurwitz family, the columns of a fundamental matrix, and a
    matrix of raw sums; neither has been read reduced."""
    module = rational_module(random.Random(2900 + seed), 2, 6)
    return fundamental_matrix(module.matrix, 7), raw_sums(random.Random(seed), 3, 2, 5)


@pytest.mark.parametrize("seed", range(4))
def test_kron_of_unreduced_inputs_reads_as_the_products(seed, monkeypatch):
    A, B = kron_factors(seed)
    got = kron(A, B)
    # kron read its inputs as stored: each first read of `den` still reduces
    assert stored_den(A[0][0], monkeypatch) > A[0][0].den
    assert stored_den(B[0][0], monkeypatch) > B[0][0].den
    A, B = kron_factors(seed)
    r, s = len(B), len(B[0])
    for i, row in enumerate(A):
        for j, x in enumerate(row):
            for k, brow in enumerate(B):
                for l, y in enumerate(brow):
                    e, want = got[r * i + k][s * j + l], x * y
                    assert (e.nums, e.den, e.prec) == (want.nums, want.den, want.prec)


def test_integer_rows_of_mixed_stored_denominators_are_multiples_of_fraction_rows(
        monkeypatch):
    family = [
        exp_series(G_RATE, 12) * exp_series(H_RATE, 10),  # a product, stored raw
        exp_series(G_RATE, 11),                           # a from_hurwitz series
        TSeries([F(-2, 5), 0, F(7, 9)], 11),              # reduced when built
        raw_sums(random.Random(1), 1, 1, 10)[0][0],       # a raw sum
        TSeries.zero(10),
    ]
    prec = min(e.prec for e in family)
    rows = series.integer_rows(family, prec)
    assert len(rows) == prec + 1
    for k, row in enumerate(rows):
        want = [e.coeffs[k] for e in family]
        assert all(type(x) is int for x in row)
        assert [bool(x) for x in row] == [bool(w) for w in want]
        ratios = {x / w for x, w in zip(row, want) if w}
        assert len(ratios) <= 1 and all(q > 0 for q in ratios)
    for e in (family[0], family[1], family[3]):
        stored_den(e, monkeypatch)  # one gcd: still as stored


@pytest.mark.parametrize("seed", range(6))
def test_is_horizontal_on_unreduced_sections_rejects_a_change_at_the_top(seed, monkeypatch):
    rng = random.Random(2950 + seed)
    dim = rng.randint(1, 3)
    module = rational_module(rng, dim, rng.randint(2, 8))
    sections = horizontal_sections(module)
    assert is_horizontal(module, *sections)
    dens = [[e.den for e in v] for v in horizontal_sections(module)]
    for c, v in enumerate(sections):
        for r, e in enumerate(v):
            changed = list(v)
            changed[r] = e + TSeries([0] * e.prec + [F(1, dens[c][r])], e.prec)
            assert not is_horizontal(module, *sections[:c], changed, *sections[c + 1 :])
    stored_den(sections[0][0], monkeypatch)  # one gcd: still as stored


@pytest.mark.parametrize("seed", range(4))
def test_a_product_with_a_zero_operand_equals_the_convolved_one(seed):
    rng = random.Random(2990 + seed)
    x, xref = random_operand(rng, prec=rng.randint(0, 9))
    zero_precision = rng.randint(0, 9)
    zeros = [
        TSeries.zero(zero_precision),
        x - x,                         # stored raw over x's denominator
        TSeries([F(0, 7)] * 3, zero_precision),
    ]
    for z in zeros:
        zref = ([F(0)] * (z.prec + 1), z.prec)
        for got, want in ((z * x, ref_mul(zref, xref)), (x * z, ref_mul(xref, zref))):
            assert_matches(got, want)
            assert got.den == 1 and not any(got.nums)
    assert_matches(x * 0, ref_mul(xref, ([F(0)] * (xref[1] + 1), xref[1])))
    assert_matches(F(0) * x, ref_mul(xref, ([F(0)] * (xref[1] + 1), xref[1])))
