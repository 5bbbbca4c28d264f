"""Differential tests of the exact kernels against naive references.

`sharp_integrate` is compared with the re-evaluate-every-step Taylor loop,
`TSeries.__mul__` with a plain Fraction double loop, rational `rref` with
plain Fraction Gauss-Jordan elimination, `rank` and `nullspace` with sympy,
`fundamental_matrix` with the Fraction coefficient recursion, and batched
`constant_combination` with one elimination per target.  All randomness is
seeded, so every run checks the same cases.
"""

import random
from fractions import Fraction as F

import pytest

from djets.acceptance import _random_module
from djets.delta_modules import dual, horizontal_sections, pairing_phi, tensor
from djets.dvariety import DVariety, sharp_integrate
from djets.errors import InsufficientPrecision
from djets.linalg import (
    RATIONAL,
    LinSystem,
    constant_combination,
    nullspace,
    primitive_vector,
    rank,
    rref,
)
from djets.mpoly import MPoly, multi_indices_with_zero
from djets.series import TSeries, fundamental_matrix

NAMES = ("x", "y", "z")


# -- references ----------------------------------------------------------------

def reference_integrate(section, initial, order):
    """Coefficient k+1 of x_j is coefficient k of s_j(x truncated at k), / (k+1)."""
    coeffs = [[F(c)] for c in initial]
    for k in range(order):
        truncated = [TSeries(cs, k) for cs in coeffs]
        for j, s in enumerate(section):
            value = s.eval(truncated)
            if not isinstance(value, TSeries):
                value = TSeries.constant(value, k)
            coeffs[j].append(value.coeffs[k] / (k + 1))
    return [TSeries(cs, order) for cs in coeffs]


def naive_mul(a, b):
    n = min(a.prec, b.prec)
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return out, n


# -- sharp_integrate -------------------------------------------------------------

def random_rational(rng):
    return F(rng.randint(-4, 4), rng.randint(1, 3))


def random_section(rng, nvars):
    variables = NAMES[:nvars]
    monomials = multi_indices_with_zero(nvars, 3)
    section = []
    for _ in range(nvars):
        chosen = rng.sample(monomials, rng.randint(1, min(4, len(monomials))))
        section.append(MPoly(variables, {e: random_rational(rng) for e in chosen}))
    return DVariety(variables, (), tuple(section))


def assert_matches_reference(variety, initial, order):
    point = sharp_integrate(variety, initial, order)
    expected = reference_integrate(variety.section, initial, order)
    for got, want in zip(point.coords, expected):
        assert got.prec == want.prec == order
        assert got.coeffs == want.coeffs
        assert all(type(c) is F for c in got.coeffs)


@pytest.mark.parametrize("seed", range(12))
def test_sharp_integrate_matches_reference_on_random_sections(seed):
    rng = random.Random(seed)
    nvars = 1 + seed % 3
    variety = random_section(rng, nvars)
    initial = [random_rational(rng) for _ in range(nvars)]
    assert_matches_reference(variety, initial, 7)


def test_sharp_integrate_zero_section():
    xy = NAMES[:2]
    variety = DVariety(xy, (), (MPoly.zero(xy), MPoly.zero(xy)))
    assert_matches_reference(variety, (F(3, 2), -1), 9)
    point = sharp_integrate(variety, (F(3, 2), -1), 9)
    assert all(c.is_constant() for c in point.coords)


def test_sharp_integrate_equilibrium():
    # s = (x - 2)*y, y*(y + 1): the point (2, -1) does not move.
    xy = NAMES[:2]
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    variety = DVariety(xy, (), ((x - 2) * y, y * (y + 1)))
    assert_matches_reference(variety, (2, -1), 10)
    point = sharp_integrate(variety, (2, -1), 10)
    assert point.coords == (TSeries.constant(2, 10), TSeries.constant(-1, 10))


def test_sharp_integrate_constant_terms_only():
    xyz = NAMES
    section = tuple(MPoly.constant(xyz, c) for c in (1, F(-1, 2), 0))
    assert_matches_reference(DVariety(xyz, (), section), (0, 1, 2), 6)


def test_sharp_integrate_series_coefficient():
    # x' = c1(t) x + c0(t) + x^2 with series coefficients c0, c1.
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    order = 9
    c1 = TSeries([1, 1, F(1, 2), 0, F(-1, 3)], order)
    c0 = TSeries([0, 2, 0, F(5, 7)], order)
    variety = DVariety(xs, (), (MPoly(xs, {(1,): c1, (0,): c0}) + x**2,))
    assert_matches_reference(variety, (F(1, 3),), order)


def test_sharp_integrate_series_coefficient_needs_precision():
    xs = ("x",)
    section = MPoly(xs, {(1,): TSeries([1, 1], 3)})
    variety = DVariety(xs, (), (section,))
    assert_matches_reference(variety, (1,), 4)
    with pytest.raises(InsufficientPrecision):
        sharp_integrate(variety, (1,), 5)


def test_sharp_integrate_on_a_proper_subvariety():
    xy = NAMES[:2]
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    parabola = DVariety(xy, (y - x**2,), (MPoly.constant(xy, 1), 2 * x))
    assert_matches_reference(parabola, (F(1, 2), F(1, 4)), 12)


# -- TSeries.__mul__ ---------------------------------------------------------------

def is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_from(start, count):
    out = []
    n = start
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return out


def assert_product_matches(a, b):
    want, n = naive_mul(a, b)
    for got in (a * b, b * a):
        assert got.prec == n
        assert list(got.coeffs) == want
        assert all(type(c) is F for c in got.coeffs)


@pytest.mark.parametrize("seed", range(10))
def test_mul_matches_naive_with_mismatched_precisions(seed):
    rng = random.Random(100 + seed)
    pa, pb = rng.randint(0, 14), rng.randint(0, 14)
    a = TSeries([random_rational(rng) for _ in range(pa + 1)], pa)
    b = TSeries([random_rational(rng) for _ in range(pb + 1)], pb)
    assert_product_matches(a, b)


@pytest.mark.parametrize("seed", range(6))
def test_mul_matches_naive_on_zero_heavy_series(seed):
    rng = random.Random(200 + seed)
    prec = 16

    def sparse():
        return TSeries(
            [random_rational(rng) if rng.random() < 0.2 else 0 for _ in range(prec + 1)],
            prec,
        )

    assert_product_matches(sparse(), sparse())
    assert_product_matches(sparse(), TSeries.zero(prec))
    assert_product_matches(TSeries([0] * 9 + [F(2, 3)], prec), sparse())


def test_mul_matches_naive_with_large_prime_denominators():
    rng = random.Random(7)
    primes = primes_from(10**12, 24)
    a = TSeries([F(rng.randint(-10**6, 10**6), p) for p in primes[:12]], 11)
    b = TSeries([F(rng.randint(1, 10**6), p) for p in primes[12:]], 11)
    assert_product_matches(a, b)
    assert_product_matches(a, a)


def test_mul_by_scalars():
    a = TSeries([F(1, 2), 0, F(-3, 5)], 2)
    assert (a * 4).coeffs == (F(2), F(0), F(-12, 5))
    assert (F(5, 3) * a).coeffs == (F(5, 6), F(0), F(-1))
    assert (a * 0).is_zero()


# -- rational rref ---------------------------------------------------------------------

def reference_rref(rows, ncols, pivot_limit=None):
    """Gauss-Jordan elimination on Fractions, normalising each pivot row at once."""
    m = [[F(x) for x in r] for r in rows]
    if pivot_limit is None:
        pivot_limit = ncols
    pivots = []
    r = 0
    for c in range(pivot_limit):
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
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


def random_entry(rng, rational):
    if rng.random() < 0.3:
        return F(0)
    if rational:
        return F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 7, 12, 35]))
    return F(rng.randint(-5, 5))


def random_system(rng):
    """Rows of [M | rhs]: zero rows, dependent columns, right-hand sides that
    are combinations of the pivot-eligible columns, sometimes perturbed."""
    nrows = rng.randint(1, 8)
    limit = rng.randint(1, 6)
    nrhs = rng.randint(0, 3)
    rational = rng.random() < 0.6
    cols = []
    for _ in range(limit):
        if cols and rng.random() < 0.35:
            a, b = rng.choice(cols), rng.choice(cols)
            s, t = random_entry(rng, rational), random_entry(rng, rational)
            cols.append([s * x + t * y for x, y in zip(a, b)])
        else:
            cols.append([random_entry(rng, rational) for _ in range(nrows)])
    for _ in range(nrhs):
        coeffs = [random_entry(rng, rational) for _ in range(limit)]
        col = [sum(c * x[i] for c, x in zip(coeffs, cols)) for i in range(nrows)]
        if rng.random() < 0.5:
            col[rng.randrange(nrows)] += F(1, rng.randint(1, 5))
        cols.append(col)
    rows = [[col[i] for col in cols] for i in range(nrows)]
    for i in range(nrows):
        if rng.random() < 0.15:
            rows[i] = [F(0)] * len(cols)
    return rows, len(cols), limit


def assert_rref_matches(rows, ncols, limit=None):
    red, pivots = rref(rows, ncols, RATIONAL, pivot_limit=limit)
    want, want_pivots = reference_rref(rows, ncols, limit)
    assert pivots == want_pivots
    assert len(red) == len(want)
    assert all(type(x) is F for row in red for x in row)
    r = len(pivots)
    assert red[:r] == want[:r]
    for got_row, want_row in zip(red[r:], want[r:]):
        # rows below the pivots: nonzero multiples of the Fraction rows
        assert [x != 0 for x in got_row] == [x != 0 for x in want_row]
        j = next((j for j, x in enumerate(want_row) if x != 0), None)
        if j is not None:
            ratio = got_row[j] / want_row[j]
            assert [ratio * x for x in want_row] == got_row
    return red, pivots


@pytest.mark.parametrize("seed", range(40))
def test_rational_rref_matches_fraction_gauss_jordan(seed):
    rng = random.Random(300 + seed)
    rows, ncols, limit = random_system(rng)
    red, pivots = assert_rref_matches(rows, ncols, limit)
    assert_rref_matches(rows, ncols)
    consistent = all(x == 0 for row in red[len(pivots):] for x in row)
    if consistent and ncols > limit:
        # every right-hand side is solved by the returned pivot rows
        for j in range(limit, ncols):
            x = [F(0)] * limit
            for row, pc in zip(red, pivots):
                x[pc] = row[j]
            for row in rows:
                assert sum(a * b for a, b in zip(row[:limit], x)) == row[j]


def test_rational_rref_edge_cases():
    assert rref([], 3, RATIONAL) == ([], [])
    assert_rref_matches([[0, 0], [0, 0]], 2)
    assert_rref_matches([[F(2, 3), F(-4, 9), 6]], 3)
    assert_rref_matches([[1, 2, 3], [2, 4, 7], [0, 0, 1]], 3, 2)
    assert_rref_matches([[0, F(1, 2)], [0, F(1, 3)]], 2, 1)
    red, pivots = rref([[3, 1], [6, 2]], 2, RATIONAL)
    assert pivots == [0] and red == [[1, F(1, 3)], [0, 0]]


# -- rank and nullspace over Q against sympy -------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_rank_and_nullspace_match_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(400 + seed)
    rows, ncols, _ = random_system(rng)
    system = LinSystem(rows, ncols, RATIONAL)
    matrix = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                           for row in rows])
    assert rank(system) == matrix.rank()
    want = [
        primitive_vector([F(int(x.p), int(x.q)) for x in vec])
        for vec in matrix.nullspace()
    ]
    assert nullspace(system) == want


# -- fundamental_matrix ----------------------------------------------------------------

def reference_fundamental(A, order):
    """The Fraction coefficient recursion Y_(k+1) = (A Y)_k / (k+1)."""
    d = len(A)
    phis = [[[F(int(i == j)) for j in range(d)] for i in range(d)]]
    for k in range(order):
        acc = [[F(0)] * d for _ in range(d)]
        for i in range(k + 1):
            P = phis[k - i]
            for r in range(d):
                for s in range(d):
                    a = A[r][s].coeffs[i]
                    for c in range(d):
                        acc[r][c] += a * P[s][c]
        phis.append([[x / (k + 1) for x in row] for row in acc])
    return [[[phis[k][r][c] for k in range(order + 1)] for c in range(d)]
            for r in range(d)]


def assert_fundamental_matches(A, order):
    phi = fundamental_matrix(A, order)
    want = reference_fundamental(A, order)
    for got_row, want_row in zip(phi, want):
        for got, coeffs in zip(got_row, want_row):
            assert got.prec == order
            assert list(got.coeffs) == coeffs
            assert all(type(c) is F for c in got.coeffs)


def random_series_matrix(rng, d, prec, density):
    dens = [1, 1, 2, 3, 5, 6, 7, 11, 49]
    return [
        [
            TSeries([
                F(rng.randint(-4, 4), rng.choice(dens)) if rng.random() < density else 0
                for _ in range(prec + 1)
            ], prec)
            for _ in range(d)
        ]
        for _ in range(d)
    ]


@pytest.mark.parametrize("d", range(1, 6))
def test_fundamental_matrix_matches_fraction_recursion(d):
    rng = random.Random(500 + d)
    for order, density in ((0, 0.7), (1, 0.7), (9, 0.7), (9, 0.25), (14, 1.0)):
        A = random_series_matrix(rng, d, max(order - 1, 0) + rng.randint(0, 2), density)
        assert_fundamental_matches(A, order)


@pytest.mark.parametrize("d", range(1, 6))
def test_fundamental_matrix_zero_and_constant(d):
    rng = random.Random(600 + d)
    assert_fundamental_matches([[TSeries.zero(8)] * d for _ in range(d)], 9)
    constant = [[TSeries.constant(F(rng.randint(-3, 3), rng.randint(1, 4)), 10)
                 for _ in range(d)] for _ in range(d)]
    assert_fundamental_matches(constant, 11)
    assert_fundamental_matches(constant, 0)


# -- batched constant_combination ------------------------------------------------------

def reference_combination(target, basis):
    """One Fraction elimination of [basis | target] at the pair's own precision."""
    k = len(basis)
    prec = min(e.prec for v in [target, *basis] for e in v)
    rows = [
        [v[c].coeffs[p] for v in basis] + [target[c].coeffs[p]]
        for c in range(len(target))
        for p in range(prec + 1)
    ]
    red, pivots = reference_rref(rows, k + 1, k)
    if any(row[k] != 0 for row in red[len(pivots):]):
        return None
    x = [F(0)] * k
    for row, pc in zip(red, pivots):
        x[pc] = row[k]
    return x


def assert_combinations_match(targets, basis):
    got = constant_combination(targets, basis)
    assert got == [reference_combination(t, basis) for t in targets]
    return got


@pytest.mark.parametrize("dims", [(1, 2), (2, 1), (2, 2), (1, 3)])
def test_batched_combination_matches_per_target_on_module_pairs(dims):
    rng = random.Random(700 + 10 * dims[0] + dims[1])
    prec = 10
    left, right = (_random_module(rng, d, prec) for d in dims)
    hm = horizontal_sections(dual(left))
    hn = horizontal_sections(dual(right))
    pairings = [pairing_phi(v, w) for v in hm for w in hn]
    target = horizontal_sections(dual(tensor(left, right)))
    assert all(c is not None for c in assert_combinations_match(pairings, target))
    assert all(c is not None for c in assert_combinations_match(target, pairings))
    # partial bases: the dropped directions are missing from the span
    got = assert_combinations_match(pairings, target[1:])
    assert any(c is None for c in got)
    # a dependent basis: coefficients of non-pivot vectors are zero
    extra = [2 * a - b for a, b in zip(target[0], target[-1])]
    assert_combinations_match(pairings, target + [extra])


def test_batched_combination_recovers_coefficients_and_empty_basis():
    rng = random.Random(800)
    prec = 8
    basis = [[TSeries([random_entry(rng, True) for _ in range(prec + 1)], prec)
              for _ in range(3)] for _ in range(2)]
    coeffs = [[F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in basis] for _ in range(4)]
    targets = [[sum((c * v[i] for c, v in zip(cs, basis)), TSeries.zero(prec))
                for i in range(3)] for cs in coeffs]
    targets.append([TSeries([1], prec)] * 3)
    got = assert_combinations_match(targets, basis)
    assert got[:4] == coeffs and got[4] is None
    # rows run through the precision of the least precise vector
    low = [e.at_precision(prec - 3) for e in targets[0]]
    assert assert_combinations_match([low], basis) == [coeffs[0]]
    assert assert_combinations_match(basis, [low]) == [None, None]
    zero = [TSeries.zero(prec)] * 3
    assert constant_combination([zero, targets[0]], []) == [[], None]
    assert constant_combination([], basis) == []
