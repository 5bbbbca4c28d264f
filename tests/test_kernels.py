"""Differential tests of the exact kernels against naive references.

`sharp_integrate` is compared with the re-evaluate-every-step Taylor loop
(and at orders 256 and 512 with the Fraction recursion), `TSeries.__mul__`
with a plain Fraction double loop, the slots of `packed_kron` with the
products of its factors' entries and with the sums they must hold, the
batched `is_horizontal` and the packed pairings of `verify_tensor_pairing`
with the one-vector residual check, rational `rref` with plain Fraction
Gauss-Jordan elimination, the rank and `nullspace` with sympy,
`fundamental_matrix` with the Fraction coefficient recursion, and from an
initial value Y0 with the fundamental matrix times Y0, batched
`constant_combination` with one elimination per target, `mat_mul` (also on a
one-column matrix and as the dot product of two vectors) with the fold of
`*` and `+`, series division, Hasse derivatives and `exp_series` with sympy,
and batched `product_jet_decompose` with one solve per jet and block.  All
randomness is seeded, so every run checks the same cases.
"""

import random
from fractions import Fraction as F
from math import factorial, gcd

import pytest

from djets.acceptance import PRECISION, _line, _random_module
from djets.delta_modules import (
    DeltaModule,
    dual,
    horizontal_sections,
    is_horizontal,
    product_jet_decompose,
    tensor,
    verify_tensor_pairing,
)
from djets.dvariety import (
    DVariety,
    delta_jet_space,
    product_dvariety,
    product_sharp_point,
    sharp_integrate,
)
from djets.errors import (
    DecompositionFailure,
    DimensionMismatch,
    DomainMismatch,
    InsufficientPrecision,
    PointNotOnVariety,
    SingularPivot,
)
from djets.linalg import (
    RATIONAL,
    SERIES,
    LinSystem,
    constant_combination,
    nullspace,
    primitive_vector,
    rref,
    solve,
)
from djets.mpoly import MPoly, multi_indices, multi_indices_with_zero
from djets.series import (
    TSeries,
    exp_series,
    from_hurwitz,
    fundamental_matrix,
    mat_mul,
    packed_kron,
    unpack,
)
from djets.tangent import counterexample_variety

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
        assert gcd(got.den, *got.nums) == 1


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


def test_a_section_coefficient_that_is_not_rational_is_refused_on_construction():
    xy = NAMES[:2]
    for c, kind in ((TSeries([1, 1], 9), "TSeries"), (0.5, "float")):
        with pytest.raises(DomainMismatch, match=(
            f"^the coefficient on the monomial x\\*y is a {kind}, not a rational$"
        )):
            MPoly(xy, {(1, 0): 1, (1, 1): c})


def test_sharp_integrate_rejects_a_negative_order():
    xs = ("x",)
    variety = DVariety(xs, (), (MPoly.variable(xs, "x"),))
    for order in (-1, -3):
        with pytest.raises(InsufficientPrecision,
                           match=f"^sharp_integrate: order must be >= 0, got {order}$"):
            sharp_integrate(variety, (2,), order)


def test_sharp_integrate_on_a_proper_subvariety():
    xy = NAMES[:2]
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    parabola = DVariety(xy, (y - x**2,), (MPoly.constant(xy, 1), 2 * x))
    assert_matches_reference(parabola, (F(1, 2), F(1, 4)), 12)


def test_sharp_integrate_with_large_prime_denominators():
    p, q, r, s, u = primes_from(2**40, 5)
    xy = NAMES[:2]
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    section = (F(1, p) * x * y + F(-3, q), F(2, r) * x**2 + y - F(5, u))
    variety = DVariety(xy, (), section)
    assert_matches_reference(variety, (F(5, p), F(-7, s)), 8)
    assert_matches_reference(variety, (F(1, q), 3), 8)


@pytest.mark.parametrize("order", [0, 1])
def test_sharp_integrate_orders_zero_and_one(order):
    for seed in range(6):
        rng = random.Random(seed)
        nvars = 1 + seed % 3
        variety = random_section(rng, nvars)
        initial = [random_rational(rng) for _ in range(nvars)]
        assert_matches_reference(variety, initial, order)
    xs = ("x",)
    variety = DVariety(xs, (), (MPoly(xs, {(1,): F(2, 3), (2,): F(1, 7)}),))
    assert_matches_reference(variety, (F(3, 4),), order)


def test_sharp_integrate_mixes_degrees_zero_to_three():
    xyz = NAMES
    x, y, z = (MPoly.variable(xyz, v) for v in xyz)
    section = (
        F(1, 2) + x - F(1, 3) * y * z + x**3,
        F(-2, 5) * x * y * z + y**2 - 1,
        z - F(3, 4) * x**2 * y + F(1, 6) * z**3 + x * y,
    )
    assert_matches_reference(DVariety(xyz, (), section), (F(1, 3), F(-1, 2), 2), 12)


def test_sharp_integrate_counterexample_variety():
    assert_matches_reference(counterexample_variety(), (2, 1), 64)


def test_sharp_integrate_rechecks_the_integrated_point():
    # s = (1, 1) is not tangent to y = x^2: from (0, 0) the point leaves it.
    xy = NAMES[:2]
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    one = MPoly.constant(xy, 1)
    variety = DVariety(xy, (y - x**2,), (one, one))
    with pytest.raises(PointNotOnVariety, match="integrated point leaves the variety"):
        sharp_integrate(variety, (0, 0), 4)


def fraction_recursion(rates, initial, order):
    """x_j[k+1] = rates[j](x, k) / (k+1) over Fractions, where rates[j] reads
    the coefficient lists x through index k and gives coefficient k of s_j(x)."""
    xs = [[F(c)] for c in initial]
    for k in range(order):
        step = [rate(xs, k) for rate in rates]
        for x, c in zip(xs, step):
            x.append(c / (k + 1))
    return xs


@pytest.mark.parametrize("order", [256, 512])
def test_sharp_integrate_on_linear_and_mixed_sections_at_high_order(order):
    # The binomial row is only updated when some node convolves: never on the
    # linear section, every step on the mixed one, where x convolves (x^2)
    # and y does not.
    xy = NAMES[:2]
    x, y = (MPoly.variable(xy, v) for v in xy)
    cases = [
        (DVariety(xy, (), (x - 2 * y, 3 * x + F(1, 2) * y)), (1, F(-2, 3)), [
            lambda xs, k: xs[0][k] - 2 * xs[1][k],
            lambda xs, k: 3 * xs[0][k] + xs[1][k] / 2,
        ]),
        (DVariety(xy, (), (x**2, x + y)), (1, F(-1, 3)), [
            lambda xs, k: sum(xs[0][i] * xs[0][k - i] for i in range(k + 1)),
            lambda xs, k: xs[0][k] + xs[1][k],
        ]),
    ]
    for variety, initial, rates in cases:
        point = sharp_integrate(variety, initial, order)
        want = fraction_recursion(rates, initial, order)
        assert [(c.prec, list(c.coeffs)) for c in point.coords] == [(order, w) for w in want]


@pytest.mark.parametrize("seed", range(8))
def test_from_hurwitz_matches_fraction_reference(seed):
    rng = random.Random(seed)
    order = rng.randint(0, 12)
    scale, step = rng.randint(1, 30), rng.randint(1, 6)
    rows = [
        [rng.randint(-50, 50) * factorial(k) * rng.choice([1, scale, step**k])
         for k in range(order + 1)]
        for _ in range(3)
    ]
    rows.append([0] * (order + 1))
    got = from_hurwitz(rows, order, scale, step)
    for series, row in zip(got, rows):
        want = [F(a, factorial(k) * scale * step**k) for k, a in enumerate(row)]
        assert series.prec == order
        assert list(series.coeffs) == want
        assert gcd(series.den, *series.nums) == 1


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


# -- packed_kron and the batched horizontality test ------------------------------------

def random_kron_entry(rng):
    """A series of precision 0..8: zero, constant +-10^6 (a slot at the edge
    of the width, of either sign), or Fractions over different denominators."""
    prec = rng.randint(0, 8)
    u = rng.random()
    if u < 0.15:
        return TSeries.zero(prec)
    if u < 0.3:
        return TSeries.constant(rng.choice([10**6, -10**6]), prec)
    return TSeries([F(rng.randint(-10**6, 10**6), rng.choice([1, 2, 3, 7, 12, 49]))
                    for _ in range(prec + 1)], prec)


def unpacked_kron(A, B):
    """`packed_kron(A, B, 1)` read back as series: entry (i*r + k, j*s + l),
    for B of shape r x s, is slot r*i + k of column j*s + l over the one
    denominator, through the lower precision of A[i][j] and B[k][l]."""
    s = len(B[0]) if B else 0
    den, b, packed = packed_kron(A, B, 1)
    out = [[] for _ in range(len(A) * len(B))]
    for c, conv in enumerate(packed):
        j, l = divmod(c, s)
        precs = [min(x[j].prec, y[l].prec) for x in A for y in B]
        for row, xs, e in zip(out, unpack(conv, b, len(out)), precs):
            row.append(TSeries([F(x, den) for x in xs[: e + 1]], e))
    return out


def entrywise_kron(A, B):
    """The Kronecker product of two matrices of series, entry by entry."""
    return [[x * y for x in v for y in w] for v in A for w in B]


def assert_kron_matches(A, B):
    """packed_kron(A, B) holds the products A[i][j] * B[k][l] in nums, den and prec."""
    assert exact_matrix(unpacked_kron(A, B)) == exact_matrix(entrywise_kron(A, B))


@pytest.mark.parametrize("seed", range(12))
def test_packed_kron_matches_the_products_of_entries(seed):
    rng = random.Random(4300 + seed)
    p, q, r, s = (rng.randint(1, 3) for _ in range(4))
    A = [[random_kron_entry(rng) for _ in range(q)] for _ in range(p)]
    B = [[random_kron_entry(rng) for _ in range(s)] for _ in range(r)]
    assert_kron_matches(A, B)
    assert_kron_matches(B, A)


def test_packed_kron_at_the_edge_of_the_slots_and_of_the_shapes():
    # every slot holds +-10^12, the product of the two largest numerator sums
    million = [[TSeries.constant(10**6, 4), TSeries.constant(-10**6, 4)]] * 2
    assert_kron_matches(million, million)
    assert_kron_matches(million, [[TSeries.constant(-10**6, 2)]])
    assert_kron_matches([[TSeries.zero(3)]], million)
    assert unpacked_kron([], []) == [] == unpacked_kron([], million)
    assert unpacked_kron(million, []) == []
    assert unpacked_kron([[], []], [[]]) == [[], []]


@pytest.mark.parametrize("weight", [1, 7, 10**6, 3**40])
def test_packed_kron_slots_hold_weighted_sums_of_slots(weight):
    # every slot holds +-10^12, the product of the two largest numerator
    # sums, so the sums below reach weight * 10^12 in some slot
    million = [[TSeries.constant(10**6, 4), TSeries.constant(-10**6, 4)]] * 2
    den, b, packed = packed_kron(million, million, weight)
    assert den == 1
    first, second = (unpack(packed[c][:1], b, 4) for c in (0, 1))
    for w in (weight, weight - 1, -weight):
        total = w * packed[0][0] - (weight - abs(w)) * packed[1][0]
        want = [w * x[0] - (weight - abs(w)) * y[0] for x, y in zip(first, second)]
        assert [x[0] for x in unpack([total], b, 4)] == want


def reference_is_horizontal(module, vec):
    """The one-vector check: delta(v) + A v is zero to guaranteed precision."""
    Av = [row[0] for row in mat_mul(module.matrix, [[x] for x in vec])]
    return all((x.derive() + y).is_zero() for x, y in zip(vec, Av))


def bumped(vec, row, order):
    """vec with t^order added to entry `row`, at that entry's precision."""
    e = vec[row]
    bump = TSeries([0] * order + [1], e.prec)
    return [e + bump if r == row else x for r, x in enumerate(vec)]


def assert_batch_matches(module, vectors):
    want = [reference_is_horizontal(module, v) for v in vectors]
    assert [is_horizontal(module, v) for v in vectors] == want
    assert is_horizontal(module, *vectors) == all(want)
    return want


def test_batched_horizontality_reads_each_row_to_its_own_order():
    # Rows of precision 5 and 9, triangular, so that v[0] reaches row 0
    # alone; v solves the equations through order 11.
    A = [[F(1, 2), F(-3, 7)], [0, F(5, 3)]]
    v = horizontal_sections(DeltaModule.from_rows(A, 10))[0]
    module = DeltaModule.from_rows(
        [[TSeries.constant(e, 5) for e in A[0]], [TSeries.constant(e, 9) for e in A[1]]]
    )
    # row 0 is checked through order 5, row 1 through order 9
    want = assert_batch_matches(module, [
        v,
        bumped(v, 1, 7),
        bumped(v, 0, 6), bumped(v, 0, 7),
        bumped(v, 1, 10), bumped(v, 1, 11),
    ])
    assert want == [True, False, False, True, False, True]


@pytest.mark.parametrize("seed", range(6))
def test_batched_horizontality_matches_the_one_vector_check(seed):
    rng = random.Random(4400 + seed)
    d = rng.randint(1, 3)
    prec = rng.randint(3, 8)
    module = DeltaModule(tuple(tuple(row) for row in random_series_matrix(rng, d, prec, 0.5)))
    sections = horizontal_sections(module)
    vectors = []
    for v in sections:
        low = [e.at_precision(prec - rng.randint(0, 2)) for e in v]
        vectors += [v, low, bumped(v, rng.randrange(d), rng.randint(1, prec + 1))]
    rng.shuffle(vectors)
    assert_batch_matches(module, vectors)
    assert_batch_matches(module, sections)
    assert is_horizontal(module, *sections)


def test_batched_horizontality_edge_cases():
    module = DeltaModule.from_rows([[1, 0], [F(2, 3), -1]], 4)
    v = horizontal_sections(module)[0]
    assert is_horizontal(module)
    assert is_horizontal(DeltaModule(())) and is_horizontal(DeltaModule(()), [], [])
    assert reference_is_horizontal(DeltaModule(()), [])
    for bad in ([v[0]], v + v[:1]):
        with pytest.raises(DimensionMismatch):
            is_horizontal(module, v, bad)
        with pytest.raises(DimensionMismatch):
            reference_is_horizontal(module, bad)


def module_near_a_million(rng, dim, prec):
    """Entries of degree 4 in t with coefficients near +-10^6, over 1, 3 or 7."""
    def coefficient():
        return F(rng.choice([1, -1]) * (10**6 - rng.randint(0, 9)), rng.choice([1, 1, 3, 7]))
    return DeltaModule.from_rows(
        [[TSeries([coefficient() for _ in range(5)], prec) for _ in range(dim)]
         for _ in range(dim)])


@pytest.mark.parametrize("seed", range(6))
def test_tensor_pairing_residual_slots_hold_coefficients_near_a_million(seed, monkeypatch):
    # verify_tensor_pairing sizes its packed pairings for the residual against
    # the dual tensor; it must decide as the one-vector check on the unpacked
    # pairings, with the right sections as they are and bumped at the top
    rng = random.Random(4600 + seed)
    dims = (rng.randint(1, 3), rng.randint(1, 3)) if seed > 1 else (3, 3)
    left, right = (module_near_a_million(rng, d, 6) for d in dims)
    hm, hn = horizontal_sections(dual(left)), horizontal_sections(dual(right))
    module = dual(tensor(left, right))
    top = hn[-1][0].prec
    for sections, held in ((hn, True), (hn[:-1] + [bumped(hn[-1], 0, top)], False)):
        pairings = entrywise_kron(hm, sections)
        assert all(reference_is_horizontal(module, v) for v in pairings) is held
        assert is_horizontal(module, *pairings) is held
        families = iter([hm, sections])
        monkeypatch.setattr("djets.delta_modules.horizontal_sections",
                            lambda _module: next(families))
        assert verify_tensor_pairing(left, right).pairings_horizontal is held


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
    system = LinSystem(rows, ncols)
    matrix = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                           for row in rows])
    assert len(rref(rows, ncols, RATIONAL)[1]) == matrix.rank()
    want = [
        primitive_vector([F(int(x.p), int(x.q)) for x in vec])
        for vec in matrix.nullspace()
    ]
    got = nullspace(system)
    assert got == want
    assert all(type(e) is int for v in got for e in v)


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


def test_fundamental_matrix_rejects_a_negative_order():
    A = [[TSeries.constant(1, 4)]]
    for order in (-1, -3):
        with pytest.raises(InsufficientPrecision,
                           match=f"^fundamental_matrix: order must be >= 0, got {order}$"):
            fundamental_matrix(A, order)


@pytest.mark.parametrize("call, error, message", [
    (lambda: rref([[TSeries([0, 1], 6)]], 1, SERIES), SingularPivot,
     "rref: no unit pivot available in column 0"),
    (lambda: is_horizontal(DeltaModule.from_rows([[0]], 4), [TSeries.constant(1, 0)]),
     InsufficientPrecision, "is_horizontal: cannot differentiate a precision-0 series"),
    (lambda: fundamental_matrix([[TSeries.constant(1, 4)]], 7), InsufficientPrecision,
     "fundamental_matrix: matrix entries guaranteed to order 4, need 6"),
], ids=["rref", "is_horizontal", "fundamental_matrix"])
def test_errors_name_the_function_that_raises_them(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def constant_matrix(rows, prec):
    return [[TSeries.constant(e, prec) for e in row] for row in rows]


# The packed rows of fundamental_matrix have slots of two more bits than the
# largest majorant of the Hurwitz entries.  For [[2 + 3t]] and 2*I the
# majorant equals the largest entry, so these run at the edge of the width;
# [[0, M], [-M, 0]] fills the slots with negative entries; 1/3 + t/7 and
# t^2/49 have non-integral Hurwitz coefficients, so time is rescaled.
PACKED_CASES = {
    "2+3t": ([[TSeries([2, 3], 39)]], 40),
    "2I": (constant_matrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 39), 40),
    "rotation": (constant_matrix([[0, 10**6], [-10**6, 0]], 29), 30),
    "step": ([[TSeries([F(1, 3), F(1, 7)], 14), TSeries([0, 0, F(1, 49)], 14)],
              [TSeries([0, 0, F(-1, 49)], 14),
               TSeries([F(-2, 3), F(1, 7), 0, F(5, 3)], 14)]], 15),
}


@pytest.mark.parametrize("name", PACKED_CASES)
def test_fundamental_matrix_packed_rows(name):
    A, order = PACKED_CASES[name]
    assert_fundamental_matches(A, order)


def test_fundamental_matrix_empty_zero_and_low_orders():
    assert fundamental_matrix([], 0) == [] == fundamental_matrix([], 1)
    A, _ = PACKED_CASES["step"]
    for order in (0, 1):
        assert_fundamental_matches(A, order)
        assert_fundamental_matches(constant_matrix([[0, 0], [0, 0]], 0), order)


def random_initial(rng, d, k):
    """A d x k rational matrix with denominators, negative entries and, when
    it has one, a zero column."""
    rows = [[F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7, 12])) for _ in range(k)]
            for _ in range(d)]
    if k:
        zero = rng.randrange(k)
        for row in rows:
            row[zero] = F(0)
    return rows


def exact_matrix(matrix):
    return [[(e.nums, e.den, e.prec) for e in row] for row in matrix]


@pytest.mark.parametrize("seed", range(10))
def test_fundamental_matrix_from_an_initial_value_is_the_product(seed):
    # Y(0) = Y0 gives Phi Y0 in every numerator, denominator and precision,
    # for fewer, as many and more columns than rows
    rng = random.Random(700 + seed)
    d = rng.randint(1, 5)
    for order, density in ((0, 0.7), (1, 0.7), (rng.randint(2, 12), 0.7), (9, 0.25)):
        A = random_series_matrix(rng, d, max(order - 1, 0) + rng.randint(0, 2), density)
        phi = fundamental_matrix(A, order)
        for k in sorted({0, 1, max(d - 1, 1), d, d + 2}):
            Y0 = random_initial(rng, d, k)
            got = fundamental_matrix(A, order, Y0)
            assert exact_matrix(got) == exact_matrix(mat_mul(phi, Y0))


def test_fundamental_matrix_identity_and_packed_initial_values():
    # Y0 = I is the default; large entries of both signs still unpack exactly
    for name in PACKED_CASES:
        A, order = PACKED_CASES[name]
        d = len(A)
        identity = [[F(int(r == c)) for c in range(d)] for r in range(d)]
        phi = fundamental_matrix(A, order)
        assert exact_matrix(fundamental_matrix(A, order, identity)) == exact_matrix(phi)
        Y0 = [[F(-10**6 if (r + c) % 2 else 10**6, 7) for c in range(d + 1)]
              for r in range(d)]
        assert exact_matrix(fundamental_matrix(A, order, Y0)) == \
            exact_matrix(mat_mul(phi, Y0))
    A, _ = PACKED_CASES["step"]
    for bad in ([[1, 0]], [[1, 0], [0]]):
        with pytest.raises(DimensionMismatch):
            fundamental_matrix(A, 3, bad)


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
    pairings = entrywise_kron(hm, hn)
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


# -- dot products and mat_mul ------------------------------------------------------

def reference_dot(xs, ys):
    """The left fold of `*` and `+` that `mat_mul` replaces."""
    acc = None
    for x, y in zip(xs, ys):
        term = x * y
        acc = term if acc is None else acc + term
    return acc


def assert_dot_matches(xs, ys):
    got, want = mat_mul([xs], [[y] for y in ys])[0][0], reference_dot(xs, ys)
    assert got.prec == want.prec
    assert got.coeffs == want.coeffs
    assert all(type(c) is F for c in got.coeffs)


def random_operand(rng, denominators=None):
    """A series of random precision (sometimes zero or sparse) or a scalar."""
    kind = rng.random()
    if kind < 0.15:
        return rng.choice([0, 3, -2, F(0), F(5, 7), F(-1, 3)])
    prec = rng.randint(0, 12)
    if kind < 0.25:
        return TSeries.zero(prec)
    coeffs = []
    for _ in range(prec + 1):
        if rng.random() < 0.3:
            coeffs.append(0)
        elif denominators:
            coeffs.append(F(rng.randint(-10**6, 10**6), rng.choice(denominators)))
        else:
            coeffs.append(random_rational(rng))
    return TSeries(coeffs, prec)


def random_dot_pair(rng, n, denominators=None):
    xs = [random_operand(rng, denominators) for _ in range(n)]
    ys = [random_operand(rng, denominators) for _ in range(n)]
    # at least one series, so the fold is a series too
    ys[rng.randrange(n)] = TSeries([random_rational(rng) for _ in range(9)], 8)
    return xs, ys


@pytest.mark.parametrize("seed", range(30))
def test_dot_matches_fold_with_mixed_precisions_and_scalars(seed):
    rng = random.Random(900 + seed)
    assert_dot_matches(*random_dot_pair(rng, rng.randint(1, 7)))


def test_dot_matches_fold_with_large_prime_denominators():
    rng = random.Random(901)
    primes = primes_from(2**40, 16)
    for _ in range(5):
        assert_dot_matches(*random_dot_pair(rng, 6, primes))


def test_dot_edge_cases():
    s = TSeries([F(1, 2), 3, 0, F(-1, 4)], 3)
    # a zero Fraction takes its partner's precision, a zero series its own
    assert_dot_matches([F(0), s], [TSeries([1], 1), s])
    assert_dot_matches([TSeries.zero(1), s], [s, s])
    assert mat_mul([[F(0)]], [[s]])[0][0].prec == 3
    assert mat_mul([[TSeries.zero(1)]], [[s]])[0][0].prec == 1
    # a pair of scalars only adds to the constant term
    assert_dot_matches([2, s, F(1, 3)], [F(3, 4), 5, 6])
    assert mat_mul([[2, F(1, 3)]], [[F(3, 4)], [6]])[0][0] == F(7, 2)
    with pytest.raises(DimensionMismatch):
        mat_mul([[s, s]], [[s]])


@pytest.mark.parametrize("seed", range(6))
def test_mat_vec_and_mat_mul_match_fold(seed):
    rng = random.Random(950 + seed)
    rows, inner, cols = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
    A = [[random_operand(rng) for _ in range(inner)] for _ in range(rows)]
    # the right factor holds series only, as the callers' do
    B = [[TSeries([random_rational(rng) for _ in range(p + 1)], p)
          for p in (rng.randint(0, 10) for _ in range(cols))] for _ in range(inner)]
    v = [row[0] for row in B]
    for (got,), row in zip(mat_mul(A, [[x] for x in v]), A):
        want = reference_dot(row, v)
        assert (got.prec, got.coeffs) == (want.prec, want.coeffs)
    product = mat_mul(A, B)
    for r, row in enumerate(A):
        for c in range(cols):
            want = reference_dot(row, [b[c] for b in B])
            got = product[r][c]
            assert (got.prec, got.coeffs) == (want.prec, want.coeffs)
    with pytest.raises(DimensionMismatch):
        mat_mul(A, B[1:] if inner > 1 else B + B)


# -- series division against sympy ----------------------------------------------------

def sympy_quotient(sympy, e, u, n):
    t = sympy.Symbol("t")

    def poly(s):
        return sum(sympy.Rational(c.numerator, c.denominator) * t**k
                   for k, c in enumerate(s.coeffs[: n + 1]))

    # 1/u modulo t^(n+1) exists since u(0) != 0; e/u is e times it, truncated.
    inverse = sympy.invert(poly(u), t ** (n + 1), t)
    product = sympy.expand(poly(e) * inverse)
    quotient = sympy.Poly(sympy.rem(product, t ** (n + 1), t), t)
    return [F(int(c.p), int(c.q)) for c in
            (quotient.coeff_monomial(t**k) for k in range(n + 1))]


@pytest.mark.parametrize("seed", range(12))
def test_series_division_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1000 + seed)
    pu, pe = rng.randint(0, 9), rng.randint(0, 9)
    u = TSeries([F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))]
                + [random_rational(rng) for _ in range(pu)], pu)
    e = TSeries([random_rational(rng) for _ in range(pe + 1)], pe)
    inv = 1 / u
    assert inv.prec == u.prec
    assert list(inv.coeffs) == sympy_quotient(sympy, TSeries.constant(1, pu), u, pu)
    n = min(pe, pu)
    for got in (e / u, e * inv):
        assert got.prec == n
        assert list(got.coeffs) == sympy_quotient(sympy, e, u, n)
    assert (e * inv).coeffs == (e / u).coeffs


# -- batched product_jet_decompose ----------------------------------------------------

def reference_decompose(v, basis_left, basis_right, n_left, n_right, order_m, jet=0):
    """One jet at a time: three blocks, each solved for this jet alone, the
    mixed one as the whole tensor-product block; `jet` is the jet's place in
    its batch, which failure messages name."""
    lam_prod = multi_indices(n_left + n_right, order_m)
    lam_left = multi_indices(n_left, order_m)
    lam_right = multi_indices(n_right, order_m)
    vmap = dict(zip(lam_prod, v))
    zero = TSeries.zero(min(x.prec for x in v))
    posL = {a: i for i, a in enumerate(lam_left)}
    posR = {a: i for i, a in enumerate(lam_right)}

    def entry(alpha):
        return vmap[alpha] if sum(alpha) <= order_m else zero

    def block(rows, ncols, rhs, label, width=None):
        if ncols == 0:
            if any(x != 0 for x in rhs):
                raise DecompositionFailure(
                    f"{label} block inconsistent with empty basis")
            return []
        sols = solve(rows, ncols, [rhs], SERIES)
        if sols[0] is None:
            raise DecompositionFailure(f"{label} block is inconsistent")
        for i, x in enumerate(sols[0]):
            if not x.is_constant():
                order = (x - x.constant_term).order()
                pos = i if width is None else divmod(i, width)
                raise DecompositionFailure(
                    f"non-constant coefficient {pos} of jet {jet} in the {label} "
                    f"block: nonzero at order {order}, guaranteed to order {x.prec}")
        return [x.constant_term for x in sols[0]]

    left = block([[w[posL[a]] for w in basis_left] for a in lam_left],
                 len(basis_left), [entry(a + (0,) * n_right) for a in lam_left], "left")
    right = block([[w[posR[a]] for w in basis_right] for a in lam_right],
                  len(basis_right), [entry((0,) * n_left + a) for a in lam_right],
                  "right")
    rows, rhs = [], []
    for a1 in lam_left:
        for a2 in lam_right:
            rows.append([wl[posL[a1]] * wr[posR[a2]]
                         for wl in basis_left for wr in basis_right])
            rhs.append(entry(a1 + a2))
    k = len(basis_right)
    flat = block(rows, len(basis_left) * k, rhs, "mixed", k)
    return left, right, [flat[i * k:(i + 1) * k] for i in range(len(basis_left))]


def product_suite(order_m):
    """The acceptance product suites plus a parabola factor, at order m."""
    xy = ("x", "y")
    x, y = MPoly.variable(xy, "x"), MPoly.variable(xy, "y")
    parabola = DVariety(xy, (y - x**2,), (MPoly.constant(xy, 1), 2 * x),
                        name="parabola")
    x1, x2 = _line(1, "exp_line"), _line(2, "exp2_line")
    for left, left_pt, right, right_pt in [
        (x1, (1,), x2, (1,)),
        (counterexample_variety(), (2, 1), x1, (1,)),
        (parabola, (1, 1), x1, (1,)),
        (x1, (1,), parabola, (1, 1)),
    ]:
        lp = sharp_integrate(left, left_pt, PRECISION)
        rp = sharp_integrate(right, right_pt, PRECISION)
        pp = product_sharp_point(product_dvariety(left, right), lp, rp)
        W = delta_jet_space(left, lp, order_m).horizontal
        Wp = delta_jet_space(right, rp, order_m).horizontal
        space = delta_jet_space(product_dvariety(left, right), pp, order_m)
        yield space.horizontal, (W, Wp, left.nvars, right.nvars, order_m)


def reference_failure(vs, args):
    for jet, v in enumerate(vs):
        try:
            reference_decompose(v, *args, jet)
        except DecompositionFailure as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("order_m", [1, 2])
def test_batched_decomposition_matches_per_jet(order_m):
    for vs, args in product_suite(order_m):
        got = product_jet_decompose(vs, *args)
        assert len(got) == len(vs)
        for dec, v in zip(got, vs):
            assert (dec.left, dec.right, dec.pair) == reference_decompose(v, *args)
            assert dec.unit == 0
        assert product_jet_decompose([], *args) == []


@pytest.mark.parametrize("order_m", [1, 2])
def test_batch_with_corrupted_jets_fails_like_per_jet(order_m):
    bump = TSeries([1, 1], PRECISION)
    t = TSeries([0, 1], PRECISION)
    seen = set()
    for vs, args in product_suite(order_m):
        _, _, n_left, n_right, _ = args
        lam_prod = multi_indices(n_left + n_right, order_m)
        last = len(vs[0]) - 1  # (0, .., m): a coordinate of the right block
        corruptions = [
            {len(vs) - 1: [0]},            # the last jet, first coordinate
            {0: [last]},                   # the first jet, last coordinate
            {0: [last], len(vs) - 1: [0]},  # both: the first jet's failure wins
        ]
        if order_m >= 2:
            # (1, 0, .., 1, 0, ..): a coordinate of the mixed block only
            mix = lam_prod.index((1,) + (0,) * (n_left - 1) + (1,) + (0,) * (n_right - 1))
            corruptions += [{0: [mix]}, {len(vs) - 1: [mix]}]
        for corruption in corruptions:
            # scaled by 1 + t and shifted: inconsistent where a factor block is
            # tall; shifted by t or by a constant: non-constant, or still a
            # constant combination, where both factor blocks are square
            for change in (lambda e: e * bump + F(1, 3), lambda e: e + t,
                           lambda e: e + F(1, 3)):
                batch = [list(v) for v in vs]
                for j, coords in corruption.items():
                    for c in coords:
                        batch[j][c] = change(batch[j][c])
                message = reference_failure(batch, args)
                if message is None:
                    got = product_jet_decompose(batch, *args)
                    assert [(d.left, d.right, d.pair) for d in got] == [
                        reference_decompose(v, *args) for v in batch]
                    continue
                with pytest.raises(DecompositionFailure) as caught:
                    product_jet_decompose(batch, *args)
                assert str(caught.value) == message
                seen.add(message.split(" block")[0].split()[-1] + " " +
                         ("inconsistent" if "inconsistent" in message else "non-constant"))
    # the corruptions reach both kinds of failure, in the mixed block too
    assert any(s.endswith("inconsistent") for s in seen)
    assert any(s.endswith("non-constant") for s in seen)
    if order_m >= 2:
        assert {"mixed inconsistent", "mixed non-constant"} <= seen


def test_mixed_failures_name_each_step_of_the_factor_solve():
    """Unit-vector factor bases on two lines at m = 4, so a jet's mixed
    block is read off directly: X[p][q] is the jet at (p + 1, q + 1)."""
    order_m = 4
    lam = multi_indices(2, order_m)
    units = [[TSeries.constant(int(i == k), PRECISION) for i in range(order_m)]
             for k in range(order_m)]
    t = TSeries([0, 1], PRECISION)

    def jet(**entries):
        v = [TSeries.zero(PRECISION)] * len(lam)
        for key, value in entries.items():
            if not isinstance(value, TSeries):
                value = TSeries.constant(value, PRECISION)
            v[lam.index(tuple(int(c) for c in key[1:]))] = value
        return v

    cases = [
        # square factors, X[1][0] = t: the (left, right) pair of a flat position
        (units, units, jet(a21=t),
         "non-constant coefficient (1, 0) of jet 1 in the mixed block: "
         "nonzero at order 1, guaranteed to order 24"),
        # a tall left factor: the mixed column alpha2 = 1 has no solution Y
        (units[:2], units, jet(a31=1), "mixed block is inconsistent"),
        # a tall right factor: a row of Y has no solution X
        (units, units[:2], jet(a13=1), "mixed block is inconsistent"),
    ]
    for basis_left, basis_right, bad, message in cases:
        args = (basis_left, basis_right, 1, 1, order_m)
        batch = [jet(a11=2), bad]
        assert reference_failure(batch, args) == message
        with pytest.raises(DecompositionFailure) as caught:
            product_jet_decompose(batch, *args)
        assert str(caught.value) == message
        (ok,) = product_jet_decompose(batch[:1], *args)
        assert ok.pair[0][0] == 2 and sum(sum(map(abs, r)) for r in ok.pair) == 2


# -- Hasse derivatives and exp_series against sympy -----------------------------------

def to_sympy(sympy, p):
    gens = sympy.symbols(p.vars)
    return sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.prod([g**e for g, e in zip(gens, exps)])
        for exps, c in p.terms.items()
    ), gens


@pytest.mark.parametrize("seed", range(12))
def test_hasse_derivative_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2000 + seed)
    p = MPoly(NAMES, {
        tuple(rng.randint(0, 4) for _ in NAMES): random_rational(rng)
        for _ in range(rng.randint(1, 6))
    })
    expr, gens = to_sympy(sympy, p)
    for alpha in multi_indices_with_zero(len(NAMES), 4):
        # D^alpha / alpha! is the divided-power derivative.
        want = sympy.diff(expr, *[(g, a) for g, a in zip(gens, alpha)])
        want = want / sympy.prod([sympy.factorial(a) for a in alpha])
        got, _ = to_sympy(sympy, p.hasse(alpha))
        assert sympy.expand(got - want) == 0, alpha


@pytest.mark.parametrize("c", [0, 1, -1, F(3, 2), F(-7, 5), 4])
def test_exp_series_matches_sympy(c):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    n = 14
    c = F(c)
    expansion = sympy.exp(sympy.Rational(c.numerator, c.denominator) * t).series(t, 0, n + 1)
    poly = sympy.Poly(expansion.removeO(), t)
    want = [F(int(q.p), int(q.q)) for q in (poly.coeff_monomial(t**k) for k in range(n + 1))]
    got = exp_series(c, n)
    assert got.prec == n
    assert list(got.coeffs) == want
