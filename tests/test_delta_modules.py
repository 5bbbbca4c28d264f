import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import djets.cli
import djets.delta_modules
import djets.linalg
from djets.acceptance import _random_module
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
    product_sharp_point,
    sharp_integrate,
)
from djets.errors import (
    DecompositionFailure,
    DimensionMismatch,
    DomainMismatch,
    InsufficientPrecision,
)
from djets.linalg import SERIES, constant_combination
from djets.mpoly import MPoly, multi_indices
from djets.series import TSeries, exp_series

N = 16


def entrywise_kron(A, B):
    """The Kronecker product of two matrices of series, entry by entry."""
    return [[x * y for x in v for y in w] for v in A for w in B]

# The point u = 0 of the line has the jet space 0 at every order.
POINT_AND_LINE = """
dvariety Pt { vars: u; ideal: [u]; section: [0]; }
dvariety L { vars: x; ideal: []; section: [x]; }
point q on Pt { coords: [0]; }
point a on L { coords: [1]; }
"""


def module(*rows):
    return DeltaModule.from_rows(list(rows), N)


def random_module(rng, dim, prec=N):
    return DeltaModule.from_rows(
        [
            [TSeries([F(rng.randint(-2, 2)) for _ in range(3)], prec)
             for _ in range(dim)]
            for _ in range(dim)
        ]
    )


# -- duals ------------------------------------------------------------------------

def test_dual_of_trivial_module():
    assert dual(module([0])).matrix[0][0].is_zero()


def test_dual_negates_and_transposes():
    M = module([1, 2], [3, 4])
    D = dual(M)
    assert D.matrix[0][0] == -1 and D.matrix[0][1] == -3
    assert D.matrix[1][0] == -2 and D.matrix[1][1] == -4


def test_double_dual_is_identity():
    rng = random.Random(31)
    for _ in range(20):
        M = random_module(rng, rng.randint(1, 3))
        DD = dual(dual(M))
        for r in range(M.dim):
            for c in range(M.dim):
                assert DD.matrix[r][c] == M.matrix[r][c]


def test_dual_pairing_identity():
    # delta(v . mu) = (Dv) . mu + v . (d mu) on random coordinates
    rng = random.Random(32)
    for _ in range(25):
        dim = rng.randint(1, 3)
        M = random_module(rng, dim)
        D = dual(M)
        v = [TSeries([F(rng.randint(-2, 2)) for _ in range(N + 1)], N)
             for _ in range(dim)]
        mu = [TSeries([F(rng.randint(-2, 2)) for _ in range(N + 1)], N)
              for _ in range(dim)]
        pair = sum((a * b for a, b in zip(v, mu)), TSeries.zero(N))
        Dv = [v[i].derive() + sum((D.matrix[i][j] * v[j] for j in range(dim)),
                                  TSeries.zero(N))
              for i in range(dim)]
        dmu = [mu[i].derive() + sum((M.matrix[i][j] * mu[j] for j in range(dim)),
                                    TSeries.zero(N))
               for i in range(dim)]
        lhs = pair.derive()
        rhs = sum((a * b for a, b in zip(Dv, mu)), TSeries.zero(N)) + sum(
            (a * b for a, b in zip(v, dmu)), TSeries.zero(N)
        )
        assert lhs == rhs


# -- tensors -----------------------------------------------------------------------

def test_tensor_with_trivial_factor():
    Mt = module([0])
    Nm = module([1, 0], [2, -1])
    T = tensor(Mt, Nm)
    for r in range(2):
        for c in range(2):
            assert T.matrix[r][c] == Nm.matrix[r][c]


def test_tensor_of_scalars_adds():
    T = tensor(module([1]), module([2]))
    assert T.dim == 1 and T.matrix[0][0] == 3


def test_tensor_dimension():
    rng = random.Random(33)
    A = random_module(rng, 2)
    B = random_module(rng, 3)
    assert tensor(A, B).dim == 6


def test_the_tensor_of_the_duals_is_the_dual_of_the_tensor():
    """`verify_tensor_pairing` relies on this, precisions included."""
    rng = random.Random(38)

    def mixed_module(dim):
        return DeltaModule.from_rows([
            [TSeries([rng.randint(-2, 2) for _ in range(5)], rng.randint(0, 6))
             for _ in range(dim)]
            for _ in range(dim)
        ])

    def entries(M):
        return [[(e.coeffs, e.prec) for e in row] for row in M.matrix]

    for _ in range(20):
        left, right = mixed_module(rng.randint(1, 3)), mixed_module(rng.randint(1, 3))
        assert entries(tensor(dual(left), dual(right))) == entries(dual(tensor(left, right)))


# -- horizontal sections ------------------------------------------------------------

def test_horizontal_sections_of_trivial_module():
    sections = horizontal_sections(module([0]))
    assert len(sections) == 1 and sections[0][0] == 1


def test_horizontal_section_is_exponential():
    sections = horizontal_sections(module([-1]))
    assert sections[0][0] == exp_series(1, N)


def test_horizontal_count_matches_dimension():
    rng = random.Random(34)
    for _ in range(20):
        dim = rng.randint(1, 4)
        M = random_module(rng, dim)
        sections = horizontal_sections(M)
        assert len(sections) == dim
        for s in sections:
            assert is_horizontal(M, s)


# -- the pairing ---------------------------------------------------------------------

def test_pairing_of_trivial_horizontals():
    v = horizontal_sections(dual(module([0])))[0]
    w = horizontal_sections(dual(module([0])))[0]
    phi = entrywise_kron([v], [w])[0]
    assert phi[0] == 1
    assert is_horizontal(dual(tensor(module([0]), module([0]))), phi)


def test_pairing_of_opposite_exponentials_is_constant():
    Mm = module([-1])
    Nm = module([1])
    v = horizontal_sections(dual(Mm))[0]   # exp(-t)
    w = horizontal_sections(dual(Nm))[0]   # exp(t)
    phi = entrywise_kron([v], [w])[0]
    assert phi[0].is_constant()
    assert is_horizontal(dual(tensor(Mm, Nm)), phi)


def test_pairing_is_bilinear_in_constants():
    rng = random.Random(35)
    M = random_module(rng, 2)
    Nm = random_module(rng, 2)
    v = horizontal_sections(dual(M))[0]
    w = horizontal_sections(dual(Nm))[1]
    c = TSeries.constant(F(7, 2), N)
    lhs = entrywise_kron([[c * x for x in v]], [w])[0]
    rhs = [c * x for x in entrywise_kron([v], [w])[0]]
    assert all(a == b for a, b in zip(lhs, rhs))


def test_pairing_of_horizontals_is_horizontal_randomized():
    rng = random.Random(36)
    for _ in range(25):
        M = random_module(rng, rng.randint(1, 3))
        Nm = random_module(rng, rng.randint(1, 3))
        T = dual(tensor(M, Nm))
        for v in horizontal_sections(dual(M)):
            for w in horizontal_sections(dual(Nm)):
                assert is_horizontal(T, entrywise_kron([v], [w])[0])


# -- the span verification -------------------------------------------------------------

def test_verify_tensor_pairing_trivial():
    rep = verify_tensor_pairing(module([0]), module([0]))
    assert rep.ok and rep.dim_pairings == 1


def test_verify_tensor_pairing_scalars():
    rep = verify_tensor_pairing(module([1]), module([2]))
    assert rep.ok and rep.dim_tensor_horizontal == 1


def test_verify_tensor_pairing_random():
    rng = random.Random(37)
    rep = verify_tensor_pairing(random_module(rng, 2), random_module(rng, 3))
    assert rep.ok and rep.dim_pairings == 6


def bumped(vectors, i):
    """The families with 1 added to coordinate 0 of vector i at the top order
    of the family."""
    top = min(e.prec for v in vectors for e in v)
    out = [list(v) for v in vectors]
    out[i][0] = out[i][0] + TSeries([0] * top + [1], top)
    return out


def top_order_bumped(sections):
    """The last section with 1 added to its coordinate 0 at its top order."""
    return bumped(sections, len(sections) - 1)


def copied(sections):
    """The last section replaced by a copy of the first."""
    return sections[:-1] + sections[:1]


def unchanged(sections):
    return sections


def mutate_right_sections(monkeypatch, mutant):
    """Pass the right factor's horizontal dual vectors through `mutant`.

    `verify_tensor_pairing` solves the left factor's dual first and the
    right factor's second, so every second call is mutated.
    """
    calls = []

    def mutated(module, *args):
        calls.append(module)
        sections = horizontal_sections(module, *args)
        return mutant(sections) if len(calls) % 2 == 0 else sections

    monkeypatch.setattr(djets.delta_modules, "horizontal_sections", mutated)


@pytest.mark.parametrize("mutant, check", [
    (top_order_bumped, "pairings_horizontal"),
    (copied, "mutually_contained"),
], ids=["top-order", "copy"])
def test_a_mutated_pairing_fails_its_check(monkeypatch, mutant, check):
    # A section changed at its top order changes its pairings there and
    # leaves the t^0 values alone, so only the residual sees it; a copied
    # section is horizontal, so only the rank does.
    rng = random.Random(41)
    left, right = random_module(rng, 2), random_module(rng, 2)
    good = verify_tensor_pairing(left, right).to_json()
    assert good["ok"]
    mutate_right_sections(monkeypatch, mutant)
    rep = verify_tensor_pairing(left, right)
    assert rep.to_json() == {**good, check: False, "ok": False}


def both_directions(a, b):
    """Whether two families span the same constant space: one
    constant_combination each way."""
    return all(c is not None for targets, basis in ((a, b), (b, a))
               for c in constant_combination(targets, basis))


def full_precision_decision(left, right, mutant):
    """The decision with the dual tensor's sections formed: the pairings of
    the mutated right sections horizontal and mutually contained with those
    sections at full precision."""
    pairings = entrywise_kron(horizontal_sections(dual(left)),
                              mutant(horizontal_sections(dual(right))))
    target = horizontal_sections(dual(tensor(left, right)))
    return (len(pairings) == len(target) == left.dim * right.dim
            and is_horizontal(dual(tensor(left, right)), *pairings)
            and both_directions(pairings, target))


def test_verify_tensor_pairing_decides_as_at_full_precision(monkeypatch):
    solves = []
    solve = djets.delta_modules.fundamental_matrix
    monkeypatch.setattr(djets.delta_modules, "fundamental_matrix",
                        lambda *args: solves.append(args) or solve(*args))
    for seed in range(5):
        for dl in (1, 2, 3):
            for dr in (1, 2, 3):
                rng = random.Random(seed)
                left, right = _random_module(rng, dl), _random_module(rng, dr)
                for mutant in (unchanged, top_order_bumped, copied):
                    mutate_right_sections(monkeypatch, mutant)
                    solves.clear()
                    ok = verify_tensor_pairing(left, right).ok
                    assert len(solves) == 2  # one per factor dual
                    # a copy of the only section is the section itself
                    assert ok is (mutant is unchanged or (mutant is copied and dr == 1))
                    assert ok is full_precision_decision(left, right, mutant)


@pytest.mark.parametrize("dims", [(0, 0), (0, 1), (1, 0), (0, 2), (2, 0)])
def test_verify_tensor_pairing_on_a_zero_dimensional_factor(dims):
    # no pairings and a dual tensor of dimension 0: vacuously horizontal and
    # spanning, as before the pairings were checked in packed form
    rng = random.Random(43)
    left, right = (random_module(rng, d) if d else DeltaModule(()) for d in dims)
    assert verify_tensor_pairing(left, right).to_json() == {
        "dim_left": dims[0], "dim_right": dims[1], "dim_pairings": 0,
        "dim_tensor_horizontal": 0, "pairings_horizontal": True,
        "mutually_contained": True, "ok": True,
    }


def zero_module(dim):
    return module(*([0] * dim for _ in range(dim)))


@pytest.mark.parametrize("seed", range(3))
def test_the_span_is_decided_on_the_t0_slots_of_the_one_packed_product(seed, monkeypatch):
    # The basis of the span check is the t^0 values of the pairings, read
    # off the one packed product the residual is checked on: the unit
    # vectors must be constant combinations of them.  A read of the t^1
    # slots instead gives another basis, and for a pair of zero modules,
    # whose sections are constant, no basis of full rank.
    bases, products = [], []
    combine = djets.delta_modules.constant_combination
    product = djets.delta_modules.packed_kron
    monkeypatch.setattr(djets.delta_modules, "constant_combination",
                        lambda t, basis: bases.append(basis) or combine(t, basis))
    monkeypatch.setattr(djets.delta_modules, "packed_kron",
                        lambda *args: products.append(args) or product(*args))
    rng = random.Random(4700 + seed)
    for dl in (1, 2, 3):
        for dr in (1, 2, 3):
            pairs = [(_random_module(rng, dl), _random_module(rng, dr)),
                     (zero_module(dl), zero_module(dr))]
            for left, right in pairs:
                bases.clear()
                products.clear()
                assert verify_tensor_pairing(left, right).ok
                assert len(products) == 1
                hm, hn = horizontal_sections(dual(left)), horizontal_sections(dual(right))
                want = [[x.constant_term * y.constant_term for x in v for y in w]
                        for v in hm for w in hn]
                assert [[e.constant_term for e in v] for v in bases[0]] == want
                assert all(e.prec == 0 for v in bases[0] for e in v)


def test_verify_tensor_pairing_eliminates_once_on_a_square_pair(monkeypatch):
    calls = []
    combine = djets.delta_modules.constant_combination
    monkeypatch.setattr(djets.delta_modules, "constant_combination",
                        lambda *args: calls.append(args) or combine(*args))
    rng = random.Random(5)
    rep = verify_tensor_pairing(random_module(rng, 3), random_module(rng, 3))
    assert rep.ok and rep.dim_pairings == rep.dim_tensor_horizontal == 9
    assert len(calls) == 1


# -- product jet decomposition -----------------------------------------------------------


def exp_line(coeff, name):
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    return DVariety(xs, (), (coeff * x,), name=name)


def build_product(left, right, start_left, start_right, order_m, prec=N):
    lp = sharp_integrate(left, start_left, prec)
    rp = sharp_integrate(right, start_right, prec)
    pp = product_sharp_point(lp, rp)
    W = delta_jet_space(lp, order_m).horizontal
    Wp = delta_jet_space(rp, order_m).horizontal
    space = delta_jet_space(pp, order_m)
    return pp.variety, space, W, Wp


def test_embedded_factor_jet_decomposes_to_unit_vector():
    left = exp_line(1, "L1")
    right = exp_line(2, "L2")
    prod, space, W, Wp = build_product(left, right, (1,), (1,), 1)
    lam = multi_indices(2, 1)
    # extend the first left basis vector by zero to the product coordinates
    w = W[0]
    v = []
    for alpha in lam:
        if alpha[1] == 0:
            v.append(w[alpha[0] - 1] if alpha[0] == 1 else w[0])
        else:
            v.append(TSeries.zero(N))
    dec = product_jet_decompose([v], W, Wp, 1, 1, 1)[0]
    assert dec.left == [F(1)] and dec.right == [F(0)]
    assert dec.pair == [[F(0)]]
    assert dec.unit == 0


def test_product_decomposition_exp_lines_m1():
    left = exp_line(1, "L1")
    right = exp_line(2, "L2")
    prod, space, W, Wp = build_product(left, right, (1,), (1,), 1)
    assert space.dim_c == 2
    for v in space.horizontal:
        dec = product_jet_decompose([v], W, Wp, 1, 1, 1)[0]
        # each coefficient is an exact rational; the jet is recovered exactly
        _assert_reconstructs(v, dec, W, Wp, 1, 1, 1)


def test_product_decomposition_mixed_index_m2():
    left = exp_line(1, "L1")
    right = exp_line(2, "L2")
    prod, space, W, Wp = build_product(left, right, (1,), (1,), 2)
    lam = multi_indices(2, 2)
    for v in space.horizontal:
        dec = product_jet_decompose([v], W, Wp, 1, 1, 2)[0]
        _assert_reconstructs(v, dec, W, Wp, 1, 1, 2)
        # the mixed coordinate is exactly the bilinear combination
        mixed = lam.index((1, 1))
        expected = TSeries.zero(N)
        for i, w in enumerate(W):
            for j, wp in enumerate(Wp):
                expected = expected + dec.pair[i][j] * w[0] * wp[0]
        assert v[mixed] == expected


def test_product_decomposition_with_proper_subvariety_factor():
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    parabola = DVariety(xy, (y - x**2,), (MPoly.constant(xy, 1), 2 * x),
                        name="parabola")
    right = exp_line(1, "L1")
    prod, space, W, Wp = build_product(parabola, right, (1, 1), (1,), 2)
    assert space.dim_c == space.dim_k
    for v in space.horizontal:
        dec = product_jet_decompose([v], W, Wp, 2, 1, 2)[0]
        _assert_reconstructs(v, dec, W, Wp, 2, 1, 2)


def test_decomposition_failure_on_corrupted_jet():
    left = exp_line(1, "L1")
    right = exp_line(2, "L2")
    prod, space, W, Wp = build_product(left, right, (1,), (1,), 1)
    v = [x for x in space.horizontal[0]]
    v[0] = v[0] * TSeries([1, 1], N)  # no longer horizontal
    with pytest.raises(DecompositionFailure):
        product_jet_decompose([v], W, Wp, 1, 1, 1)[0]


def test_decomposition_failures_without_a_usable_factor_basis():
    # pinned messages: an empty or dependent factor basis fails in the block
    # that first meets it, whichever way the mixed block is solved
    prod, space, W, Wp = build_product(exp_line(1, "L1"), exp_line(2, "L2"),
                                       (1,), (1,), 2)
    vs = space.horizontal
    for bases, message in [
        (([], Wp), "left block inconsistent with empty basis"),
        ((W, []), "right block inconsistent with empty basis"),
        (([], []), "left block inconsistent with empty basis"),
        ((W + [W[0]], Wp), "left block is underdetermined; basis vectors are dependent"),
        ((W, Wp + [Wp[1]]), "right block is underdetermined; basis vectors are dependent"),
        (([], Wp + [Wp[0]]), "left block inconsistent with empty basis"),
    ]:
        with pytest.raises(DecompositionFailure) as caught:
            product_jet_decompose(vs, *bases, 1, 1, 2)
        assert str(caught.value) == message
    # with the pure left coordinates cleared, only the mixed block needs the
    # left basis
    lam = multi_indices(2, 2)
    right_only = [
        [TSeries.zero(N) if alpha[0] and not alpha[1] else e for alpha, e in zip(lam, v)]
        for v in vs
    ]
    with pytest.raises(DecompositionFailure) as caught:
        product_jet_decompose(right_only, [], Wp, 1, 1, 2)
    assert str(caught.value) == "mixed block inconsistent with empty basis"
    with pytest.raises(DecompositionFailure) as caught:
        product_jet_decompose(right_only, W, Wp + [Wp[0]], 1, 1, 2)
    assert str(caught.value) == "right block is underdetermined; basis vectors are dependent"
    # a jet of the right factor alone decomposes with no left basis at all
    embedded = [TSeries.zero(N)] * len(lam)
    embedded[lam.index((0, 1))], embedded[lam.index((0, 2))] = Wp[0]
    dec = product_jet_decompose([embedded], [], Wp, 1, 1, 2)[0]
    assert (dec.left, dec.right, dec.pair) == ([], [F(1), F(0)], [])
    dec = product_jet_decompose([embedded], W, [Wp[0]], 1, 1, 2)[0]
    assert (dec.left, dec.right, dec.pair) == ([F(0), F(0)], [F(1)], [[F(0)], [F(0)]])


def test_decomposition_rejects_vectors_of_the_wrong_length():
    prod, space, W, Wp = build_product(exp_line(1, "L1"), exp_line(2, "L2"),
                                       (1,), (1,), 2)
    vs = space.horizontal
    for args, message in [
        (([vs[0][:-1]], W, Wp), "jet vector does not match the product index set"),
        ((vs, W + [W[0][:-1]], Wp), "left basis vector has the wrong length"),
        ((vs, W, Wp + [Wp[0] + Wp[0]]), "right basis vector has the wrong length"),
        # checked before an empty family of jets returns []
        (([], [W[0][:-1]], Wp), "left basis vector has the wrong length"),
    ]:
        with pytest.raises(DimensionMismatch) as caught:
            product_jet_decompose(*args, 1, 1, 2)
        assert str(caught.value) == message


def test_one_product_decomposition_makes_two_series_solves(monkeypatch, tmp_path):
    # M_L with every column of V below row 0, then M_R with row 0 of V and the
    # rows of Y: verify-product -m 3 on the two exponential lines, and on a
    # point (jet space of dimension 0, so an empty left basis) times a line,
    # where the left solve has no unknowns
    original = djets.linalg.solve
    domains = []

    def counted(rows, ncols, rhs_columns, domain):
        domains.append(domain)
        return original(rows, ncols, rhs_columns, domain)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "djets" and vars(mod).get("solve") is original:
            monkeypatch.setattr(mod, "solve", counted)
    lines = str(Path(__file__).resolve().parent.parent / "djv" / "lines.djv")
    code = djets.cli.main(["verify-product", "L1", "L2", lines, "--from", "a", "b",
                           "-m", "3", "--format", "json"])
    assert code == 0
    assert domains.count(SERIES) == 2
    point = tmp_path / "point.djv"
    point.write_text(POINT_AND_LINE, encoding="utf-8")
    domains.clear()
    code = djets.cli.main(["verify-product", "Pt", "L", str(point), "--from", "q", "a",
                           "--format", "json"])
    assert code == 0
    assert domains == [SERIES, SERIES]


def _assert_reconstructs(v, dec, W, Wp, n_left, n_right, order_m):
    lam = multi_indices(n_left + n_right, order_m)
    lam_left = multi_indices(n_left, order_m)
    lam_right = multi_indices(n_right, order_m)
    posL = {a: i for i, a in enumerate(lam_left)}
    posR = {a: i for i, a in enumerate(lam_right)}
    for alpha, value in zip(lam, v):
        a1, a2 = alpha[:n_left], alpha[n_left:]
        acc = TSeries.zero(value.prec)
        if sum(a2) == 0:
            for c, w in zip(dec.left, W):
                acc = acc + c * w[posL[a1]]
        elif sum(a1) == 0:
            for c, w in zip(dec.right, Wp):
                acc = acc + c * w[posR[a2]]
        else:
            for i, w in enumerate(W):
                for j, wp in enumerate(Wp):
                    acc = acc + dec.pair[i][j] * w[posL[a1]] * wp[posR[a2]]
        assert value == acc


def test_from_rows_lifts_rationals_to_the_lowest_series_precision():
    m = DeltaModule.from_rows([[1, TSeries([1, 2], 7)], [TSeries([3], 5), F(1, 2)]])
    assert [[e.prec for e in row] for row in m.matrix] == [[5, 7], [5, 5]]
    assert m.matrix[0][0] == TSeries.constant(1, 5)
    assert m.matrix[1][1] == TSeries.constant(F(1, 2), 5)
    assert DeltaModule.from_rows([[1]], 3).matrix == ((TSeries.constant(1, 3),),)
    assert DeltaModule.from_rows([]).dim == 0


def test_a_module_refuses_an_entry_that_is_not_a_series():
    # the constructor names the entry by position and type, before any
    # solve reads it
    with pytest.raises(DomainMismatch, match=r"^entry \(0, 0\) .* a Fraction, not a series$"):
        DeltaModule(((F(1),),))
    one = TSeries.constant(1, 4)
    with pytest.raises(DomainMismatch, match=r"^entry \(1, 0\) .* a Fraction, not a series$"):
        DeltaModule(((one, one), (F(0), one)))


def test_from_rows_of_rationals_needs_a_precision():
    with pytest.raises(InsufficientPrecision):
        DeltaModule.from_rows([[1]])
    with pytest.raises(InsufficientPrecision):
        DeltaModule.from_rows([[F(1, 2), 0], [0, 1]])
