"""The verification suite: every headline computation as a pass/fail check.

Each check builds its own inputs, runs at the pinned working precision
(24 unless stated otherwise), and reports exact-zero residuals; the CLI
`suite` command and the acceptance tests both run this module, so there is
a single source of truth for what "green" means.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import diffpoly as dp
from .delta_modules import (
    DeltaModule,
    horizontal_sections,
    is_horizontal,
    product_jet_decompose,
    rank_at_zero,
    verify_tensor_pairing,
)
from .dvariety import (
    DVariety,
    constants_variety_jets,
    delta_jet_space,
    product_dvariety,
    product_sharp_point,
    sharp_integrate,
)
from .errors import DecompositionFailure
from .jets import jet_of_morphism, jet_space
from .mpoly import MPoly, multi_indices_with_zero
from .series import TSeries, exp_series, mat_mul
from .tangent import (
    WITNESS_RATIOS,
    counterexample_report,
    counterexample_variety,
    degree_identity_check,
    delta_tangent,
    diagonal_restriction,
    fiber_linearity_check,
    in_log_constant_group,
    log_derivative,
    m1_equivalence,
    restrict,
)

PRECISION = 24


@dataclass
class AcceptanceResult:
    key: str
    title: str
    passed: bool
    detail: str
    seconds: float
    budget: float

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.key}: {self.title} ({self.seconds:.2f}s) {self.detail}"


def _criterion(key, title, budget):
    """Declare a check: its (passed, detail) is timed into an AcceptanceResult."""

    def declare(check):
        @functools.wraps(check)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            passed, detail = check(*args, **kwargs)
            elapsed = time.perf_counter() - start
            return AcceptanceResult(key, title, passed, detail, elapsed, budget)

        return timed

    return declare


def _restricted_bundle():
    """The counterexample's tangent bundle restricted to the constant diagonal."""
    X = counterexample_variety()
    return restrict(delta_tangent(X, fiber_names=("u", "v")), diagonal_restriction())


# -- individual criteria -----------------------------------------------------------


@_criterion("tangent-display", "Jacobian linearization of the plane system", 1.0)
def check_tangent_display():
    X = counterexample_variety()
    T = delta_tangent(X, fiber_names=("u", "v"))
    eqs = T.fiber_equations()
    allv = T.all_vars
    x = MPoly.variable(allv, "x")
    y = MPoly.variable(allv, "y")
    u = MPoly.variable(allv, "u")
    v = MPoly.variable(allv, "v")
    expected = [2 * x * u - 2 * y * v, (2 * x - y) * u - x * v]
    ok = eqs[0] == expected[0] and eqs[1] == expected[1]
    texts = [f"delta {n} = {e}" for n, e in zip(T.fiber_vars, eqs)]
    ok = ok and texts == [
        "delta u = 2*x*u - 2*y*v",
        "delta v = 2*x*u - x*v - y*u",
    ]
    return ok, "; ".join(texts)


@_criterion("restriction-display", "restriction to the constant diagonal", 1.0)
def check_restriction_display():
    W = _restricted_bundle()
    pres = W.presentation()
    allv = W.all_vars
    x = MPoly.variable(allv, "x")
    y = MPoly.variable(allv, "y")
    u = MPoly.variable(allv, "u")
    v = MPoly.variable(allv, "v")
    ok = (
        len(pres) == 4
        and pres[0][:2] == ("algebraic", "x")
        and pres[0][2] == y
        and pres[1][:2] == ("derivative", "x")
        and pres[1][2].is_zero()
        and pres[2][:2] == ("derivative", "u")
        and pres[2][2] == 2 * x * u - 2 * x * v
        and pres[3][:2] == ("derivative", "v")
        and pres[3][2] == x * u - x * v
    )
    return ok, "; ".join(W.presentation_text())


@_criterion("kernel-identity",
            "second log derivative of u - v vanishes symbolically", 1.0)
def check_kernel_identity():
    W = _restricted_bundle()
    allv = W.all_vars
    w = MPoly.variable(allv, "u") - MPoly.variable(allv, "v")
    normal_form = dp.log_derivative_normal_form(W.dvariety(), w)
    return normal_form.is_zero(), f"normal form = {normal_form}"


@_criterion("surjectivity-witnesses",
            "witness family (c, c, 2 exp(ct), exp(ct))", 2.0)
def check_surjectivity_witnesses():
    report = counterexample_report(precision=PRECISION)
    ok = report.kernel_identity
    details = []
    for c, w in zip(WITNESS_RATIOS, report.witnesses):
        image_is_exp = w.image == exp_series(c, PRECISION)
        ok = ok and w.ok and image_is_exp
        details.append(f"c={w.ratio}:{'ok' if w.ok and image_is_exp else 'FAIL'}")
    return ok, " ".join(details)


def _random_module(rng, dim, prec=PRECISION, degree=2, bound=2):
    rows = []
    for _ in range(dim):
        row = []
        for _ in range(dim):
            coeffs = [Fraction(rng.randint(-bound, bound)) for _ in range(degree + 1)]
            row.append(TSeries(coeffs, prec))
        rows.append(row)
    return DeltaModule.from_rows(rows)


@_criterion("dimension-law", "horizontal sections count the module dimension", 10.0)
def check_dimension_law(seed=0):
    rng = random.Random(seed)
    for trial in range(50):
        dim = rng.randint(1, 4)
        module = _random_module(rng, dim)
        sections = horizontal_sections(module)
        # solutions are fixed by their t^0 values, so this counts the
        # independent sections
        rank = rank_at_zero(sections, dim)
        if rank != dim or len(sections) != dim:
            return False, (f"trial {trial}: {len(sections)} sections of rank {rank} "
                           f"for dim {dim}")
        if not is_horizontal(module, *sections):
            return False, f"trial {trial}: nonzero residual"
    return True, "50 random modules, dim of horizontal basis = module dim"


@_criterion("tensor-pairing",
            "pairings of horizontal duals span the dual tensor", 20.0)
def check_tensor_pairing(seed=1):
    rng = random.Random(seed)
    for trial in range(20):
        dm = rng.randint(1, 3)
        dn = rng.randint(1, 3)
        rep = verify_tensor_pairing(
            _random_module(rng, dm), _random_module(rng, dn)
        )
        if not rep.ok:
            return False, f"trial {trial}: {rep.to_json()}"
    return True, "20 random module pairs, dims and spans agree"


def _line(section_coeff, name=""):
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    return DVariety(xs, (), (section_coeff * x,), name=name or f"line{section_coeff}")


@_criterion("product-decomposition",
            "horizontal product jets decompose with constant coefficients", 30.0)
def check_product_decomposition():
    x1 = _line(1, "exp_line")
    x2 = _line(2, "exp2_line")
    X = counterexample_variety()
    details = []
    suites = [
        (x1, (1,), x2, (1,)),
        (X, (2, 1), x1, (1,)),
    ]
    for left, left_pt, right, right_pt in suites:
        lp = sharp_integrate(left, left_pt, PRECISION)
        rp = sharp_integrate(right, right_pt, PRECISION)
        prod = product_dvariety(left, right)
        pp = product_sharp_point(prod, lp, rp)
        for m in (1, 2):
            W = delta_jet_space(left, lp, m).horizontal
            Wp = delta_jet_space(right, rp, m).horizontal
            space = delta_jet_space(prod, pp, m)
            try:
                decomposed = product_jet_decompose(
                    space.horizontal, W, Wp, left.nvars, right.nvars, m
                )
            except DecompositionFailure as exc:
                return False, f"{prod.name} m={m}: {exc}"
            details.append(f"{prod.name} m={m}: {len(decomposed)} jets constant")
    return True, "; ".join(details)


@_criterion("constant-points-jets",
            "jets of constant points equal the rational nullspace", 1.0)
def check_constant_points_jets():
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    space = constants_variety_jets((y - x**2,), (1, 1), 1, order=PRECISION)
    ok = space.jet.basis == [[1, 2]]
    ok = ok and all(
        e.is_constant() for vec in space.horizontal for e in vec
    )
    ok = ok and [
        [e.constant_term for e in vec] for vec in space.horizontal
    ] == [[1, 2]]
    return ok, f"basis {[[str(e) for e in v] for v in space.jet.basis]}"


def corpus():
    """The D-varieties exercised by the cross-check suite, with sharp points."""
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    parabola = DVariety(
        xy, (y - x**2,), (MPoly.constant(xy, 1), 2 * x), name="parabola"
    )
    X = counterexample_variety()
    singles = [
        (_line(1, "exp_line"), (1,)),
        (_line(2, "exp2_line"), (1,)),
        (_line(0, "flat_line"), (3,)),
        (_square_line(), (1,)),
        (parabola, (1, 1)),
        (X, (2, 1)),
    ]
    entries = [(v, sharp_integrate(v, pt, PRECISION)) for v, pt in singles]
    for left, left_pt, right, right_pt in ((_line(1), (1,), _line(2), (1,)),
                                           (X, (2, 1), _line(1), (1,))):
        prod = product_dvariety(left, right)
        point = product_sharp_point(prod, sharp_integrate(left, left_pt, PRECISION),
                                    sharp_integrate(right, right_pt, PRECISION))
        entries.append((prod, point))
    return entries


def _square_line():
    xs = ("x",)
    x = MPoly.variable(xs, "x")
    return DVariety(xs, (), (x * x,), name="geometric_line")


@_criterion("m1-crosscheck",
            "order-1 jets agree with the Jacobian linearization", 10.0)
def check_m1_crosscheck():
    details = []
    for variety, point in corpus():
        rep = m1_equivalence(variety, point)
        if not rep.ok:
            return False, f"{variety.name}: {rep.to_json()}"
        details.append(f"{variety.name}:dim{rep.dim_jet_route}")
    return True, " ".join(details)


def _random_poly_xyt(rng, ydeg):
    """A polynomial in (x, y, t) of y-degree ydeg and t-degree at most 2,
    whose leading y-coefficient has a constant term in {1, 2, -1, 3}."""
    terms = {}
    for ey in range(ydeg + 1):
        for ex in range(2):
            lead = ey == ydeg and ex == 0
            if rng.random() < 0.5 and not lead:
                continue
            coeffs = [rng.randint(-2, 2) for _ in range(3)]
            if lead:
                coeffs[0] = rng.choice([1, 2, -1, 3])
            for et, c in enumerate(coeffs):
                terms[(ex, ey, et)] = c
    return MPoly(("x", "y", "t"), terms)


@_criterion("degree-step",
            "log-derivative degree comparison never balances", 5.0)
def check_degree_step(seed=2):
    rng = random.Random(seed)
    for trial in range(100):
        P = _random_poly_xyt(rng, rng.randint(0, 3))
        Q = _random_poly_xyt(rng, rng.randint(0, 3))
        rep = degree_identity_check(P, Q, PRECISION)
        if not rep.ok:
            return False, f"trial {trial}: {rep.to_json()}"
    return True, "100 random pairs satisfy the degree gap"


@_criterion("series-oracles", "sharp integration reproduces exp and 1/(1-t)",
            1.0)
def check_series_oracles():
    exp_line = _line(1)
    point = sharp_integrate(exp_line, (1,), PRECISION)
    expected = [Fraction(1, factorial(k)) for k in range(PRECISION + 1)]
    if list(point.coords[0].coeffs) != expected:
        return False, "exponential coefficients differ from 1/k!"
    geo = sharp_integrate(_square_line(), (1,), PRECISION)
    if list(geo.coords[0].coeffs) != [Fraction(1)] * (PRECISION + 1):
        return False, "geometric coefficients differ from all ones"
    return True, "exp and 1/(1-t) reproduced through order 24"


# -- the randomized property suites ---------------------------------------------------


def _random_mpoly(rng, variables, degree=5, nterms=4, bound=3):
    terms = {}
    for _ in range(nterms):
        exps = []
        remaining = degree
        for _ in variables:
            e = rng.randint(0, remaining)
            exps.append(e)
            remaining -= e
        c = rng.randint(-bound, bound)
        if c:
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + Fraction(c)
    return MPoly(variables, terms)


def _suite_hasse(rng, cases):
    variables = ("x", "y", "z")
    for _ in range(cases):
        p = _random_mpoly(rng, variables)
        q = _random_mpoly(rng, variables)
        alpha = tuple(rng.randint(0, 2) for _ in variables)
        lhs = (p * q).hasse(alpha)
        rhs = MPoly.zero(variables)
        for beta in multi_indices_with_zero(len(variables), sum(alpha)):
            if any(b > a for b, a in zip(beta, alpha)):
                continue
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            rhs = rhs + p.hasse(beta) * q.hasse(gamma)
        if lhs != rhs:
            return False, f"hasse product rule failed for alpha={alpha}"
    return True, None


def _random_series(rng, prec=12, bound=3, unit=False):
    coeffs = [Fraction(rng.randint(-bound, bound)) for _ in range(prec + 1)]
    if unit and coeffs[0] == 0:
        coeffs[0] = Fraction(rng.choice([1, -1, 2]))
    return TSeries(coeffs, prec)


def _suite_leibniz(rng, cases):
    variables = ("x", "y")
    for _ in range(cases):
        a = _random_series(rng)
        b = _random_series(rng)
        if (a * b).derive() != a.derive() * b + a * b.derive():
            return False, "series Leibniz failed"
        system = _random_system(rng, variables)
        p = _random_mpoly(rng, variables, degree=3)
        q = _random_mpoly(rng, variables, degree=3)
        lhs = dp.derivation(p * q, system)
        rhs = (dp.derivation(p, system) * dp.reduce(q, system)
               + dp.reduce(p, system) * dp.derivation(q, system))
        if lhs != rhs:
            return False, "derivation Leibniz failed"
    return True, None


def _random_system(rng, variables):
    """A random section on the plane (x, y); half the time restricted to y = g(x).

    Then y is eliminated and its rule is the derivative of g, so the
    section is valid.
    """
    x, y = variables
    section = [_random_mpoly(rng, variables, degree=2) for _ in variables]
    if rng.random() < 0.5:
        g = _random_mpoly(rng, variables[:1], degree=2).embed(variables)
        section[1] = g.lie({x: section[0]})
        return DVariety(variables, (MPoly.variable(variables, y) - g,), tuple(section),
                        eliminated=(y,))
    return DVariety(variables, (), tuple(section))


def _random_map(rng, n_src, n_tgt):
    variables = tuple(f"x{i}" for i in range(n_src))
    comps = []
    for _ in range(n_tgt):
        comps.append(_random_mpoly(rng, variables, degree=2, nterms=3, bound=2))
    return variables, tuple(comps)


def _suite_functoriality(rng, cases):
    for _ in range(cases):
        n1 = rng.randint(1, 3)
        n2 = rng.randint(1, 2)
        n3 = rng.randint(1, 2)
        order = rng.randint(1, 3)
        vars1, f = _random_map(rng, n1, n2)
        _, g = _random_map(rng, n2, n3)
        a = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n1))
        fa = tuple(p.eval(a) for p in f)
        gfa = tuple(p.eval(fa) for p in g)
        src = jet_space((), a, order)
        mid = jet_space((), fa, order)
        tgt = jet_space((), gfa, order)
        Tf = jet_of_morphism(f, a, order, src, mid)
        Tg = jet_of_morphism(g, fa, order, mid, tgt)
        composed = tuple(p.eval(tuple(q.embed(vars1) for q in f)) for p in g)
        composed = tuple(
            p if isinstance(p, MPoly) else MPoly.constant(vars1, p) for p in composed
        )
        Tgf = jet_of_morphism(composed, a, order, src, tgt)
        if mat_mul(Tg, Tf) != Tgf:
            return False, f"functoriality failed at order {order}"
    return True, None


def _suite_log_derivative(rng, cases):
    for _ in range(cases):
        a = _random_series(rng, unit=True)
        b = _random_series(rng, unit=True)
        if log_derivative(a * b) != log_derivative(a) + log_derivative(b):
            return False, "log derivative is not additive on products"
    return True, None


def _suite_group_closure(rng, cases):
    for _ in range(cases):
        c0 = Fraction(rng.choice([1, 2, 3, -1, -2, Fraction(1, 2)]))
        d0 = Fraction(rng.choice([1, 2, -3, Fraction(2, 3)]))
        a = TSeries.constant(c0, 12) * exp_series(Fraction(rng.randint(-3, 3)), 12)
        b = TSeries.constant(d0, 12) * exp_series(Fraction(rng.randint(-3, 3)), 12)
        if not (in_log_constant_group(a) and in_log_constant_group(b)):
            return False, "generator failed membership"
        if not in_log_constant_group(a * b):
            return False, "product left the group"
        if not in_log_constant_group(1 / a):
            return False, "inverse left the group"
        # kernel of the log derivative inside the group is the constants
        if log_derivative(a).is_zero() and not a.is_constant():
            return False, "kernel element is not constant"
    return True, None


def _suite_fiber_linearity(rng, cases):
    W = _restricted_bundle()
    for _ in range(cases):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        reports = fiber_linearity_check(
            W,
            [(c, c)],
            order=10,
            scalars=(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 5), 2)),
        )
        if not reports[0].ok:
            return False, f"fiber linearity failed at ({c}, {c})"
    return True, None


@_criterion("property-suites", "randomized invariants, 100 cases each", 60.0)
def check_property_suites(seed=3):
    suites = [
        ("hasse-product-rule", _suite_hasse, 100),
        ("leibniz-laws", _suite_leibniz, 100),
        ("jet-functoriality", _suite_functoriality, 100),
        ("log-derivative-homomorphism", _suite_log_derivative, 100),
        ("group-closure", _suite_group_closure, 100),
        ("fiber-linearity", _suite_fiber_linearity, 100),
    ]
    rng = random.Random(seed)
    details = []
    for name, fn, cases in suites:
        ok, message = fn(rng, cases)
        if not ok:
            return False, f"{name}: {message}"
        details.append(f"{name}:{cases}")
    return True, " ".join(details)


# -- the runner -------------------------------------------------------------------


def run_all(seed=0):
    return [
        check_tangent_display(),
        check_restriction_display(),
        check_kernel_identity(),
        check_surjectivity_witnesses(),
        check_dimension_law(seed),
        check_tensor_pairing(seed + 1),
        check_product_decomposition(),
        check_constant_points_jets(),
        check_m1_crosscheck(),
        check_degree_step(seed + 2),
        check_series_oracles(),
        check_property_suites(seed + 3),
    ]
