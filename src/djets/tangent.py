"""Differential tangent bundles, restriction, and the log-derivative group.

The differential tangent bundle of a D-variety on ambient affine space is
its Jacobian linearization: fiber variables u with delta(u) = J_s(x) u,
where J_s is the Jacobian matrix of the section; proper subvarieties also
carry the order-1 jet rows of their ideal as linear fiber constraints.
Restriction imposes identifications, which generate an ideal, and may
override base derivative rules: every equation is reduced by one Groebner
normal form modulo that ideal, in the block order that ranks the eliminated
variables first, reproducing presentations like the diagonal restriction
used in the counterexample.

The multiplicative group element machinery lives here too: log derivatives,
membership in the group of units whose log derivative is constant, and the
full verification chain showing that group arises as the image of a
restricted tangent bundle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import diffpoly as dp
from .delta_modules import (
    DeltaModule,
    horizontal_sections,
    is_horizontal,
    rank_at_zero,
)
from .dvariety import DVariety, SharpPoint, delta_jet_space, fresh_names
from .errors import (
    DimensionMismatch,
    InsufficientPrecision,
    NonTriangular,
    NonUnitDivisor,
    PointNotOnVariety,
    ZeroInput,
)
from .jets import jet_equations
from .linalg import LinSystem, nullspace
from .mpoly import MPoly, block_key, groebner, normal_form
from .series import (
    DEFAULT_PRECISION,
    TSeries,
    as_rational,
    exp_series,
    format_point,
    integer_rows,
    mat_mul,
    transpose,
)


@dataclass(frozen=True)
class RestrictionRule:
    """One clause of a restriction block.

    kind "identify": an algebraic equation lhs = rhs, kept as written for
    display; see restrict for the variable it eliminates.  kind
    "derivative": overrides the base rule for delta(var).
    """

    kind: str
    lhs: str
    rhs: MPoly


@dataclass
class LinearDVariety:
    """A linear fiber bundle over a D-variety base, given by equations.

    base_rules maps each base variable to the polynomial value of its
    derivative; fiber_matrix J gives delta(u) = J(x) u; fiber_constraints
    are rows of linear relations among the fiber variables with polynomial
    coefficients (order-1 jet rows of the base ideal).  identifications are
    the restriction clauses as written, for display.  substitutions is the
    reduced Groebner basis of their ideal, each element v - r stored as
    v -> r: v is eliminated and r mentions only surviving base variables.
    """

    base: DVariety
    fiber_vars: tuple
    fiber_matrix: list
    fiber_constraints: list = field(default_factory=list)
    identifications: list = field(default_factory=list)  # RestrictionRule displays
    substitutions: dict = field(default_factory=dict)  # var name -> MPoly (base vars)
    base_rules: dict = field(default_factory=dict)  # var name -> MPoly (base vars)

    def __post_init__(self):
        if not self.base_rules:
            self.base_rules = {
                v: s for v, s in zip(self.base.vars, self.base.section)
            }

    @property
    def all_vars(self):
        return tuple(self.base.vars) + tuple(self.fiber_vars)

    def _linear_form(self, coeffs):
        """sum_j coeffs[j] * u_j as a polynomial in base and fiber variables."""
        allv = self.all_vars
        rhs = MPoly.zero(allv)
        for c, u in zip(coeffs, self.fiber_vars):
            rhs = rhs + c.embed(allv) * MPoly.variable(allv, u)
        return rhs

    def fiber_module(self, point, prec):
        """The fiber over a base point as a delta-module: derivation matrix -J(point).

        Its horizontal sections are the solutions of delta(u) = J(point) u;
        rational entries become constant series of order `prec`.
        """
        return DeltaModule.from_rows(
            [[-e.eval(point) for e in row] for row in self.fiber_matrix], prec
        )

    def fiber_equations(self):
        """delta(u_i) as polynomials in base and fiber variables."""
        return [self._linear_form(row) for row in self.fiber_matrix]

    def presentation(self):
        """Equations as (kind, lhs text, rhs polynomial) triples, display order:
        identifications, base derivative rules, fiber derivative rules."""
        allv = self.all_vars
        eqs = []
        for rule in self.identifications:
            eqs.append(("algebraic", rule.lhs, rule.rhs.embed(allv)))
        for v in self.base.vars:
            if v in self.substitutions:
                continue
            eqs.append(("derivative", v, self.base_rules[v].embed(allv)))
        for u, rhs in zip(self.fiber_vars, self.fiber_equations()):
            eqs.append(("derivative", u, rhs))
        for row in self.fiber_constraints:
            eqs.append(("constraint", "0", self._linear_form(row)))
        return eqs

    def presentation_text(self):
        return [_equation_text(*eq) for eq in self.presentation()]

    def dvariety(self):
        """The bundle as a D-variety over base + fiber variables.

        Its generators are the identification basis v - r and the nonzero
        normal forms of the base generators modulo that basis, in the block
        order that ranks the eliminated variables first.  Each surviving
        base variable keeps its rule and each fiber variable its equation;
        an eliminated v gets the derivative of its replacement r, so the
        identification basis passes validate_section by construction and the
        base generators pass it when the restricted base rules keep the
        base ideal.
        """
        allv = self.all_vars
        base_vars = self.base.vars
        basis = [MPoly.variable(base_vars, v) - r for v, r in self.substitutions.items()]
        key = block_key({base_vars.index(v) for v in self.substitutions})
        base_ideal = normal_form(list(self.base.generators), basis, key)
        rules = {v: self.base_rules[v].embed(allv) for v in self.base.vars}
        for v, r in self.substitutions.items():
            rules[v] = r.embed(allv).lie(rules)
        rules.update(zip(self.fiber_vars, self.fiber_equations()))
        generators = tuple(g.embed(allv) for g in basis) + tuple(
            g.embed(allv) for g in base_ideal if not g.is_zero()
        )
        return DVariety(allv, generators, tuple(rules[v] for v in allv),
                        eliminated=tuple(self.substitutions))


def _equation_text(kind, lhs, rhs):
    """One presentation equation (kind, lhs text, rhs polynomial) as text;
    the lhs of a constraint is "0"."""
    return f"delta {lhs} = {rhs}" if kind == "derivative" else f"{lhs} = {rhs}"


def _eliminated(rule: RestrictionRule, variables):
    """The variable an identification eliminates: of two bare variables the
    later in ambient order, otherwise the left side."""
    later = variables[variables.index(rule.lhs) + 1:]
    return next((v for v in later if rule.rhs == MPoly.variable(variables, v)), rule.lhs)


def _identification_basis(identifications, variables):
    """The reduced basis of the identifications as substitutions, and its order.

    The order is the block order that ranks the variables the identifications
    eliminate first.  Each element v - r must lead with a single variable v
    and is returned as v -> r; else NonTriangular names the first
    identification after which the basis so far has an element that does not.
    """
    generators = [MPoly.variable(variables, r.lhs) - r.rhs for r in identifications]
    key = block_key({variables.index(_eliminated(r, variables)) for r in identifications})

    def bad_element(basis):
        return next((g for g in basis if sum(max(g.terms, key=key)) != 1), None)

    basis = groebner(generators, key)
    if bad_element(basis) is not None:
        for k, rule in enumerate(identifications, 1):
            g = bad_element(groebner(generators[:k], key))
            if g is not None:
                raise NonTriangular(
                    f"identification {rule.lhs} = {rule.rhs} gives the basis "
                    f"element {g}, which does not lead with a single variable"
                )
    substitutions = {}
    for g in basis:
        name = variables[max(g.terms, key=key).index(1)]
        substitutions[name] = MPoly.variable(variables, name) - g
    return substitutions, key


def delta_tangent(variety: DVariety, fiber_names=None):
    """Jacobian linearization of a D-variety: delta(u) = J_s(x) u.

    The default fiber variable of x is u_x, made fresh by `fresh_names`.

    For a proper subvariety the order-1 jet rows of the ideal are attached
    as fiber constraints with polynomial coefficients in the base point.
    """
    if fiber_names is None:
        fiber_names = fresh_names(variety.vars, ["u_" + v for v in variety.vars])
    fiber_names = tuple(fiber_names)
    if len(fiber_names) != variety.nvars:
        raise DimensionMismatch("one fiber variable per base variable")
    J = [
        [s.partial(v) for v in variety.vars]
        for s in variety.section
    ]
    constraints = [
        [P.partial(v) for v in variety.vars] for P in variety.generators
    ]
    return LinearDVariety(
        base=variety,
        fiber_vars=fiber_names,
        fiber_matrix=J,
        fiber_constraints=constraints,
    )


def restrict(bundle: LinearDVariety, rules):
    """Impose identifications and derivative overrides on a bundle.

    The identifications, earlier ones included, generate an ideal whose
    reduced basis must be v - r with v single variables (_identification_basis);
    the v are eliminated, chains included.  Overrides replace base rules; one
    on an eliminated variable raises NonTriangular.  Base rules, fiber matrix
    and fiber constraints are reduced by one normal form modulo that basis.
    The constraints stay display rows, outside the ideal.  The presentation
    lists the identifications as written, the surviving base rules and the
    reduced fiber equations.
    """
    base_vars = bundle.base.vars
    identifications = bundle.identifications + [r for r in rules if r.kind == "identify"]
    overrides = {r.lhs: r.rhs for r in rules if r.kind == "derivative"}
    substitutions, key = _identification_basis(identifications, base_vars)
    for v, rhs in overrides.items():
        if v in substitutions:
            rule = next(r for r in identifications if r.lhs == v or r.rhs.mentions(v))
            raise NonTriangular(
                f"derivative override delta {v} = {rhs} is on {v}, which the "
                f"identification {rule.lhs} = {rule.rhs} eliminates"
            )
    basis = [MPoly.variable(base_vars, v) - r for v, r in substitutions.items()]
    rows = [[overrides.get(v, bundle.base_rules[v]) for v in base_vars]]
    rows += bundle.fiber_matrix + bundle.fiber_constraints
    reduced = iter(normal_form([e for row in rows for e in row], basis, key))
    rows = [[next(reduced) for _ in row] for row in rows]
    n = len(bundle.fiber_matrix)
    return LinearDVariety(
        base=bundle.base,
        fiber_vars=bundle.fiber_vars,
        fiber_matrix=rows[1:1 + n],
        fiber_constraints=rows[1 + n:],
        identifications=identifications,
        substitutions=substitutions,
        base_rules=dict(zip(base_vars, rows[0])),
    )


# -- the log-derivative group --------------------------------------------------


def log_derivative(a: TSeries):
    """delta(a)/a for a unit series; guaranteed one order less."""
    return a.derive() / a


def log_constant(a: TSeries):
    """The constant log derivative c = a_1/a_0 of a unit a, or None.

    For a unit a of order N, delta(a)/a is constant through its order N-1
    exactly when delta(a) = c a modulo t^N.  With c = p/q in lowest terms
    that is the forward identity (k+1) q a_(k+1) == p a_k on the numerators
    for k = 1 .. N-1: O(N) products of a numerator by a small integer, with
    no further gcd and no series division.  The errors are those of
    log_derivative(a).derive(), in its order: InsufficientPrecision at
    order 0, NonUnitDivisor for a non-unit, then InsufficientPrecision at
    order 1.
    """
    if a.prec == 0 or (a.is_unit() and a.prec == 1):
        raise InsufficientPrecision("cannot differentiate a precision-0 series")
    if not a.is_unit():
        raise NonUnitDivisor("divisor has zero constant term")
    xs = a.nums
    c = Fraction(xs[1], xs[0])
    p, q = c.numerator, c.denominator
    if all((k + 1) * q * xs[k + 1] == p * xs[k] for k in range(1, a.prec)):
        return c
    return None


def in_log_constant_group(a: TSeries):
    """Units whose log derivative is constant to precision: log_constant(a)
    is not None, with its errors."""
    return log_constant(a) is not None


# -- degree bookkeeping for the impossibility step ------------------------------


@dataclass
class DegreeGapReport:
    deg_y_p: int
    deg_y_q: int
    deg_y_rhs: int
    deg_y_lhs: int
    leading_unit: bool

    @property
    def ok(self):
        bound = self.deg_y_p + self.deg_y_q
        if self.deg_y_rhs > bound:
            return False
        if self.leading_unit and self.deg_y_lhs != bound + 1:
            return False
        return self.leading_unit

    def to_json(self):
        return {
            "deg_y_P": self.deg_y_p,
            "deg_y_Q": self.deg_y_q,
            "deg_y_rhs": self.deg_y_rhs,
            "deg_y_lhs": self.deg_y_lhs,
            "leading_unit": self.leading_unit,
            "ok": self.ok,
        }


def degree_identity_check(P: MPoly, Q: MPoly, prec):
    """Compare y-degrees of P^delta Q - Q^delta P against P Q y.

    P and Q are polynomials in (x, y, t) over Q, and stand for polynomials
    in (x, y) over series of precision N = prec: a coefficient of
    precision N is a polynomial in t modulo t^(N+1), and delta acts as
    d/dt.  So both are cut past t^N on entry, P^delta Q - Q^delta P is
    (dP/dt) Q - (dQ/dt) P cut past t^(N-1), and P Q y is the product cut
    past t^N, times y.  A leading y-coefficient is a unit when the product
    of the two leading coefficients has a term of t-degree 0.  The
    right-hand side stays within deg_y P + deg_y Q, while multiplying by y
    pushes the left-hand side one higher whenever the leading coefficients
    multiply to a unit, so the two can never agree.
    """
    if prec < 1:
        raise InsufficientPrecision("the degree step needs precision >= 1")
    P, Q = _cut_t(P, prec), _cut_t(Q, prec)
    if P.is_zero() or Q.is_zero():
        raise ZeroInput("degree comparison needs nonzero polynomials")
    rhs = _cut_t(P.partial("t") * Q - Q.partial("t") * P, prec - 1)
    lhs = _cut_t(P * Q, prec) * MPoly.variable(P.vars, "y")
    lead = P.leading_coeff_in("y") * Q.leading_coeff_in("y")
    t = P.vars.index("t")
    return DegreeGapReport(
        deg_y_p=P.degree_in("y"),
        deg_y_q=Q.degree_in("y"),
        deg_y_rhs=rhs.degree_in("y"),
        deg_y_lhs=lhs.degree_in("y"),
        leading_unit=any(e[t] == 0 for e in lead.terms),
    )


def _cut_t(p: MPoly, n):
    """p with every term past t^n dropped."""
    t = p.vars.index("t")
    return MPoly(p.vars, {e: c for e, c in p.terms.items() if e[t] <= n})


# -- fiber linearity -------------------------------------------------------------


@dataclass
class FiberLinearityReport:
    additive: bool
    scaling: bool
    zero_section: bool

    @property
    def ok(self):
        return self.additive and self.scaling and self.zero_section


def fiber_linearity_check(bundle: LinearDVariety, samples, order=DEFAULT_PRECISION,
                          scalars=(3, Fraction(-1, 2))):
    """Closure of the solution fibers under addition, constant scaling, zero.

    Each sample must be a constant point of the restricted base (checked
    against the identifications and overridden derivative rules); the fiber
    solutions are the horizontal sections of the fiber module there.
    """
    reports = []
    for pt in samples:
        pt = tuple(as_rational(c, f"coordinate {i} of a sample") for i, c in enumerate(pt))
        _check_restricted_base_point(bundle, pt)
        module = bundle.fiber_module(pt, order)
        sols = horizontal_sections(module)
        additive = is_horizontal(
            module, *([a + b for a, b in zip(s1, s2)] for s1 in sols for s2 in sols)
        )
        scaling = is_horizontal(
            module,
            *([TSeries.constant(c, order) * x for x in s] for c in scalars for s in sols),
        )
        zero_ok = is_horizontal(module, [TSeries.zero(order)] * module.dim)
        reports.append(FiberLinearityReport(additive, scaling, zero_ok))
    return reports


def _check_restricted_base_point(bundle: LinearDVariety, pt):
    base_vars = bundle.base.vars
    values = dict(zip(base_vars, pt))
    sample = f"sample {format_point(pt)}"
    for rule in bundle.identifications:
        if values[rule.lhs] != rule.rhs.eval(pt):
            raise PointNotOnVariety(
                f"{sample} violates identification {rule.lhs} = {rule.rhs}"
            )
    for v in base_vars:
        if v in bundle.substitutions:
            continue
        # constant points must be equilibria of the restricted base rules
        if bundle.base_rules[v].eval(pt) != 0:
            raise PointNotOnVariety(
                f"{sample} is not constant for delta {v} = {bundle.base_rules[v]}"
            )
    for P in bundle.base.generators:
        if P.eval(pt) != 0:
            raise PointNotOnVariety(f"{sample} violates {P}")


# -- the m = 1 equivalence -------------------------------------------------------


@dataclass
class TangentEquivalenceReport:
    dim_jet_route: int
    dim_ode_route: int
    mutually_contained: bool

    @property
    def ok(self):
        return self.dim_jet_route == self.dim_ode_route and self.mutually_contained

    def to_json(self):
        return {**asdict(self), "ok": self.ok}


def m1_equivalence(point: SharpPoint):
    """Compare the order-1 jet route with the direct Jacobian linearization.

    Route one computes the differential jet space at the sharp point; route
    two takes the horizontal sections of the fiber module of
    delta_tangent(point.variety), the solutions of v' = J_s(a(t)) v, and keeps
    the constant combinations satisfying the order-1 jet rows.  Route two
    solves that ODE by construction; route one must be shown to, by exact-zero
    residuals in the fiber module (at precision 0 there is no derivative to
    check).  Solutions are fixed by their values at t = 0, so the two bases
    then contain each other over the constants exactly when their t^0 values
    and the union of both have one rank (`rank_at_zero`).
    """
    djs = delta_jet_space(point, 1)
    module = delta_tangent(point.variety).fiber_module(point.coords, point.prec)
    columns = horizontal_sections(module)
    constraints = jet_equations(point.variety.generators, point.coords, 1)
    rational_rows = []
    for combo in mat_mul(constraints, transpose(columns)):
        rational_rows += integer_rows(combo, min(x.prec for x in combo))
    # row i of the ODE basis is sum_j kernel[i][j] * columns[j]; without
    # generators there are no rows, the kernel is the identity and the
    # basis is the columns themselves
    ode_basis = mat_mul(nullspace(LinSystem(rational_rows, len(columns))), columns)
    solves = point.prec == 0 or is_horizontal(module, *djs.horizontal)
    ranks = {rank_at_zero(vs, module.dim)
             for vs in (djs.horizontal, ode_basis, djs.horizontal + ode_basis)}
    return TangentEquivalenceReport(djs.dim_c, len(ode_basis), solves and len(ranks) == 1)


# -- the counterexample chain ----------------------------------------------------


def counterexample_variety():
    """The D-variety on the affine plane with section (x^2 - y^2, x^2 - x y)."""
    xy = ("x", "y")
    x = MPoly.variable(xy, "x")
    y = MPoly.variable(xy, "y")
    return DVariety(xy, (), (x**2 - y**2, x**2 - x * y), name="X")


def diagonal_restriction():
    """Rules x = y (identification) and delta x = 0."""
    xy = ("x", "y")
    return [
        RestrictionRule("identify", "x", MPoly.variable(xy, "y")),
        RestrictionRule("derivative", "x", MPoly.zero(xy)),
    ]


@dataclass
class WitnessResult:
    ratio: Fraction
    residuals: list  # (equation text, residual is zero)
    image: TSeries  # value of (x, y, u, v) -> u - v at the witness
    image_in_group: bool
    image_ratio_matches: bool
    separated: bool  # u != v holds (the difference is a unit)

    @property
    def ok(self):
        return (
            all(flag for _, flag in self.residuals)
            and self.image_in_group
            and self.image_ratio_matches
            and self.separated
        )


@dataclass
class CounterexampleReport:
    tangent_equations: list
    restricted_equations: list
    kernel_identity: bool
    witnesses: list
    precision: int

    @property
    def ok(self):
        return self.kernel_identity and all(w.ok for w in self.witnesses)

    def to_json(self):
        return {
            "tangent_equations": self.tangent_equations,
            "restricted_equations": self.restricted_equations,
            "kernel_identity": self.kernel_identity,
            "witnesses": [
                {
                    "ratio": str(w.ratio),
                    "residuals": [
                        {"equation": eq, "zero": flag} for eq, flag in w.residuals
                    ],
                    "image_in_group": w.image_in_group,
                    "image_ratio_matches": w.image_ratio_matches,
                    "separated": w.separated,
                    "ok": w.ok,
                }
                for w in self.witnesses
            ],
            "precision": self.precision,
            "ok": self.ok,
        }


#: The ratios c of the witnesses (c, c, 2 exp(ct), exp(ct)).
WITNESS_RATIOS = (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 5))


def counterexample_report(precision=DEFAULT_PRECISION):
    """Build the full verification chain for the restricted tangent bundle.

    Constructs the plane D-variety, linearizes it, restricts to the constant
    diagonal, checks the symbolic kernel identity for the image map
    (x, y, u, v) -> u - v, and verifies the witness family
    (c, c, 2 exp(ct), exp(ct)), c in WITNESS_RATIOS, against every
    restricted equation.
    """
    X = counterexample_variety()
    T = delta_tangent(X, fiber_names=("u", "v"))
    W = restrict(T, diagonal_restriction())
    allv = W.all_vars
    presentation = W.presentation()
    texts = [_equation_text(*eq) for eq in presentation]

    kernel = dp.log_derivative_constant_identity(
        W.dvariety(),
        MPoly.variable(allv, "u") - MPoly.variable(allv, "v"),
    )

    witnesses = []
    for c in WITNESS_RATIOS:
        c = Fraction(c)
        g = exp_series(c, precision)
        point = {
            "x": TSeries.constant(c, precision),
            "y": TSeries.constant(c, precision),
            "u": 2 * g,
            "v": g,
        }
        coords = [point[v] for v in allv]
        residuals = []
        for text, (kind, lhs, rhs) in zip(texts, presentation):
            lhs_val = point[lhs] if kind == "algebraic" else point[lhs].derive()
            res = lhs_val - TSeries.lift(rhs.eval(coords), precision)
            residuals.append((text, res.is_zero()))
        image = point["u"] - point["v"]
        separated = image.is_unit()
        # one check for membership (in_log_constant_group) and the ratio
        rate = log_constant(image) if separated else None
        witnesses.append(
            WitnessResult(
                ratio=c,
                residuals=residuals,
                image=image,
                image_in_group=rate is not None,
                image_ratio_matches=rate == c,
                separated=separated,
            )
        )

    return CounterexampleReport(
        tangent_equations=[
            _equation_text("derivative", u, rhs)
            for u, rhs in zip(T.fiber_vars, T.fiber_equations())
        ],
        restricted_equations=texts,
        kernel_identity=kernel,
        witnesses=witnesses,
        precision=precision,
    )
