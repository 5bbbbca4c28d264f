"""Differential tangent bundles, restriction, and the log-derivative group.

The differential tangent bundle of a D-variety on ambient affine space is
its Jacobian linearization: fiber variables u with delta(u) = J_s(x) u,
where J_s is the Jacobian matrix of the section; proper subvarieties also
carry the order-1 jet rows of their ideal as linear fiber constraints.
Restriction substitutes triangular identifications into every equation and
may override base derivative rules, reproducing presentations like the
diagonal restriction used in the counterexample.

The multiplicative group element machinery lives here too: log derivatives,
membership in the group of units whose log derivative is constant, and the
full verification chain showing that group arises as the image of a
restricted tangent bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import diffpoly as dp
from .dvariety import DVariety, delta_jet_space, SharpPoint
from .errors import (
    DimensionMismatch,
    NonTriangular,
    PointNotOnVariety,
    ZeroInput,
)
from .jets import jet_equations
from .linalg import (
    RATIONAL,
    LinSystem,
    mutually_contained,
    nullspace,
)
from .mpoly import MPoly
from .series import (
    DEFAULT_PRECISION,
    TSeries,
    exp_series,
    fundamental_matrix,
    mat_vec,
)


@dataclass(frozen=True)
class RestrictionRule:
    """One clause of a restriction block.

    kind "identify": an algebraic equation lhs = rhs; when both sides are
    bare variables the later one (ambient order) is eliminated in favor of
    the earlier, so the stored display keeps the equation as written while
    computation substitutes e.g. y -> x.  kind "derivative": overrides the
    base rule for delta(var).
    """

    kind: str
    lhs: str
    rhs: MPoly


@dataclass
class LinearDVariety:
    """A linear fiber bundle over a D-variety base, given by equations.

    base_rules maps each surviving base variable to the polynomial value of
    its derivative; fiber_matrix J gives delta(u) = J(x) u; fiber_constraints
    are rows of linear relations among the fiber variables with polynomial
    coefficients (order-1 jet rows of the base ideal).  identifications and
    overridden derivative rules are kept for display and reduction.
    """

    base: DVariety
    fiber_vars: tuple
    fiber_matrix: list
    fiber_constraints: list = field(default_factory=list)
    identifications: list = field(default_factory=list)  # RestrictionRule displays
    base_rules: dict = field(default_factory=dict)  # var name -> MPoly (base vars)

    def __post_init__(self):
        if not self.base_rules:
            self.base_rules = {
                v: s for v, s in zip(self.base.vars, self.base.section)
            }

    @property
    def all_vars(self):
        return tuple(self.base.vars) + tuple(self.fiber_vars)

    def fiber_equations(self):
        """delta(u_i) as polynomials in base and fiber variables."""
        allv = self.all_vars
        out = []
        for i, u in enumerate(self.fiber_vars):
            rhs = MPoly.zero(allv)
            for j, w in enumerate(self.fiber_vars):
                rhs = rhs + self.fiber_matrix[i][j].embed(allv) * MPoly.variable(
                    allv, w
                )
            out.append(rhs)
        return out

    def presentation(self):
        """Equations as (kind, lhs text, rhs polynomial) triples, display order:
        identifications, base derivative rules, fiber derivative rules."""
        allv = self.all_vars
        eqs = []
        for rule in self.identifications:
            eqs.append(("algebraic", rule.lhs, rule.rhs.embed(allv)))
        dropped = _eliminated_names(self.identifications, self.base.vars)
        for v in self.base.vars:
            if v in dropped:
                continue
            eqs.append(("derivative", v, self.base_rules[v].embed(allv)))
        for u, rhs in zip(self.fiber_vars, self.fiber_equations()):
            eqs.append(("derivative", u, rhs))
        for row in self.fiber_constraints:
            rhs = MPoly.zero(allv)
            for coeff, u in zip(row, self.fiber_vars):
                rhs = rhs + coeff.embed(allv) * MPoly.variable(allv, u)
            eqs.append(("constraint", "0", rhs))
        return eqs

    def presentation_text(self):
        out = []
        for kind, lhs, rhs in self.presentation():
            if kind == "algebraic":
                out.append(f"{lhs} = {rhs}")
            elif kind == "derivative":
                out.append(f"delta {lhs} = {rhs}")
            else:
                out.append(f"0 = {rhs}")
        return out

    def substitution_system(self):
        """The presentation as a rewrite system over base + fiber variables."""
        allv = self.all_vars
        idx = {v: i for i, v in enumerate(allv)}
        algebraic = []
        for rule in self.identifications:
            lhs_name, rhs = _orient_identification(rule, self.base.vars)
            algebraic.append((idx[lhs_name], rhs.embed(allv)))
        dropped = _eliminated_names(self.identifications, self.base.vars)
        derivative = {}
        for v in self.base.vars:
            if v not in dropped:
                derivative[idx[v]] = self.base_rules[v].embed(allv)
        for u, rhs in zip(self.fiber_vars, self.fiber_equations()):
            derivative[idx[u]] = rhs
        return dp.SubstitutionSystem(allv, derivative, tuple(algebraic))


def _orient_identification(rule: RestrictionRule, variables):
    """Return (eliminated variable, replacement) for an identification.

    A bare-variable identification is oriented to eliminate the later
    ambient variable; otherwise the left side is eliminated.
    """
    lhs = rule.lhs
    rhs = rule.rhs
    rhs_var = _as_variable(rhs)
    if rhs_var is not None:
        if variables.index(rhs_var) > variables.index(lhs):
            return rhs_var, MPoly.variable(rhs.vars, lhs)
    if rhs.mentions(lhs):
        raise NonTriangular(f"rule {lhs} = {rhs} mentions its own left side")
    return lhs, rhs


def _as_variable(p: MPoly):
    if len(p.terms) != 1:
        return None
    (exps, c), = p.terms.items()
    if c != 1 or sum(exps) != 1:
        return None
    return p.vars[exps.index(1)]


def _eliminated_names(identifications, variables):
    out = set()
    for rule in identifications:
        name, _ = _orient_identification(rule, variables)
        out.add(name)
    return out


def delta_tangent(variety: DVariety, fiber_names=None):
    """Jacobian linearization of a D-variety: delta(u) = J_s(x) u.

    For a proper subvariety the order-1 jet rows of the ideal are attached
    as fiber constraints with polynomial coefficients in the base point.
    """
    if fiber_names is None:
        fiber_names = tuple("u_" + v for v in variety.vars)
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
    """Apply triangular identifications and derivative overrides to a bundle.

    Identifications are substituted through the base rules, the fiber
    matrix, and the fiber constraints; derivative overrides replace base
    rules outright.  The returned presentation lists the identifications as
    written, the surviving base derivative rules, and the substituted fiber
    equations.
    """
    base_vars = bundle.base.vars
    identifications = [r for r in rules if r.kind == "identify"]
    overrides = {r.lhs: r.rhs for r in rules if r.kind == "derivative"}

    subs = []
    for rule in identifications:
        name, rhs = _orient_identification(rule, base_vars)
        subs.append((name, rhs))

    def substituted(p: MPoly):
        for name, rhs in subs:
            p = p.subs(name, rhs.embed(p.vars))
        return p

    new_rules = {}
    for v in base_vars:
        if v in overrides:
            new_rules[v] = substituted(overrides[v])
        else:
            new_rules[v] = substituted(bundle.base_rules[v])
    new_matrix = [
        [substituted(e) for e in row] for row in bundle.fiber_matrix
    ]
    new_constraints = [
        [substituted(e) for e in row] for row in bundle.fiber_constraints
    ]
    return LinearDVariety(
        base=bundle.base,
        fiber_vars=bundle.fiber_vars,
        fiber_matrix=new_matrix,
        fiber_constraints=new_constraints,
        identifications=bundle.identifications + identifications,
        base_rules=new_rules,
    )


# -- the log-derivative group --------------------------------------------------


def log_derivative(a: TSeries):
    """delta(a)/a for a unit series; guaranteed one order less."""
    return a.derive() / a


def in_log_constant_group(a: TSeries):
    """Units whose log derivative is constant: delta(delta(a)/a) = 0 to precision."""
    return log_derivative(a).derive().is_zero()


@dataclass(frozen=True)
class GElement:
    """A unit series with certified constant log derivative."""

    value: TSeries
    ratio: Fraction

    @classmethod
    def from_series(cls, a: TSeries):
        ell = log_derivative(a)
        if not ell.is_constant():
            raise ZeroInput(f"series {a} has non-constant log derivative")
        return cls(a, ell.constant_term)


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


def degree_identity_check(P: MPoly, Q: MPoly, yname="y"):
    """Compare y-degrees of P^delta Q - Q^delta P against P Q y.

    The coefficients are series (a differential field); ^delta applies the
    derivation coefficientwise.  The right-hand side stays within
    deg_y P + deg_y Q while multiplying by y pushes the left-hand side one
    higher whenever the leading y-coefficients multiply to something
    nonzero, so the two can never agree.
    """
    if P.is_zero() or Q.is_zero():
        raise ZeroInput("degree comparison needs nonzero polynomials")
    Pd = P.map_coeffs(lambda c: c.derive())
    Qd = Q.map_coeffs(lambda c: c.derive())
    rhs = Pd * Q - Qd * P
    y = MPoly.variable(P.vars, yname)
    lhs = P * Q * y
    lead = P.leading_coeff_in(yname) * Q.leading_coeff_in(yname)
    leading_unit = any(
        (c.is_unit() if isinstance(c, TSeries) else c != 0)
        for c in lead.terms.values()
    )
    return DegreeGapReport(
        deg_y_p=P.degree_in(yname),
        deg_y_q=Q.degree_in(yname),
        deg_y_rhs=rhs.degree_in(yname),
        deg_y_lhs=lhs.degree_in(yname),
        leading_unit=leading_unit,
    )


# -- fiber linearity -------------------------------------------------------------


@dataclass
class FiberLinearityReport:
    base_point: tuple
    solutions_checked: int
    additive: bool
    scaling: bool
    zero_section: bool

    @property
    def ok(self):
        return self.additive and self.scaling and self.zero_section

    def to_json(self):
        return {
            "base_point": [str(c) for c in self.base_point],
            "solutions_checked": self.solutions_checked,
            "additive": self.additive,
            "scaling": self.scaling,
            "zero_section": self.zero_section,
            "ok": self.ok,
        }


def fiber_linearity_check(bundle: LinearDVariety, samples, order=DEFAULT_PRECISION,
                          scalars=(3, Fraction(-1, 2))):
    """Closure of the solution fibers under addition, constant scaling, zero.

    Each sample must be a constant point of the restricted base (checked
    against the identifications and overridden derivative rules); the fiber
    solutions are the fundamental columns of the evaluated system matrix.
    """
    reports = []
    for pt in samples:
        pt = tuple(Fraction(c) for c in pt)
        _check_restricted_base_point(bundle, pt)
        A = [
            [TSeries.constant(e.eval(pt), order) for e in row]
            for row in bundle.fiber_matrix
        ]
        cols = fundamental_matrix(A, order)
        d = len(cols)
        sols = [[cols[r][c] for r in range(d)] for c in range(d)]

        def satisfies(vec):
            Av = mat_vec(A, vec)
            return all((x.derive() - y).is_zero() for x, y in zip(vec, Av))

        additive = all(
            satisfies([a + b for a, b in zip(s1, s2)])
            for s1 in sols
            for s2 in sols
        )
        scaling = all(
            satisfies([TSeries.constant(c, order) * x for x in s])
            for c in scalars
            for s in sols
        )
        zero_ok = satisfies([TSeries.zero(order) for _ in range(d)])
        reports.append(
            FiberLinearityReport(pt, len(sols), additive, scaling, zero_ok)
        )
    return reports


def _check_restricted_base_point(bundle: LinearDVariety, pt):
    base_vars = bundle.base.vars
    values = dict(zip(base_vars, pt))
    for rule in bundle.identifications:
        lhs = values[rule.lhs]
        rhs = rule.rhs.eval([values[v] for v in rule.rhs.vars])
        if lhs != rhs:
            raise PointNotOnVariety(
                f"sample {pt} violates identification {rule.lhs} = {rule.rhs}"
            )
    dropped = _eliminated_names(bundle.identifications, base_vars)
    for v in base_vars:
        if v in dropped:
            continue
        # constant points must be equilibria of the restricted base rules
        if bundle.base_rules[v].eval(pt) != 0:
            raise PointNotOnVariety(
                f"sample {pt} is not constant for delta {v} = {bundle.base_rules[v]}"
            )
    for P in bundle.base.generators:
        if P.eval(pt) != 0:
            raise PointNotOnVariety(f"sample {pt} violates {P}")


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
        return {
            "dim_jet_route": self.dim_jet_route,
            "dim_ode_route": self.dim_ode_route,
            "mutually_contained": self.mutually_contained,
            "ok": self.ok,
        }


def m1_equivalence(variety: DVariety, point: SharpPoint):
    """Compare the order-1 jet route with the direct Jacobian linearization.

    Route one computes the differential jet space at the sharp point; route
    two solves v' = J_s(a(t)) v with the fundamental matrix and keeps the
    constant combinations satisfying the order-1 jet rows.  The two bases
    must contain each other over the constants with exact-zero residuals.
    """
    djs = delta_jet_space(variety, point, 1)
    J = [
        [
            _as_series(s.partial(v).eval(point.coords), point.prec)
            for v in variety.vars
        ]
        for s in variety.section
    ]
    order = min(e.prec for row in J for e in row) + 1 if J else point.prec
    phi = fundamental_matrix(J, order)
    d = len(phi)
    columns = [[phi[r][c] for r in range(d)] for c in range(d)]
    if variety.generators:
        constraints = jet_equations(variety.generators, point.coords, 1)
        rational_rows = []
        for row in constraints.rows:
            combo = [
                _dot_series(row, col) for col in columns
            ]
            prec = min(x.prec for x in combo)
            for k in range(prec + 1):
                rational_rows.append([x.coeffs[k] for x in combo])
        kernel = nullspace(LinSystem(rational_rows, d, RATIONAL))
        ode_basis = []
        for coeffs in kernel:
            vec = None
            for c, col in zip(coeffs, columns):
                contrib = [TSeries.constant(c, point.prec) * x for x in col]
                vec = contrib if vec is None else [a + b for a, b in zip(vec, contrib)]
            ode_basis.append(vec)
    else:
        ode_basis = columns
    contained = mutually_contained(djs.horizontal, ode_basis)
    return TangentEquivalenceReport(djs.dim_c, len(ode_basis), contained)


def _as_series(value, prec):
    if isinstance(value, TSeries):
        return value
    return TSeries.constant(value, prec)


def _dot_series(xs, ys):
    acc = None
    for x, y in zip(xs, ys):
        term = x * y
        acc = term if acc is None else acc + term
    return acc


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


def counterexample_report(
    precision=DEFAULT_PRECISION,
    ratios=(0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 5)),
):
    """Build the full verification chain for the restricted tangent bundle.

    Constructs the plane D-variety, linearizes it, restricts to the constant
    diagonal, checks the symbolic kernel identity for the image map
    (x, y, u, v) -> u - v, and verifies the witness family
    (c, c, 2 exp(ct), exp(ct)) against every restricted equation.
    """
    X = counterexample_variety()
    T = delta_tangent(X, fiber_names=("u", "v"))
    W = restrict(T, diagonal_restriction())
    allv = W.all_vars

    kernel = dp.log_derivative_constant_identity(
        W.substitution_system(),
        dp.DiffPoly.variable(allv, "u") - dp.DiffPoly.variable(allv, "v"),
    )

    witnesses = []
    for c in ratios:
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
        for kind, lhs, rhs in W.presentation():
            rhs_val = rhs.eval(coords)
            if kind == "algebraic":
                lhs_val = point[lhs]
                res = lhs_val - _as_series(rhs_val, precision)
                text = f"{lhs} = {rhs}"
            else:
                lhs_val = point[lhs].derive()
                res = lhs_val - _as_series(rhs_val, precision)
                text = f"delta {lhs} = {rhs}"
            residuals.append((text, res.is_zero()))
        image = point["u"] - point["v"]
        in_group = in_log_constant_group(image) if image.is_unit() else False
        ratio_matches = in_group and log_derivative(image) == c
        witnesses.append(
            WitnessResult(
                ratio=c,
                residuals=residuals,
                image=image,
                image_in_group=in_group,
                image_ratio_matches=ratio_matches,
                separated=image.is_unit(),
            )
        )

    return CounterexampleReport(
        tangent_equations=[
            f"delta {u} = {rhs}"
            for u, rhs in zip(T.fiber_vars, T.fiber_equations())
        ],
        restricted_equations=W.presentation_text(),
        kernel_identity=kernel,
        witnesses=witnesses,
        precision=precision,
    )
