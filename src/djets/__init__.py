"""djets: exact differential-algebra engine.

Truncated power series over Q as the working differential field, sparse
multivariate polynomials with divided-power derivatives, algebraic and
differential jet spaces of D-varieties, delta-modules with duals and tensor
products, and the machinery verifying that the restriction of a
differential tangent bundle to a set of constant points can fail to be
algebraic over the constants.
"""

from .delta_modules import (
    DeltaModule,
    dual,
    horizontal_sections,
    product_jet_decompose,
    tensor,
    verify_tensor_pairing,
)
from .diffpoly import (
    derivation,
    log_derivative_constant_identity,
    log_derivative_normal_form,
    reduce,
)
from .dvariety import (
    DVariety,
    DeltaJetSpace,
    SharpPoint,
    constants_variety_jets,
    delta_jet_space,
    product_dvariety,
    product_sharp_point,
    sharp_integrate,
    validate_section,
)
from .errors import (
    ArityError,
    BasePointMismatch,
    BasisLimit,
    DecompositionFailure,
    DimensionMismatch,
    DjetsError,
    DomainMismatch,
    InsufficientPrecision,
    InvarianceViolation,
    JetLimit,
    NonTriangular,
    NonUnitDivisor,
    ParseError,
    PointNotOnVariety,
    SingularPivot,
    UnknownName,
    ZeroInput,
)
from .jets import JetSpace, jet_equations, jet_of_morphism, jet_space
from .linalg import LinSystem, nullspace
from .mpoly import MPoly, groebner, normal_form, taylor_coeffs
from .series import (
    DEFAULT_PRECISION,
    TSeries,
    exp_series,
    fundamental_matrix,
)
from .tangent import (
    LinearDVariety,
    RestrictionRule,
    counterexample_report,
    counterexample_variety,
    degree_identity_check,
    delta_tangent,
    diagonal_restriction,
    fiber_linearity_check,
    in_log_constant_group,
    log_constant,
    log_derivative,
    m1_equivalence,
    restrict,
)

__version__ = "0.1.0"
