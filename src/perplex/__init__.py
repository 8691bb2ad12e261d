"""Two-dimensional commutative real algebras and their calculus.

The package builds unital commutative associative products on the real
plane from two coefficient triples, classifies them up to isomorphism,
differentiates polynomial maps against them, fits algebras to given
derivatives, and runs desk-scale experiments: an empirical Lojasiewicz
exponent scanner and a fiber-count check of local triviality over the
punctured disk.
"""

from .algebra import (
    COMPLEX_PARAMS,
    DUAL_BOUNDARY_PARAMS,
    HYPERBOLIC_PARAMS,
    AlgebraParams,
    Perplex,
    PerplexAlgebra,
    ValidationReport,
    random_elements,
    sample_valid_params,
    validate_params,
)
from .approximation import (
    LinearFitResult,
    QuadFitResult,
    approx_linear_sequence,
    approx_quadratic,
    fit_linear,
    params_from_T,
    quad_T_matrix,
)
from .calculus import (
    DiffQuotient,
    GcrResidual,
    PolyMap,
    derivative_from_partials,
    derivative_polymap,
    diff_quotient,
    direction_spread,
    gcr_residual,
    linear_polymap,
)
from .errors import (
    DegenerateAlgebra,
    DegenerateParams,
    EmptyFiber,
    FitFailed,
    GcrViolated,
    InsufficientSamples,
    NotAUnit,
    PerplexError,
)
from .fibration import (
    FiberCloud,
    FibrationReport,
    critical_values,
    fiber_cloud,
    fiber_solve,
    local_triviality_check,
)
from .multivar import (
    CriticalityReport,
    LojaFit,
    PerplexPolyN,
    directional_derivative,
    gradient,
    is_critical,
    loja_scan,
    loja_violations,
    partial_derivative,
    real_jacobian,
)
from .realpoly import RealPoly
from .structure import AlgebraKind, Classification, classify, discriminant

__version__ = "0.1.0"

__all__ = [
    "AlgebraKind",
    "AlgebraParams",
    "Classification",
    "COMPLEX_PARAMS",
    "CriticalityReport",
    "DegenerateAlgebra",
    "DegenerateParams",
    "DiffQuotient",
    "DUAL_BOUNDARY_PARAMS",
    "EmptyFiber",
    "FiberCloud",
    "FibrationReport",
    "FitFailed",
    "GcrResidual",
    "GcrViolated",
    "HYPERBOLIC_PARAMS",
    "InsufficientSamples",
    "LinearFitResult",
    "LojaFit",
    "NotAUnit",
    "Perplex",
    "PerplexAlgebra",
    "PerplexError",
    "PerplexPolyN",
    "PolyMap",
    "QuadFitResult",
    "RealPoly",
    "ValidationReport",
    "approx_linear_sequence",
    "approx_quadratic",
    "classify",
    "critical_values",
    "derivative_from_partials",
    "derivative_polymap",
    "diff_quotient",
    "direction_spread",
    "directional_derivative",
    "discriminant",
    "fiber_cloud",
    "fiber_solve",
    "fit_linear",
    "gcr_residual",
    "gradient",
    "is_critical",
    "linear_polymap",
    "local_triviality_check",
    "loja_scan",
    "loja_violations",
    "params_from_T",
    "partial_derivative",
    "quad_T_matrix",
    "random_elements",
    "real_jacobian",
    "sample_valid_params",
    "validate_params",
]
