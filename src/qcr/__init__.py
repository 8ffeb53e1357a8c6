"""Attainable covariance bounds for finite-dimensional quantum statistical models."""

from .dual import (
    Cut,
    DualPoint,
    DualResult,
    SolverConfig,
    dual_submodel_inequality,
    random_model_certificate,
    residual,
    separation_oracle,
    solve_dual,
    spur,
)
from .errors import (
    NotPsdError,
    NumericError,
    QcrError,
    SingularModelError,
    UnbiasednessError,
    ValidationError,
)
from .measurement import (
    RandomMeasurement,
    covariance,
    deviation,
    frontier_witnesses_2d,
    is_locally_unbiased,
    mix_measurements,
    optimal_covariance,
    optimal_random_bound,
    optimal_random_measurement,
    optimal_weight_operator,
    random_certificate_gap,
    require_weight_matrix,
    sample_frontier,
    sample_locally_unbiased,
    simulate,
)
from .model import (
    StatisticalModel,
    build_model,
    builtin_model,
    cotangent_operator,
    sld_inner,
    tangent_norm,
    tangent_operator,
)
from .operators import (
    DensityOperator,
    SpectralDecomposition,
    eigh,
    min_eigenpair,
    min_eigenvalue,
    require_hermitian,
    solve_sym_product,
    sqrt_psd,
    sym_product,
)
from .randomness import (
    BilinearTable,
    bilinear_table,
    is_random_model,
    orthonormal_cotangent_basis,
    qubit_constant_check,
)

__version__ = "0.1.0"
