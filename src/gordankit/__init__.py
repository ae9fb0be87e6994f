"""Certificates for Gordan-type theorems of the alternative over quadratic
families, with a bordered-Z-matrix QP solver and Fenchel conjugate tools."""

__version__ = "0.1.0"

from .conjugate import (
    BruteConjugate,
    ConjugateSupResult,
    ConjugateValue,
    brute_conjugate_sup,
    conjugate_quadratic,
    conjugate_sup_min,
)
from .engine import (
    AlternativeOutcome,
    Certificate,
    EngineConfig,
    FeasiblePoint,
    Indeterminate,
    ProbeReport,
    characterization_probe,
    decide_alternative,
    yuan_alternative,
    yuan_pencil_max,
)
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    GordanKitError,
    IndeterminateOutcomeError,
    InternalConsistencyError,
    NumericError,
    UnsupportedDomainError,
    WeightError,
)
from .infimum import InfimumResult, quadratic_infimum
from .qp import (
    FjSearchResult,
    FritzJohnCertificate,
    KktCertificate,
    KktReport,
    LevelsetResult,
    QpProblem,
    fritz_john_search,
    kkt_check,
    sample_feasible,
    slater_check,
    solve_levelset,
)
from .quadratics import (
    Box,
    ConeWeight,
    Domain,
    FinitePointSet,
    NonnegOrthant,
    QuadraticFamily,
    QuadraticFunction,
    Reals,
    SimplexWeight,
    SymMatrix,
    UnitSphere,
    aggregate,
    eval_quadratic,
    is_psd,
    sym_eigen,
)
from .sampling import (
    Seed,
    grid_min,
    halton_points,
    random_convex_family,
    random_z_family,
    rng_stream,
    simplex_lattice,
    simplex_lattice_array,
    sphere_sample,
)
from .zmatrix import (
    AggregationCheck,
    FalsifyReport,
    InfsupViolation,
    MemberZReport,
    ZFamilyReport,
    aggregation_point,
    bordered,
    infsup_falsify,
    is_z_matrix,
    verify_aggregation_inequality,
    z_family_report,
)
