"""Exact calculations on Lie algebra laws.

The package keeps every algebraic computation in rational arithmetic:
structure constants, cohomology, degenerations and classification verdicts
are exact.  Only the curvature sampling and the final conformal-dimension
values are floating point.
"""

from .buildings import CdimValue, SearchHit, building_cdim, chebyshev, equal_cdim_search, tyson_identities
from .catalog import catalog, catalog_names
from .cohomology import (
    Cochain,
    adjoint_h_dim,
    apply_differential,
    betti_numbers,
    class_weight,
    classify_cochain,
    cochain_basis,
    cohomology_basis,
    composition_is_zero,
    cup_product,
    cup_square_rank,
    differential,
    wedge,
)
from .deformation import (
    Certificate,
    ExpandabilityReport,
    GradedResult,
    ModificationResult,
    ObstructionReport,
    ReductionResult,
    ScalingFamily,
    SpectralReport,
    TorusReport,
    apply_family,
    contraction_limit,
    cornulier_reduction,
    graded_nilpotent,
    h2c_certificate,
    lauret_certificate,
    linear_expandability,
    modification,
    semicontinuity_obstruction,
    spectral_obstruction,
    torus_check,
)
from .errors import DivergentFamily, InputError, LieSbeError, PreconditionError
from .heintze import (
    BoundaryInvariants,
    ClassificationVerdict,
    HeintzeData,
    Table2Report,
    TraitReport,
    amalgam,
    boundary_invariants,
    classify_hyperbolic,
    heintze_check,
    heintze_traits,
    normalize_derivation,
    table2_report,
)
from .jsonio import law_dumps, law_loads
from .laws import (
    AlgebraFingerprint,
    JacobiReport,
    LieLaw,
    basis_change,
    center,
    check_jacobi,
    derivations,
    derived_series,
    direct_sum,
    exponential_radical,
    fingerprint,
    is_completely_solvable,
    is_derivation,
    is_ideal,
    is_nilpotent,
    is_solvable,
    law_add,
    law_from_table,
    law_in_basis,
    law_scale,
    lower_central_series,
    quotient_law,
    semidirect_rank_one,
    spectral_summary,
    subalgebra_law,
)

__version__ = "1.0.0"

# The curvature layer is the only one that needs numpy, so it is imported on
# first use of one of its names.  Nothing is cached here: every access reads
# lie_sbe.curvature afresh, so a wrapper set on that module (as the benchmark's
# tracer sets) is also what the package hands out.
_CURVATURE = frozenset((
    "CurvatureReport",
    "Frame",
    "PansuReport",
    "alpha_from_law",
    "curvature_tensor",
    "frame_matrices",
    "pansu_consistency",
    "pinching_estimate",
    "sectional",
))


def __getattr__(name):
    if name in _CURVATURE:
        from . import curvature
        return getattr(curvature, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
