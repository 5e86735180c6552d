"""Exact calculations on Lie algebra laws.

The package keeps every algebraic computation in rational arithmetic:
structure constants, cohomology, degenerations and classification verdicts
are exact.  Only the curvature sampling and the final conformal-dimension
values are floating point.
"""

import importlib

# `catalog` names both a function and its module.  A lazy first import of
# lie_sbe.catalog would rebind the package attribute to the module, and
# `from lie_sbe import catalog` would then hand out the module; so these two
# names are bound here, once, after the module is loaded.
from .catalog import catalog, catalog_names

__version__ = "1.0.0"

# Every other public name is imported on first use from the module that
# defines it, so a command loads only the layers it calls (numpy only with
# the curvature layer).  Nothing is cached here: every access reads the
# module afresh, so a wrapper set on it (as the benchmark's tracer sets) is
# also what the package hands out.
_MODULE_OF = {
    name: module
    for module, names in (
        ("buildings", ("CdimValue", "SearchHit", "building_cdim", "chebyshev",
                       "equal_cdim_search", "tyson_identities")),
        ("cohomology", ("Cochain", "adjoint_h_dim", "apply_differential", "betti_numbers",
                        "class_weight", "classify_cochain", "cochain_basis",
                        "cohomology_basis", "composition_is_zero", "cup_product",
                        "cup_square_rank", "differential", "wedge")),
        ("deformation", ("Certificate", "ExpandabilityReport", "GradedResult",
                         "ModificationResult", "ObstructionReport", "ReductionResult",
                         "ScalingFamily", "SpectralReport", "TorusReport", "apply_family",
                         "contraction_limit", "cornulier_reduction", "graded_nilpotent",
                         "h2c_certificate", "lauret_certificate", "linear_expandability",
                         "modification", "semicontinuity_obstruction",
                         "spectral_obstruction", "torus_check")),
        ("errors", ("DivergentFamily", "InputError", "LieSbeError", "PreconditionError")),
        ("heintze", ("BoundaryInvariants", "ClassificationVerdict", "HeintzeData",
                     "Table2Report", "TraitReport", "amalgam", "boundary_invariants",
                     "classify_hyperbolic", "heintze_check", "heintze_traits",
                     "normalize_derivation", "table2_report")),
        ("jsonio", ("law_dumps", "law_loads")),
        ("laws", ("AlgebraFingerprint", "JacobiReport", "LieLaw", "basis_change", "center",
                  "check_jacobi", "derivations", "derived_series", "direct_sum",
                  "exponential_radical", "fingerprint", "is_completely_solvable",
                  "is_derivation", "is_ideal", "is_nilpotent", "is_solvable", "law_add",
                  "law_from_table", "law_in_basis", "law_scale", "lower_central_series",
                  "quotient_law", "semidirect_rank_one", "spectral_summary",
                  "subalgebra_law")),
        ("curvature", ("CurvatureReport", "Frame", "PansuReport", "alpha_from_law",
                       "curvature_tensor", "frame_matrices", "pansu_consistency",
                       "pinching_estimate", "sectional")),
    )
    for name in names
}

# `from lie_sbe import *` leaves out the curvature names, so it never loads numpy.
__all__ = ["catalog", "catalog_names"] + [
    name for name, module in _MODULE_OF.items() if module != "curvature"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
