"""Graded nilpotent groups from bracket tables, with gauge metrics and
numerical curve measures.

The pipeline: describe an algebra by layer dimensions and rational
structure constants, validate it exactly, build the polynomial group law,
read off the left-invariant frame, equip the group with a homogeneous
gauge distance, and then measure C1 curves: pointwise degrees, tangent
approximations, ball intersections, covering values and the resulting
area-formula diagnostics.

Each public name is imported from its module on first use (PEP 562) and
kept as a global, once per process: a process imports only the modules it
uses, and the exact layer never loads numpy.
"""

import importlib

# module -> the public names it defines
_EXPORTS = {
    "algebra": "AntisymmetryViolation GradedAlgebra GradedAlgebraSpec GradingViolation "
               "GroupValidationError JacobiViolation NumericalResolutionError spec_from_dict "
               "spec_from_json validate_algebra",
    "curve": "AdaptedBasis Curve DegreeProfile LittleOReport ZeroVelocityError adapted_basis "
             "curve_from_samples degree_profile dilate_curve linear_image_curve little_o_check "
             "pointwise_degree polynomial_curve recentered_curve tangent_projection "
             "translate_curve",
    "frame": "METRIC_EUCLIDEAN METRIC_LEFT Frame compute_frame speed",
    "group": "GroupLaw bch_group_law",
    "measure": "AreaFormulaReport BallIntersection BlowupReport CoveringEstimate "
               "CoveringSchedule DivergenceReport NegligibilityReport area_formula_residual "
               "ball_intersection_measure blowup_sequence covering_values density_divergence "
               "negligibility_estimate richardson_extrapolate riemannian_length "
               "spherical_measure_upper",
    "metric": "HomogeneousDistance TriangleAudit degree_constant metric_factor triangle_audit",
    "poly": "DimensionMismatch RationalPoly",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_HOMES})
