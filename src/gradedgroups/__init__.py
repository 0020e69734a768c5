"""Graded nilpotent groups from bracket tables, with gauge metrics and
numerical curve measures.

The pipeline: describe an algebra by layer dimensions and rational
structure constants, validate it exactly, build the polynomial group law,
read off the left-invariant frame, equip the group with a homogeneous
gauge distance, and then measure C1 curves: pointwise degrees, tangent
approximations, ball intersections, covering values and the resulting
area-formula diagnostics.
"""

from .algebra import (AntisymmetryViolation, GradedAlgebra, GradedAlgebraSpec,
                      GradingViolation, GroupValidationError, JacobiViolation,
                      spec_from_dict, spec_from_json, validate_algebra)
from .curve import (AdaptedBasis, Curve, DegreeProfile, LittleOReport,
                    ZeroVelocityError, adapted_basis, curve_from_samples,
                    degree_profile, dilate_curve, linear_image_curve,
                    little_o_check, pointwise_degree, polynomial_curve,
                    recentered_curve, tangent_projection, translate_curve)
from .frame import METRIC_EUCLIDEAN, METRIC_LEFT, Frame, compute_frame, speed
from .group import DimensionMismatch, GroupLaw, bch_group_law
from .measure import (AreaFormulaReport, BallIntersection, BlowupReport,
                      CoveringEstimate, CoveringSchedule, DivergenceReport,
                      NegligibilityReport, NumericalResolutionError,
                      area_formula_residual, ball_intersection_measure,
                      blowup_sequence, covering_values, density_divergence,
                      negligibility_estimate, richardson_extrapolate,
                      riemannian_length, spherical_measure_upper)
from .metric import (HomogeneousDistance, TriangleAudit, degree_constant,
                     metric_factor, triangle_audit)
from .poly import RationalPoly

__version__ = "0.1.0"

__all__ = [
    "AdaptedBasis", "AntisymmetryViolation", "AreaFormulaReport",
    "BallIntersection", "BlowupReport",
    "CoveringEstimate", "CoveringSchedule", "Curve", "DegreeProfile",
    "DimensionMismatch", "DivergenceReport", "Frame",
    "GradedAlgebra", "GradedAlgebraSpec",
    "GradingViolation", "GroupLaw", "GroupValidationError", "HomogeneousDistance",
    "JacobiViolation",
    "LittleOReport", "METRIC_EUCLIDEAN", "METRIC_LEFT",
    "NegligibilityReport", "NumericalResolutionError", "RationalPoly",
    "TriangleAudit", "ZeroVelocityError", "adapted_basis",
    "area_formula_residual", "ball_intersection_measure", "bch_group_law",
    "blowup_sequence", "compute_frame", "covering_values",
    "curve_from_samples", "degree_constant", "degree_profile",
    "density_divergence", "dilate_curve",
    "linear_image_curve", "little_o_check", "polynomial_curve",
    "metric_factor", "negligibility_estimate", "pointwise_degree",
    "recentered_curve", "richardson_extrapolate", "riemannian_length",
    "spec_from_dict", "spec_from_json", "speed", "spherical_measure_upper",
    "tangent_projection", "translate_curve",
    "triangle_audit", "validate_algebra",
]
