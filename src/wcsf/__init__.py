"""Numerical laboratory for curve shortening flow in warped product
manifolds.

Two families of ambient spaces over a circle factor and a flat or curved
base: "left" products, where the warp scales the circle direction and
depends on the base point, and "right" products, where the warp scales the
base and depends on the circle coordinate. Closed graphical curves evolve
by their mean curvature vector; the package tracks the angle between the
tangent and the circle direction, certifies graphicality, checks the exact
identities and inequalities the flow obeys, and reports convergence to
closed geodesics.
"""

from .curves import (CurveFields, DiscreteCurve, ImmersionError,
                     angle_function, arc_derivative, arc_laplacian,
                     compute_fields, graphicality, length, make_graph_curve,
                     mean_curvature, resample, unit_tangent)
from .flow import (FlowParams, FlowReport, FlowState, StopReason, Trajectory,
                   adaptive_dt, run, step_rk4, velocity)
from .fourier import FourierField
from .geometry import (LEFT, RIGHT, TangentVec, WarpedProduct, WarpPoint,
                       christoffel_at, conformal_residual,
                       dr_identity_residual, inner, metric_at, warp_gradient)
from .scenario import ConfigError, Scenario, parse_config
from .verification import (BoundReport, RefinementLadder, ResidualReport,
                           closed_form_theta,
                           commutator_residual, commutator_residual_study,
                           dissipation_monitor, dissipation_residual_study,
                           evolution_residual_study,
                           gradient_identity_residual,
                           gradient_identity_study, left_drift_constant,
                           left_evolution_residual, left_exp_constant,
                           right_drift_constant, right_evolution_residual,
                           right_exp_constant, theta_bound_monitor)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LEFT", "RIGHT",
    "WarpedProduct", "WarpPoint", "TangentVec",
    "metric_at", "christoffel_at", "inner", "warp_gradient",
    "dr_identity_residual", "conformal_residual",
    "FourierField",
    "DiscreteCurve", "CurveFields", "ImmersionError",
    "make_graph_curve", "compute_fields", "unit_tangent", "mean_curvature",
    "angle_function", "length", "arc_derivative", "arc_laplacian",
    "graphicality", "resample",
    "FlowParams", "FlowState", "FlowReport", "StopReason", "Trajectory",
    "velocity", "adaptive_dt", "step_rk4", "run",
    "BoundReport", "ResidualReport", "RefinementLadder",
    "left_evolution_residual", "right_evolution_residual",
    "gradient_identity_residual", "commutator_residual",
    "theta_bound_monitor", "dissipation_monitor",
    "left_exp_constant", "right_exp_constant",
    "left_drift_constant", "right_drift_constant",
    "closed_form_theta",
    "evolution_residual_study", "commutator_residual_study",
    "dissipation_residual_study", "gradient_identity_study",
    "ConfigError", "Scenario", "parse_config",
]
