"""Numerical laboratory for curve shortening flow in warped product
manifolds.

Two families of ambient spaces over a circle factor and a flat or curved
base: "left" products, where the warp scales the circle direction and
depends on the base point, and "right" products, where the warp scales the
base and depends on the circle coordinate. Closed graphical curves evolve
by their mean curvature vector; the package tracks the angle between the
tangent and the circle direction, stops a run whose curve stops being a
graph, checks the exact identities and inequalities the flow obeys, and
reports convergence to closed geodesics.
"""

from .curves import (CurveFields, DiscreteCurve, ImmersionError,
                     arc_derivative, arc_laplacian, compute_fields,
                     make_graph_curve)
from .flow import adaptive_dt, run, step_rk4
from .fourier import FourierField
from .geometry import LEFT, RIGHT, WarpedProduct
from .identities import (closed_form_theta, commutator_residual,
                         evolution_residual, exp_constant,
                         gradient_identity_residual)
from .record import FlowParams, FlowReport, FlowState, StopReason, Trajectory
from .scenario import ConfigError, Scenario, parse_config
from .verification import (BoundReport, RefinementLadder, ResidualReport,
                           commutator_residual_study, dissipation_monitor,
                           dissipation_residual_study,
                           evolution_residual_study, gradient_identity_study,
                           identity_monitor, theta_bound_monitor)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LEFT", "RIGHT",
    "WarpedProduct",
    "FourierField",
    "DiscreteCurve", "CurveFields", "ImmersionError",
    "make_graph_curve", "compute_fields", "arc_derivative", "arc_laplacian",
    "FlowParams", "FlowState", "FlowReport", "StopReason", "Trajectory",
    "adaptive_dt", "step_rk4", "run",
    "BoundReport", "ResidualReport", "RefinementLadder",
    "evolution_residual", "gradient_identity_residual", "commutator_residual",
    "theta_bound_monitor", "dissipation_monitor", "identity_monitor",
    "exp_constant", "closed_form_theta",
    "evolution_residual_study", "commutator_residual_study",
    "dissipation_residual_study", "gradient_identity_study",
    "ConfigError", "Scenario", "parse_config",
]
