"""The paper's identities and bound constants, checked at recorded states.

Every structural fact the solver relies on is rechecked from the recorded
data itself: the evolution equation of the angle function in both warped
families, the single-time gradient identity, the tangent/curvature
commutator, the rate of the exponential lower bound on the angle, the
drift inequality behind it, and the closed form of the angle. Each
identity and each constant is one function that picks its formula by
manifold.kind; a check of recorded states reads the manifold from their
fields, in either gauge. The monitors and refinement studies that apply
these over a run are wcsf.verification.

The evolution and commutator residuals here take their time derivatives
by centred differences over three recorded states; every recorded state
checks the same identities at the flow's exact rates (wcsf.rates), with
the same right-hand sides. Those derivatives need care: nodes move with
the velocity W of their gauge, CurveFields.velocity, and W - H = rho
gamma' is tangential. So the material point of the normal flow drifts
through the parametrization at du/dt = -rho (rho = -H^0 in the graph
gauge), and the material derivative at a node is the centered difference
in time minus rho d_u(value); omitting that advection leaves an O(1)
defect. That derivative is wcsf.curves._material_dt.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import curves
from .curves import arc_derivative, arc_laplacian
from .fourier import _GRID, grid_max
from .geometry import LEFT, WarpedProduct
from .rates import commutator_defect, evolution_rhs

if TYPE_CHECKING:   # wcsf.record imports this module
    from .record import FlowState, Trajectory

__all__ = [
    "evolution_residual",
    "gradient_identity_residual",
    "commutator_residual",
    "BoundConstants",
    "exp_constant",
    "closed_form_theta",
]


# -- shared pieces ----------------------------------------------------------


def _triple(traj: Trajectory, k: int):
    if len(traj) < 3:
        raise ValueError("need at least three recorded states")
    if not 1 <= k <= len(traj) - 2:
        raise ValueError(f"index {k} has no recorded neighbors on both sides")
    return traj[k - 1], traj[k], traj[k + 1]


# -- single-time and evolution identities ------------------------------------


def evolution_residual(traj: Trajectory, k: int) -> np.ndarray:
    """Node-wise defect |dTheta/dt - rates.evolution_rhs| of the angle
    evolution equation at state k, dTheta/dt centred in time."""
    prev, mid, nxt = _triple(traj, k)
    f = mid.fields
    dth = curves._material_dt(prev.t, mid, nxt.t, prev.fields.theta,
                              f.theta, nxt.fields.theta)
    return np.abs(dth - evolution_rhs(mid, arc_derivative(f.theta, f.speed),
                                      arc_laplacian(f.theta, f.speed)))


def gradient_identity_residual(state: FlowState) -> float:
    """Single-time identity linking the arclength derivative of the angle
    to the curvature vector:

        left:  T(Theta) = <H, d_r>
        right: T(Theta) = <H, d_r> + (log phi)'(1 - Theta^2)
    """
    f = state.fields
    manifold = f.manifold
    t_theta = arc_derivative(f.theta, f.speed)
    h_dr = f.curvature[:, 0]    # <H, d_r>, times psi^2 on a left product
    if manifold.kind == LEFT:
        psi_sq = manifold.warp_terms(state.curve.coords[:, 1])[0]
        return float(np.max(np.abs(t_theta - psi_sq * h_dr)))
    lp1, _ = manifold.log_warp_derivs(state.curve.coords[:, 0])
    return float(np.max(np.abs(t_theta - h_dr - lp1 * (1.0 - f.theta ** 2))))


def commutator_residual(traj: Trajectory, k: int) -> float:
    """rates.commutator_defect at state k, the material rate of the
    tangent centred in time."""
    prev, mid, nxt = _triple(traj, k)
    f = mid.fields
    dt_t = curves._material_dt(prev.t, mid, nxt.t, prev.fields.tangent,
                               f.tangent, nxt.fields.tangent)
    return commutator_defect(mid, dt_t, f.manifold.frame(mid.curve.coords)[0])


# -- bound constants ---------------------------------------------------------


def exp_constant(manifold: WarpedProduct) -> float:
    """The rate C of the exponential angle bound, maximized over a
    4096-point grid of the exact series:

        left:  max over the base of |D log psi|_g^2
        right: max over the circle of |(log phi)''|
    """
    if manifold.kind == LEFT:
        return grid_max(lambda x: manifold.dlog_warp(x)[1])
    return grid_max(lambda r: np.abs(manifold.log_warp_derivs(r)[1]))


class BoundConstants:
    """The constants of theta_bound_monitor's two angle bounds on one
    manifold, from the run's min Theta(0): c_exp = exp_constant, inputs
    what they were computed from, and constant(t) C_drift up to time t."""

    def __init__(self, manifold: WarpedProduct, min_theta0: float):
        self.c_exp = exp_constant(manifold)
        self.inputs = {"grid": _GRID, "min_theta_0": min_theta0}
        if manifold.kind == LEFT:
            psi = grid_max(manifold.warp)
            self.inputs["max_warp_sq"] = psi * psi   # not pow: see flow._split
            self._c_right = None
        else:
            def terms(r):
                lp1, lp2 = manifold.log_warp_derivs(r)
                return 4.0 * lp1 ** 2 + np.abs(lp2)
            self._c_right = grid_max(terms)

    def constant(self, t):
        """C_drift up to time t, elementwise for an array of times:

            left:  4 C (1 + max psi^2 e^{C t} / min Theta(0)),
                   C = exp_constant
            right: max over the circle of 4 ((log phi)')^2 + |(log phi)''|,
                   which reads neither t nor min Theta(0)
        """
        if self._c_right is not None:
            return self._c_right
        c = self.c_exp
        return 4.0 * c * (1.0 + self.inputs["max_warp_sq"] * np.exp(c * t)
                          / self.inputs["min_theta_0"])

# -- closed-form angle bookkeeping -------------------------------------------


def closed_form_theta(state: FlowState) -> float:
    """Largest deviation of the measured angle from its closed form, the
    expansion of <T, d_r> in the ambient metric, in either gauge (a graph
    has r' = 1 exactly):
        left:  psi^2 r' / sqrt(psi^2 r'^2 + g x'^2)
        right: r' / sqrt(r'^2 + phi^2 g x'^2)
    """
    f = state.fields
    manifold = f.manifold
    rp, xp = f.deriv.T
    r, x = state.curve.coords.T
    g, _ = manifold.base_terms(x)
    if manifold.kind == LEFT:
        gxx = g * xp * xp
        psi_sq = manifold.warp_terms(x)[0]
        direct = psi_sq * rp / np.sqrt(psi_sq * (rp * rp) + gxx)
    else:
        phi_sq = manifold.warp_terms(r)[0]
        direct = rp / np.sqrt(rp * rp + phi_sq * g * (xp * xp))
    return float(np.max(np.abs(f.theta - direct)))
