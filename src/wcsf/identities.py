"""The paper's identities and bound constants, checked at recorded states.

Every structural fact the solver relies on is rechecked from the recorded
data itself: the evolution equation of the angle function in both warped
families, the single-time gradient identity, the tangent/curvature
commutator, the rate of the exponential lower bound on the angle, the
drift inequality behind it, and the closed form of the angle. Each
identity and each constant is one function that picks its formula by
manifold.kind; a check of recorded states reads the manifold from their
fields, in either gauge. Only the commutator and flow_rates contract the
Christoffel symbols, from manifold.frame at the curve's nodes. The
monitors and refinement studies that apply these over a run are
wcsf.verification.

Time derivatives along the flow need care: nodes move with the velocity W
of their gauge, CurveFields.velocity, and W - H = rho gamma' is
tangential. So the material point of the normal flow drifts through the
parametrization at du/dt = -rho (rho = -H^0 in the graph gauge), and the
material derivative at a node is the centered difference in time minus
rho d_u(value); omitting that advection leaves an O(1) defect. That
derivative is wcsf.curves._material_dt; flow_rates takes it exactly from W.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import curves, spectral
from .curves import _slide, arc_derivative, arc_laplacian
from .fourier import _GRID, grid_max
from .geometry import LEFT, WarpedProduct

if TYPE_CHECKING:   # wcsf.record imports this module
    from .record import FlowState, Trajectory

__all__ = [
    "evolution_residual",
    "gradient_identity_residual",
    "commutator_residual",
    "flow_rates",
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
    """Node-wise defect of the angle evolution equation at state k:

        left:  dTheta/dt = Lap Theta + |A|^2 Theta + 2 <H, D log psi> Theta
                           - 2 <grad Theta, T> <T, D log psi>
        right: dTheta/dt = Lap Theta + |A|^2 Theta
                           + 2 (log phi)' Theta <grad Theta, T>
                           - (log phi)'' Theta (1 - Theta^2)
    """
    prev, mid, nxt = _triple(traj, k)
    f = mid.fields
    manifold = f.manifold
    dth = curves._material_dt(prev.t, mid, nxt.t, prev.fields.theta,
                              f.theta, nxt.fields.theta)
    rhs = arc_laplacian(f.theta, f.speed) + f.curvature_norm ** 2 * f.theta
    grad = arc_derivative(f.theta, f.speed)
    if manifold.kind == LEFT:
        # <V, D log psi>_G = g V^1 (log psi)' / g (no r component)
        raised, _ = manifold.dlog_warp(mid.curve.coords[:, 1])
        g11, _ = manifold.base_terms(mid.curve.coords[:, 1])
        h_dot = g11 * f.curvature[:, 1] * raised
        t_dot = g11 * f.tangent[:, 1] * raised
        rhs = rhs + 2.0 * h_dot * f.theta - 2.0 * grad * t_dot
    else:
        lp1, lp2 = manifold.log_warp_derivs(mid.curve.coords[:, 0])
        rhs = (rhs + 2.0 * lp1 * f.theta * grad
               - lp2 * f.theta * (1.0 - f.theta ** 2))
    return np.abs(dth - rhs)


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
    """Max G-norm of nabla_H T - nabla_T H - |A|^2 T over the nodes.

    nabla_H T is the covariant material time derivative of the tangent
    (centered differencing plus advection plus Gamma(H, T)); nabla_T H is
    the covariant arclength derivative of the curvature field.
    """
    prev, mid, nxt = _triple(traj, k)
    f = mid.fields
    metric, gamma = f.manifold.frame(mid.curve.coords)
    dt_t = curves._material_dt(prev.t, mid, nxt.t, prev.fields.tangent,
                               f.tangent, nxt.fields.tangent)
    nab_h_t = dt_t + np.einsum("nabc,nb,nc->na", gamma, f.curvature, f.tangent)
    dh_du = spectral.diff(f.curvature)
    nab_t_h = dh_du / f.speed[:, None] + np.einsum(
        "nabc,nb,nc->na", gamma, f.tangent, f.curvature)
    resid = nab_h_t - nab_t_h - (f.curvature_norm ** 2)[:, None] * f.tangent
    norms = np.sqrt(np.maximum(
        np.einsum("nab,na,nb->n", metric, resid, resid), 0.0))
    return float(norms.max())


def flow_rates(state: FlowState) -> tuple:
    """(dTheta/dt at the nodes, dL/dt) of state, exact for the
    semi-discrete flow: with P = W' + Gamma(gamma', W) the covariant rate
    of gamma', L changes at (2 pi/m) sum <P, T> and Theta = <T, d_r> at
    <P, d_r - Theta T> / v + <T, Gamma(W, d_r)>, less the slide
    rho d_u Theta of curves._material_dt."""
    f = state.fields
    metric, gamma = f.manifold.frame(state.curve.coords)
    # k = Gamma^a_bc W^c by broadcast sums; np.einsum adds 0.15 MB peak RSS
    k = (gamma * f.velocity[:, None, None, :]).sum(axis=3)
    p = spectral.diff(f.velocity) + (k * f.deriv[:, None, :]).sum(axis=2)
    t_low = (metric * f.tangent[:, None, :]).sum(axis=2)
    normal = metric[:, 0] - f.theta[:, None] * t_low   # d_r - Theta T, lowered
    node_dt = ((normal * p).sum(axis=1) / f.speed
               + (t_low * k[:, :, 0]).sum(axis=1))
    length_dt = float((t_low * p).sum() * (spectral.TWO_PI / state.curve.m))
    return node_dt - _slide(f) * spectral.diff(f.theta), length_dt


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
