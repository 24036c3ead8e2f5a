"""The paper's identities and bound constants, checked at recorded states.

Every structural fact the solver relies on is rechecked from the recorded
data itself: the evolution equation of the angle function in both warped
families, the single-time gradient identity, the tangent/curvature
commutator, the rate of the exponential lower bound on the angle, the
drift inequality behind it, and the closed form of the angle. Each
identity and each constant is one function that picks its formula by
manifold.kind; a check of recorded states reads the manifold from their
fields, in either gauge. Only the commutator, which contracts the
Christoffel symbols, asks manifold.frame at the curve's nodes. The
monitors and refinement studies that apply these over a run are
wcsf.verification.

Time derivatives along the flow need care: nodes move with the velocity W
of their gauge, CurveFields.velocity, and W - H = rho gamma' is
tangential. So the material point of the normal flow drifts through the
parametrization at du/dt = -rho (rho = -H^0 in the graph gauge), and the
material derivative at a node is the centered difference in time minus
rho d_u(value); omitting that advection leaves an O(1) defect.
"""

from __future__ import annotations

import math

import numpy as np

from . import spectral
from .curves import arc_derivative, arc_laplacian
from .fourier import _GRID, _SAMPLES
from .geometry import LEFT, WarpedProduct
from .record import FlowState, Trajectory

__all__ = [
    "evolution_residual",
    "gradient_identity_residual",
    "commutator_residual",
    "DriftCheck",
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


def _material_dt(prev: FlowState, mid: FlowState, nxt: FlowState,
                 values_prev, values_mid, values_next):
    """d/dt along the normal flow at matched nodes, in either gauge: the
    centered difference minus rho d_u(value), with
    rho = <W - H, gamma'> / <gamma', gamma'> in Euclidean dot products
    (see the module docstring)."""
    node_dt = spectral.centered_dt(values_prev, values_mid, values_next,
                                   mid.t - prev.t, nxt.t - mid.t)
    f = mid.fields
    rho = (((f.velocity - f.curvature) * f.deriv).sum(axis=1)
           / (f.deriv * f.deriv).sum(axis=1))
    du = spectral.diff(values_mid)
    if du.ndim > 1:
        return node_dt - rho[:, None] * du
    return node_dt - rho * du


def _theta_rates(prev: FlowState, mid: FlowState, nxt: FlowState) -> tuple:
    """(dTheta/dt, Lap Theta) at the nodes of mid: the two terms that the
    evolution residual and the drift inequality share."""
    f = mid.fields
    dth = _material_dt(prev, mid, nxt,
                       prev.fields.theta, f.theta, nxt.fields.theta)
    return dth, arc_laplacian(f.theta, f.speed)


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
    dth, lap = _theta_rates(prev, mid, nxt)
    grad = arc_derivative(f.theta, f.speed)
    if manifold.kind == LEFT:
        # <V, D log psi>_G = g V^1 (log psi)' / g (no r component)
        raised, _ = manifold.dlog_warp(mid.curve.coords[:, 1])
        g11, _ = manifold.base_terms(mid.curve.coords[:, 1])
        h_dot = g11 * f.curvature[:, 1] * raised
        t_dot = g11 * f.tangent[:, 1] * raised
        rhs = (lap + f.curvature_norm ** 2 * f.theta
               + 2.0 * h_dot * f.theta - 2.0 * grad * t_dot)
    else:
        lp1, lp2 = manifold.log_warp_derivs(mid.curve.coords[:, 0])
        rhs = (lap + f.curvature_norm ** 2 * f.theta
               + 2.0 * lp1 * f.theta * grad
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
    dt_t = _material_dt(prev, mid, nxt,
                        prev.fields.tangent, f.tangent, nxt.fields.tangent)
    nab_h_t = dt_t + np.einsum("nabc,nb,nc->na", gamma, f.curvature, f.tangent)
    dh_du = spectral.diff(f.curvature)
    nab_t_h = dh_du / f.speed[:, None] + np.einsum(
        "nabc,nb,nc->na", gamma, f.tangent, f.curvature)
    resid = nab_h_t - nab_t_h - (f.curvature_norm ** 2)[:, None] * f.tangent
    norms = np.sqrt(np.maximum(
        np.einsum("nab,na,nb->n", metric, resid, resid), 0.0))
    return float(norms.max())


# -- bound constants ---------------------------------------------------------


def exp_constant(manifold: WarpedProduct) -> float:
    """The rate C of the exponential angle bound, maximized over a
    4096-point grid of the exact series:

        left:  max over the base of |D log psi|_g^2
        right: max over the circle of |(log phi)''|
    """
    if manifold.kind == LEFT:
        return float(manifold.dlog_warp(_SAMPLES)[1].max())
    return float(np.abs(manifold.log_warp_derivs(_SAMPLES)[1]).max())


# -- the drift inequality ----------------------------------------------------


class DriftCheck:
    """The drift inequality of theta_bound_monitor, checked on a run's
    recorded states as they come.

    add(state) takes the states in recorded order and differences the two
    before each state with it, so the check holds two states however long
    the run, in either gauge. worst is the least slack so far (inf before
    the first window) and checked the number of windows; constant(t) is
    C_drift up to time t.
    """

    def __init__(self, manifold: WarpedProduct, min_theta0: float):
        self.c_exp = exp_constant(manifold)
        self.inputs = {"grid": _GRID, "min_theta_0": min_theta0}
        if manifold.kind == LEFT:
            psi = manifold.warp.max_on_grid()
            self.inputs["max_warp_sq"] = psi * psi   # not pow: see flow._split
            self._c_right = None
        else:
            lp1, lp2 = manifold.log_warp_derivs(_SAMPLES)
            self._c_right = float((4.0 * lp1 ** 2 + np.abs(lp2)).max())
        self.worst = math.inf
        self.checked = 0
        self._prev = self._mid = None

    def constant(self, t: float) -> float:
        """C_drift up to time t:

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

    def add(self, state: FlowState) -> None:
        prev, mid = self._prev, self._mid
        self._prev, self._mid = mid, state
        if prev is None:
            return
        f = mid.fields
        dth, lap = _theta_rates(prev, mid, state)
        slack = (dth - lap - 0.5 * f.curvature_norm ** 2 * f.theta
                 + self.constant(mid.t))
        self.worst = min(self.worst, float(slack.min()))
        self.checked += 1

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
