"""Exact rates of the semi-discrete flow at one state, and the identity
defects Trajectory.append records from them.

Nodes move with the velocity W of their gauge, so gamma' turns at its
covariant rate P = W' + Gamma(gamma', W) (W' one spectral derivative,
Gamma from manifold.frame at the nodes). From P alone, with no kernel
call and no neighbour in time:

    the speed v = |gamma'|_G   changes at <P, T>,
    the length L               at (2 pi/m) sum <P, T>,
    the tangent T = gamma'/v   at (W' - <P, T> T) / v in coordinates,
    the angle Theta = <T, d_r> at <P, d_r - Theta T> / v
                                  + <T, Gamma(W, d_r)>,

at a fixed node. The normal flow's material point slides back through the
nodes at du/dt = -rho (curves._slide), so each material rate is the node
rate less rho d_u(value). The exact rates then check the paper's identities
at every recorded state: the angle evolution equation, the commutator
nabla_H T = nabla_T H + |A|^2 T and the length dissipation dL/dt =
-int |A|^2 ds, besides the drift defect of the angle bound. The
centred-difference forms of the evolution and commutator identities are
wcsf.identities; they and these columns share evolution_rhs and
commutator_defect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import spectral
from .curves import _slide
from .geometry import LEFT
from .spectral import TWO_PI

if TYPE_CHECKING:   # wcsf.record imports this module
    from .record import FlowState

__all__ = [
    "evolution_rhs",
    "commutator_defect",
    "FlowRates",
    "state_defects",
]


def evolution_rhs(state: FlowState, grad: np.ndarray,
                  lap: np.ndarray) -> np.ndarray:
    """The right-hand side of the angle evolution equation at the nodes of
    state, given grad = T(Theta) and lap = Lap Theta there:

        left:  Lap Theta + |A|^2 Theta + 2 <H, D log psi> Theta
               - 2 <grad Theta, T> <T, D log psi>
        right: Lap Theta + |A|^2 Theta + 2 (log phi)' Theta <grad Theta, T>
               - (log phi)'' Theta (1 - Theta^2)
    """
    f = state.fields
    manifold = f.manifold
    rhs = lap + f.curvature_norm ** 2 * f.theta
    if manifold.kind == LEFT:
        # <V, D log psi>_G = g V^1 (log psi)' / g = V^1 (log psi)'
        dlog = manifold.warp_terms(state.curve.coords[:, 1])[2]
        return rhs + 2.0 * dlog * (f.curvature[:, 1] * f.theta
                                   - grad * f.tangent[:, 1])
    lp1, lp2 = manifold.log_warp_derivs(state.curve.coords[:, 0])
    return (rhs + 2.0 * lp1 * f.theta * grad
            - lp2 * f.theta * (1.0 - f.theta ** 2))


def commutator_defect(state: FlowState, tangent_dt: np.ndarray,
                      metric: np.ndarray) -> float:
    """Largest G-norm over the nodes of nabla_H T - nabla_T H - |A|^2 T,
    given the material rate tangent_dt of T in coordinates and the dense
    metric at the nodes.

    nabla_H T = tangent_dt + Gamma(H, T) and nabla_T H = H'/v + Gamma(T, H);
    the connection is torsion free, so the two Christoffel terms cancel.
    """
    f = state.fields
    resid = (tangent_dt - spectral.diff(f.curvature) / f.speed[:, None]
             - (f.curvature_norm ** 2)[:, None] * f.tangent)
    norm_sq = ((metric * resid[:, None, :]).sum(axis=2) * resid).sum(axis=1)
    return float(np.sqrt(max(float(norm_sq.max()), 0.0)))


class FlowRates:
    """The exact rates of one state, and the pieces they are made of:
    theta_dt, dTheta/dt at the nodes, and length_dt, dL/dt (see the
    module docstring)."""

    def __init__(self, state: FlowState):
        f = state.fields
        self.metric, gamma = f.manifold.frame(state.curve.coords)
        # k = Gamma^a_bc W^c by broadcast sums; np.einsum adds 0.15 MB peak RSS
        k = (gamma * f.velocity[:, None, None, :]).sum(axis=3)
        self.dw = spectral.diff(f.velocity)
        p = self.dw + (k * f.deriv[:, None, :]).sum(axis=2)
        t_low = (self.metric * f.tangent[:, None, :]).sum(axis=2)
        normal = self.metric[:, 0] - f.theta[:, None] * t_low  # d_r - Theta T
        self.pt = t_low * p           # <P, T> summed over its last axis
        self.slide = _slide(f)
        self.d_theta = spectral.diff(f.theta)
        self.theta_dt = ((normal * p).sum(axis=1) / f.speed
                         + (t_low * k[:, :, 0]).sum(axis=1)
                         - self.slide * self.d_theta)
        self.length_dt = float(self.pt.sum() * (TWO_PI / state.curve.m))


def state_defects(state: FlowState, dissipation: float) -> tuple:
    """The defects of state from its exact rates, given its int |A|^2 ds:

        drift          min over the nodes of dTheta/dt - Lap Theta
                       - |A|^2 Theta / 2
        dissipation    dL/dt + int |A|^2 ds
        evolution      max over the nodes of |dTheta/dt - evolution_rhs|
        commutator     commutator_defect at the exact rate of T
    """
    f = state.fields
    rates = FlowRates(state)
    grad = rates.d_theta / f.speed
    lap = spectral.diff(grad) / f.speed    # curves.arc_laplacian, bit for bit
    drift = (rates.theta_dt - lap
             - 0.5 * f.curvature_norm ** 2 * f.theta).min()
    evolution = np.abs(rates.theta_dt - evolution_rhs(state, grad, lap)).max()
    tangent_dt = ((rates.dw - rates.pt.sum(axis=1)[:, None] * f.tangent)
                  / f.speed[:, None]
                  - rates.slide[:, None] * spectral.diff(f.tangent))
    return (float(drift), rates.length_dt + dissipation, float(evolution),
            commutator_defect(state, tangent_dt, rates.metric))
