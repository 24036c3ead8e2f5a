"""Numerical verification of the flow's exact identities and bounds.

Every structural fact the solver relies on is rechecked from the recorded
data itself: the evolution equation of the angle function in both warped
families, the single-time gradient identity, the tangent/curvature
commutator, the exponential lower bound on the angle with its explicit
constants, the drift inequality behind it, and the length dissipation
identity. Each identity and each constant is one function that picks its
formula by manifold.kind; where it needs the dense metric or the
Christoffel symbols it asks manifold.frame at the curve's nodes. Residual
studies refine (M, dt) together and report empirical convergence orders.

Time derivatives along the flow need care in graph gauge: a fixed node
keeps its r-coordinate while the material point of the unreduced flow
drifts through the parametrization at rate H^0. The material derivative at
a node is therefore the centered difference in time plus the advection
term H^0 d_u(value); omitting the advection leaves an O(1) defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectral
from .curves import (GRAPH, arc_derivative, arc_laplacian, compute_fields,
                     make_graph_curve)
from .flow import MONOTONE_TOL, FlowParams, FlowState, Trajectory, run
from .fourier import FourierField
from .geometry import LEFT, TWO_PI, WarpedProduct

__all__ = [
    "ResidualReport",
    "BoundReport",
    "RefinementLadder",
    "evolution_residual",
    "gradient_identity_residual",
    "commutator_residual",
    "theta_bound_monitor",
    "dissipation_monitor",
    "exp_constant",
    "drift_constant",
    "closed_form_theta",
    "evolution_residual_study",
    "commutator_residual_study",
    "dissipation_residual_study",
    "gradient_identity_study",
]


@dataclass(frozen=True)
class ResidualReport:
    """Refinement evidence for one identity: max residual per grid and the
    empirical order log2(res(M) / res(2M)) between consecutive grids."""

    name: str
    grids: tuple
    max_residuals: tuple
    orders: tuple
    threshold: float
    passed: bool
    floor: float = 0.0


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality monitor.

    worst_slack is min over checks of (left side - right side); the bound
    holds when it stays above -eps_tol.
    """

    name: str
    constant_name: str
    constant_value: float
    constant_inputs: dict
    worst_slack: float
    passed: bool
    notes: str = ""


# -- shared pieces ----------------------------------------------------------

# points of the uniform grid on which the bound constants are maximized
_GRID = 4096


def _triple(traj: Trajectory, k: int):
    if len(traj) < 3:
        raise ValueError("need at least three recorded states")
    if not 1 <= k <= len(traj) - 2:
        raise ValueError(f"index {k} has no recorded neighbors on both sides")
    prev, mid, nxt = traj[k - 1], traj[k], traj[k + 1]
    if mid.curve.mode != GRAPH:
        raise ValueError("time differencing requires graph mode nodes")
    return prev, mid, nxt


def _windows(traj: Trajectory):
    """Consecutive (prev, mid, next) states in one pass over the
    trajectory, so each state's fields are rebuilt once."""
    states = iter(traj)
    prev, mid = next(states, None), next(states, None)
    for nxt in states:
        yield prev, mid, nxt
        prev, mid = mid, nxt


def _material_dt(prev: FlowState, mid: FlowState, nxt: FlowState,
                 values_prev, values_mid, values_next):
    """d/dt along the flow at matched nodes: centered difference plus the
    H^0 advection correction (see the module docstring)."""
    node_dt = spectral.centered_dt(values_prev, values_mid, values_next,
                                   mid.t - prev.t, nxt.t - mid.t)
    h0 = mid.fields.curvature[:, 0]
    du = spectral.diff(values_mid, 1)
    if du.ndim > 1:
        return node_dt + h0[:, None] * du
    return node_dt + h0 * du


def _theta_rates(prev: FlowState, mid: FlowState, nxt: FlowState) -> tuple:
    """(dTheta/dt, Lap Theta) at the nodes of mid: the two terms that the
    evolution residual and the drift inequality share."""
    f = mid.fields
    dth = _material_dt(prev, mid, nxt,
                       prev.fields.theta, f.theta, nxt.fields.theta)
    return dth, arc_laplacian(f.theta, f.speed)


# -- single-time and evolution identities ------------------------------------


def evolution_residual(traj: Trajectory, manifold: WarpedProduct,
                       k: int) -> np.ndarray:
    """Node-wise defect of the angle evolution equation at state k:

        left:  dTheta/dt = Lap Theta + |A|^2 Theta + 2 <H, D log psi> Theta
                           - 2 <grad Theta, T> <T, D log psi>
        right: dTheta/dt = Lap Theta + |A|^2 Theta
                           + 2 (log phi)' Theta <grad Theta, T>
                           - (log phi)'' Theta (1 - Theta^2)
    """
    prev, mid, nxt = _triple(traj, k)
    f = mid.fields
    dth, lap = _theta_rates(prev, mid, nxt)
    grad = arc_derivative(f.theta, f.speed)
    if manifold.kind == LEFT:
        # <V, D log psi>_G = g V^1 (log psi)' / g (no r component)
        raised, _ = manifold.dlog_warp(mid.curve.coords[:, 1])
        g11 = manifold.frame(mid.curve.coords)[0][:, 1, 1]
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


def gradient_identity_residual(state: FlowState, manifold: WarpedProduct) -> float:
    """Single-time identity linking the arclength derivative of the angle
    to the curvature vector:

        left:  T(Theta) = <H, d_r>
        right: T(Theta) = <H, d_r> + (log phi)'(1 - Theta^2)
    """
    f = state.fields
    t_theta = arc_derivative(f.theta, f.speed)
    metric, _ = manifold.frame(state.curve.coords)
    h_dr = np.einsum("na,na->n", metric[:, 0, :], f.curvature)
    if manifold.kind == LEFT:
        return float(np.max(np.abs(t_theta - h_dr)))
    lp1, _ = manifold.log_warp_derivs(state.curve.coords[:, 0])
    return float(np.max(np.abs(t_theta - h_dr - lp1 * (1.0 - f.theta ** 2))))


def commutator_residual(traj: Trajectory, manifold: WarpedProduct, k: int) -> float:
    """Max G-norm of nabla_H T - nabla_T H - |A|^2 T over the nodes.

    nabla_H T is the covariant material time derivative of the tangent
    (centered differencing plus advection plus Gamma(H, T)); nabla_T H is
    the covariant arclength derivative of the curvature field.
    """
    prev, mid, nxt = _triple(traj, k)
    f = mid.fields
    metric, gamma = manifold.frame(mid.curve.coords)
    dt_t = _material_dt(prev, mid, nxt,
                        prev.fields.tangent, f.tangent, nxt.fields.tangent)
    nab_h_t = dt_t + np.einsum("nabc,nb,nc->na", gamma, f.curvature, f.tangent)
    dh_du = spectral.diff(f.curvature, 1)
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
    s = np.linspace(0.0, TWO_PI, _GRID, endpoint=False)
    if manifold.kind == LEFT:
        return float(manifold.dlog_warp(s)[1].max())
    return float(np.abs(manifold.log_warp_derivs(s)[1]).max())


def _left_drift(c: float, max_psi_sq: float, t: float, min_theta0: float):
    return 4.0 * c * (1.0 + max_psi_sq * np.exp(c * t) / min_theta0)


def drift_constant(manifold: WarpedProduct, t0: float,
                   min_theta0: float) -> float:
    """Constant of the drift inequality up to time t0:

        left:  4 C (1 + max psi^2 e^{C t0} / min Theta(0)), C = exp_constant
        right: max over the circle of 4 ((log phi)')^2 + |(log phi)''|,
               which reads neither t0 nor min Theta(0)
    """
    if manifold.kind == LEFT:
        return _left_drift(exp_constant(manifold),
                           manifold.warp.max_on_grid(_GRID) ** 2, t0,
                           min_theta0)
    r = np.linspace(0.0, TWO_PI, _GRID, endpoint=False)
    lp1, lp2 = manifold.log_warp_derivs(r)
    return float((4.0 * lp1 ** 2 + np.abs(lp2)).max())


# -- inequality monitors ------------------------------------------------------


def theta_bound_monitor(traj: Trajectory, manifold: WarpedProduct,
                        eps_tol: float = 1e-4):
    """Check the two angle inequalities over a completed run.

    Returns (exp_report, drift_report):
      exp:   min Theta(t) >= e^{-C t} min Theta(0), at every recorded time.
      drift: dTheta/dt >= Lap Theta + |A|^2 Theta / 2 - C_drift, node-wise
             at every interior recorded time, using the same discretized
             terms as the evolution residual; vacuous on a parametric
             trajectory, whose states are not time-differenced.
    Failures beyond eps_tol are falsification flags, never clamped.
    eps_tol must be finite and nonnegative: a negative one would flag
    bounds that hold.
    """
    if not 0.0 <= eps_tol < math.inf:
        raise ValueError(
            f"eps_tol must be finite and nonnegative, got {eps_tol}")
    scalars = traj.scalars
    times = scalars[:, 0]
    theta0 = float(scalars[0, 1])
    c_exp = exp_constant(manifold)
    inputs = {"grid": _GRID, "min_theta_0": theta0}
    if manifold.kind == LEFT:
        max_psi_sq = manifold.warp.max_on_grid(_GRID) ** 2
        inputs["max_warp_sq"] = max_psi_sq

        def c_drift(t):
            return _left_drift(c_exp, max_psi_sq, t, theta0)
    else:
        c_right = drift_constant(manifold, 0.0, theta0)

        def c_drift(t):
            return c_right

    slack_exp = scalars[:, 1] - np.exp(-c_exp * times) * theta0
    exp_report = BoundReport(
        name="theta_exp_lower_bound",
        constant_name=f"C_{manifold.kind}",
        constant_value=c_exp,
        constant_inputs=dict(inputs),
        worst_slack=float(slack_exp.min()),
        passed=bool(slack_exp.min() >= -eps_tol),
    )

    worst = np.inf
    checked = 0
    graph = traj.curve(-1).mode == GRAPH    # one mode for every state
    for prev, mid, nxt in _windows(traj) if graph else ():
        f = mid.fields
        dth, lap = _theta_rates(prev, mid, nxt)
        slack = (dth - lap - 0.5 * f.curvature_norm ** 2 * f.theta
                 + c_drift(mid.t))
        worst = min(worst, float(slack.min()))
        checked += 1
    notes = ""
    if not graph:
        notes = "parametric states are not time-differenced; vacuous"
    elif checked == 0:
        notes = "no interior recorded states to difference; vacuous"
    drift_report = BoundReport(
        name="theta_drift_inequality",
        constant_name=f"C_{manifold.kind}_drift",
        constant_value=float(c_drift(float(times[-1]))),
        constant_inputs=dict(inputs),
        worst_slack=worst,
        passed=bool(worst >= -eps_tol),
        notes=notes,
    )
    return exp_report, drift_report


def dissipation_monitor(traj: Trajectory, manifold: WarpedProduct) -> BoundReport:
    """Length dissipation check dL/dt = -int |A|^2 ds over recorded pairs.

    worst_slack is minus the largest interval defect
    |Delta L / Delta t + int |A|^2 ds| (time midpoint approximated by the
    endpoint mean, second order); passed tracks length monotonicity, which
    must hold in every run.
    """
    scalars = traj.scalars
    times, lengths, dissipation = scalars[:, 0], scalars[:, 4], scalars[:, 5]
    rates = np.diff(lengths) / np.diff(times)
    defect = float(np.max(np.abs(
        rates + 0.5 * (dissipation[:-1] + dissipation[1:])), initial=0.0))
    monotone = bool(np.all(np.diff(lengths) <= MONOTONE_TOL))
    return BoundReport(
        name="length_dissipation",
        constant_name="none",
        constant_value=0.0,
        constant_inputs={},
        worst_slack=-defect,
        passed=monotone,
        notes="passed tracks monotone nonincreasing length",
    )


# -- closed-form angle bookkeeping -------------------------------------------


def closed_form_theta(state: FlowState, manifold: WarpedProduct) -> float:
    """Largest deviation of the measured angle from the closed graph
    formula, the expansion of <T, d_r> in the ambient metric:
        left:  psi^2 / sqrt(psi^2 + |f'|_g^2)
        right: 1 / sqrt(1 + phi^2 |f'|_g^2)
    """
    if state.curve.mode != GRAPH:
        raise ValueError("closed forms apply to graph curves")
    f = state.fields
    fp = f.deriv[:, 1]
    metric, _ = manifold.frame(state.curve.coords)
    if manifold.kind == LEFT:
        fp2 = metric[:, 1, 1] * fp * fp
        psi_sq = metric[:, 0, 0]
        direct = psi_sq / np.sqrt(psi_sq + fp2)
    else:
        phi = manifold.warp(state.curve.coords[:, 0])
        phi_sq = phi * phi
        fp2 = metric[:, 1, 1] / phi_sq * fp * fp
        direct = 1.0 / np.sqrt(1.0 + phi_sq * fp2)
    return float(np.max(np.abs(f.theta - direct)))


# -- refinement studies -------------------------------------------------------


@dataclass(frozen=True)
class RefinementLadder:
    """One scenario integrated on a ladder of grids, for the studies.

    Each grid M runs to t_end from the same initial field with every step
    recorded, so dt shrinks like M^-2 as M grows. The runs happen on the
    first read of `trajectories` and are kept on this ladder, so every
    study handed the same ladder reads the same runs.
    """

    manifold: WarpedProduct
    init_field: FourierField
    grids: tuple = (64, 128, 256)
    t_end: float = 0.12
    cfl: float = 0.25

    def __post_init__(self):
        # one grid has no order to fit, so a study over it passed vacuously
        g = self.grids
        if len(g) < 2 or any(a >= b for a, b in zip(g, g[1:])):
            raise ValueError("a ladder needs two or more increasing grids")
        if not (0.0 < self.t_end < math.inf and 0.0 < self.cfl <= 1.0):
            raise ValueError("a ladder needs a finite t_end > 0 and a cfl "
                             "in (0, 1]")

    @cached_property
    def trajectories(self) -> tuple:
        params = FlowParams(cfl=self.cfl, t_max=self.t_end, tol_geo=0.0,
                            record_stride=1)
        return tuple(run(self.manifold, make_graph_curve(self.init_field, m),
                         params)[0] for m in self.grids)


def _mid_residuals(ladder: RefinementLadder, residual) -> list:
    """residual(traj, manifold, k) on each grid, at the interior recorded
    state k nearest t_end / 2."""
    out = []
    for traj in ladder.trajectories:
        k = int(np.argmin(np.abs(traj.times - 0.5 * ladder.t_end)))
        out.append(residual(traj, ladder.manifold,
                            min(max(k, 1), len(traj) - 2)))
    return out


def _orders(residuals) -> tuple:
    out = []
    for i in range(len(residuals) - 1):
        a, b = residuals[i], residuals[i + 1]
        if b == 0.0:
            out.append(float("inf") if a > 0.0 else 0.0)
        else:
            out.append(float(np.log2(a / b)) if a > 0.0 else float("-inf"))
    return tuple(out)


def _study_report(identity: str, ladder: RefinementLadder, residuals,
                  threshold: float, floor: float = 0.0) -> ResidualReport:
    """Orders between consecutive grids; a step passes when its order
    reaches threshold or its finer residual is already at the floor. The
    report is named <kind>_<identity>."""
    orders = _orders(residuals)
    return ResidualReport(
        name=f"{ladder.manifold.kind}_{identity}",
        grids=tuple(ladder.grids),
        max_residuals=tuple(residuals),
        orders=orders,
        threshold=threshold,
        passed=all(o >= threshold or residuals[i + 1] <= floor
                   for i, o in enumerate(orders)),
        floor=floor,
    )


def evolution_residual_study(ladder: RefinementLadder) -> ResidualReport:
    """Empirical convergence order of the angle evolution residual under
    simultaneous (M, dt) refinement, dt proportional to M^-2; passes at
    order 1.8."""
    res = [float(r.max()) for r in _mid_residuals(ladder, evolution_residual)]
    return _study_report("evolution", ladder, res, 1.8)


def commutator_residual_study(ladder: RefinementLadder) -> ResidualReport:
    """Convergence order of the commutator defect nabla_H T - nabla_T H -
    |A|^2 T; passes at order 1.5 (two stacked covariant differencings,
    hence the lower bar)."""
    return _study_report("commutator", ladder,
                         _mid_residuals(ladder, commutator_residual), 1.5)


def dissipation_residual_study(ladder: RefinementLadder) -> ResidualReport:
    """Convergence order of the step-wise dissipation defect
    |Delta L / Delta t + int |A|^2 ds|; passes at order 1.8."""
    res = [-dissipation_monitor(traj, ladder.manifold).worst_slack
           for traj in ladder.trajectories]
    return _study_report("dissipation", ladder, res, 1.8)


def gradient_identity_study(ladder: RefinementLadder) -> ResidualReport:
    """Single-time gradient identity under spatial refinement; the residual
    must drop by at least 3.5x per doubling until the float floor 1e-11.
    Reads only the ladder's initial curves, never its runs."""
    manifold = ladder.manifold
    res = []
    for m in ladder.grids:
        curve = make_graph_curve(ladder.init_field, m)
        state = FlowState(curve, 0.0, compute_fields(curve, manifold))
        res.append(gradient_identity_residual(state, manifold))
    return _study_report("gradient_identity", ladder, res,
                         float(np.log2(3.5)), 1e-11)
