"""Numerical verification of the flow's exact identities and bounds.

Every structural fact the solver relies on is rechecked from the recorded
data itself: the evolution equation of the angle function in both warped
families, the single-time gradient identity, the tangent/curvature
commutator, the exponential lower bound on the angle with its explicit
constants, the drift inequality behind it, and the length dissipation
identity. Residual studies refine (M, dt) together and report empirical
convergence orders.

Time derivatives along the flow need care in graph gauge: a fixed node
keeps its r-coordinate while the material point of the unreduced flow
drifts through the parametrization at rate H^0. The material derivative at
a node is therefore the centered difference in time plus the advection
term H^0 d_u(value); omitting the advection leaves an O(1) defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .curves import GRAPH, DiscreteCurve, compute_fields, make_graph_curve
from .flow import FlowParams, FlowState, Trajectory, run
from .geometry import LEFT, RIGHT, TWO_PI, WarpedProduct

__all__ = [
    "ResidualReport",
    "BoundReport",
    "left_evolution_residual",
    "right_evolution_residual",
    "gradient_identity_residual",
    "commutator_residual",
    "theta_bound_monitor",
    "dissipation_monitor",
    "left_exp_constant",
    "right_exp_constant",
    "left_drift_constant",
    "right_drift_constant",
    "closed_form_theta",
    "angle_power_gap",
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
    du = spectral.diff(np.asarray(values_mid, dtype=float), 1)
    if du.ndim > 1:
        return node_dt + h0[:, None] * du
    return node_dt + h0 * du


def _arc_derivative(values, speed):
    return spectral.diff(np.asarray(values, dtype=float), 1) / speed


def _arc_laplacian(values, speed):
    return spectral.diff(_arc_derivative(values, speed), 1) / speed


def _require_kind(manifold: WarpedProduct, kind: str, op: str) -> None:
    if manifold.kind != kind:
        raise ValueError(f"{op} requires a {kind} warped product")


# -- evolution equation residuals -------------------------------------------


def left_evolution_residual(traj: Trajectory, manifold: WarpedProduct,
                            k: int) -> np.ndarray:
    """Node-wise defect of the left-family angle evolution equation

        dTheta/dt = Lap Theta + |A|^2 Theta + 2 <H, D log psi> Theta
                    - 2 <grad Theta, T> <T, D log psi>
    """
    _require_kind(manifold, LEFT, "left_evolution_residual")
    prev, mid, nxt = _triple(traj, k)
    f = mid.fields
    dth = _material_dt(prev, mid, nxt,
                       prev.fields.theta, f.theta, nxt.fields.theta)
    lap = _arc_laplacian(f.theta, f.speed)
    dlog, _ = manifold.dlog_warp(mid.curve.coords)
    h_dot = np.einsum("nab,na,nb->n", f.metric, f.curvature, dlog)
    t_dot = np.einsum("nab,na,nb->n", f.metric, f.tangent, dlog)
    grad = _arc_derivative(f.theta, f.speed)
    rhs = (lap + f.curvature_norm ** 2 * f.theta
           + 2.0 * h_dot * f.theta - 2.0 * grad * t_dot)
    return np.abs(dth - rhs)


def right_evolution_residual(traj: Trajectory, manifold: WarpedProduct,
                             k: int, squared_gradient: bool = False) -> np.ndarray:
    """Node-wise defect of the right-family angle evolution equation

        dTheta/dt = Lap Theta + |A|^2 Theta + 2 (log phi)' Theta <grad Theta, T>
                    - (log phi)'' Theta (1 - Theta^2)

    squared_gradient swaps the gradient-term weight from Theta to Theta^2,
    an alternative normalization seen in derivations of the same bound; the
    two residuals are reported side by side so any disagreement is visible
    in the data rather than silently resolved.
    """
    _require_kind(manifold, RIGHT, "right_evolution_residual")
    prev, mid, nxt = _triple(traj, k)
    f = mid.fields
    dth = _material_dt(prev, mid, nxt,
                       prev.fields.theta, f.theta, nxt.fields.theta)
    lap = _arc_laplacian(f.theta, f.speed)
    lp1, lp2 = manifold.log_warp_derivs(mid.curve.coords[:, 0])
    grad = _arc_derivative(f.theta, f.speed)
    weight = f.theta ** 2 if squared_gradient else f.theta
    rhs = (lap + f.curvature_norm ** 2 * f.theta
           + 2.0 * lp1 * weight * grad
           - lp2 * f.theta * (1.0 - f.theta ** 2))
    return np.abs(dth - rhs)


def gradient_identity_residual(state: FlowState, manifold: WarpedProduct) -> float:
    """Single-time identity linking the arclength derivative of the angle
    to the curvature vector:

        left:  T(Theta) = <H, d_r>
        right: T(Theta) = <H, d_r> + (log phi)'(1 - Theta^2)
    """
    f = state.fields
    t_theta = _arc_derivative(f.theta, f.speed)
    h_dr = np.einsum("na,na->n", f.metric[:, 0, :], f.curvature)
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
    dt_t = _material_dt(prev, mid, nxt,
                        prev.fields.tangent, f.tangent, nxt.fields.tangent)
    nab_h_t = dt_t + np.einsum("nabc,nb,nc->na", f.gamma, f.curvature, f.tangent)
    dh_du = spectral.diff(f.curvature, 1)
    nab_t_h = dh_du / f.speed[:, None] + np.einsum(
        "nabc,nb,nc->na", f.gamma, f.tangent, f.curvature)
    resid = nab_h_t - nab_t_h - (f.curvature_norm ** 2)[:, None] * f.tangent
    norms = np.sqrt(np.maximum(
        np.einsum("nab,na,nb->n", f.metric, resid, resid), 0.0))
    return float(norms.max())


# -- bound constants ---------------------------------------------------------


def _base_grid_points(n: int) -> np.ndarray:
    pts = np.zeros((n, 2))
    pts[:, 1] = np.linspace(0.0, TWO_PI, n, endpoint=False)
    return pts


def left_exp_constant(manifold: WarpedProduct, n: int = 4096) -> float:
    """C = max over the base of |D log psi|_g^2, by grid maximization of the
    exact series."""
    _require_kind(manifold, LEFT, "left_exp_constant")
    _, norm_sq = manifold.dlog_warp(_base_grid_points(n))
    return float(norm_sq.max())


def right_exp_constant(manifold: WarpedProduct, n: int = 4096) -> float:
    """C = max over the circle of |(log phi)''|."""
    _require_kind(manifold, RIGHT, "right_exp_constant")
    r = np.linspace(0.0, TWO_PI, n, endpoint=False)
    _, lp2 = manifold.log_warp_derivs(r)
    return float(np.abs(lp2).max())


def left_drift_constant(manifold: WarpedProduct, t0: float,
                        min_theta0: float, n: int = 4096) -> float:
    """Drift constant 4 C (1 + max psi^2 e^{C t0} / min Theta(0)) with
    C = left_exp_constant."""
    c = left_exp_constant(manifold, n)
    max_psi_sq = manifold.warp.max_on_grid(n) ** 2
    return 4.0 * c * (1.0 + max_psi_sq * np.exp(c * t0) / min_theta0)


def right_drift_constant(manifold: WarpedProduct, n: int = 4096) -> float:
    """Drift constant max over the circle of 4 ((log phi)')^2 + |(log phi)''|."""
    _require_kind(manifold, RIGHT, "right_drift_constant")
    r = np.linspace(0.0, TWO_PI, n, endpoint=False)
    lp1, lp2 = manifold.log_warp_derivs(r)
    return float((4.0 * lp1 ** 2 + np.abs(lp2)).max())


# -- inequality monitors ------------------------------------------------------


def theta_bound_monitor(traj: Trajectory, manifold: WarpedProduct,
                        eps_tol: float = 1e-4, grid: int = 4096):
    """Check the two angle inequalities over a completed run.

    Returns (exp_report, drift_report):
      exp:   min Theta(t) >= e^{-C t} min Theta(0), at every recorded time.
      drift: dTheta/dt >= Lap Theta + |A|^2 Theta / 2 - C_drift, node-wise
             at every interior recorded time, using the same discretized
             terms as the evolution residuals.
    Failures beyond eps_tol are falsification flags, never clamped.
    """
    scalars = traj.scalars
    times = scalars[:, 0]
    theta0 = float(scalars[0, 1])
    if manifold.kind == LEFT:
        c_exp = left_exp_constant(manifold, grid)
        c_name, d_name = "C_left", "C_left_drift"
        max_psi_sq = manifold.warp.max_on_grid(grid) ** 2
        inputs = {"grid": grid, "min_theta_0": theta0, "max_warp_sq": max_psi_sq}
    else:
        c_exp = right_exp_constant(manifold, grid)
        c_name, d_name = "C_right", "C_right_drift"
        inputs = {"grid": grid, "min_theta_0": theta0}

    slack_exp = scalars[:, 1] - np.exp(-c_exp * times) * theta0
    exp_report = BoundReport(
        name="theta_exp_lower_bound",
        constant_name=c_name,
        constant_value=c_exp,
        constant_inputs=dict(inputs),
        worst_slack=float(slack_exp.min()),
        passed=bool(slack_exp.min() >= -eps_tol),
    )

    if manifold.kind == RIGHT:
        c_right_drift = right_drift_constant(manifold, grid)
    worst = np.inf
    checked = 0
    for prev, mid, nxt in _windows(traj):
        if mid.curve.mode != GRAPH:
            continue
        f = mid.fields
        dth = _material_dt(prev, mid, nxt,
                           prev.fields.theta, f.theta, nxt.fields.theta)
        lap = _arc_laplacian(f.theta, f.speed)
        if manifold.kind == LEFT:
            c_drift = 4.0 * c_exp * (1.0 + inputs["max_warp_sq"]
                                     * np.exp(c_exp * mid.t) / theta0)
        else:
            c_drift = c_right_drift
        slack = dth - lap - 0.5 * f.curvature_norm ** 2 * f.theta + c_drift
        worst = min(worst, float(slack.min()))
        checked += 1
    notes = ""
    if checked == 0:
        worst = np.inf
        notes = "no interior recorded states to difference; vacuous"
    if manifold.kind == LEFT:
        d_value = 4.0 * c_exp * (1.0 + inputs["max_warp_sq"]
                                 * np.exp(c_exp * float(times[-1])) / theta0)
    else:
        d_value = c_right_drift
    drift_report = BoundReport(
        name="theta_drift_inequality",
        constant_name=d_name,
        constant_value=float(d_value),
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
    defect = 0.0
    for k in range(len(traj) - 1):
        rate = (lengths[k + 1] - lengths[k]) / (times[k + 1] - times[k])
        defect = max(defect, float(abs(
            rate + 0.5 * (dissipation[k] + dissipation[k + 1]))))
    monotone = bool(np.all(np.diff(lengths) <= 1e-10))
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


def closed_form_theta(state: FlowState, manifold: WarpedProduct) -> dict:
    """Deviation of the measured angle from the two closed graph formulas.

    "direct" is the expansion of <T, d_r> in the ambient metric:
        left:  psi^2 / sqrt(psi^2 + |f'|_g^2)
        right: 1 / sqrt(1 + phi^2 |f'|_g^2)
    "alternate" is the variant with the warp moved across the norm:
        left:  1 / sqrt(1 + psi^2 |f'|_g^2)
        right: 1 / sqrt(1 + |f'|_g^2 / phi^2)
    The run report logs both so the matching convention is visible data.
    """
    if state.curve.mode != GRAPH:
        raise ValueError("closed forms apply to graph curves")
    f = state.fields
    fp = f.deriv[:, 1:]
    if manifold.kind == LEFT:
        g_base = f.metric[:, 1:, 1:]
        fp2 = np.einsum("nij,ni,nj->n", g_base, fp, fp)
        psi_sq = f.metric[:, 0, 0]
        direct = psi_sq / np.sqrt(psi_sq + fp2)
        alternate = 1.0 / np.sqrt(1.0 + psi_sq * fp2)
    else:
        phi = manifold.warp(state.curve.coords[:, 0])
        phi_sq = phi * phi
        g_base = f.metric[:, 1:, 1:] / phi_sq[:, None, None]
        fp2 = np.einsum("nij,ni,nj->n", g_base, fp, fp)
        direct = 1.0 / np.sqrt(1.0 + phi_sq * fp2)
        alternate = 1.0 / np.sqrt(1.0 + fp2 / phi_sq)
    return {
        "direct": float(np.max(np.abs(f.theta - direct))),
        "alternate": float(np.max(np.abs(f.theta - alternate))),
    }


def angle_power_gap(state: FlowState, manifold: WarpedProduct) -> float:
    """Size of the disagreement between the Theta- and Theta^2-weighted
    gradient terms of the right-family evolution equation at one state:
    max |2 (log phi)' T(Theta) (Theta - Theta^2)|."""
    _require_kind(manifold, RIGHT, "angle_power_gap")
    f = state.fields
    lp1, _ = manifold.log_warp_derivs(state.curve.coords[:, 0])
    grad = _arc_derivative(f.theta, f.speed)
    return float(np.max(np.abs(2.0 * lp1 * grad * (f.theta - f.theta ** 2))))


# -- refinement studies -------------------------------------------------------


def _short_run(manifold: WarpedProduct, init_fields, m: int, t_end: float,
               cfl: float) -> Trajectory:
    curve = make_graph_curve(init_fields, m)
    params = FlowParams(cfl=cfl, t_max=t_end, tol_geo=0.0, record_stride=1)
    traj, _ = run(manifold, curve, params)
    return traj


def _mid_index(traj: Trajectory, t_star: float) -> int:
    times = traj.times
    k = int(np.argmin(np.abs(times - t_star)))
    return min(max(k, 1), len(traj) - 2)


def _orders(residuals) -> tuple:
    out = []
    for i in range(len(residuals) - 1):
        a, b = residuals[i], residuals[i + 1]
        if b == 0.0:
            out.append(float("inf") if a > 0.0 else 0.0)
        else:
            out.append(float(np.log2(a / b)) if a > 0.0 else float("-inf"))
    return tuple(out)


def _order_pass(orders, residuals, threshold: float, floor: float) -> bool:
    return all(o >= threshold or residuals[i + 1] <= floor
               for i, o in enumerate(orders))


def evolution_residual_study(manifold: WarpedProduct, init_fields,
                             grids=(64, 128, 256), t_end: float = 0.12,
                             cfl: float = 0.25, threshold: float = 1.8,
                             name: str | None = None) -> ResidualReport:
    """Empirical convergence order of the angle evolution residual under
    simultaneous (M, dt) refinement, dt proportional to M^-2."""
    residual = (left_evolution_residual if manifold.kind == LEFT
                else right_evolution_residual)
    res = []
    for m in grids:
        traj = _short_run(manifold, init_fields, m, t_end, cfl)
        k = _mid_index(traj, 0.5 * t_end)
        res.append(float(residual(traj, manifold, k).max()))
    orders = _orders(res)
    return ResidualReport(
        name=name or f"{manifold.kind}_evolution",
        grids=tuple(grids),
        max_residuals=tuple(res),
        orders=orders,
        threshold=threshold,
        passed=_order_pass(orders, res, threshold, 0.0),
    )


def commutator_residual_study(manifold: WarpedProduct, init_fields,
                              grids=(64, 128, 256), t_end: float = 0.12,
                              cfl: float = 0.25, threshold: float = 1.5,
                              name: str | None = None) -> ResidualReport:
    """Convergence order of the commutator defect nabla_H T - nabla_T H -
    |A|^2 T (two stacked covariant differencings, hence the lower bar)."""
    res = []
    for m in grids:
        traj = _short_run(manifold, init_fields, m, t_end, cfl)
        k = _mid_index(traj, 0.5 * t_end)
        res.append(commutator_residual(traj, manifold, k))
    orders = _orders(res)
    return ResidualReport(
        name=name or f"{manifold.kind}_commutator",
        grids=tuple(grids),
        max_residuals=tuple(res),
        orders=orders,
        threshold=threshold,
        passed=_order_pass(orders, res, threshold, 0.0),
    )


def dissipation_residual_study(manifold: WarpedProduct, init_fields,
                               grids=(64, 128, 256), t_end: float = 0.12,
                               cfl: float = 0.25, threshold: float = 1.8,
                               name: str | None = None) -> ResidualReport:
    """Convergence order of the step-wise dissipation defect
    |Delta L / Delta t + int |A|^2 ds|."""
    res = []
    for m in grids:
        traj = _short_run(manifold, init_fields, m, t_end, cfl)
        res.append(-dissipation_monitor(traj, manifold).worst_slack)
    orders = _orders(res)
    return ResidualReport(
        name=name or f"{manifold.kind}_dissipation",
        grids=tuple(grids),
        max_residuals=tuple(res),
        orders=orders,
        threshold=threshold,
        passed=_order_pass(orders, res, threshold, 0.0),
    )


def gradient_identity_study(manifold: WarpedProduct, init_fields,
                            grids=(64, 128, 256), floor: float = 1e-11,
                            name: str | None = None) -> ResidualReport:
    """Single-time gradient identity under spatial refinement; the residual
    must drop by at least 3.5x per doubling until the float floor."""
    threshold = float(np.log2(3.5))
    res = []
    for m in grids:
        curve = make_graph_curve(init_fields, m)
        state = FlowState(curve, 0.0, compute_fields(curve, manifold))
        res.append(gradient_identity_residual(state, manifold))
    orders = _orders(res)
    return ResidualReport(
        name=name or f"{manifold.kind}_gradient_identity",
        grids=tuple(grids),
        max_residuals=tuple(res),
        orders=orders,
        threshold=threshold,
        passed=_order_pass(orders, res, threshold, floor),
        floor=floor,
    )
