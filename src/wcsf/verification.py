"""Numerical verification of the flow's exact identities and bounds.

Every structural fact the solver relies on is rechecked from the recorded
data itself: the evolution equation of the angle function in both warped
families, the single-time gradient identity, the tangent/curvature
commutator, the exponential lower bound on the angle with its explicit
constants, the drift inequality behind it, and the length dissipation
identity. Each identity and each constant is one function that picks its
formula by manifold.kind; a check of recorded states reads the manifold
from their fields, in either gauge. Only the commutator, which contracts
the Christoffel symbols, asks manifold.frame at the curve's nodes.
Residual studies refine (M, dt) together and report convergence orders.

Time derivatives along the flow need care: nodes move with the velocity W
of their gauge, CurveFields.velocity, and W - H = rho gamma' is
tangential. So the material point of the normal flow drifts through the
parametrization at du/dt = -rho (rho = -H^0 in the graph gauge), and the
material derivative at a node is the centered difference in time minus
rho d_u(value); omitting that advection leaves an O(1) defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectral
from .curves import (_integer, _validate_m, arc_derivative, arc_laplacian,
                     compute_fields, make_graph_curve)
from .flow import (BOUND_TOL, DISSIPATION, LENGTH, MIN_THETA, MONOTONE_TOL,
                   TIME, FlowParams, FlowState, Trajectory, run)
from .fourier import _GRID, _SAMPLES, FourierField
from .geometry import LEFT, WarpedProduct

__all__ = [
    "ResidualReport",
    "BoundReport",
    "RefinementLadder",
    "evolution_residual",
    "gradient_identity_residual",
    "commutator_residual",
    "DriftCheck",
    "theta_bound_monitor",
    "dissipation_monitor",
    "exp_constant",
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


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality monitor.

    worst_slack is min over checks of (left side - right side); the bound
    holds when it stays above -eps_tol. input holds what the constant was
    computed from.
    """

    name: str
    constant_name: str
    constant_value: float
    worst_slack: float
    passed: bool
    input: dict
    notes: str = ""


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


# -- inequality monitors ------------------------------------------------------


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


def theta_bound_monitor(traj: Trajectory, eps_tol: float = BOUND_TOL):
    """Check the two angle inequalities over a completed run.

    Returns (exp_report, drift_report):
      exp:   min Theta(t) >= e^{-C t} min Theta(0), at every recorded time.
      drift: dTheta/dt >= Lap Theta + |A|^2 Theta / 2 - C_drift, node-wise
             at every interior recorded time, using the same discretized
             terms as the evolution residual, in either gauge.
    Failures beyond eps_tol are falsification flags, never clamped.
    eps_tol must be finite and nonnegative: a negative one would flag
    bounds that hold.

    A trajectory whose `drift` attribute is a DriftCheck fed every state
    as it was recorded (as `wcsf run` records its main run) is not
    differenced again; any other is, one rebuilt state at a time.
    """
    if not 0.0 <= eps_tol < math.inf:
        raise ValueError(
            f"eps_tol must be finite and nonnegative, got {eps_tol}")
    manifold = traj.final.fields.manifold
    scalars = traj.scalars
    times = scalars[:, TIME]
    theta0 = float(scalars[0, MIN_THETA])
    drift = getattr(traj, "drift", None)
    if drift is None:
        drift = DriftCheck(manifold, theta0)
        for state in traj:
            drift.add(state)

    slack_exp = scalars[:, MIN_THETA] - np.exp(-drift.c_exp * times) * theta0
    exp_report = BoundReport(
        name="theta_exp_lower_bound",
        constant_name=f"C_{manifold.kind}",
        constant_value=drift.c_exp,
        worst_slack=float(slack_exp.min()),
        passed=bool(slack_exp.min() >= -eps_tol),
        input=dict(drift.inputs),
    )

    notes = ""
    if drift.checked == 0:
        notes = "no interior recorded states to difference; vacuous"
    drift_report = BoundReport(
        name="theta_drift_inequality",
        constant_name=f"C_{manifold.kind}_drift",
        constant_value=float(drift.constant(float(times[-1]))),
        worst_slack=drift.worst,
        passed=bool(drift.worst >= -eps_tol),
        input=dict(drift.inputs),
        notes=notes,
    )
    return exp_report, drift_report


def dissipation_monitor(traj: Trajectory) -> BoundReport:
    """Length dissipation check dL/dt = -int |A|^2 ds over recorded pairs.

    worst_slack is minus the largest interval defect
    |Delta L / Delta t + int |A|^2 ds| (time midpoint approximated by the
    endpoint mean, second order); passed tracks length monotonicity, which
    must hold in every run.
    """
    scalars = traj.scalars
    times, lengths, dissipation = scalars[:, [TIME, LENGTH, DISSIPATION]].T
    rates = np.diff(lengths) / np.diff(times)
    defect = float(np.max(np.abs(
        rates + 0.5 * (dissipation[:-1] + dissipation[1:])), initial=0.0))
    monotone = bool(np.all(np.diff(lengths) <= MONOTONE_TOL))
    return BoundReport(
        name="length_dissipation",
        constant_name="none",
        constant_value=0.0,
        worst_slack=-defect,
        passed=monotone,
        input={},
        notes="passed tracks monotone nonincreasing length",
    )


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


# -- refinement studies -------------------------------------------------------


class _Rung(Trajectory):
    """A ladder rung's recording: the scalar row of every state, but the
    coordinates of only the newest three states and of the window the
    studies difference, the interior state nearest t_mid and its two
    neighbours. So a rung holds at most six coordinate arrays however many
    steps it records."""

    def __init__(self, t_mid: float):
        self._t_mid = t_mid
        self._gap = math.inf      # |t - t_mid| of the nearest state so far
        self._nearest = 0
        self._held: set = set()   # indices whose coordinates are kept
        super().__init__()

    def append(self, state: FlowState) -> None:
        super().append(state)
        i = len(self) - 1
        gap = abs(state.t - self._t_mid)
        if gap < self._gap:       # the first of equal gaps, as argmin picks
            self._gap, self._nearest = gap, i
        c = max(self._nearest, 1)
        keep = {i - 2, i - 1, i, c - 1, c, c + 1}
        self._drop(self._held - keep)
        self._held = (self._held | {i}) & keep

    @property
    def mid(self) -> int:
        """The state the studies difference: the one nearest t_mid, moved
        inward so it has a recorded neighbour on each side."""
        return min(max(self._nearest, 1), len(self) - 2)


@dataclass(frozen=True)
class RefinementLadder:
    """One scenario integrated on a ladder of grids, for the studies.

    Each grid M runs to t_end from the same initial graph, init_field
    plus `winding` turns around the base, with every step recorded, so dt
    shrinks like M^-2 as M grows. The runs happen on the first read of
    `trajectories` and are kept on this ladder, so every study handed the
    same ladder reads the same runs. A rung keeps the scalar row of every
    state but the coordinates of only the three states around t_end / 2
    and the newest three; reading any other state raises LookupError.
    """

    manifold: WarpedProduct
    init_field: FourierField
    grids: tuple = (64, 128, 256)
    t_end: float = 0.12
    winding: int = 0

    def __post_init__(self):
        # one grid has no order to fit, so a study over it passed vacuously
        g = self.grids
        if len(g) < 2 or any(a >= b for a, b in zip(g, g[1:])):
            raise ValueError("a ladder needs two or more increasing grids")
        for m in g:     # fail here, not inside the first study
            _validate_m(m)
        _integer(self.winding, "winding")
        if not self.t_end > 0.0:
            raise ValueError("a ladder needs t_end > 0")
        self.params     # FlowParams checks that t_end is finite

    @cached_property
    def params(self) -> FlowParams:
        return FlowParams(t_max=self.t_end, tol_geo=0.0, record_stride=1)

    @cached_property
    def trajectories(self) -> tuple:
        return tuple(run(self.manifold,
                         make_graph_curve(self.init_field, m, self.winding),
                         self.params, _Rung(0.5 * self.t_end))[0]
                     for m in self.grids)


def _mid_residuals(ladder: RefinementLadder, residual) -> list:
    """The largest residual(traj, k) on each grid, at the interior recorded
    state k nearest t_end / 2; nan on a grid whose run recorded fewer than
    three states, when its first record interval outlasts t_end."""
    return [float(np.max(residual(traj, traj.mid))) if len(traj) >= 3
            else math.nan for traj in ladder.trajectories]


def _orders(residuals) -> tuple:
    out = []
    for i in range(len(residuals) - 1):
        a, b = residuals[i], residuals[i + 1]
        if math.isnan(a + b):
            out.append(math.nan)
        elif b == 0.0:
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
    )


def evolution_residual_study(ladder: RefinementLadder) -> ResidualReport:
    """Empirical convergence order of the angle evolution residual under
    simultaneous (M, dt) refinement, dt proportional to M^-2; passes at
    order 1.8."""
    return _study_report("evolution", ladder,
                         _mid_residuals(ladder, evolution_residual), 1.8)


def commutator_residual_study(ladder: RefinementLadder) -> ResidualReport:
    """Convergence order of the commutator defect nabla_H T - nabla_T H -
    |A|^2 T; passes at order 1.5 (two stacked covariant differencings,
    hence the lower bar)."""
    return _study_report("commutator", ladder,
                         _mid_residuals(ladder, commutator_residual), 1.5)


def dissipation_residual_study(ladder: RefinementLadder) -> ResidualReport:
    """Convergence order of the step-wise dissipation defect
    |Delta L / Delta t + int |A|^2 ds|; passes at order 1.8."""
    res = [-dissipation_monitor(traj).worst_slack
           for traj in ladder.trajectories]
    return _study_report("dissipation", ladder, res, 1.8)


def gradient_identity_study(ladder: RefinementLadder) -> ResidualReport:
    """Single-time gradient identity under spatial refinement; the residual
    must drop by at least 3.5x per doubling until the float floor 1e-11.
    Reads only the ladder's initial curves, never its runs."""
    manifold = ladder.manifold
    res = []
    for m in ladder.grids:
        curve = make_graph_curve(ladder.init_field, m, ladder.winding)
        state = FlowState(curve, 0.0, compute_fields(curve, manifold))
        res.append(gradient_identity_residual(state))
    return _study_report("gradient_identity", ladder, res,
                         float(np.log2(3.5)), 1e-11)
