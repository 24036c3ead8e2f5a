"""Run-level verification: the monitors and the refinement studies.

theta_bound_monitor checks the exponential lower bound on the angle and
the drift inequality behind it over a completed run, dissipation_monitor
the length dissipation identity, and identity_monitor the angle
evolution equation and the tangent/curvature commutator. Each reads the
defects Trajectory.append recorded at every state from the flow's exact
rates (wcsf.rates), so the monitors check the run they are handed and
integrate nothing. The identities and constants they read are
wcsf.identities. Residual studies integrate one scenario on a ladder of
grids, refining (M, dt) together, and report the convergence order of
each identity's centred-difference residual; `wcsf verify` runs only
the gradient identity's, which reads the ladder's initial curves alone.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .curves import _integer, compute_fields, flow_curve
from .flow import run
from .fourier import FourierField
from .geometry import WarpedProduct
from .identities import (BoundConstants, commutator_residual,
                         evolution_residual, gradient_identity_residual)
from .record import (BOUND_TOL, DISSIPATION, LENGTH, MIN_THETA, TIME,
                     FlowParams, FlowState, Trajectory)
from .spectral import centered_dt

__all__ = [
    "ResidualReport",
    "BoundReport",
    "RefinementLadder",
    "theta_bound_monitor",
    "dissipation_monitor",
    "identity_monitor",
    "evolution_residual_study",
    "commutator_residual_study",
    "dissipation_residual_study",
    "gradient_identity_study",
]


class ResidualReport(NamedTuple):
    """Refinement evidence for one identity: max residual per grid and the
    empirical order log2(res(M) / res(2M)) between consecutive grids."""

    name: str
    grids: tuple
    max_residuals: tuple
    orders: tuple
    threshold: float
    passed: bool


class BoundReport(NamedTuple):
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


# -- inequality monitors ------------------------------------------------------


def _check_tol(eps_tol: float) -> None:
    # a negative eps_tol would flag bounds that hold
    if not 0.0 <= eps_tol < math.inf:
        raise ValueError(
            f"eps_tol must be finite and nonnegative, got {eps_tol}")


def theta_bound_monitor(traj: Trajectory, eps_tol: float = BOUND_TOL):
    """Check the two angle inequalities over a completed run.

    Returns (exp_report, drift_report):
      exp:   min Theta(t) >= e^{-C t} min Theta(0), at every recorded time.
      drift: dTheta/dt >= Lap Theta + |A|^2 Theta / 2 - C_drift, node-wise
             at every recorded time, dTheta/dt the semi-discrete flow's
             exact rate (rates.FlowRates), in either gauge.
    Failures beyond eps_tol are falsification flags, never clamped.
    eps_tol must be finite and nonnegative. Reads only the trajectory's
    table, scalars and drift, so it answers on any Trajectory, whatever
    states it kept.
    """
    _check_tol(eps_tol)
    manifold = traj.final.fields.manifold
    scalars = traj.scalars
    times = scalars[:, TIME]
    theta0 = float(scalars[0, MIN_THETA])
    consts = BoundConstants(manifold, theta0)

    slack_exp = scalars[:, MIN_THETA] - np.exp(-consts.c_exp * times) * theta0
    exp_report = BoundReport(
        name="theta_exp_lower_bound",
        constant_name=f"C_{manifold.kind}",
        constant_value=consts.c_exp,
        worst_slack=float(slack_exp.min()),
        passed=bool(slack_exp.min() >= -eps_tol),
        input=dict(consts.inputs),
    )

    # C_drift is one number over each state's nodes, so adding it after
    # the node minimum rounds to the node-wise slack's minimum
    worst = float((traj.drift + consts.constant(times)).min())
    drift_report = BoundReport(
        name="theta_drift_inequality",
        constant_name=f"C_{manifold.kind}_drift",
        constant_value=float(consts.constant(float(times[-1]))),
        worst_slack=worst,
        passed=bool(worst >= -eps_tol),
        input=dict(consts.inputs),
    )
    return exp_report, drift_report


# the largest defect an exact identity check passes with: the flow's exact
# rates meet the identities to rounding, at most 6.5e-10 on a resolved
# m = 64 curved right run, while a kernel term off by 1% reads 2.1e-5 or
# more (tests/test_falsification.py has the table); tol.bound, sized for
# differenced checks, passes such a defect
IDENTITY_TOL = 1e-7


def _defect_report(name: str, defects: np.ndarray, tol: float,
                   holds: bool = True) -> BoundReport:
    """A defect check's report: worst_slack is minus the largest |defect|,
    and the check passes when holds and that stays above -tol."""
    worst = -float(np.abs(defects).max())
    return BoundReport(name=name, constant_name="none", constant_value=0.0,
                       worst_slack=worst, passed=holds and worst >= -tol,
                       input={})


def dissipation_monitor(traj: Trajectory, eps_tol: float = BOUND_TOL):
    """Length dissipation check dL/dt = -int |A|^2 ds at every recorded
    state, dL/dt the semi-discrete flow's exact rate (rates.FlowRates).

    worst_slack is minus the largest defect |dL/dt + int |A|^2 ds|; the
    check passes when it stays above -eps_tol and the length is
    monotone (Trajectory.length_monotone). Reads only the trajectory's
    table, like theta_bound_monitor.
    """
    _check_tol(eps_tol)
    return _defect_report("length_dissipation", traj.dissipation_defect,
                          eps_tol, traj.length_monotone)


def identity_monitor(traj: Trajectory) -> tuple:
    """The angle evolution equation and the commutator nabla_H T =
    nabla_T H + |A|^2 T at every recorded state, from the trajectory's
    evolution_defect and commutator_defect columns.

    Returns (evolution_report, commutator_report), each laid out like
    dissipation_monitor's; a check passes while its largest defect is at
    most IDENTITY_TOL. Reads only the trajectory's table.
    """
    return (_defect_report("angle_evolution", traj.evolution_defect,
                           IDENTITY_TOL),
            _defect_report("commutator", traj.commutator_defect,
                           IDENTITY_TOL))


# -- refinement studies -------------------------------------------------------


# the studies' one protocol: each scenario runs on these grids to this time
LADDER_GRIDS = (64, 128, 256)
LADDER_T_END = 0.12


class RefinementLadder:
    """One scenario integrated on a ladder of grids, for the studies.

    Each grid M of LADDER_GRIDS runs to LADDER_T_END from the same
    initial graph, init_field plus `winding` turns around the base, in
    the gauge curves.flow_curve gives a scenario's run, with every step
    recorded, so dt shrinks like M^-2 as M grows. The runs
    happen on the first read of `trajectories` and are kept on this
    ladder, so every study handed the same ladder reads the same runs.
    Each rung is a plain run that keeps every state; only tests and
    demos integrate a ladder, and `wcsf verify` reads its initial
    curves alone.
    """

    def __init__(self, manifold: WarpedProduct, init_field: FourierField,
                 winding: int = 0):
        self.manifold, self.init_field = manifold, init_field
        self.winding = _integer(winding, "winding")

    @cached_property
    def trajectories(self) -> tuple:
        params = FlowParams(t_max=LADDER_T_END, tol_geo=0.0, record_stride=1)
        return tuple(run(self.manifold,
                         flow_curve(self.manifold, self.init_field, m,
                                    self.winding), params)[0]
                     for m in LADDER_GRIDS)


def _mid_residuals(ladder: RefinementLadder, residual) -> list:
    """The largest residual(traj, k) on each grid, at the recorded state k
    nearest LADDER_T_END / 2 (the first of equal gaps), moved inward so it
    has a recorded neighbour on each side; nan where a run recorded fewer
    than three states, when its first record interval outlasts the run."""
    out = []
    for traj in ladder.trajectories:
        gaps = np.abs(traj.scalars[:, TIME] - 0.5 * LADDER_T_END)
        k = min(max(int(np.argmin(gaps)), 1), len(traj) - 2)
        out.append(float(np.max(residual(traj, k))) if len(traj) >= 3
                   else math.nan)
    return out


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
        grids=LADDER_GRIDS,
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


def _dissipation_residual(traj: Trajectory, k: int) -> float:
    """|dL/dt + int |A|^2 ds| at state k, dL/dt centred in time."""
    t, length, diss = traj.scalars[k - 1:k + 2, [TIME, LENGTH, DISSIPATION]].T
    return abs(centered_dt(*length, t[1] - t[0], t[2] - t[1]) + diss[1])


def dissipation_residual_study(ladder: RefinementLadder) -> ResidualReport:
    """Convergence order of the dissipation defect, dL/dt differenced in
    time over the ladder's steps; passes at order 1.8."""
    return _study_report("dissipation", ladder,
                         _mid_residuals(ladder, _dissipation_residual), 1.8)


def gradient_identity_study(ladder: RefinementLadder) -> ResidualReport:
    """Single-time gradient identity under spatial refinement; the residual
    must drop by at least 3.5x per doubling until the float floor 1e-11.
    Reads only the ladder's initial curves, never its runs."""
    manifold = ladder.manifold
    res = []
    for m in LADDER_GRIDS:
        curve = flow_curve(manifold, ladder.init_field, m, ladder.winding)
        state = FlowState(curve, 0.0, compute_fields(curve, manifold))
        res.append(gradient_identity_residual(state))
    return _study_report("gradient_identity", ladder, res,
                         float(np.log2(3.5)), 1e-11)
