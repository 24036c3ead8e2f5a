"""Time integration of the curve shortening flow d gamma/dt = H.

Graph mode integrates the gauged velocity W = H - H^0 gamma', which is H
plus a tangential shift, so the r-coordinate of every node stays fixed and
the evolving object is exactly the graph function. Parametric mode moves
nodes with the full curvature vector.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .curves import (GRAPH, CurveFields, DiscreteCurve, ImmersionError,
                     compute_fields)
from .geometry import LEFT, TWO_PI, WarpedProduct

__all__ = [
    "StopReason",
    "FlowParams",
    "FlowState",
    "Trajectory",
    "FlowReport",
    "velocity",
    "adaptive_dt",
    "step_rk4",
    "run",
]


class StopReason(enum.Enum):
    CONVERGED = "converged"
    MAX_TIME = "max_time"
    GRAPH_LOSS = "graph_loss"
    BLOWUP = "blowup"


@dataclass(frozen=True)
class FlowParams:
    """Integration controls; the defaults serve every stock scenario."""

    cfl: float = 0.25
    t_max: float = 50.0
    tol_geo: float = 1e-6
    theta_floor: float = 1e-3
    a_ceiling: float = 1e6
    record_stride: int = 50

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.t_max < 0.0:
            raise ValueError("t_max must be nonnegative")
        if self.record_stride < 1:
            raise ValueError("record_stride must be a positive integer")


@dataclass(frozen=True)
class FlowState:
    """A curve at a time together with its cached geometric fields."""

    curve: DiscreteCurve
    t: float
    fields: CurveFields


class Trajectory:
    """Recorded flow states at strictly increasing times."""

    def __init__(self, states=()):
        self._states: list[FlowState] = []
        for s in states:
            self.append(s)

    def append(self, state: FlowState) -> None:
        if self._states and state.t <= self._states[-1].t:
            raise ValueError("trajectory times must strictly increase")
        self._states.append(state)

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, i) -> FlowState:
        return self._states[i]

    def __iter__(self):
        return iter(self._states)

    @property
    def states(self) -> tuple:
        return tuple(self._states)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self._states])

    @property
    def final(self) -> FlowState:
        return self._states[-1]


@dataclass(frozen=True)
class FlowReport:
    """Run summary: stop condition, final diagnostics, recorded series.

    series has one row per recorded state with columns
    (t, min theta, min theta_hat, max |A|, length).
    """

    stop_reason: StopReason
    t_final: float
    steps: int
    final_max_a: float
    final_min_theta: float
    final_min_theta_hat: float
    initial_min_theta: float
    length_initial: float
    length_final: float
    length_monotone: bool
    limit_base_point: tuple
    limit_warp_gradient_norm: float | None
    geodesic_certified: bool
    converging_undecided: bool
    graph_loss_falsification: bool
    series: np.ndarray


def velocity(state: FlowState) -> np.ndarray:
    """Node velocities: H in parametric mode, W = H - H^0 gamma' in graph
    mode. In graph parametrization gamma' has r-component exactly 1, so
    W^0 = 0 and node r-coordinates never move; W differs from H by a
    tangential vector and traces the same curve evolution.
    """
    f = state.fields
    w = f.curvature.copy()
    if state.curve.mode == GRAPH:
        w[:, 1] -= w[:, 0] * f.deriv[:, 1]
        w[:, 0] = 0.0
    return w


def adaptive_dt(state: FlowState, cfl: float, t_max: float | None = None) -> float:
    """dt = cfl (min_j local arclength spacing)^2, capped at t_max - t."""
    h = float(state.fields.speed.min()) * (TWO_PI / state.curve.m)
    dt = cfl * h * h
    if t_max is not None:
        dt = min(dt, t_max - state.t)
    return float(dt)


def _canonicalize(coords: np.ndarray, winding, u_mean: float) -> np.ndarray:
    # shift whole columns by multiples of 2 pi so the periodic part keeps a
    # near-zero mean; this is the mod-2pi reduction compatible with lifts
    m = coords.shape[0]
    for j, w in enumerate(winding):
        p_mean = float(np.add.reduce(coords[:, j])) / m - w * u_mean
        k = round(p_mean / TWO_PI)  # same half-to-even rule as np.round
        if k:
            coords[:, j] -= TWO_PI * k
    return coords


def _bare_curve(template: DiscreteCurve, coords: np.ndarray) -> DiscreteCurve:
    # stage curves inherit the template's validated mode/winding/shape,
    # so the constructor checks are skipped in the stepping hot path
    curve = object.__new__(DiscreteCurve)
    object.__setattr__(curve, "mode", template.mode)
    object.__setattr__(curve, "coords", coords)
    object.__setattr__(curve, "winding", template.winding)
    return curve


def _stage_velocity(coords: np.ndarray, template: DiscreteCurve,
                    manifold: WarpedProduct) -> np.ndarray:
    curve = _bare_curve(template, coords)
    return velocity(FlowState(curve, 0.0, compute_fields(curve, manifold)))


def step_rk4(state: FlowState, manifold: WarpedProduct, dt: float) -> FlowState:
    """Classical four-stage explicit step; refreshes every cached field."""
    c0 = state.curve
    y0 = c0.coords
    k1 = velocity(state)
    k2 = _stage_velocity(y0 + (0.5 * dt) * k1, c0, manifold)
    k3 = _stage_velocity(y0 + (0.5 * dt) * k2, c0, manifold)
    k4 = _stage_velocity(y0 + dt * k3, c0, manifold)
    y1 = y0 + (dt / 6.0) * (k1 + k4 + 2.0 * (k2 + k3))
    y1 = _canonicalize(y1, c0.winding, spectral.node_mean(c0.m))
    curve = _bare_curve(c0, y1)
    return FlowState(curve, state.t + dt, compute_fields(curve, manifold))


def _stop_check(state: FlowState, params: FlowParams) -> StopReason | None:
    # priority: blowup, converged, graph loss, max time
    f = state.fields
    max_a = float(f.curvature_norm.max())
    # max propagates NaN, so one scalar check covers every node
    if not math.isfinite(max_a) or max_a > params.a_ceiling:
        return StopReason.BLOWUP
    if max_a < params.tol_geo:
        return StopReason.CONVERGED
    if float(f.theta_hat.min()) < params.theta_floor:
        return StopReason.GRAPH_LOSS
    if state.t >= params.t_max - 1e-12:
        return StopReason.MAX_TIME
    return None


def _circular_mean(angles: np.ndarray) -> float:
    return float(np.arctan2(np.sin(angles).mean(), np.cos(angles).mean()) % TWO_PI)


def _build_report(traj: Trajectory, manifold: WarpedProduct,
                  stop: StopReason, steps: int) -> FlowReport:
    series = np.array([
        (s.t, s.fields.theta.min(), s.fields.theta_hat.min(),
         s.fields.curvature_norm.max(), s.fields.length)
        for s in traj
    ])
    lengths = series[:, 4]
    monotone = bool(np.all(np.diff(lengths) <= 1e-10))
    final = traj.final
    limit = tuple(_circular_mean(final.curve.coords[:, i])
                  for i in range(1, final.curve.dim))
    grad_norm = None
    if manifold.kind == LEFT:
        pt = np.array([[0.0, *limit]])
        grad_norm = float(np.sqrt(manifold.dlog_warp(pt)[1][0]))
    converged = stop is StopReason.CONVERGED
    certified = bool(converged and (grad_norm is None or grad_norm < 1e-3))
    tail = series[-5:, 3]
    undecided = bool(stop is StopReason.MAX_TIME and tail.size >= 2
                     and np.all(np.diff(tail) < 0.0))
    return FlowReport(
        stop_reason=stop,
        t_final=float(final.t),
        steps=steps,
        final_max_a=float(final.fields.curvature_norm.max()),
        final_min_theta=float(final.fields.theta.min()),
        final_min_theta_hat=float(final.fields.theta_hat.min()),
        initial_min_theta=float(traj[0].fields.theta.min()),
        length_initial=float(traj[0].fields.length),
        length_final=float(final.fields.length),
        length_monotone=monotone,
        limit_base_point=limit,
        limit_warp_gradient_norm=grad_norm,
        geodesic_certified=certified,
        converging_undecided=undecided,
        graph_loss_falsification=bool(stop is StopReason.GRAPH_LOSS),
        series=series,
    )


def run(manifold: WarpedProduct, curve0: DiscreteCurve,
        params: FlowParams = FlowParams()):
    """Integrate until a stop condition fires.

    Returns (Trajectory, FlowReport). The initial and final states are
    always recorded; in between every record_stride-th step is kept.
    Graph loss and blowup are reported outcomes, not exceptions. The run is
    deterministic: the same inputs produce bit-identical results.
    """
    state = FlowState(curve0, 0.0, compute_fields(curve0, manifold))
    traj = Trajectory([state])
    steps = 0
    while True:
        stop = _stop_check(state, params)
        if stop is not None:
            break
        dt = adaptive_dt(state, params.cfl, params.t_max)
        try:
            state = step_rk4(state, manifold, dt)
        except ImmersionError:
            stop = StopReason.BLOWUP
            break
        steps += 1
        if steps % params.record_stride == 0:
            traj.append(state)
    if traj.final is not state:
        traj.append(state)
    return traj, _build_report(traj, manifold, stop, steps)
