"""Time integration of the curve shortening flow d gamma/dt = H.

Nodes move with CurveFields.velocity, H plus a tangential vector, which
traces the same curve evolution; the stepper and the recorder move and
keep the columns DiscreteCurve.moving names and never ask the gauge. A
graph moves with W = H - H^0 gamma', so its r column stays the node
grid; other curves with the harmonic-map (DeTurck) velocity
q/v^2 = H + (v'/v^2) T, q = gamma'' + Gamma(gamma', gamma') (Deckelnick,
Dziuk & Elliott, Acta Numerica 14, 2005; Elliott & Fritz, IMA J. Numer.
Anal. 37, 2017), a strictly parabolic system that spreads the nodes.
wcsf.curves.flow_curve gives a scenario's initial graph its gauge: the
DeTurck curve through its nodes when it winds or lies in a left product
with a varying warp, where the even node speed lets the stiffness limit
go sooner; the graph in a right product or under a constant left warp.

Steps are exponential time differencing RK4 (ETDRK4: Cox & Matthews,
J. Comput. Phys. 176, 2002; Kassam & Trefethen, SIAM J. Sci. Comput. 26,
2005). The leading term of either velocity is gamma''/v^2 on the moving
columns; each step freezes alpha, the midpoint of the range of 1/v^2,
applies L = -alpha k^2 exactly to the Fourier modes of the periodic part
of those columns, and treats N = W - L gamma with the four explicit
stages. Once the curve is nearly flat nothing is left stiff and only the
accuracy cap DT_MAX holds a step, so a record interval no longer than
DT_MAX then takes one step. A run's parameters, states, trajectory and
report are defined in wcsf.record.
"""

from __future__ import annotations

import math

import numpy as np

from . import spectral
from .curves import (CurveFields, DiscreteCurve, ImmersionError,
                     compute_fields)
from .geometry import WarpedProduct
from .record import (FlowParams, FlowState, StopReason, Trajectory,
                     _build_report)
from .spectral import TWO_PI

__all__ = [
    "adaptive_dt",
    "step_rk4",
    "run",
]


# every run's step factor: a 2x looser stiffness limit saves 2-17% of the
# workloads' steps and costs 9-11x the time error on a steep left graph
# in either gauge (ROADMAP's step floor table)
CFL = 0.25


def adaptive_dt(state: FlowState, cfl: float) -> float:
    """dt = cfl (min_j local arclength spacing)^2.

    The parabolic step of an explicit scheme, taken on the initial curve
    as the unit dt0 of the record times j * record_stride * dt0; run
    passes cfl = CFL. The steps themselves are held by the split's
    stiffness and DT_MAX.
    """
    h = float(state.fields.speed.min()) * (TWO_PI / state.curve.m)
    return float(cfl * h * h)


# Steps never exceed this. Near a flat curve the split leaves no
# stiffness to limit dt, but the remainder still carries the warp's pull
# on the curve: one dt = 50 step moves a left-family r-circle from
# x = pi/2 to 3.92 instead of to its limit pi. 1/8 is the smallest power
# of two above every stock record interval (product's 0.1205); against
# DT_MAX/10 a sparse asymmetric left run errs 4.0e-10/1.5e-8/2.2e-7 at
# caps 0.05/0.125/0.25, growing like cap^4 once the cap binds.
DT_MAX = 0.125


def _split(fields: CurveFields) -> tuple:
    """(alpha, s): midpoint and half range of 1/v^2 over the nodes."""
    # v * v, not v ** 2: a Python float's ** 2 calls libm pow, which is
    # not always the correctly rounded square
    v_max, v_min = float(fields.speed.max()), float(fields.speed.min())
    lo = 1.0 / (v_max * v_max)
    hi = 1.0 / (v_min * v_min)
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def _step_limit(state: FlowState) -> float:
    """Largest step the state allows.

    The explicit remainder (1/v^2 - alpha) gamma'' is stiff at most
    s (m/2)^2, so dt = CFL (2 pi/m)^2 / s holds dt s (m/2)^2 at CFL pi^2,
    the margin of explicit RK4 at the parabolic step. DT_MAX caps it for
    accuracy; on a nearly flat curve it is the only limit.
    """
    _, s = _split(state.fields)
    h = TWO_PI / state.curve.m
    return min(CFL * h * h / s, DT_MAX) if s > 0.0 else DT_MAX


def _taylor_table() -> np.ndarray:
    # row n: coefficients of z^n in Q, f1, f2, f3 over dt, from
    # phi_j(z) = sum_n z^n / (n + j)!; row 0 is (1/2, 1/6, 1/6, 1/6).
    # Over d = (n + 3)! every numerator is an integer, and int / int
    # rounds the exact quotient once, as a float of a Fraction does
    rows = []
    for n in range(24):
        d = math.factorial(n + 3)
        # d / (n + 1)!, d / (n + 2)!, d / (n + 3)!
        p1, p2, p3 = (n + 2) * (n + 3), n + 3, 1
        rows.append([p1 / (d * 2 ** (n + 1)), (p1 - 3 * p2 + 4 * p3) / d,
                     (p2 - 2 * p3) / d, (4 * p3 - p2) / d])
    return np.array(rows)


_TAYLOR = _taylor_table()
# below |z| = 2 the closed forms lose more digits to cancellation than the
# series, whose 24th term is then below 1e-17
_TAYLOR_CUT = 2.0


def _etd_weights(z: np.ndarray, dt: float) -> tuple:
    """ETDRK4 weights (E, E2, Q, f1, f2, f3) for z = dt L per mode.

    E = e^z, E2 = e^{z/2}, Q = dt phi1(z/2) / 2, and the Cox-Matthews f1,
    f2, f3: by their series where |z| < 2, in closed form elsewhere. At
    z = 0, the mean mode, they are RK4's dt/2 and dt/6. z must be <= 0
    and nonincreasing, as z = -dt alpha k^2 is over increasing
    wavenumbers k.
    """
    e = np.exp(z)
    e2 = np.exp(0.5 * z)
    small = int(np.searchsorted(-z, _TAYLOR_CUT))
    zs = z[:small, None]
    series = np.zeros((small, _TAYLOR.shape[1]))
    for row in _TAYLOR[::-1]:   # Horner's rule in z, free of BLAS
        series *= zs
        series += row
    zl, el = z[small:], e[small:]
    z3 = zl * zl * zl
    closed = np.stack((np.expm1(0.5 * zl) / zl,
                       (-4.0 - zl + el * (4.0 - 3.0 * zl + zl * zl)) / z3,
                       (2.0 + zl + el * (zl - 2.0)) / z3,
                       (-4.0 - 3.0 * zl - zl * zl + el * (4.0 - zl)) / z3),
                      axis=1)
    q, f1, f2, f3 = dt * np.concatenate((series, closed)).T
    return e, e2, q, f1, f2, f3


def step_rk4(state: FlowState, manifold: WarpedProduct, dt: float,
             t_new: float | None = None) -> FlowState:
    """One ETDRK4 step of length dt; refreshes every cached field.

    Splits off L = -alpha k^2 with alpha frozen from state (see the module
    docstring); the stages run on the rfft modes of the moving columns,
    and each stage curve is the ramp u * winding plus those columns. The
    first stage reuses state.fields, so a step costs four compute_fields
    calls: stages a, b, c and the new state. t_new stamps the new state in
    place of state.t + dt, so a run lands exactly on its record times.
    """
    c0 = state.curve
    m, mode, winding, cols = c0.m, c0.mode, c0.winding, c0.moving
    ramp = spectral.nodes(m)[:, None] * np.asarray(winding, dtype=float)
    k = spectral.wavenumbers(m)
    lin = (_split(state.fields)[0] * (k * k))[:, None]   # -L on each mode

    def coords_of(y):
        coords = ramp.copy()
        coords[:, cols] += np.fft.irfft(y, n=m, axis=0)
        return coords

    def remainder(fields, y):
        return np.fft.rfft(fields.velocity[:, cols], axis=0) + lin * y

    def stage(y):
        curve = DiscreteCurve(mode, coords_of(y), winding)
        return remainder(compute_fields(curve, manifold), y)

    weights = _etd_weights(-dt * lin[:, 0], dt)
    e, e2, q, f1, f2, f3 = (w[:, None] for w in weights)
    y0 = np.fft.rfft(c0.coords[:, cols] - ramp[:, cols], axis=0)
    n0 = remainder(state.fields, y0)
    a = e2 * y0 + q * n0
    na = stage(a)
    b = e2 * y0 + q * na
    nb = stage(b)
    c = e2 * a + q * (2.0 * nb - n0)
    nc = stage(c)
    y1 = e * y0 + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc
    curve = DiscreteCurve(mode, coords_of(y1), winding)
    t1 = state.t + dt if t_new is None else t_new
    return FlowState(curve, t1, compute_fields(curve, manifold))


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


def run(manifold: WarpedProduct, curve0: DiscreteCurve,
        params: FlowParams = FlowParams(), traj: Trajectory | None = None):
    """Integrate until a stop condition fires.

    Returns (Trajectory, FlowReport). States are recorded at t = 0, at the
    record times t_j = j * record_stride * dt0 with dt0 the adaptive_dt of
    the initial state, and at the end. Each record interval is split into
    equal steps within the step limit, so every record time is hit exactly.
    Graph loss and blowup are reported outcomes, not exceptions. The run
    is deterministic: the same inputs produce bit-identical results. It
    flows a copy of the caller's coordinate array.

    Every recorded state is appended to traj, an empty Trajectory (or a
    subclass that keeps less of each state); None records into a new one.
    """
    if traj is None:
        traj = Trajectory()
    elif len(traj):
        raise ValueError("run records into an empty Trajectory")
    curve0 = DiscreteCurve(curve0.mode, curve0.coords.copy(), curve0.winding)
    state = FlowState(curve0, 0.0, compute_fields(curve0, manifold))
    traj.append(state)
    dt0 = adaptive_dt(state, CFL)
    j = 1
    dts = []
    while True:
        stop = _stop_check(state, params)
        if stop is not None:
            break
        t_record = j * params.record_stride * dt0
        t_next = min(t_record, params.t_max)
        n = math.ceil((t_next - state.t) / _step_limit(state))
        dt = (t_next - state.t) / n if n > 1 else t_next - state.t
        try:
            state = step_rk4(state, manifold, dt, None if n > 1 else t_next)
        except ImmersionError:
            stop = StopReason.BLOWUP
            break
        dts.append(dt)
        if state.t == t_record:
            traj.append(state)
            j += 1
    if traj.final is not state:
        traj.append(state)
    return traj, _build_report(traj, stop, dts)
