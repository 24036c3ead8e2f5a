"""Time integration of the curve shortening flow d gamma/dt = H.

Both modes move nodes with H plus a tangential vector, which traces the
same curve evolution. Graph mode integrates the gauged velocity
W = H - H^0 gamma', so the r-coordinate of every node stays fixed and the
evolving object is exactly the graph function. Parametric mode integrates
the harmonic-map (DeTurck) velocity q/v^2 = H + (v'/v^2) T with
q = gamma'' + Gamma(gamma', gamma') (Deckelnick, Dziuk & Elliott, Acta
Numerica 14, 2005; Elliott & Fritz, IMA J. Numer. Anal. 37, 2017), a
strictly parabolic system that spreads the nodes like a harmonic map.

Steps are exponential time differencing RK4 (ETDRK4: Cox & Matthews,
J. Comput. Phys. 176, 2002; Kassam & Trefethen, SIAM J. Sci. Comput. 26,
2005). The leading term of either velocity is gamma''/v^2 on its moving
columns (x alone on a graph, r and x otherwise); each step freezes alpha,
the midpoint of the range of 1/v^2, applies L = -alpha k^2 exactly to the
Fourier modes of the periodic part of those columns, and treats
N = W - L gamma with the four explicit stages. Once the curve is nearly
flat nothing is left stiff and only the accuracy cap DT_MAX holds a step,
so a record interval no longer than DT_MAX then takes one step.
"""

from __future__ import annotations

import enum
import math
import operator
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
        if not 0.0 <= self.t_max < math.inf:
            raise ValueError("t_max must be finite and nonnegative")
        # a NaN threshold would silently switch its stop condition off
        if not 0.0 <= self.tol_geo < math.inf:
            raise ValueError("tol_geo must be finite and nonnegative")
        if not 0.0 <= self.theta_floor < math.inf:
            raise ValueError("theta_floor must be finite and nonnegative")
        if not 0.0 < self.a_ceiling < math.inf:
            raise ValueError("a_ceiling must be finite and positive")
        # a count: 2.5 would shift the record grid, and a bool is no count
        try:
            stride = operator.index(self.record_stride)
        except TypeError:
            stride = 0
        if isinstance(self.record_stride, bool) or stride < 1:
            raise ValueError("record_stride must be a positive integer")
        object.__setattr__(self, "record_stride", stride)


@dataclass(frozen=True)
class FlowState:
    """A curve at a time together with its cached geometric fields."""

    curve: DiscreteCurve
    t: float
    fields: CurveFields


class Trajectory:
    """Recorded flow states at strictly increasing times.

    Keeps the time, the coordinates and the row of scalars of every
    state, and the fields of the newest state only. A graph state keeps
    its x1 column alone, since its r column is the node grid
    spectral.nodes(m). Reading an older state rebuilds its curve from what
    was kept and its fields with compute_fields: the same pure call on
    equal coordinates, so they are bit for bit the fields the flow
    computed, and each read pays one kernel call. All states share one
    manifold, mode, node count and winding.
    """

    def __init__(self, states=()):
        self._coords: list[np.ndarray] = []
        self._rows: list[tuple] = []
        self._last: FlowState | None = None
        for s in states:
            self.append(s)

    def append(self, state: FlowState) -> None:
        f, c, last = state.fields, state.curve, self._last
        if not math.isfinite(state.t):
            raise ValueError("trajectory times must be finite")
        if last is not None:
            if state.t <= last.t:
                raise ValueError("trajectory times must strictly increase")
            if f.manifold is not last.fields.manifold:
                raise ValueError("trajectory states must share one manifold")
            if (c.mode, c.m, c.winding) != (last.curve.mode, last.curve.m,
                                            last.curve.winding):
                raise ValueError("trajectory states must share one mode, "
                                 "node count and winding")
        if c.mode == GRAPH:
            if not np.array_equal(c.coords[:, 0], spectral.nodes(c.m)):
                raise ValueError("graph states must sit on the node grid")
            self._coords.append(c.coords[:, 1].copy())
        else:
            # a copy, like the graph column: the caller may reuse its array
            self._coords.append(c.coords.copy())
        self._rows.append((
            state.t, float(f.theta.min()), float(f.theta_hat.min()),
            float(f.curvature_norm.max()), f.length,
            float((f.curvature_norm ** 2 * f.speed).sum()
                  * (TWO_PI / c.m))))
        self._last = state

    def __len__(self) -> int:
        return len(self._coords)

    def curve(self, i) -> DiscreteCurve:
        """The curve of state i, rebuilt unless it is the newest."""
        i = range(len(self._coords))[i]   # IndexError when out of range
        last = self._last.curve
        if i == len(self._coords) - 1:
            return last
        coords = self._coords[i]
        if last.mode == GRAPH:
            coords = np.column_stack((spectral.nodes(last.m), coords))
        return DiscreteCurve(last.mode, coords, last.winding)

    def __getitem__(self, i) -> FlowState:
        i = range(len(self._coords))[i]
        if i == len(self._coords) - 1:
            return self._last
        curve = self.curve(i)
        return FlowState(curve, self._rows[i][0],
                         compute_fields(curve, self._last.fields.manifold))

    def __iter__(self):
        for i in range(len(self._coords)):
            yield self[i]

    @property
    def curves(self) -> tuple:
        return tuple(self.curve(i) for i in range(len(self._coords)))

    @property
    def scalars(self) -> np.ndarray:
        """One row per state: (t, min theta, min theta_hat, max |A|,
        length, int |A|^2 ds)."""
        return np.array(self._rows)

    @property
    def times(self) -> np.ndarray:
        return np.array([row[0] for row in self._rows])

    @property
    def final(self) -> FlowState:
        return self[-1]


@dataclass(frozen=True)
class FlowReport:
    """Run summary: stop condition, final diagnostics, recorded series.

    series has one row per recorded state with columns
    (t, min theta, min theta_hat, max |A|, length). dt_min, dt_median and
    dt_max range over the steps taken, None when there were none.
    """

    stop_reason: StopReason
    t_final: float
    steps: int
    dt_min: float | None
    dt_median: float | None
    dt_max: float | None
    final_max_a: float
    final_min_theta: float
    final_min_theta_hat: float
    initial_min_theta: float
    length_initial: float
    length_final: float
    length_monotone: bool
    limit_base_point: float
    limit_warp_gradient_norm: float | None
    geodesic_certified: bool
    converging_undecided: bool
    graph_loss_falsification: bool
    series: np.ndarray


def _graph_velocity(fields: CurveFields) -> np.ndarray:
    # W^1 = H^1 - H^0 x', the only moving component in graph mode
    return fields.curvature[:, 1] - fields.curvature[:, 0] * fields.deriv[:, 1]


def velocity(state: FlowState) -> np.ndarray:
    """Node velocities: W = H - H^0 gamma' in graph mode, the DeTurck
    velocity q/v^2 = H + (v'/v^2) T in parametric mode. Both differ from H
    by a tangential vector and trace the same curve evolution. In graph
    parametrization gamma' has r-component exactly 1, so W^0 = 0 and node
    r-coordinates never move.
    """
    if state.curve.mode != GRAPH:
        return state.fields.accel.copy()
    w = np.zeros((state.curve.m, 2))
    w[:, 1] = _graph_velocity(state.fields)
    return w


def adaptive_dt(state: FlowState, cfl: float) -> float:
    """dt = cfl (min_j local arclength spacing)^2.

    The parabolic step of an explicit scheme, taken on the initial curve
    as the unit dt0 of the record times j * record_stride * dt0. The
    steps themselves are held by the split's stiffness and DT_MAX.
    """
    h = float(state.fields.speed.min()) * (TWO_PI / state.curve.m)
    return float(cfl * h * h)


# Steps never exceed this. Near a flat curve the split leaves no
# stiffness to limit dt, but the remainder still carries the warp's pull
# on the curve: one dt = 50 step moves a left-family r-circle from
# x = pi/2 to 3.92 instead of to its limit pi. 1/8 is the smallest power
# of two above every stock record interval (0.107 at most); against
# DT_MAX/10 a sparse asymmetric left run errs 4.0e-10/1.5e-8/2.2e-7 at
# caps 0.05/0.125/0.25, growing like cap^4 once the cap binds.
DT_MAX = 0.125


def _split(fields: CurveFields) -> tuple:
    """(alpha, s): midpoint and half range of 1/v^2 over the nodes."""
    lo = 1.0 / float(fields.speed.max()) ** 2
    hi = 1.0 / float(fields.speed.min()) ** 2
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def _step_limit(state: FlowState, cfl: float) -> float:
    """Largest step the state allows.

    The explicit remainder (1/v^2 - alpha) gamma'' is stiff at most
    s (m/2)^2, so dt = cfl (2 pi/m)^2 / s holds dt s (m/2)^2 at cfl pi^2,
    the margin of explicit RK4 at the parabolic step. DT_MAX caps it for
    accuracy; on a nearly flat curve it is the only limit.
    """
    _, s = _split(state.fields)
    h = TWO_PI / state.curve.m
    return min(cfl * h * h / s, DT_MAX) if s > 0.0 else DT_MAX


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


def _taylor_table(terms: int = 24) -> np.ndarray:
    # row n: coefficients of z^n in Q, f1, f2, f3 over dt, from
    # phi_j(z) = sum_n z^n / (n + j)!; row 0 is (1/2, 1/6, 1/6, 1/6).
    # Over d = (n + 3)! every numerator is an integer, and int / int
    # rounds the exact quotient once, as a float of a Fraction does
    rows = []
    for n in range(terms):
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
    docstring), in graph and parametric mode alike; the stages run on the
    rfft modes of the moving columns, an (m, 1) x column on a graph. The
    first stage reuses state.fields, so a step costs four compute_fields
    calls: stages a, b, c and the new state. t_new stamps the new state in
    place of state.t + dt, so a run lands exactly on its record times.
    """
    c0 = state.curve
    m, mode, winding = c0.m, c0.mode, c0.winding
    graph = mode == GRAPH
    u = spectral.nodes(m)
    cols = slice(1, 2) if graph else slice(0, 2)
    ramp = u[:, None] * np.asarray(winding[cols], dtype=float)
    k = spectral.wavenumbers(m)
    lin = (_split(state.fields)[0] * (k * k))[:, None]   # -L on each mode

    def coords_of(y):
        coords = np.empty((m, 2))
        coords[:, 0] = u     # the fixed r column of a graph
        coords[:, cols] = np.fft.irfft(y, n=m, axis=0) + ramp
        return coords

    def remainder(fields, y):
        w = _graph_velocity(fields)[:, None] if graph else fields.accel
        return np.fft.rfft(w, axis=0) + lin * y

    def stage(y):
        curve = DiscreteCurve(mode, coords_of(y), winding)
        return remainder(compute_fields(curve, manifold), y)

    weights = _etd_weights(-dt * lin[:, 0], dt)
    e, e2, q, f1, f2, f3 = (w[:, None] for w in weights)
    y0 = np.fft.rfft(c0.coords[:, cols] - ramp, axis=0)
    n0 = remainder(state.fields, y0)
    a = e2 * y0 + q * n0
    na = stage(a)
    b = e2 * y0 + q * na
    nb = stage(b)
    c = e2 * a + q * (2.0 * nb - n0)
    nc = stage(c)
    y1 = e * y0 + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc
    coords = _canonicalize(coords_of(y1), winding, spectral.node_mean(m))
    curve = DiscreteCurve(mode, coords, winding)
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


# the most a length may grow between recorded states and still count as
# nonincreasing, in both FlowReport.length_monotone and the dissipation
# monitor
MONOTONE_TOL = 1e-10


def _circular_mean(angles: np.ndarray) -> float:
    return float(np.arctan2(np.sin(angles).mean(), np.cos(angles).mean()) % TWO_PI)


def _median(values: list) -> float:
    # statistics.median's rule: the mean of the middle two of an even count
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _build_report(traj: Trajectory, manifold: WarpedProduct,
                  stop: StopReason, dts: list) -> FlowReport:
    series = traj.scalars[:, :5]
    lengths = series[:, 4]
    monotone = bool(np.all(np.diff(lengths) <= MONOTONE_TOL))
    first, last = series[0], series[-1]
    limit = _circular_mean(traj.final.curve.coords[:, 1])
    grad_norm = None
    if manifold.kind == LEFT:
        grad_norm = float(np.sqrt(manifold.dlog_warp(np.array([limit]))[1][0]))
    converged = stop is StopReason.CONVERGED
    certified = bool(converged and (grad_norm is None or grad_norm < 1e-3))
    tail = series[-5:, 3]
    undecided = bool(stop is StopReason.MAX_TIME and tail.size >= 2
                     and np.all(np.diff(tail) < 0.0))
    return FlowReport(
        stop_reason=stop,
        t_final=float(last[0]),
        steps=len(dts),
        dt_min=min(dts) if dts else None,
        dt_median=_median(dts) if dts else None,
        dt_max=max(dts) if dts else None,
        final_max_a=float(last[3]),
        final_min_theta=float(last[1]),
        final_min_theta_hat=float(last[2]),
        initial_min_theta=float(first[1]),
        length_initial=float(first[4]),
        length_final=float(last[4]),
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

    Returns (Trajectory, FlowReport). States are recorded at t = 0, at the
    record times t_j = j * record_stride * dt0 with dt0 the adaptive_dt of
    the initial state, and at the end. Each record interval is split into
    equal steps within the step limit, so every record time is hit
    exactly. Graph loss and blowup are reported outcomes, not exceptions.
    The run is deterministic: the same inputs produce bit-identical
    results. It flows a copy of the caller's coordinate array.
    """
    curve0 = DiscreteCurve(curve0.mode, curve0.coords.copy(), curve0.winding)
    state = FlowState(curve0, 0.0, compute_fields(curve0, manifold))
    traj = Trajectory([state])
    dt0 = adaptive_dt(state, params.cfl)
    j = 1
    dts = []
    while True:
        stop = _stop_check(state, params)
        if stop is not None:
            break
        t_record = j * params.record_stride * dt0
        t_next = min(t_record, params.t_max)
        n = math.ceil((t_next - state.t) / _step_limit(state, params.cfl))
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
    return traj, _build_report(traj, manifold, stop, dts)
