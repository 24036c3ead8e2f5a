"""What a flow run is given and what it keeps.

FlowParams holds a run's controls, FlowState one curve at a time with its
fields, Trajectory the recorded states of a run with one row of scalars
each, and FlowReport the run's summary, built by _build_report from the
trajectory once the run stops. The integrator is wcsf.flow.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import curves
from .curves import CurveFields, DiscreteCurve, _integer
from .geometry import LEFT
from .rates import state_defects
from .spectral import TWO_PI, mod_two_pi

__all__ = [
    "StopReason",
    "FlowParams",
    "FlowState",
    "Trajectory",
    "FlowReport",
]


class StopReason(enum.Enum):
    CONVERGED = "converged"
    MAX_TIME = "max_time"
    GRAPH_LOSS = "graph_loss"
    BLOWUP = "blowup"


# how far below zero a bound's slack may fall and the bound still hold: the
# default of FlowParams.tol_bound and of the bound monitors' eps_tol
BOUND_TOL = 1e-4


@dataclass(frozen=True)
class FlowParams:
    """Integration controls; the defaults serve every stock scenario.
    tol_bound is the bound monitors' slack tolerance; run() never reads it."""

    t_max: float = 50.0
    tol_geo: float = 1e-6
    tol_bound: float = BOUND_TOL
    theta_floor: float = 1e-3
    a_ceiling: float = 1e6
    record_stride: int = 50

    def __post_init__(self):
        # a NaN threshold would silently switch its stop condition off
        for name in ("t_max", "tol_geo", "tol_bound", "theta_floor"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not 0.0 < self.a_ceiling < math.inf:
            raise ValueError("a_ceiling must be finite and positive")
        # a count: 2.5 would shift the record grid
        stride = _integer(self.record_stride, "record_stride")
        if stride < 1:
            raise ValueError("record_stride must be a positive integer")
        object.__setattr__(self, "record_stride", stride)


@dataclass(frozen=True)
class FlowState:
    """A curve at a time together with its cached geometric fields."""

    curve: DiscreteCurve
    t: float
    fields: CurveFields


# the columns of Trajectory.scalars, one row per recorded state: the time,
# min theta, min theta_hat, max |A|, the length and int |A|^2 ds; and the
# hidden four of rates.state_defects, Trajectory.drift,
# dissipation_defect, evolution_defect and commutator_defect
(TIME, MIN_THETA, MIN_THETA_HAT, MAX_A, LENGTH, DISSIPATION, DRIFT,
 DISSIPATION_DEFECT, EVOLUTION_DEFECT, COMMUTATOR_DEFECT) = range(10)

# the most a length may grow between recorded states and still count as
# nonincreasing, in Trajectory.length_monotone
MONOTONE_TOL = 1e-10


class Trajectory:
    """Recorded flow states at strictly increasing times.

    Keeps the time, the moving columns (DiscreteCurve.moving), the row of
    scalars and the four defects (rates.state_defects) of every
    state, the rows in one float64 table that doubles when it
    fills, and the fields of the newest state only: a graph state keeps
    its x1 column alone, since its r column is the node grid.
    Reading an older state rebuilds its curve from what was kept and its
    fields with compute_fields: the same pure call on equal coordinates,
    so they are bit for bit the fields the flow computed, and each read
    pays one kernel call. All states share one manifold, moving columns,
    node count and winding.

    A subclass that records long runs may _drop the coordinates of older
    states it will not read; their scalar rows stay, and reading their
    curves raises LookupError.
    """

    def __init__(self):
        self._coords: list[np.ndarray] = []
        self._table = np.empty((16, COMMUTATOR_DEFECT + 1))
        self._last: FlowState | None = None

    def append(self, state: FlowState) -> None:
        f, c, last = state.fields, state.curve, self._last
        if not math.isfinite(state.t):
            raise ValueError("trajectory times must be finite")
        if last is not None:
            if state.t <= last.t:
                raise ValueError("trajectory times must strictly increase")
            if f.manifold is not last.fields.manifold:
                raise ValueError("trajectory states must share one manifold")
            if (c.moving, c.m, c.winding) != (last.curve.moving, last.curve.m,
                                              last.curve.winding):
                raise ValueError("trajectory states must share one gauge, "
                                 "node count and winding")
        # a copy: the caller may reuse its array
        self._coords.append(c.coords[:, c.moving].copy())
        n = len(self) - 1
        if n == len(self._table):
            grown = np.empty((2 * n, COMMUTATOR_DEFECT + 1))
            grown[:n] = self._table
            self._table = grown
        dissipation = (f.curvature_norm ** 2 * f.speed).sum() * (TWO_PI / c.m)
        self._table[n] = (
            state.t, f.theta.min(), f.theta_hat.min(), f.curvature_norm.max(),
            f.length, dissipation, *state_defects(state, dissipation))
        self._last = state

    def __len__(self) -> int:
        return len(self._coords)

    def _drop(self, indices) -> None:
        """Forget the coordinates of the states at indices."""
        for j in indices:
            self._coords[j] = None

    def kept(self) -> list:
        """Indices of the states whose curves can be read, oldest first."""
        return [i for i, c in enumerate(self._coords) if c is not None]

    def curve(self, i) -> DiscreteCurve:
        """The curve of state i, rebuilt unless it is the newest."""
        i = range(len(self._coords))[i]   # IndexError when out of range
        last = self._last.curve
        if i == len(self._coords) - 1:
            return last
        coords = self._coords[i]
        if coords is None:
            raise LookupError(f"state {i} of this trajectory was dropped: "
                              "only its scalar row is kept")
        full = last.coords.copy()   # a graph's r column: the node grid
        full[:, last.moving] = coords
        return DiscreteCurve(last.mode, full, last.winding)

    def __getitem__(self, i) -> FlowState:
        i = range(len(self._coords))[i]
        if i == len(self._coords) - 1:
            return self._last
        curve = self.curve(i)
        # looked up on the module at each call, where a tracer that wraps
        # wcsf.curves.compute_fields sees the rebuild
        return FlowState(curve, float(self._table[i, TIME]),
                         curves.compute_fields(curve,
                                               self._last.fields.manifold))

    @property
    def scalars(self) -> np.ndarray:
        """One row per state, in the columns TIME, MIN_THETA,
        MIN_THETA_HAT, MAX_A, LENGTH and DISSIPATION: a read-only view
        of the filled rows, which later appends leave as they are."""
        rows = self._table[:len(self), :DRIFT]
        rows.flags.writeable = False
        return rows

    @property
    def drift(self) -> np.ndarray:
        """The least drift defect dTheta/dt - Lap Theta - |A|^2 Theta / 2
        over each state's nodes, a read-only view like scalars."""
        return self._column(DRIFT)

    @property
    def dissipation_defect(self) -> np.ndarray:
        """Each state's dissipation defect dL/dt + int |A|^2 ds, a
        read-only view like scalars."""
        return self._column(DISSIPATION_DEFECT)

    @property
    def evolution_defect(self) -> np.ndarray:
        """The largest defect |dTheta/dt - rates.evolution_rhs| over each
        state's nodes, a read-only view like scalars."""
        return self._column(EVOLUTION_DEFECT)

    @property
    def commutator_defect(self) -> np.ndarray:
        """Each state's rates.commutator_defect at the exact rate of its
        tangent, a read-only view like scalars."""
        return self._column(COMMUTATOR_DEFECT)

    def _column(self, j: int) -> np.ndarray:
        rows = self._table[:len(self), j]
        rows.flags.writeable = False
        return rows

    @property
    def length_monotone(self) -> bool:
        """Whether no recorded length exceeds the one before it by more
        than MONOTONE_TOL."""
        return bool(np.all(np.diff(self._table[:len(self), LENGTH])
                           <= MONOTONE_TOL))

    @property
    def final(self) -> FlowState:
        return self[-1]


@dataclass(frozen=True)
class FlowReport:
    """Run summary: stop condition and final diagnostics, field for field
    the flow section of a run's report.txt, in its order. The recorded
    series is the trajectory's scalars. dt_min, dt_median and dt_max range
    over the steps taken, None when there were none. A curve winding
    around the base has no limit base point, and so no warp gradient.
    """

    stop_reason: StopReason
    t_final: float
    steps: int
    dt_min: float | None
    dt_median: float | None
    dt_max: float | None
    recorded_states: int
    initial_min_theta: float
    final_min_theta: float
    final_min_theta_hat: float
    final_max_curvature: float
    length_initial: float
    length_final: float
    length_monotone: bool
    limit_base_point: float | None
    limit_warp_gradient_norm: float | None
    geodesic_certified: bool
    converging_undecided: bool


def _circular_mean(angles: np.ndarray) -> float:
    return float(mod_two_pi(np.arctan2(np.sin(angles).mean(),
                                       np.cos(angles).mean())))


def _median(values: list) -> float:
    # statistics.median's rule, the mean of the middle two of an even count;
    # np.median would import numpy.ma into every run
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _build_report(traj: Trajectory, stop: StopReason, dts: list) -> FlowReport:
    rows = traj.scalars
    first, last = rows[0], rows[-1]
    limit = grad_norm = None
    manifold = traj.final.fields.manifold
    # a graph winding w times around the base limits to a (1, w) geodesic
    if traj.final.curve.winding[1] == 0:
        limit = _circular_mean(traj.final.curve.coords[:, 1])
        if manifold.kind == LEFT:
            _, norm_sq = manifold.dlog_warp(np.array([limit]))
            grad_norm = float(np.sqrt(norm_sq[0]))
    converged = stop is StopReason.CONVERGED
    certified = bool(converged and (grad_norm is None or grad_norm < 1e-3))
    tail = rows[-5:, MAX_A]
    undecided = bool(stop is StopReason.MAX_TIME and tail.size >= 2
                     and np.all(np.diff(tail) < 0.0))
    return FlowReport(
        stop_reason=stop,
        t_final=float(last[TIME]),
        steps=len(dts),
        dt_min=min(dts) if dts else None,
        dt_median=_median(dts) if dts else None,
        dt_max=max(dts) if dts else None,
        recorded_states=len(traj),
        initial_min_theta=float(first[MIN_THETA]),
        final_min_theta=float(last[MIN_THETA]),
        final_min_theta_hat=float(last[MIN_THETA_HAT]),
        final_max_curvature=float(last[MAX_A]),
        length_initial=float(first[LENGTH]),
        length_final=float(last[LENGTH]),
        length_monotone=traj.length_monotone,
        limit_base_point=limit,
        limit_warp_gradient_norm=grad_norm,
        geodesic_certified=certified,
        converging_undecided=undecided,
    )
