"""Discrete closed curves in a warped product and their geometric operators.

Curves are sampled at uniform parameter nodes u_j = 2 pi j / M and stored
through lifted (unreduced) coordinates, so spectral differentiation always
sees smooth periodic data: coords[:, c] = winding[c] * u + periodic part.
This module alone decides the gauge: flow_curve picks the one a run's
initial graph flows in, DiscreteCurve.moving names the columns a flow
moves, CurveFields.velocity the node velocity moving them.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import spectral
from .fourier import FourierField
from .geometry import LEFT, WarpedProduct
from .spectral import TWO_PI

__all__ = [
    "GRAPH",
    "PARAMETRIC",
    "ImmersionError",
    "DiscreteCurve",
    "CurveFields",
    "make_graph_curve",
    "flow_curve",
    "compute_fields",
    "arc_derivative",
    "arc_laplacian",
]

GRAPH = "graph"
PARAMETRIC = "parametric"

_SPEED_FLOOR = 1e-10


class ImmersionError(ValueError):
    """Raised when a curve has a numerically degenerate tangent."""


def _integer(value, what: str) -> int:
    """value as an int, or ValueError: int() would truncate 32.7 to 32,
    and a bool is no count."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _validate_m(m: int) -> int:
    m = _integer(m, "node count")
    if m < 32 or (m & (m - 1)) != 0:
        raise ValueError(f"node count must be a power of two >= 32, got {m}")
    return m


@functools.cache
def _node_bytes(m: int) -> bytes:
    return spectral.nodes(m).tobytes()  # a third of np.array_equal's time


@dataclass(frozen=True)
class DiscreteCurve:
    """Closed curve at nodes u_j = 2 pi j / M.

    mode "graph" fixes r_j = u_j bit for bit and winds (1, 0), so the
    curve is the graph x = f(r) wound once around the circle factor.
    Mode "parametric" leaves every coordinate free; winding entries record
    how many times each lifted coordinate gains 2 pi per loop.
    """

    mode: str
    coords: np.ndarray
    winding: tuple

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "winding",
                           tuple(_integer(w, "winding") for w in self.winding))
        if self.mode not in (GRAPH, PARAMETRIC):
            raise ValueError(f"unknown curve mode {self.mode!r}")
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coords must have shape (M, 2)")
        m = _validate_m(coords.shape[0])
        if len(self.winding) != 2:
            raise ValueError("winding must have one entry per coordinate")
        if self.mode == GRAPH and self.winding != (1, 0):
            raise ValueError("graph mode winds (1, 0): once in r, never in x")
        if self.mode == GRAPH and coords[:, 0].tobytes() != _node_bytes(m):
            raise ValueError("a graph's r column must be the node grid")

    @property
    def m(self) -> int:
        return self.coords.shape[0]

    @property
    def moving(self) -> slice:
        """The columns a flow moves: x alone on a graph, r and x otherwise."""
        return slice(1, 2) if self.mode == GRAPH else slice(0, 2)

    def periodic_part(self) -> np.ndarray:
        u = spectral.nodes(self.m)
        return self.coords - u[:, None] * np.asarray(self.winding, dtype=float)


def make_graph_curve(field: FourierField, m: int,
                     x_winding: int = 0) -> DiscreteCurve:
    """Sample the graph x = f(r) at m uniform nodes.

    x_winding adds an integer multiple of r to x: the graph then winds
    x_winding times around the base while it winds once around the circle,
    and comes back as the "parametric" (DeTurck) curve through its nodes,
    which can follow the varying r-speed of its (1, x_winding) geodesic.
    """
    m = _validate_m(m)
    x_winding = _integer(x_winding, "x_winding")
    u = spectral.nodes(m)
    coords = np.empty((m, 2))
    coords[:, 0] = u
    coords[:, 1] = field(u) + x_winding * u
    return DiscreteCurve(PARAMETRIC if x_winding else GRAPH, coords,
                         (1, x_winding))


def flow_curve(manifold: WarpedProduct, field: FourierField, m: int,
               winding: int) -> DiscreteCurve:
    """The graph x = f(r) + winding r at m nodes, in the gauge a run
    flows it in.

    In a left product with a warp that varies, a graph's node speed
    psi(f)^2 + g f'^2 stays uneven until the curve is flat, and so does
    the stiffness left to the split; the DeTurck velocity slides the
    nodes toward constant speed, so the curve flows as the "parametric"
    curve through the same nodes. Right products keep the graph, whose
    r nodes stay on the grid of the cached circle_tables, and so does a
    constant left warp, where the DeTurck r velocity vanishes. A winding
    graph is the DeTurck curve in either family (make_graph_curve).
    """
    curve = make_graph_curve(field, m, winding)
    warp = manifold.warp
    if manifold.kind == LEFT and (np.any(warp.cos_coef[1:])
                                  or np.any(warp.sin_coef)):
        return DiscreteCurve(PARAMETRIC, curve.coords, curve.winding)
    return curve


@dataclass(eq=False, slots=True)
class CurveFields:
    """Per-node geometric data shared by the flow and the monitors.

    Attribute shapes (M nodes, 2 ambient dimensions):
      deriv            gamma' (M, 2)
      speed            v = |gamma'|_G (M,)
      tangent          T = gamma' / v (M, 2)
      velocity         the node velocity of the curve's gauge (M, 2):
                       (0, H^1 - H^0 x') on a graph, the DeTurck q/v^2 =
                       H + (v'/v^2) T otherwise, with q = gamma'' +
                       Gamma(gamma', gamma') the covariant acceleration
      curvature        H, normal to T (M, 2)
      curvature_norm   |A| = |H|_G (M,)
      theta            <T, d_r>_G (M,)
      theta_hat        theta / |d_r|_G, clipped to [-1, 1] (M,)
      length           float, the node sum of v 2 pi / M (the trapezoid
                       rule, spectrally accurate on periodic data)
      manifold         the WarpedProduct the fields were computed in

    The metric is diagonal, so the kernel never builds dense tensors; code
    that needs them asks manifold.frame(curve.coords).
    """

    deriv: np.ndarray
    speed: np.ndarray
    tangent: np.ndarray
    velocity: np.ndarray
    curvature: np.ndarray
    curvature_norm: np.ndarray
    theta: np.ndarray
    theta_hat: np.ndarray
    length: float
    manifold: WarpedProduct


def _pairs(c0, c1, m: int) -> np.ndarray:
    out = np.empty((m, 2))
    out[:, 0] = c0
    out[:, 1] = c1
    return out


def compute_fields(curve: DiscreteCurve, manifold: WarpedProduct) -> CurveFields:
    """One pass over the curve: tangent, curvature, angle, length.

    The metric is diagonal, G = diag(A, B), so every contraction is a
    product of node arrays. With the covariant acceleration
    q = gamma'' + Gamma(gamma', gamma'), the curvature vector is
    H = q/v^2 - gamma' v'/v^3, and the exact chain rule
    v v' = <gamma', q>_G makes it the part of q/v^2 normal to T, with a
    rounding-level tangential defect <H, T>_G. q/v^2 itself is the
    velocity of a parametric curve; a graph moves with H - H^0 gamma'.
    """
    m = curve.m
    x = curve.coords[:, 1]
    graph = curve.mode == GRAPH
    if graph:
        # r = u at every node, so r' = 1 and r'' = 0 exactly
        xp, xpp = spectral.diff12(x)
        rp, rpp = 1.0, 0.0
    else:
        d1, d2 = spectral.diff12(curve.periodic_part())
        rp = d1[:, 0] + curve.winding[0]
        xp = d1[:, 1] + curve.winding[1]
        rpp = d2[:, 0]
        xpp = d2[:, 1]
    xx = xp * xp
    g, dg = manifold.base_terms(x)
    # diagonal entries A, B and the contractions c = Gamma(gamma', gamma')
    if manifold.kind == LEFT:
        w2, wdw, dlog = manifold.warp_terms(x)
        a, b = w2, g
        c0 = 2.0 * rp * dlog * xp
        c1 = -(rp * rp) / g * wdw
        dr_norm = np.sqrt(w2)           # |d_r|_G = psi
    else:
        if graph:
            w2, wdw, dlog = manifold.circle_tables(m)
        else:
            w2, wdw, dlog = manifold.warp_terms(curve.coords[:, 0])
        a, b = 1.0, w2 * g
        c0 = -g * wdw * xx
        c1 = 2.0 * rp * dlog * xp
        dr_norm = 1.0
    if manifold.g11 is not None:
        c1 = c1 + (0.5 * dg / g) * xx
    v2 = a * (rp * rp) + b * xx
    v = np.sqrt(v2)
    if float(v.min()) <= _SPEED_FLOOR:
        raise ImmersionError("degenerate node: |gamma'| <= 1e-10")
    t0 = rp / v
    t1 = xp / v
    theta = a * t0                      # <T, d_r>_G
    k0 = (rpp + c0) / v2
    k1 = (xpp + c1) / v2
    tq = theta * k0 + b * t1 * k1       # <T, q/v^2>_G = v'/v^2
    h0 = k0 - tq * t0
    h1 = k1 - tq * t1
    return CurveFields(
        deriv=_pairs(rp, xp, m),
        speed=v,
        tangent=_pairs(t0, t1, m),
        velocity=(_pairs(0.0, h1 - h0 * xp, m) if graph
                  else _pairs(k0, k1, m)),
        curvature=_pairs(h0, h1, m),
        curvature_norm=np.sqrt(a * h0 * h0 + b * h1 * h1),
        theta=theta,
        theta_hat=np.minimum(np.maximum(theta / dr_norm, -1.0), 1.0),
        length=float(v.sum() * (TWO_PI / m)),
        manifold=manifold,
    )


def arc_derivative(values, speed: np.ndarray) -> np.ndarray:
    """Arclength derivative of node values, values'(u) / |gamma'(u)|, with
    speed = |gamma'| the CurveFields.speed of their curve."""
    return spectral.diff(values) / speed


def arc_laplacian(values, speed: np.ndarray) -> np.ndarray:
    """Curve Laplacian of node values: the arclength derivative applied
    twice."""
    return spectral.diff(arc_derivative(values, speed)) / speed


def _slide(f: CurveFields) -> np.ndarray:
    """rho = <W - H, gamma'> / <gamma', gamma'> in Euclidean dot products:
    material points slide at du/dt = -rho (wcsf.identities says why)."""
    return (((f.velocity - f.curvature) * f.deriv).sum(axis=1)
            / (f.deriv * f.deriv).sum(axis=1))


def _material_dt(t_prev: float, mid, t_next: float,
                 values_prev, values_mid, values_next):
    """d/dt along the normal flow at the nodes of the state mid, from node
    values at t_prev, mid.t and t_next, in either gauge: the centered
    difference minus rho d_u(value), rho the _slide of mid's fields."""
    node_dt = spectral.centered_dt(values_prev, values_mid, values_next,
                                   mid.t - t_prev, t_next - mid.t)
    du = spectral.diff(values_mid)
    rho = _slide(mid.fields).reshape((-1,) + (1,) * (du.ndim - 1))
    return node_dt - rho * du
