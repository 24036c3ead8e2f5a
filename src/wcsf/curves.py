"""Discrete closed curves in a warped product and their geometric operators.

Curves are sampled at uniform parameter nodes u_j = 2 pi j / M and stored
through lifted (unreduced) coordinates, so spectral differentiation always
sees smooth periodic data: coords[:, c] = winding[c] * u + periodic part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .fourier import FourierField
from .geometry import LEFT, TWO_PI, WarpedProduct

__all__ = [
    "GRAPH",
    "PARAMETRIC",
    "ImmersionError",
    "DiscreteCurve",
    "CurveFields",
    "make_graph_curve",
    "compute_fields",
    "unit_tangent",
    "mean_curvature",
    "angle_function",
    "length",
    "arc_derivative",
    "arc_laplacian",
    "graphicality",
    "resample",
]

GRAPH = "graph"
PARAMETRIC = "parametric"

_SPEED_FLOOR = 1e-10


class ImmersionError(ValueError):
    """Raised when a curve has a numerically degenerate tangent."""


def _validate_m(m: int) -> int:
    m = int(m)
    if m < 32 or (m & (m - 1)) != 0:
        raise ValueError(f"node count must be a power of two >= 32, got {m}")
    return m


@dataclass(frozen=True)
class DiscreteCurve:
    """Closed curve at nodes u_j = 2 pi j / M.

    mode "graph" fixes r_j = u_j exactly (winding starts with 1), so the
    curve is the graph x = f(r) wound once around the circle factor. Mode
    "parametric" leaves every coordinate free; winding entries record how
    many times each lifted coordinate gains 2 pi per loop.
    """

    mode: str
    coords: np.ndarray
    winding: tuple

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "winding", tuple(int(w) for w in self.winding))
        if self.mode not in (GRAPH, PARAMETRIC):
            raise ValueError(f"unknown curve mode {self.mode!r}")
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coords must have shape (M, 2)")
        _validate_m(coords.shape[0])
        if len(self.winding) != 2:
            raise ValueError("winding must have one entry per coordinate")
        if self.mode == GRAPH and self.winding[0] != 1:
            raise ValueError("graph mode winds exactly once in r")

    @property
    def m(self) -> int:
        return self.coords.shape[0]

    def periodic_part(self) -> np.ndarray:
        u = spectral.nodes(self.m)
        return self.coords - u[:, None] * np.asarray(self.winding, dtype=float)


def make_graph_curve(field: FourierField, m: int, x_winding: int = 0,
                     allow_x_winding: bool = False) -> DiscreteCurve:
    """Sample the graph x = f(r) at m uniform nodes.

    x_winding adds an integer multiple of r to x; such winding graphs are
    rejected unless explicitly allowed, because they break the plain
    torus-graph reading of the samples.
    """
    m = _validate_m(m)
    x_winding = int(x_winding)
    if x_winding and not allow_x_winding:
        raise ValueError("winding graph coordinates are disabled; "
                         "pass allow_x_winding=True to build ramps")
    u = spectral.nodes(m)
    coords = np.empty((m, 2))
    coords[:, 0] = u
    coords[:, 1] = field(u) + x_winding * u
    return DiscreteCurve(GRAPH, coords, (1, x_winding))


@dataclass(eq=False, slots=True)
class CurveFields:
    """Per-node geometric data shared by the flow and the monitors.

    Attribute shapes (M nodes, 2 ambient dimensions):
      deriv            gamma' (M, 2)
      speed            v = |gamma'|_G (M,)
      tangent          T = gamma' / v (M, 2)
      accel            q/v^2 = H + (v'/v^2) T, with q = gamma'' +
                       Gamma(gamma', gamma') the covariant acceleration (M, 2)
      curvature        H, normal to T (M, 2)
      curvature_norm   |A| = |H|_G (M,)
      theta            <T, d_r>_G (M,)
      theta_hat        theta / |d_r|_G, clipped to [-1, 1] (M,)
      length           float
      pre_tangential   <H, T>_G, analytically zero (M,)
      manifold         the WarpedProduct the fields were computed in

    The metric is diagonal, so the kernel never builds dense tensors; code
    that needs them asks manifold.frame(curve.coords).
    """

    deriv: np.ndarray
    speed: np.ndarray
    tangent: np.ndarray
    accel: np.ndarray
    curvature: np.ndarray
    curvature_norm: np.ndarray
    theta: np.ndarray
    theta_hat: np.ndarray
    length: float
    pre_tangential: np.ndarray
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
    v v' = <gamma', q>_G makes it the part of q/v^2 normal to T; q/v^2
    itself is kept as accel, the parametric flow's velocity. Its
    tangential defect <H, T>_G is therefore rounding-level; it is kept as
    pre_tangential so tests can assert that.
    """
    m = curve.m
    x = curve.coords[:, 1]
    if curve.mode == GRAPH:
        # r = u at every node, so r' = 1 and r'' = 0 exactly
        wx = curve.winding[1]
        xp, xpp = spectral.diff12(x - wx * spectral.nodes(m) if wx else x)
        if wx:
            xp = xp + wx
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
        if curve.mode == GRAPH:
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
    bt1 = b * t1
    k0 = (rpp + c0) / v2
    k1 = (xpp + c1) / v2
    tq = theta * k0 + bt1 * k1          # <T, q/v^2>_G = v'/v^2
    h0 = k0 - tq * t0
    h1 = k1 - tq * t1
    return CurveFields(
        deriv=_pairs(rp, xp, m),
        speed=v,
        tangent=_pairs(t0, t1, m),
        accel=_pairs(k0, k1, m),
        curvature=_pairs(h0, h1, m),
        curvature_norm=np.sqrt(a * h0 * h0 + b * h1 * h1),
        theta=theta,
        theta_hat=np.minimum(np.maximum(theta / dr_norm, -1.0), 1.0),
        length=float(v.sum() * (TWO_PI / m)),
        pre_tangential=theta * h0 + bt1 * h1,
        manifold=manifold,
    )


def unit_tangent(curve: DiscreteCurve, manifold: WarpedProduct) -> np.ndarray:
    """T_j = gamma'_j / |gamma'_j|_G, unit within 1e-12."""
    return compute_fields(curve, manifold).tangent


def mean_curvature(curve: DiscreteCurve, manifold: WarpedProduct):
    """Curvature vector H (normal to T) and |A| = |H|_G."""
    f = compute_fields(curve, manifold)
    return f.curvature, f.curvature_norm


def angle_function(curve: DiscreteCurve, manifold: WarpedProduct):
    """The angle Theta = <T, d_r>_G and its normalized variant
    Theta_hat = Theta / |d_r|_G in [-1, 1]."""
    f = compute_fields(curve, manifold)
    return f.theta, f.theta_hat


def length(curve: DiscreteCurve, manifold: WarpedProduct) -> float:
    """Trapezoidal length sum |gamma'_j|_G 2 pi / M (for periodic data the
    trapezoid rule is the plain node sum); spectrally accurate."""
    return compute_fields(curve, manifold).length


def arc_derivative(values, speed: np.ndarray) -> np.ndarray:
    """Arclength derivative of node values, values'(u) / |gamma'(u)|, with
    speed = |gamma'| the CurveFields.speed of their curve."""
    return spectral.diff(values, 1) / speed


def arc_laplacian(values, speed: np.ndarray) -> np.ndarray:
    """Curve Laplacian of node values: the arclength derivative applied
    twice."""
    return spectral.diff(arc_derivative(values, speed), 1) / speed


def graphicality(curve: DiscreteCurve, manifold: WarpedProduct):
    """(min Theta_hat, certified) where certified requires min Theta_hat > 0
    and a strictly monotone r-lift."""
    f = compute_fields(curve, manifold)
    min_that = float(f.theta_hat.min())
    r = curve.coords[:, 0]
    closure = r[0] + TWO_PI * curve.winding[0]
    increasing = bool(np.all(np.diff(np.append(r, closure)) > 0.0))
    return min_that, bool(min_that > 0.0 and increasing)


def resample(curve: DiscreteCurve, m_new: int) -> DiscreteCurve:
    """Trigonometric interpolation of a graph curve onto m_new nodes."""
    if curve.mode != GRAPH:
        raise ValueError("resample supports graph mode only")
    m_new = _validate_m(m_new)
    p_new = spectral.resample_periodic(curve.periodic_part(), m_new)
    u_new = spectral.nodes(m_new)
    coords = p_new + u_new[:, None] * np.asarray(curve.winding, dtype=float)
    return DiscreteCurve(GRAPH, coords, curve.winding)
