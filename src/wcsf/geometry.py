"""Warped product manifolds on the torus S^1 x S^1.

Two families over a circle factor with coordinate r and a base circle with
coordinate x and metric g(x) dx^2:

    left  family: G = psi(x)^2 dr^2 + g(x) dx^2     (circle length set by the base)
    right family: G = dr^2 + phi(r)^2 g(x) dx^2     (base scaled by a circle warp)

Index 0 is always r and index 1 is x. Both metrics are diagonal, and their
nonzero Christoffel symbols are

    left:  Gamma^0_{01} = (log psi)',  Gamma^1_{00} = -psi psi' / g,
    right: Gamma^1_{01} = (log phi)',  Gamma^0_{11} = -phi phi' g,
    both:  Gamma^1_{11} = g' / (2 g).

The test suite cross-checks every component against a finite-difference-of-
metric oracle, so these closed forms never go unverified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import FourierField

__all__ = [
    "LEFT",
    "RIGHT",
    "TWO_PI",
    "WarpPoint",
    "TangentVec",
    "WarpedProduct",
    "metric_at",
    "christoffel_at",
    "inner",
    "warp_gradient",
    "dr_identity_residual",
    "conformal_residual",
]

LEFT = "left"
RIGHT = "right"
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class WarpPoint:
    """A point of S^1 x S^1 with every angle stored reduced mod 2 pi."""

    r: float
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r) % TWO_PI)
        xs = self.x if isinstance(self.x, (tuple, list)) else (self.x,)
        object.__setattr__(self, "x", tuple(float(a) % TWO_PI for a in xs))

    @property
    def coords(self) -> np.ndarray:
        return np.array((self.r,) + self.x)


@dataclass(frozen=True)
class TangentVec:
    """Coordinate components (v^0, v^1) in the frame (d_r, d_x)."""

    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if c.ndim != 1:
            raise ValueError("components must be a flat vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("tangent vector components must be finite")
        object.__setattr__(self, "components", c)


def _components(v) -> np.ndarray:
    if isinstance(v, TangentVec):
        return v.components
    return np.asarray(v, dtype=float)


# points of the uniform grid on which warps and base metrics are checked
_GRID = 4096


def _positive(obj, floor: float, message: str) -> FourierField:
    # obj as a field, ValueError(message) unless its samples on the grid
    # are finite and above floor; a NaN sample fails "not (... and ...)"
    if isinstance(obj, (int, float)):
        obj = FourierField.constant(obj)
    if not isinstance(obj, FourierField):
        raise ValueError("expected a one dimensional Fourier field or a number")
    vals = obj.grid_values(_GRID)
    if not (np.isfinite(vals).all() and vals.min() > floor):
        raise ValueError(message)
    return obj


def checked_g11(g11) -> FourierField:
    """The base metric entry as a field, finite and above 1e-10 on a grid."""
    return _positive(g11, 1e-10, "base metric is not positive definite")


class WarpedProduct:
    """Immutable warped product S^1 x S^1 with a validated positive warp.

    kind: "left" (warp psi(x) lives on the base) or "right" (warp phi(r) on
    the circle factor). warp and the base metric entry g11 = g(x): each a
    FourierField or a number; g11 None is the flat base g = 1.
    """

    def __init__(self, kind: str, warp=1.0, g11=None):
        kind = str(kind).lower()
        if kind not in (LEFT, RIGHT):
            raise ValueError(f"kind must be '{LEFT}' or '{RIGHT}', got {kind!r}")
        self.kind = kind
        self.warp = warp = _positive(warp, 0.0, "warp not positive")
        self.g11 = None if g11 is None else checked_g11(g11)
        self._dwarp = warp.derivative()
        self._ddwarp = self._dwarp.derivative()
        self._circle_cache: dict[int, tuple] = {}

    def base_terms(self, x):
        """(g, g') at base angles x; the plain numbers (1.0, 0.0) when the
        base is flat."""
        if self.g11 is None:
            return 1.0, 0.0
        return self.g11.values_with_derivative(x)

    def warp_terms(self, s: np.ndarray) -> tuple:
        """(w^2, w w', (log w)') for the warp w at its own angles s: base
        angles x for a left product, circle angles r for a right one."""
        w, dw = self.warp.values_with_derivative(s)
        return w * w, w * dw, dw / w

    def circle_tables(self, m: int) -> tuple:
        """Right warp_terms at the m uniform circle nodes, cached: in graph
        parametrization the r samples never move, so the table is computed
        once per grid."""
        if self.kind != RIGHT:
            raise ValueError("circle_tables applies to right warped products")
        tab = self._circle_cache.get(m)
        if tab is None:
            tab = self.warp_terms(TWO_PI * np.arange(m) / m)
            for arr in tab:
                arr.setflags(write=False)
            self._circle_cache[m] = tab
        return tab

    # -- batched evaluation ------------------------------------------------

    def log_warp_derivs(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Right warp data ((log phi)', (log phi)'') at circle angles r."""
        if self.kind != RIGHT:
            raise ValueError("log_warp_derivs applies to right warped products")
        phi = self.warp(r)
        d1 = self._dwarp(r) / phi
        d2 = self._ddwarp(r) / phi - d1 * d1
        return d1, d2

    def dlog_warp(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left warp gradient D(log psi) at base angles x.

        Returns (raised, norm_sq): its x component (log psi)' / g (the r
        component is zero), and the squared base norm |D log psi|_g^2.
        """
        if self.kind != LEFT:
            raise ValueError("dlog_warp applies to left warped products")
        dlog = self.warp_terms(x)[2]
        g, _ = self.base_terms(x)
        raised = dlog / g
        return raised, raised * dlog

    def frame(self, pts: np.ndarray) -> tuple:
        """Dense metric (N, 2, 2) and Christoffel symbols (N, 2, 2, 2),
        gamma[n, a, b, c] = Gamma^a_{bc}, at points of shape (N, 2)."""
        pts = np.asarray(pts, dtype=float)
        n = pts.shape[0]
        x = pts[:, 1]
        g, dg = self.base_terms(x)
        metric = np.zeros((n, 2, 2))
        gamma = np.zeros((n, 2, 2, 2))
        if self.kind == LEFT:
            w2, wdw, dlog = self.warp_terms(x)
            metric[:, 0, 0] = w2
            metric[:, 1, 1] = g
            gamma[:, 0, 0, 1] = gamma[:, 0, 1, 0] = dlog
            gamma[:, 1, 0, 0] = -wdw / g
        else:
            w2, wdw, dlog = self.warp_terms(pts[:, 0])
            metric[:, 0, 0] = 1.0
            metric[:, 1, 1] = w2 * g
            gamma[:, 1, 0, 1] = gamma[:, 1, 1, 0] = dlog
            gamma[:, 0, 1, 1] = -wdw * g
        gamma[:, 1, 1, 1] = 0.5 * dg / g
        return metric, gamma

    def __repr__(self) -> str:
        return f"WarpedProduct(kind={self.kind!r})"


# -- point operations ------------------------------------------------------


def _point_frame(manifold: WarpedProduct, p: WarpPoint) -> tuple:
    metric, gamma = manifold.frame(p.coords[None, :])
    return metric[0], gamma[0]


def metric_at(manifold: WarpedProduct, p: WarpPoint) -> np.ndarray:
    """Metric matrix G_ab at p, shape (2, 2)."""
    return _point_frame(manifold, p)[0]


def christoffel_at(manifold: WarpedProduct, p: WarpPoint) -> np.ndarray:
    """Christoffel symbols gamma[a, b, c] = Gamma^a_{bc} at p, shape
    (2, 2, 2)."""
    return _point_frame(manifold, p)[1]


def inner(manifold: WarpedProduct, p: WarpPoint, u, v) -> float:
    """Metric pairing <u, v>_G at p."""
    return float(_components(u) @ metric_at(manifold, p) @ _components(v))


def warp_gradient(manifold: WarpedProduct, p: WarpPoint):
    """Left: the tangent vector D(log psi), which has zero r-component.
    Right: the scalar pair ((log phi)'(r), (log phi)''(r))."""
    if manifold.kind == LEFT:
        raised, _ = manifold.dlog_warp(np.array(p.x))
        return TangentVec((0.0, raised[0]))
    d1, d2 = manifold.log_warp_derivs(np.array([p.r]))
    return float(d1[0]), float(d2[0])


def dr_identity_residual(manifold: WarpedProduct, p: WarpPoint, X, Y) -> float:
    """Defect of the structural identity for nabla_X d_r.

    Left:  <Y, nabla_X d_r> = <X, D log psi><Y, d_r> - <X, d_r><Y, D log psi>
    Right: <Y, nabla_X d_r> = (log phi)'(r) (<X, Y> - <X, d_r><Y, d_r>)
    """
    x = _components(X)
    y = _components(Y)
    g, gamma = _point_frame(manifold, p)
    nabla = gamma[:, :, 0] @ x  # components of nabla_X d_r
    lhs = float(y @ g @ nabla)
    e0 = np.array([1.0, 0.0])
    if manifold.kind == LEFT:
        dlog = np.array([0.0, manifold.dlog_warp(np.array(p.x))[0][0]])
        rhs = float((x @ g @ dlog) * (y @ g @ e0) - (x @ g @ e0) * (y @ g @ dlog))
    else:
        d1, _ = manifold.log_warp_derivs(np.array([p.r]))
        rhs = float(d1[0]) * float(x @ g @ y - (x @ g @ e0) * (y @ g @ e0))
    return abs(lhs - rhs)


def conformal_residual(manifold: WarpedProduct, p: WarpPoint, X) -> float:
    """Defect of nabla_X (phi d_r) = phi'(r) X, component-wise maximum.

    Only right warped products carry this conformal field; left manifolds
    are rejected.
    """
    if manifold.kind != RIGHT:
        raise ValueError("conformal_residual requires a right warped product")
    x = _components(X)
    gamma = christoffel_at(manifold, p)
    r = np.array([p.r])
    phi = float(manifold.warp(r)[0])
    dphi = float(manifold._dwarp(r)[0])
    # nabla_X (phi d_r) = X(phi) d_r + phi Gamma(X, d_r)
    nabla = phi * (gamma[:, :, 0] @ x)
    nabla[0] += x[0] * dphi
    return float(np.max(np.abs(nabla - dphi * x)))
