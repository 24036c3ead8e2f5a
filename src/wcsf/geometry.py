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
    "MetricTensor",
    "ChristoffelTensor",
    "BaseMetric",
    "FrameData",
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


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric positive definite matrix G with its inverse."""

    matrix: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True)
class ChristoffelTensor:
    """gamma[a, b, c] = Gamma^a_{bc}, symmetric in (b, c)."""

    gamma: np.ndarray


@dataclass(frozen=True)
class FrameData:
    """Dense metric data along a set of points, for the monitors and the
    point operations; the flow's kernel works on the diagonal entries."""

    metric: np.ndarray            # (N, 2, 2)
    gamma: np.ndarray             # (N, 2, 2, 2)
    inverse: np.ndarray | None    # (N, 2, 2) when requested


def _as_field(obj) -> FourierField:
    if isinstance(obj, (int, float)):
        return FourierField.constant(obj)
    if isinstance(obj, FourierField):
        return obj
    raise ValueError("expected a one dimensional Fourier field or a number")


class BaseMetric:
    """Metric g(x) dx^2 on the base circle with a truncated-Fourier g.

    Flat (g = 1) by default. The entry is given as {(0, 0): field or
    number}, the only slot of a one dimensional base; positivity is checked
    on a sampling grid at construction time.
    """

    def __init__(self, dim: int = 1, entries: dict | None = None, grid: int = 4096):
        if dim != 1:
            raise ValueError("base dimension must be 1")
        entries = dict(entries or {})
        for key in entries:
            if key != (0, 0):
                raise ValueError(f"base metric index {key} out of range")
        self.is_flat = not entries
        self.g11 = _as_field(entries.get((0, 0), 1.0))
        if not self.is_flat and self.g11.min_on_grid(grid) <= 1e-10:
            raise ValueError("base metric is not positive definite")

    def values_with_derivative(self, x):
        """(g, g') at base angles x; the plain numbers (1.0, 0.0) when flat."""
        if self.is_flat:
            return 1.0, 0.0
        return self.g11.values_with_derivative(x)


class WarpedProduct:
    """Immutable warped product S^1 x S^1 with a validated positive warp.

    kind: "left" (warp psi(x) lives on the base) or "right" (warp phi(r) on
    the circle factor). warp: a FourierField or a number.
    """

    base_dim = 1
    dim = 2

    def __init__(self, kind: str, warp=1.0,
                 base_metric: BaseMetric | None = None, grid: int = 4096):
        kind = str(kind).lower()
        if kind not in (LEFT, RIGHT):
            raise ValueError(f"kind must be '{LEFT}' or '{RIGHT}', got {kind!r}")
        warp = _as_field(warp)
        if warp.min_on_grid(grid) <= 0.0:
            raise ValueError("warp not positive")
        self.kind = kind
        self.warp = warp
        self.base_metric = base_metric if base_metric is not None else BaseMetric()
        self._dwarp = warp.derivative()
        self._ddwarp = self._dwarp.derivative()
        self._circle_cache: dict[int, tuple] = {}

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

    def dlog_warp(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left warp gradient D(log psi) at points (N, 2).

        Returns (vectors, norm_sq): raised-index tangent components with a
        zero r slot, and the squared base norm |D log psi|_g^2.
        """
        if self.kind != LEFT:
            raise ValueError("dlog_warp applies to left warped products")
        x = pts[:, 1]
        dlog = self.warp_terms(x)[2]
        g, _ = self.base_metric.values_with_derivative(x)
        raised = dlog / g
        vecs = np.zeros((pts.shape[0], 2))
        vecs[:, 1] = raised
        return vecs, raised * dlog

    def frame(self, pts: np.ndarray, with_inverse: bool = False) -> FrameData:
        """Dense metric and Christoffel data at points of shape (N, 2)."""
        pts = np.asarray(pts, dtype=float)
        n = pts.shape[0]
        x = pts[:, 1]
        g, dg = self.base_metric.values_with_derivative(x)
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
        inverse = None
        if with_inverse:
            inverse = np.zeros((n, 2, 2))
            inverse[:, 0, 0] = 1.0 / metric[:, 0, 0]
            inverse[:, 1, 1] = 1.0 / metric[:, 1, 1]
        return FrameData(metric, gamma, inverse)

    def __repr__(self) -> str:
        return f"WarpedProduct(kind={self.kind!r})"


# -- point operations ------------------------------------------------------


def _point_frame(manifold: WarpedProduct, p: WarpPoint, with_inverse: bool = False) -> FrameData:
    return manifold.frame(p.coords[None, :], with_inverse=with_inverse)


def metric_at(manifold: WarpedProduct, p: WarpPoint) -> MetricTensor:
    """Metric matrix and inverse at p."""
    fr = _point_frame(manifold, p, with_inverse=True)
    return MetricTensor(fr.metric[0], fr.inverse[0])


def christoffel_at(manifold: WarpedProduct, p: WarpPoint) -> ChristoffelTensor:
    """Christoffel symbols Gamma^a_{bc} at p."""
    fr = _point_frame(manifold, p)
    return ChristoffelTensor(fr.gamma[0])


def inner(manifold: WarpedProduct, p: WarpPoint, u, v) -> float:
    """Metric pairing <u, v>_G at p."""
    g = _point_frame(manifold, p).metric[0]
    return float(_components(u) @ g @ _components(v))


def warp_gradient(manifold: WarpedProduct, p: WarpPoint):
    """Left: the tangent vector D(log psi), which has zero r-component.
    Right: the scalar pair ((log phi)'(r), (log phi)''(r))."""
    if manifold.kind == LEFT:
        vecs, _ = manifold.dlog_warp(p.coords[None, :])
        return TangentVec(vecs[0])
    d1, d2 = manifold.log_warp_derivs(np.array([p.r]))
    return float(d1[0]), float(d2[0])


def dr_identity_residual(manifold: WarpedProduct, p: WarpPoint, X, Y) -> float:
    """Defect of the structural identity for nabla_X d_r.

    Left:  <Y, nabla_X d_r> = <X, D log psi><Y, d_r> - <X, d_r><Y, D log psi>
    Right: <Y, nabla_X d_r> = (log phi)'(r) (<X, Y> - <X, d_r><Y, d_r>)
    """
    x = _components(X)
    y = _components(Y)
    fr = _point_frame(manifold, p)
    g = fr.metric[0]
    nabla = fr.gamma[0][:, :, 0] @ x  # components of nabla_X d_r
    lhs = float(y @ g @ nabla)
    e0 = np.zeros(manifold.dim)
    e0[0] = 1.0
    if manifold.kind == LEFT:
        dlog = manifold.dlog_warp(p.coords[None, :])[0][0]
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
    fr = _point_frame(manifold, p)
    r = np.array([p.r])
    phi = float(manifold.warp(r)[0])
    dphi = float(manifold._dwarp(r)[0])
    # nabla_X (phi d_r) = X(phi) d_r + phi Gamma(X, d_r)
    nabla = phi * (fr.gamma[0][:, :, 0] @ x)
    nabla[0] += x[0] * dphi
    return float(np.max(np.abs(nabla - dphi * x)))
