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

import numpy as np

from . import spectral
from .fourier import FourierField, grid_max

__all__ = [
    "LEFT",
    "RIGHT",
    "WarpedProduct",
]

LEFT = "left"
RIGHT = "right"


def _positive(obj, floor: float, message: str) -> FourierField:
    # obj as a field, ValueError(message) unless its samples on the grid
    # are finite and above floor
    if isinstance(obj, (int, float)):
        obj = FourierField.constant(obj)
    if not isinstance(obj, FourierField):
        raise ValueError("expected a one dimensional Fourier field or a number")

    def shortfall(x):
        # floor - f(x), inf where f(x) is not finite
        vals = obj(x)
        return np.where(np.isfinite(vals), floor - vals, np.inf)

    if not grid_max(shortfall) < 0.0:
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
        self._ddwarp = warp.derivative().derivative()
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
            tab = self.warp_terms(spectral.nodes(m))
            for arr in tab:
                arr.setflags(write=False)
            self._circle_cache[m] = tab
        return tab

    # -- batched evaluation ------------------------------------------------

    def log_warp_derivs(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Right warp data ((log phi)', (log phi)'') at circle angles r."""
        if self.kind != RIGHT:
            raise ValueError("log_warp_derivs applies to right warped products")
        phi, dphi = self.warp.values_with_derivative(r)
        d1 = dphi / phi
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

