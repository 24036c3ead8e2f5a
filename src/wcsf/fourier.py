"""Truncated real Fourier series fields.

Warp functions, base metric entries, and initial graphs are all finite
trigonometric series, so every background derivative the geometry needs is
exact term by term. Discretization error then enters only through the curve
operators, never through the background data. Series are summed as
elementwise products with .sum, not matrix products, so no BLAS kernel
reaches the values.
"""

from __future__ import annotations

import numpy as np

from .spectral import TWO_PI

__all__ = ["FourierField", "grid_max"]

# the one uniform sampling grid: warps and base metrics are checked on it
# and the bound constants maximized over it, all through grid_max
_GRID = 4096
_SAMPLES = np.linspace(0.0, TWO_PI, _GRID, endpoint=False)
_SAMPLES.setflags(write=False)
# sampling points per block of grid_max: a manifold's checks and the
# constants built after a run keep their temporaries under a run's peak
_BLOCK = 128
# exp_cos drops the coefficients after the first one below this
_EXP_COS_TOL = 1e-16


def _bessel_i(a: float, k_max: int) -> np.ndarray:
    """Modified Bessel functions I_0(a) .. I_kmax(a) from the power series
    I_k(a) = sum_j (a/2)^(2j+k) / (j! (j+k)!). For each k every term has
    the sign of a^k, so the sum has no cancellation."""
    half = 0.5 * a
    k = np.arange(k_max + 1)
    # (a/2)^k / k! by a running product, so nothing overflows before the
    # factorial catches up
    term = np.cumprod(np.concatenate(([1.0], half / k[1:])))
    total = term.copy()
    j = 0
    while np.any(np.abs(term) > 1e-17 * np.abs(total)):
        j += 1
        term = term * (half * half) / (j * (j + k))
        total += term
    return total


class FourierField:
    """f(x) = sum_k cos_coef[k] cos(k x) + sin_coef[k] sin(k x) on S^1."""

    def __init__(self, cos_coef, sin_coef=None):
        cos_coef = np.atleast_1d(np.asarray(cos_coef, dtype=float))
        if sin_coef is None:
            sin_coef = np.zeros_like(cos_coef)
        sin_coef = np.atleast_1d(np.asarray(sin_coef, dtype=float))
        if cos_coef.ndim != 1 or sin_coef.ndim != 1:
            raise ValueError("coefficient arrays must be one dimensional")
        n = max(cos_coef.size, sin_coef.size, 1)
        self.cos_coef = np.zeros(n)
        self.cos_coef[: cos_coef.size] = cos_coef
        self.sin_coef = np.zeros(n)
        self.sin_coef[: sin_coef.size] = sin_coef
        self.sin_coef[0] = 0.0  # sin(0 x) carries nothing
        self._k = np.arange(n, dtype=float)
        self._has_sin = bool(np.any(self.sin_coef))
        self._deriv = None

    @classmethod
    def constant(cls, value: float) -> "FourierField":
        return cls([float(value)])

    @classmethod
    def exp_cos(cls, a: float) -> "FourierField":
        """Expansion of exp(a cos x) through modified Bessel functions:
        exp(a cos x) = I_0(a) + 2 sum_{k>=1} I_k(a) cos(k x), truncated once
        the next coefficient falls below 1e-16 (at most 129 terms).
        ValueError if a coefficient overflows (a = 800 does)."""
        a = float(a)
        with np.errstate(over="ignore", invalid="ignore"):
            bessel = _bessel_i(a, 129)
        k = 1
        while 2.0 * abs(bessel[k + 1]) >= _EXP_COS_TOL and k < 128:
            k += 1
        coef = 2.0 * bessel[: k + 1]
        coef[0] = bessel[0]
        if not np.isfinite(coef).all():
            raise ValueError(f"exp_cos({a}) has non-finite coefficients")
        return cls(coef)

    def __call__(self, x):
        return self._sums(x, derivative=False)[0]

    def values_with_derivative(self, x):
        """(f(x), f'(x)) sharing one trigonometric table."""
        if self._k.size == 1:
            x = np.asarray(x, dtype=float)
            return (np.full(x.shape, self.cos_coef[0]),
                    np.zeros(x.shape))
        return self._sums(x, derivative=True)

    def _sums(self, x, derivative: bool) -> tuple:
        """(f(x), f'(x) or None) from one (points, K) trigonometric table:
        each point keeps its own K-term sum. A 0-d x gives numpy
        scalars."""
        x = np.asarray(x, dtype=float)
        kx = x[..., None] * self._k
        c = np.cos(kx)
        dval = None
        d = self.derivative() if derivative else None
        if not self._has_sin:
            # pure cosine series: the value needs only the cosine table
            # and the derivative only the sine table
            if derivative:
                dval = (np.sin(kx) * d.sin_coef).sum(axis=-1)
            return (c * self.cos_coef).sum(axis=-1), dval
        s = np.sin(kx)
        if derivative:
            dval = (c * d.cos_coef + s * d.sin_coef).sum(axis=-1)
        return (c * self.cos_coef + s * self.sin_coef).sum(axis=-1), dval

    def derivative(self) -> "FourierField":
        """Exact term-wise derivative, cached."""
        if self._deriv is None:
            self._deriv = FourierField(self._k * self.sin_coef,
                                       -self._k * self.cos_coef)
        return self._deriv

    def __repr__(self) -> str:
        return f"FourierField(degree={self._k.size - 1})"


def grid_max(values) -> float:
    """The largest of values(x) over the _GRID-point sampling grid, taken
    block by block; each block's maximum is exact, and so is theirs. A
    NaN anywhere makes it NaN."""
    return float(np.max([values(_SAMPLES[lo:lo + _BLOCK]).max()
                         for lo in range(0, _GRID, _BLOCK)]))
