"""Spectral operators on uniform periodic grids."""

from __future__ import annotations

import functools

import numpy as np

TWO_PI = 2.0 * np.pi


def mod_two_pi(angles):
    """angles reduced into [0, 2 pi). np.mod alone returns 2 pi itself for
    an angle a few ulps below 0, whose remainder rounds up to it."""
    reduced = np.mod(angles, TWO_PI)
    return np.where(reduced == TWO_PI, 0.0, reduced)


@functools.cache
def nodes(m: int) -> np.ndarray:
    """Parameter nodes u_j = 2 pi j / m (cached, read-only)."""
    u = TWO_PI * np.arange(m) / m
    u.setflags(write=False)
    return u


@functools.cache
def wavenumbers(m: int) -> np.ndarray:
    """Integer wavenumbers 0..m/2 of the rfft bins, as floats (cached,
    read-only)."""
    k = np.fft.rfftfreq(m, d=1.0 / m)
    k.setflags(write=False)
    return k


@functools.cache
def _multipliers(m: int) -> tuple:
    """The rfft multipliers (i k, -k^2) of the first and second
    derivative (cached, read-only)."""
    k = wavenumbers(m)
    first = 1j * k
    if m % 2 == 0:
        # odd derivative of the unresolved Nyquist mode is dropped
        first[-1] = 0.0
    second = -(k * k) + 0.0j
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


def diff(values: np.ndarray) -> np.ndarray:
    """First derivative of periodic samples along axis 0 (spectral)."""
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    spec = np.fft.rfft(values, axis=0)
    spec = spec * _multipliers(m)[0].reshape(
        (-1,) + (1,) * (values.ndim - 1))
    return np.fft.irfft(spec, n=m, axis=0)


def diff12(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivative in one pass.

    One forward FFT with a batched inverse; the first derivative uses the
    multiplier of diff, so it equals diff(values) bit for bit.
    """
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    flat = values.reshape(m, -1)
    cols = flat.shape[1]
    spec = np.fft.rfft(flat, axis=0)
    first, second = _multipliers(m)
    packed = np.empty((spec.shape[0], 2 * cols), dtype=complex)
    np.multiply(spec, first[:, None], out=packed[:, :cols])
    np.multiply(spec, second[:, None], out=packed[:, cols:])
    both = np.fft.irfft(packed, n=m, axis=0)
    d1 = both[:, :cols].reshape(values.shape)
    d2 = both[:, cols:].reshape(values.shape)
    return d1, d2


def centered_dt(y_prev, y_mid, y_next, h_minus: float, h_plus: float):
    """Second-order derivative at the middle of three samples with unequal
    spacings h_minus = t_mid - t_prev and h_plus = t_next - t_mid."""
    if h_minus <= 0.0 or h_plus <= 0.0:
        raise ValueError("time spacings must be positive")
    a = -h_plus / (h_minus * (h_minus + h_plus))
    b = (h_plus - h_minus) / (h_minus * h_plus)
    c = h_minus / (h_plus * (h_minus + h_plus))
    return a * np.asarray(y_prev) + b * np.asarray(y_mid) + c * np.asarray(y_next)
