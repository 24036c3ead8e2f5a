"""Spectral operators on uniform periodic grids."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

_NODES: dict[int, np.ndarray] = {}
_NODE_MEAN: dict[int, float] = {}
_WAVENUMBERS: dict[int, np.ndarray] = {}
_MULT: dict[tuple[int, int], np.ndarray] = {}


def nodes(m: int) -> np.ndarray:
    """Parameter nodes u_j = 2 pi j / m (cached, treat as read-only)."""
    u = _NODES.get(m)
    if u is None:
        u = TWO_PI * np.arange(m) / m
        u.setflags(write=False)
        _NODES[m] = u
    return u


def node_mean(m: int) -> float:
    """Mean of the parameter nodes (cached)."""
    mean = _NODE_MEAN.get(m)
    if mean is None:
        mean = float(nodes(m).mean())
        _NODE_MEAN[m] = mean
    return mean


def wavenumbers(m: int) -> np.ndarray:
    """Integer wavenumbers 0..m/2 of the rfft bins, as floats (cached,
    treat as read-only)."""
    k = _WAVENUMBERS.get(m)
    if k is None:
        k = np.fft.rfftfreq(m, d=1.0 / m)
        k.setflags(write=False)
        _WAVENUMBERS[m] = k
    return k


def _multiplier(m: int, order: int) -> np.ndarray:
    key = (m, order)
    mult = _MULT.get(key)
    if mult is None:
        k = wavenumbers(m)
        if order == 1:
            mult = 1j * k
            if m % 2 == 0:
                # odd derivative of the unresolved Nyquist mode is dropped
                mult[-1] = 0.0
        elif order == 2:
            mult = -(k * k) + 0.0j
        else:
            raise ValueError("derivative order must be 1 or 2")
        mult.setflags(write=False)
        _MULT[key] = mult
    return mult


def _shape(mult: np.ndarray, ndim: int) -> np.ndarray:
    if ndim > 1:
        return mult.reshape((-1,) + (1,) * (ndim - 1))
    return mult


def diff(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Differentiate periodic samples along axis 0 (spectral accuracy)."""
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    spec = np.fft.rfft(values, axis=0)
    spec = spec * _shape(_multiplier(m, order), values.ndim)
    return np.fft.irfft(spec, n=m, axis=0)


def diff12(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivative in one pass.

    One forward FFT with a batched inverse; both orders use the same
    multipliers as diff, so the pair agrees with separate calls.
    """
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    flat = values.reshape(m, -1)
    cols = flat.shape[1]
    spec = np.fft.rfft(flat, axis=0)
    packed = np.empty((spec.shape[0], 2 * cols), dtype=complex)
    np.multiply(spec, _multiplier(m, 1)[:, None], out=packed[:, :cols])
    np.multiply(spec, _multiplier(m, 2)[:, None], out=packed[:, cols:])
    both = np.fft.irfft(packed, n=m, axis=0)
    d1 = both[:, :cols].reshape(values.shape)
    d2 = both[:, cols:].reshape(values.shape)
    return d1, d2


def resample_periodic(values: np.ndarray, m_new: int) -> np.ndarray:
    """Trigonometric interpolation onto m_new uniform nodes (axis 0).

    Exact for data bandlimited below the coarser grid's Nyquist mode. The
    coarser grid's Nyquist bin is unpaired: up-sampling splits it evenly
    between the new +/- pair, down-sampling folds the pair into it.
    """
    values = np.asarray(values, dtype=float)
    m, m_new = values.shape[0], int(m_new)
    keep = min(m, m_new)
    spec = np.fft.rfft(values, axis=0)[: keep // 2 + 1]
    if m_new != m and keep % 2 == 0:
        spec[keep // 2] *= 2.0 if m_new < m else 0.5
    return np.fft.irfft(spec * (m_new / m), n=m_new, axis=0)


def centered_dt(y_prev, y_mid, y_next, h_minus: float, h_plus: float):
    """Second-order derivative at the middle of three samples with unequal
    spacings h_minus = t_mid - t_prev and h_plus = t_next - t_mid."""
    if h_minus <= 0.0 or h_plus <= 0.0:
        raise ValueError("time spacings must be positive")
    a = -h_plus / (h_minus * (h_minus + h_plus))
    b = (h_plus - h_minus) / (h_minus * h_plus)
    c = h_minus / (h_plus * (h_minus + h_plus))
    return a * np.asarray(y_prev) + b * np.asarray(y_mid) + c * np.asarray(y_next)
