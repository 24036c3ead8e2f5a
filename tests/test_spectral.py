import numpy as np
import pytest

from oracles import resample_periodic
from wcsf import spectral


def test_diff_exact_on_trig_polynomial():
    m = 64
    u = spectral.nodes(m)
    y = 1.5 + np.cos(3 * u) - 0.4 * np.sin(5 * u)
    d1 = -3 * np.sin(3 * u) - 2.0 * np.cos(5 * u)
    d2 = -9 * np.cos(3 * u) + 10.0 * np.sin(5 * u)
    assert np.abs(spectral.diff(y) - d1).max() < 1e-12
    assert np.abs(spectral.diff12(y)[1] - d2).max() < 5e-12


def test_diff12_consistent():
    rng = np.random.default_rng(21)
    y = rng.normal(size=128)
    d1, d2 = spectral.diff12(y)
    assert np.array_equal(d1, spectral.diff(y))
    k = spectral.wavenumbers(128)
    direct = np.fft.irfft(-(k * k) * np.fft.rfft(y), n=128)
    assert np.abs(d2 - direct).max() < 1e-12
    # diff's one-column transform gives diff12's first derivative bit for
    # bit, on every grid and on columns
    for m in (32, 64, 128, 256, 512):
        for shape in ((m,), (m, 2)):
            y = rng.normal(size=shape)
            assert np.array_equal(spectral.diff(y), spectral.diff12(y)[0])


def test_nyquist_mode_handling():
    m = 64
    u = spectral.nodes(m)
    y = np.cos((m // 2) * u)
    # first derivative of the unresolved sawtooth mode is zeroed
    assert np.abs(spectral.diff(y)).max() < 1e-10
    # second derivative keeps its real multiplier
    assert np.abs(spectral.diff12(y)[1] + (m // 2) ** 2 * y).max() < 1e-9


def test_diff_axis0_on_columns():
    m = 32
    u = spectral.nodes(m)
    y = np.stack([np.sin(u), np.cos(2 * u)], axis=1)
    d = spectral.diff(y)
    assert np.abs(d[:, 0] - np.cos(u)).max() < 1e-12
    assert np.abs(d[:, 1] + 2 * np.sin(2 * u)).max() < 1e-12


def test_resample_trig_polynomial():
    f = lambda u: 0.5 * np.sin(u) + 0.2 * np.cos(3 * u)
    up = resample_periodic(f(spectral.nodes(64)), 128)
    assert np.abs(up - f(spectral.nodes(128))).max() < 1e-12
    down = resample_periodic(f(spectral.nodes(128)), 64)
    assert np.abs(down - f(spectral.nodes(64))).max() < 1e-12


def test_nodes_cached_and_readonly():
    u = spectral.nodes(64)
    assert u is spectral.nodes(64)
    with pytest.raises(ValueError):
        u[0] = 1.0
    k = spectral.wavenumbers(64)
    assert k is spectral.wavenumbers(64)
    first, second = spectral._multipliers(64)
    assert first is spectral._multipliers(64)[0]
    for table in (k, first, second):
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_centered_dt_exact_on_quadratic():
    # y(t) = 2 + 3t - t^2 sampled at t = 0.1, 0.4, 1.0
    y = lambda t: 2.0 + 3.0 * t - t * t
    got = spectral.centered_dt(y(0.1), y(0.4), y(1.0), 0.3, 0.6)
    assert abs(got - (3.0 - 2.0 * 0.4)) < 1e-12


def test_centered_dt_vector_and_validation():
    y0 = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        spectral.centered_dt(y0, y0, y0, 0.0, 0.1)
    with pytest.raises(ValueError):
        spectral.centered_dt(y0, y0, y0, 0.1, -0.1)
    out = spectral.centered_dt(y0, y0 + 0.1, y0 + 0.2, 0.1, 0.1)
    assert np.abs(out - 1.0).max() < 1e-12
