import tracemalloc

import numpy as np
import pytest

import oracles
import wcsf
from wcsf import FourierField
from wcsf.fourier import grid_max


def naive_eval(cos_coef, sin_coef, x):
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for k, a in enumerate(cos_coef):
        total += a * np.cos(k * x)
    for k, b in enumerate(sin_coef):
        total += b * np.sin(k * x)
    return total


def test_eval_matches_naive_sum():
    rng = np.random.default_rng(11)
    cos_coef = rng.normal(size=7)
    sin_coef = rng.normal(size=5)
    f = FourierField(cos_coef, sin_coef)
    x = rng.uniform(0.0, 2.0 * np.pi, 200)
    sin_full = np.zeros(7)
    sin_full[1:5] = sin_coef[1:]
    assert np.abs(f(x) - naive_eval(cos_coef, sin_full, x)).max() < 1e-13


def test_zero_wavenumber_sine_is_dropped():
    f = FourierField(np.array([0.0]), np.array([5.0]))
    assert np.abs(f(np.linspace(0, 6, 50))).max() == 0.0


def test_derivative_matches_termwise_and_fd():
    rng = np.random.default_rng(12)
    f = FourierField(rng.normal(size=6), rng.normal(size=6))
    df = f.derivative()
    x = rng.uniform(0.0, 2.0 * np.pi, 100)
    h = 1e-6
    fd = (f(x + h) - f(x - h)) / (2.0 * h)
    assert np.abs(df(x) - fd).max() < 1e-7
    d2 = f.derivative().derivative()
    fd2 = (df(x + h) - df(x - h)) / (2.0 * h)
    assert np.abs(d2(x) - fd2).max() < 1e-6


def test_constant_field():
    f = FourierField.constant(2.5)
    x = np.linspace(0.0, 6.0, 17)
    assert np.all(f(x) == 2.5)
    assert np.abs(f.derivative()(x)).max() == 0.0


def test_exp_cos_matches_closed_form():
    for a in (0.2, 0.3, 1.1):
        f = FourierField.exp_cos(a)
        x = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
        assert np.abs(f(x) - np.exp(a * np.cos(x))).max() < 1e-14
        df = f.derivative()
        exact = -a * np.sin(x) * np.exp(a * np.cos(x))
        assert np.abs(df(x) - exact).max() < 1e-13


def test_exp_cos_negative_and_large_amplitude():
    # odd Bessel terms change sign with a; larger a needs more of them
    x = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
    for a in (-0.7, 4.0):
        f = FourierField.exp_cos(a)
        exact = np.exp(a * np.cos(x))
        assert np.abs(f(x) - exact).max() < 1e-14 * exact.max()


def test_exp_cos_rejects_non_finite_coefficients():
    # the Bessel series overflows at a = 800, which gave infinite
    # coefficients and a NaN grid minimum
    with pytest.raises(ValueError, match="non-finite"):
        FourierField.exp_cos(800.0)
    with pytest.raises(ValueError, match="non-finite"):
        FourierField.exp_cos(float("nan"))


def test_exp_cos_grid_extremes():
    f = FourierField.exp_cos(0.3)
    assert abs(grid_max(f) - np.exp(0.3)) < 1e-14
    assert abs(-grid_max(lambda x: -f(x)) - np.exp(-0.3)) < 1e-14


def test_scalar_call_returns_scalar_shape():
    f = FourierField.exp_cos(0.3)
    out = f(np.float64(0.0))
    assert np.ndim(out) == 0
    assert abs(float(out) - np.exp(0.3)) < 1e-15


BLOCK_FIELDS = {
    "cos": FourierField.exp_cos(0.3),
    "cos_sin": FourierField([0.1, 0.4, -0.2, 0.05], [0.0, 0.3, 0.0, -0.07]),
}


def same_array(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@pytest.mark.parametrize("kind", sorted(BLOCK_FIELDS))
@pytest.mark.parametrize("shape", [(), (1,), (127,), (128,), (511,), (512,),
                                   (513,), (4096,), (2, 600)])
def test_blocked_tables_match_full_tables_bitwise(kind, shape):
    # each point keeps its own K-term sum in one table for the whole call,
    # so every size, around grid_max's 128-point block and well past it,
    # matches the whole-table oracle; a 0-d input gives numpy scalars
    f = BLOCK_FIELDS[kind]
    rng = np.random.default_rng(sum(shape))
    x = rng.uniform(-2.0 * np.pi, 4.0 * np.pi, shape)
    assert same_array(f(x), oracles.fourier_full_table(f, x))
    got = f.values_with_derivative(x)
    want = oracles.fourier_full_table_with_derivative(f, x)
    assert all(same_array(g, w) for g, w in zip(got, want))


def test_manifold_construction_builds_no_whole_grid_table():
    # the 4096-point positivity checks of warp and base metric go through
    # grid_max's 128-point blocks: about 47 KB traced, 179 KB with
    # 512-point blocks and 1,122 KB with whole-grid tables
    warp = FourierField.exp_cos(0.3)
    g11 = FourierField([1.0, 0.2])
    tracemalloc.start()
    try:
        wcsf.WarpedProduct(wcsf.LEFT, warp=warp, g11=g11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 1024
