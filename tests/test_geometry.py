import numpy as np
import pytest

import wcsf
from conftest import (left_exp_manifold, perturbed_base, product_manifold,
                      right_exp_manifold)
from oracles import fd_christoffel, metric_compat_defect


def random_points(rng, n):
    pts = []
    for _ in range(n):
        r = rng.uniform(0.0, 2.0 * np.pi)
        x = (rng.uniform(0.0, 2.0 * np.pi),)
        pts.append(wcsf.WarpPoint(r, x))
    return pts


def test_left_metric_example():
    m = left_exp_manifold()
    g = wcsf.metric_at(m, wcsf.WarpPoint(0.0, (0.0,)))
    assert abs(g[0, 0] - np.exp(0.6)) < 1e-12
    assert g[0, 1] == 0.0 and g[1, 0] == 0.0
    assert g[1, 1] == 1.0


def test_left_christoffel_example():
    m = left_exp_manifold()
    gamma = wcsf.christoffel_at(m, wcsf.WarpPoint(0.0, (np.pi / 2,)))
    assert abs(gamma[0, 0, 1] - (-0.3)) < 1e-12
    assert abs(gamma[0, 1, 0] - (-0.3)) < 1e-12
    assert abs(gamma[1, 0, 0] - 0.3) < 1e-12
    assert abs(gamma[0, 0, 0]) < 1e-15
    assert abs(gamma[1, 1, 1]) < 1e-15


def test_left_warp_gradient_example():
    m = left_exp_manifold()
    grad = wcsf.warp_gradient(m, wcsf.WarpPoint(1.0, (np.pi / 2,)))
    assert isinstance(grad, wcsf.TangentVec)
    comps = np.asarray(grad.components)
    assert abs(comps[0]) < 1e-15
    assert abs(comps[1] - (-0.3)) < 1e-12


def test_right_warp_gradient_example():
    m = right_exp_manifold()
    d1, d2 = wcsf.warp_gradient(m, wcsf.WarpPoint(0.0, (0.3,)))
    assert abs(d1) < 1e-12
    assert abs(d2 - (-0.2)) < 1e-12
    d1b, _ = wcsf.warp_gradient(m, wcsf.WarpPoint(np.pi / 2, (0.0,)))
    assert abs(d1b - (-0.2)) < 1e-12


def test_right_metric_scales_base():
    m = right_exp_manifold()
    g = wcsf.metric_at(m, wcsf.WarpPoint(0.0, (1.0,)))
    assert g[0, 0] == 1.0
    assert abs(g[1, 1] - np.exp(0.4)) < 1e-12


@pytest.mark.parametrize("build", [left_exp_manifold, right_exp_manifold,
                                   product_manifold])
def test_christoffel_matches_fd_oracle(build):
    m = build()
    rng = np.random.default_rng(31)
    for p in random_points(rng, 60):
        got = wcsf.christoffel_at(m, p)
        ref = fd_christoffel(m, p)
        assert np.abs(got - ref).max() < 1e-6


def test_christoffel_matches_fd_on_perturbed_base():
    for kind in (wcsf.LEFT, wcsf.RIGHT):
        warp = wcsf.FourierField.exp_cos(0.3 if kind == wcsf.LEFT else 0.2)
        m = wcsf.WarpedProduct(kind, warp=warp, g11=perturbed_base())
        rng = np.random.default_rng(32)
        for p in random_points(rng, 40):
            assert np.abs(wcsf.christoffel_at(m, p)
                          - fd_christoffel(m, p)).max() < 1e-6


def test_metric_compatibility(left_exp, right_exp):
    rng = np.random.default_rng(34)
    for m in (left_exp, right_exp):
        for p in random_points(rng, 30):
            assert metric_compat_defect(m, p) < 1e-6


def test_metric_positive_definite_many_points(left_exp, right_exp):
    rng = np.random.default_rng(35)
    for m in (left_exp, right_exp):
        pts = np.column_stack([rng.uniform(0, 2 * np.pi, 10_000),
                               rng.uniform(0, 2 * np.pi, 10_000)])
        g, _ = m.frame(pts)
        assert np.linalg.eigvalsh(g).min() > 1e-10
        # warp block never mixes circle and base directions
        assert np.abs(g[:, 0, 1:]).max() == 0.0


def test_dr_identity_random_vectors(left_exp, right_exp):
    rng = np.random.default_rng(36)
    for m in (left_exp, right_exp):
        for p in random_points(rng, 100):
            x = wcsf.TangentVec(rng.normal(size=2))
            y = wcsf.TangentVec(rng.normal(size=2))
            assert wcsf.dr_identity_residual(m, p, x, y) < 1e-10


def test_dr_identity_perturbed_base():
    rng = np.random.default_rng(37)
    for kind in (wcsf.LEFT, wcsf.RIGHT):
        warp = wcsf.FourierField.exp_cos(0.3 if kind == wcsf.LEFT else 0.2)
        m = wcsf.WarpedProduct(kind, warp=warp, g11=perturbed_base())
        for p in random_points(rng, 50):
            x = wcsf.TangentVec(rng.normal(size=2))
            y = wcsf.TangentVec(rng.normal(size=2))
            assert wcsf.dr_identity_residual(m, p, x, y) < 1e-10


def test_conformal_identity_right_only(left_exp, right_exp):
    rng = np.random.default_rng(38)
    for p in random_points(rng, 100):
        x = wcsf.TangentVec(rng.normal(size=2))
        assert wcsf.conformal_residual(right_exp, p, x) < 1e-10
    with pytest.raises(ValueError):
        wcsf.conformal_residual(left_exp, random_points(rng, 1)[0],
                                wcsf.TangentVec((1.0, 0.0)))


def test_warp_positivity_enforced():
    with pytest.raises(ValueError, match="warp not positive"):
        wcsf.WarpedProduct(wcsf.LEFT, warp=wcsf.FourierField([0.0, 2.0]))
    with pytest.raises(ValueError, match="warp not positive"):
        wcsf.WarpedProduct(wcsf.RIGHT, warp=-1.0)


def test_base_metric_must_be_spd():
    bad = wcsf.FourierField(np.array([1.0, 1.5]))
    with pytest.raises(ValueError, match="positive definite"):
        wcsf.WarpedProduct(wcsf.LEFT, g11=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_warp_and_g11_rejected(bad):
    # a NaN sample minimum compares false with the floor, so a check
    # written as "minimum <= floor fails" let these through
    with np.errstate(over="ignore", invalid="ignore"):
        field = wcsf.FourierField([bad])
        with pytest.raises(ValueError, match="warp not positive"):
            wcsf.WarpedProduct(wcsf.LEFT, warp=field)
        with pytest.raises(ValueError, match="positive definite"):
            wcsf.WarpedProduct(wcsf.LEFT, g11=field)
        # finite coefficients whose sum overflows near x = 0, while the
        # grid minimum 1.2e308 is finite and positive
        huge = wcsf.FourierField([1.5e308, 0.3e308])
        with pytest.raises(ValueError, match="warp not positive"):
            wcsf.WarpedProduct(wcsf.RIGHT, warp=huge)


def test_flat_base_is_none_and_a_number_is_curved():
    flat = wcsf.WarpedProduct(wcsf.LEFT)
    assert flat.g11 is None and flat.base_terms(np.zeros(3)) == (1.0, 0.0)
    two = wcsf.WarpedProduct(wcsf.LEFT, g11=2.0)
    g, dg = two.base_terms(np.zeros(3))
    assert np.array_equal(g, [2.0, 2.0, 2.0]) and not dg.any()


def test_warp_point_and_tangent_vec():
    p = wcsf.WarpPoint(7.0, (2.0,))
    assert 0.0 <= p.r < 2.0 * np.pi
    assert np.allclose(p.coords, [7.0 - 2.0 * np.pi, 2.0])
    with pytest.raises(ValueError):
        wcsf.TangentVec((np.nan, 0.0))


def test_inner_product_uses_metric(left_exp):
    p = wcsf.WarpPoint(0.0, (0.0,))
    v = wcsf.TangentVec((1.0, 0.0))
    assert abs(wcsf.inner(left_exp, p, v, v) - np.exp(0.6)) < 1e-12
