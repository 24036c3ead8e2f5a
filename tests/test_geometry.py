import numpy as np
import pytest

import wcsf
from conftest import (MANIFOLDS, curved_manifold, left_exp_manifold,
                      product_manifold, right_exp_manifold)
from oracles import (conformal_residual, dr_identity_residual, fd_christoffel,
                     metric_compat_defect)


def random_points(rng, n):
    """(n, 2) points (r, x) drawn uniformly from [0, 2 pi)^2."""
    return rng.uniform(0.0, 2.0 * np.pi, size=(n, 2))


def frame_at(manifold, r, x):
    """Metric (2, 2) and Christoffel symbols (2, 2, 2) at one point."""
    metric, gamma = manifold.frame(np.array([[r, x]]))
    return metric[0], gamma[0]


def test_left_metric_example():
    g, _ = frame_at(left_exp_manifold(), 0.0, 0.0)
    assert abs(g[0, 0] - np.exp(0.6)) < 1e-12
    assert g[0, 1] == 0.0 and g[1, 0] == 0.0
    assert g[1, 1] == 1.0


def test_left_christoffel_example():
    _, gamma = frame_at(left_exp_manifold(), 0.0, np.pi / 2)
    assert abs(gamma[0, 0, 1] - (-0.3)) < 1e-12
    assert abs(gamma[0, 1, 0] - (-0.3)) < 1e-12
    assert abs(gamma[1, 0, 0] - 0.3) < 1e-12
    assert abs(gamma[0, 0, 0]) < 1e-15
    assert abs(gamma[1, 1, 1]) < 1e-15


def test_left_warp_gradient_example():
    # D log psi has zero r-component; its x-component is (log psi)' / g
    raised, norm_sq = left_exp_manifold().dlog_warp(np.array([np.pi / 2]))
    assert abs(raised[0] - (-0.3)) < 1e-12
    assert abs(norm_sq[0] - 0.09) < 1e-12


def test_right_warp_gradient_example():
    d1, d2 = right_exp_manifold().log_warp_derivs(np.array([0.0, np.pi / 2]))
    assert abs(d1[0]) < 1e-12
    assert abs(d2[0] - (-0.2)) < 1e-12
    assert abs(d1[1] - (-0.2)) < 1e-12


def test_right_metric_scales_base():
    g, _ = frame_at(right_exp_manifold(), 0.0, 1.0)
    assert g[0, 0] == 1.0
    assert abs(g[1, 1] - np.exp(0.4)) < 1e-12


@pytest.mark.parametrize("build", [left_exp_manifold, right_exp_manifold,
                                   product_manifold])
def test_christoffel_matches_fd_oracle(build):
    m = build()
    pts = random_points(np.random.default_rng(31), 60)
    _, gamma = m.frame(pts)
    for p, got in zip(pts, gamma):
        assert np.abs(got - fd_christoffel(m, p)).max() < 1e-6


def test_christoffel_matches_fd_on_perturbed_base():
    for kind in (wcsf.LEFT, wcsf.RIGHT):
        m = curved_manifold(kind)
        pts = random_points(np.random.default_rng(32), 40)
        _, gamma = m.frame(pts)
        for p, got in zip(pts, gamma):
            assert np.abs(got - fd_christoffel(m, p)).max() < 1e-6


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
        pts = random_points(rng, 100)
        x, y = rng.normal(size=(2, 100, 2))
        res = dr_identity_residual(m, pts, x, y)
        assert res.shape == (100,) and res.max() < 1e-10


def test_dr_identity_perturbed_base():
    rng = np.random.default_rng(37)
    for kind in (wcsf.LEFT, wcsf.RIGHT):
        pts = random_points(rng, 50)
        x, y = rng.normal(size=(2, 50, 2))
        res = dr_identity_residual(curved_manifold(kind), pts, x, y)
        assert res.max() < 1e-10


def test_conformal_identity_right_only(left_exp, right_exp):
    rng = np.random.default_rng(38)
    pts = random_points(rng, 100)
    x = rng.normal(size=(100, 2))
    res = conformal_residual(right_exp, pts, x)
    assert res.shape == (100,) and res.max() < 1e-10
    with pytest.raises(ValueError):
        conformal_residual(left_exp, pts[:1], [[1.0, 0.0]])


def test_identity_residuals_reject_bad_vectors(left_exp, right_exp):
    pts = np.zeros((2, 2))
    good = np.ones((2, 2))
    for bad in ([[np.nan, 0.0], [1.0, 0.0]], [[np.inf, 0.0], [1.0, 0.0]]):
        with pytest.raises(ValueError, match="finite"):
            dr_identity_residual(left_exp, pts, bad, good)
        with pytest.raises(ValueError, match="finite"):
            conformal_residual(right_exp, pts, bad)
    with pytest.raises(ValueError, match="shape"):
        dr_identity_residual(left_exp, pts, good, np.ones((3, 2)))
    with pytest.raises(ValueError, match="shape"):
        conformal_residual(right_exp, np.zeros(2), np.ones(2))


@pytest.mark.parametrize("name", ["left", "right", "curved_left",
                                  "curved_right"])
def test_identities_hold_at_flow_nodes(name):
    # X = T and Y = H at every node of every recorded state: the lifted,
    # unreduced coordinates of a moving curve
    manifold = MANIFOLDS[name]()
    curve = wcsf.make_graph_curve(wcsf.FourierField([0.1], [0.0, 0.4]), 64)
    traj, _ = wcsf.run(manifold, curve,
                       wcsf.FlowParams(t_max=0.3, record_stride=5))
    assert len(traj) > 3
    for state in traj:
        pts, f = state.curve.coords, state.fields
        res = dr_identity_residual(manifold, pts, f.tangent, f.curvature)
        assert res.max() < 1e-10
        if manifold.kind == wcsf.RIGHT:
            assert conformal_residual(manifold, pts,
                                      f.tangent).max() < 1e-10


@pytest.mark.parametrize("name", ["left", "right", "curved_left",
                                  "curved_right"])
def test_frame_needs_no_reduction_mod_two_pi(name):
    # the warp and the base metric are trigonometric series, so the frame
    # at lifted coordinates equals the frame at their reduction
    m = MANIFOLDS[name]()
    pts = random_points(np.random.default_rng(39), 200)
    metric, gamma = m.frame(pts)
    for n in range(-3, 4):
        metric_n, gamma_n = m.frame(pts + 2.0 * np.pi * n)
        assert np.abs(metric_n - metric).max() < 1e-12
        assert np.abs(gamma_n - gamma).max() < 1e-12


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
