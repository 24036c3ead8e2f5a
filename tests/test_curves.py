import numpy as np
import pytest

import wcsf
from wcsf import spectral
from conftest import (left_exp_manifold, perturbed_base, product_manifold,
                      right_exp_manifold)
from oracles import einsum_fields, quadrature_length


def r_circle(x0, m=64):
    return wcsf.make_graph_curve(wcsf.FourierField.constant(x0), m)


def sinusoid(a=0.5, m=64):
    return wcsf.make_graph_curve(wcsf.FourierField([0.0], [0.0, a]), m)


def test_r_circle_product_basics(product):
    c = r_circle(0.0)
    f = wcsf.compute_fields(c, product)
    assert np.abs(f.theta - 1.0).max() < 1e-14
    assert np.abs(f.theta_hat - 1.0).max() < 1e-14
    assert np.abs(f.curvature).max() < 1e-13
    assert abs(f.length - 2.0 * np.pi) < 1e-12


def test_r_circle_left_angle_example(left_exp):
    c = r_circle(0.0)
    theta, theta_hat = wcsf.angle_function(c, left_exp)
    assert np.abs(theta - np.exp(0.3)).max() < 1e-12
    assert abs(float(theta[0]) - 1.349859) < 1e-6
    assert np.abs(theta_hat - 1.0).max() < 1e-12


def test_r_circle_left_length_example(left_exp):
    c = r_circle(0.0)
    # exact value 2 pi e^{0.3} = 8.4814130...
    assert abs(wcsf.length(c, left_exp) - 2.0 * np.pi * np.exp(0.3)) < 1e-12
    assert abs(wcsf.length(c, left_exp) - 8.4814130265285) < 1e-12


def test_left_r_circle_curvature_is_warp_gradient(left_exp):
    c = r_circle(np.pi / 2)
    h, habs = wcsf.mean_curvature(c, left_exp)
    assert np.abs(h[:, 0]).max() < 1e-12
    assert np.abs(h[:, 1] - 0.3).max() < 1e-12
    assert np.abs(habs - 0.3).max() < 1e-12


def test_sinusoid_length_against_quadrature(product):
    c = sinusoid(0.5, m=128)
    f05 = wcsf.FourierField([0.0], [0.0, 0.5])
    oracle = quadrature_length(wcsf.LEFT, lambda x: np.ones_like(x), f05)
    got = wcsf.length(c, product)
    assert abs(got - oracle) < 1e-9
    # the same integral, integrand sqrt(1 + 0.25 cos^2 r)
    u = np.linspace(0.0, 2.0 * np.pi, 100_001)
    direct = np.trapezoid(np.sqrt(1.0 + 0.25 * np.cos(u) ** 2), u)
    assert abs(got - direct) < 1e-9


def test_winding_line_angle_example():
    # closed (2,1) line in a right product with constant warp 2: the
    # slope dx/dr is 1/2 everywhere and the angle is 1/sqrt(2)
    m = 64
    manifold = wcsf.WarpedProduct(wcsf.RIGHT, warp=2.0)
    u = spectral.nodes(m)
    coords = np.column_stack([2.0 * u, u])
    c = wcsf.DiscreteCurve("parametric", coords, (2, 1))
    fields = wcsf.compute_fields(c, manifold)
    assert np.abs(fields.theta - 1.0 / np.sqrt(2.0)).max() < 1e-12
    assert np.abs(fields.theta_hat - 1.0 / np.sqrt(2.0)).max() < 1e-12
    assert np.abs(fields.speed - 2.0 * np.sqrt(2.0)).max() < 1e-12
    assert np.abs(fields.curvature).max() < 1e-12
    min_hat, ok = wcsf.graphicality(c, manifold)
    assert ok and abs(min_hat - 1.0 / np.sqrt(2.0)) < 1e-12


def test_unit_tangent_has_unit_norm(left_exp, right_exp):
    for manifold in (left_exp, right_exp):
        c = sinusoid(0.4, m=64)
        f = wcsf.compute_fields(c, manifold)
        metric, _ = manifold.frame(c.coords)
        norms = np.einsum("nab,na,nb->n", metric, f.tangent, f.tangent)
        assert np.abs(norms - 1.0).max() < 1e-12


def test_curvature_is_normal(left_exp, right_exp, product):
    for manifold in (left_exp, right_exp, product):
        c = sinusoid(0.4, m=64)
        f = wcsf.compute_fields(c, manifold)
        metric, _ = manifold.frame(c.coords)
        dots = np.einsum("nab,na,nb->n", metric, f.curvature, f.tangent)
        assert np.abs(dots).max() < 1e-12


def test_pre_projection_tangential_part_shrinks(left_exp):
    prev = None
    for m in (64, 128, 256):
        c = sinusoid(0.4, m=m)
        f = wcsf.compute_fields(c, left_exp)
        worst = float(np.abs(f.pre_tangential).max())
        if prev is not None:
            assert worst < prev / 3.0 or worst < 1e-11
        prev = worst


def test_plane_curve_curvature_oracle(product):
    # in the flat product the graph is a plane curve, so |A| must match
    # |f''| / (1 + f'^2)^(3/2)
    c = sinusoid(0.5, m=64)
    f = wcsf.compute_fields(c, product)
    u = spectral.nodes(64)
    fp = 0.5 * np.cos(u)
    fpp = -0.5 * np.sin(u)
    kappa = np.abs(fpp) / (1.0 + fp ** 2) ** 1.5
    assert np.abs(f.curvature_norm - kappa).max() < 1e-8


def test_arc_derivative_examples(product):
    speed = wcsf.compute_fields(r_circle(0.0), product).speed
    u = spectral.nodes(64)
    const = np.ones(64)
    assert np.abs(wcsf.arc_derivative(const, speed)).max() < 1e-12
    assert np.abs(wcsf.arc_laplacian(const, speed)).max() < 1e-12
    eta = np.sin(u)
    assert np.abs(wcsf.arc_derivative(eta, speed) - np.cos(u)).max() < 1e-10
    assert np.abs(wcsf.arc_laplacian(eta, speed) + np.sin(u)).max() < 1e-10


def test_angle_gradient_identity_on_graph(left_exp):
    c = sinusoid(0.3, m=128)
    f = wcsf.compute_fields(c, left_exp)
    t_theta = wcsf.arc_derivative(f.theta, f.speed)
    metric, _ = left_exp.frame(c.coords)
    h_dr = np.einsum("na,na->n", metric[:, 0, :], f.curvature)
    assert np.abs(t_theta - h_dr).max() < 1e-10


def test_graphicality_examples(product):
    min_hat, ok = wcsf.graphicality(r_circle(1.0), product)
    assert ok and abs(min_hat - 1.0) < 1e-14
    min_hat, ok = wcsf.graphicality(sinusoid(0.5), product)
    assert ok and abs(min_hat - 1.0 / np.sqrt(1.25)) < 1e-12


def test_graphicality_reversing_r(product):
    m = 64
    u = spectral.nodes(m)
    coords = np.column_stack([u + 1.5 * np.sin(u), 0.3 * np.sin(u)])
    c = wcsf.DiscreteCurve("parametric", coords, (1, 0))
    min_hat, ok = wcsf.graphicality(c, product)
    assert not ok
    assert min_hat <= 0.0


def test_resample_examples(product):
    c = sinusoid(0.5, m=64)
    up = wcsf.resample(c, 128)
    u = spectral.nodes(128)
    assert np.abs(up.coords[:, 1] - 0.5 * np.sin(u)).max() < 1e-12
    down = wcsf.resample(sinusoid(0.5, m=128), 64)
    assert np.abs(down.coords[:, 1]
                  - 0.5 * np.sin(spectral.nodes(64))).max() < 1e-12

    rng = np.random.default_rng(41)
    f = wcsf.FourierField(rng.normal(size=10) * 0.02,
                          rng.normal(size=10) * 0.02)
    c256 = wcsf.make_graph_curve(f, 256)
    c512 = wcsf.resample(c256, 512)
    l1 = wcsf.length(c256, product)
    l2 = wcsf.length(c512, product)
    assert abs(l1 - l2) / l1 < 1e-10


def test_resample_rejects_parametric(product):
    u = spectral.nodes(64)
    c = wcsf.DiscreteCurve("parametric", np.column_stack([u, 0 * u]), (1, 0))
    with pytest.raises(ValueError):
        wcsf.resample(c, 128)


def test_winding_requires_flag():
    f = wcsf.FourierField.constant(0.0)
    with pytest.raises(ValueError, match="allow_x_winding"):
        wcsf.make_graph_curve(f, 64, x_winding=1)
    ramp = wcsf.make_graph_curve(f, 64, x_winding=1, allow_x_winding=True)
    assert ramp.winding == (1, 1)
    u = spectral.nodes(64)
    assert np.abs(ramp.coords[:, 1] - u).max() < 1e-14


FIELD_ATTRS = ("deriv", "speed", "tangent", "curvature", "curvature_norm",
               "theta", "theta_hat", "pre_tangential")


def _worst_gap(a, b):
    gaps = [float(np.abs(getattr(a, n) - getattr(b, n)).max())
            for n in FIELD_ATTRS]
    return max(gaps + [abs(a.length - b.length)])


@pytest.mark.parametrize("name", ["left", "right", "product"])
def test_graph_and_parametric_paths_agree(name):
    # a graph curve and its parametric twin carry identical data; the graph
    # twin takes r' = 1, r'' = 0 as given while the parametric twin
    # differentiates its r column, so the two may only differ at rounding
    # level
    manifold = {"left": left_exp_manifold, "right": right_exp_manifold,
                "product": product_manifold}[name]()
    f = wcsf.FourierField([0.1], [0.0, 0.4, 0.0, 0.05])
    gaps = {}
    for m in (64, 128):
        g = wcsf.make_graph_curve(f, m)
        twin = wcsf.DiscreteCurve("parametric", g.coords, g.winding)
        gaps[m] = _worst_gap(wcsf.compute_fields(g, manifold),
                             wcsf.compute_fields(twin, manifold))
    assert gaps[64] < 1e-9
    assert gaps[128] < 1e-12


def test_graph_and_parametric_paths_agree_with_winding(left_exp):
    ramp = wcsf.make_graph_curve(wcsf.FourierField([0.0], [0.0, 0.2]), 64,
                                 x_winding=1, allow_x_winding=True)
    twin = wcsf.DiscreteCurve("parametric", ramp.coords, ramp.winding)
    gap = _worst_gap(wcsf.compute_fields(ramp, left_exp),
                     wcsf.compute_fields(twin, left_exp))
    assert gap < 1e-12


def curved_manifold(kind):
    a = 0.3 if kind == wcsf.LEFT else 0.2
    return wcsf.WarpedProduct(kind, warp=wcsf.FourierField.exp_cos(a),
                              g11=perturbed_base())


ORACLE_MANIFOLDS = {"left": left_exp_manifold, "right": right_exp_manifold,
                    "product": product_manifold,
                    "curved_left": lambda: curved_manifold(wcsf.LEFT),
                    "curved_right": lambda: curved_manifold(wcsf.RIGHT)}


def moving_r_curve(f, m):
    # a parametric curve whose r-coordinate moves along the parameter, so
    # r' and r'' are nonconstant and the right warp is sampled off-grid
    u = spectral.nodes(m)
    r = u + 0.2 * np.sin(u) + 0.05 * np.cos(2.0 * u)
    return wcsf.DiscreteCurve("parametric", np.column_stack([r, f(u)]), (1, 0))


@pytest.mark.parametrize("name", sorted(ORACLE_MANIFOLDS))
@pytest.mark.parametrize("shape, bounds", [
    ("graph", {64: 1e-9, 128: 1e-12}),
    ("moving_r", {64: 1e-7, 128: 1e-11}),
])
def test_kernel_matches_einsum_oracle(name, shape, bounds):
    # the scalar kernel against the dense-tensor formula with a spectral
    # speed derivative: they may differ only by the aliasing of that
    # second differentiation and by rounding
    manifold = ORACLE_MANIFOLDS[name]()
    f = wcsf.FourierField([0.1], [0.0, 0.4, 0.0, 0.05])
    for m, bound in bounds.items():
        c = (wcsf.make_graph_curve(f, m) if shape == "graph"
             else moving_r_curve(f, m))
        got = wcsf.compute_fields(c, manifold)
        want = einsum_fields(c, manifold)
        for attr, ref in want.items():
            gap = float(np.abs(np.asarray(getattr(got, attr)) - ref).max())
            assert gap < bound, (attr, m, gap)


def test_immersion_error_on_degenerate_curve(product):
    coords = np.zeros((64, 2))
    c = wcsf.DiscreteCurve("parametric", coords, (0, 0))
    with pytest.raises(wcsf.ImmersionError):
        wcsf.compute_fields(c, product)


def test_dimension_mismatch_rejected():
    u = spectral.nodes(64)
    coords = np.column_stack([u, 0 * u, 0 * u])
    with pytest.raises(ValueError, match="shape"):
        wcsf.DiscreteCurve("graph", coords, (1, 0, 0))


def test_grid_size_validation():
    f = wcsf.FourierField.constant(0.0)
    for bad in (16, 100, 63):
        with pytest.raises(ValueError):
            wcsf.make_graph_curve(f, bad)
