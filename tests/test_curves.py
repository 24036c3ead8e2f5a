import numpy as np
import pytest

import wcsf
from wcsf import spectral
from conftest import MANIFOLDS
from oracles import (einsum_fields, quadrature_length, resample,
                     tangential_part)


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
    f = wcsf.compute_fields(c, left_exp)
    assert np.abs(f.theta - np.exp(0.3)).max() < 1e-12
    assert abs(float(f.theta[0]) - 1.349859) < 1e-6
    assert np.abs(f.theta_hat - 1.0).max() < 1e-12


def test_r_circle_left_length_example(left_exp):
    length = wcsf.compute_fields(r_circle(0.0), left_exp).length
    # exact value 2 pi e^{0.3} = 8.4814130...
    assert abs(length - 2.0 * np.pi * np.exp(0.3)) < 1e-12
    assert abs(length - 8.4814130265285) < 1e-12


def test_left_r_circle_curvature_is_warp_gradient(left_exp):
    c = r_circle(np.pi / 2)
    f = wcsf.compute_fields(c, left_exp)
    assert np.abs(f.curvature[:, 0]).max() < 1e-12
    assert np.abs(f.curvature[:, 1] - 0.3).max() < 1e-12
    assert np.abs(f.curvature_norm - 0.3).max() < 1e-12


def test_sinusoid_length_against_quadrature(product):
    c = sinusoid(0.5, m=128)
    f05 = wcsf.FourierField([0.0], [0.0, 0.5])
    oracle = quadrature_length(wcsf.LEFT, lambda x: np.ones_like(x), f05)
    got = wcsf.compute_fields(c, product).length
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
    min_hat = fields.theta_hat.min()
    assert min_hat > 0.0 and abs(min_hat - 1.0 / np.sqrt(2.0)) < 1e-12


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
        worst = float(np.abs(tangential_part(c, f)).max())
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
    # min Theta_hat > 0 means r' > 0 at every node: the curve is a graph
    min_hat = wcsf.compute_fields(r_circle(1.0), product).theta_hat.min()
    assert min_hat > 0.0 and abs(min_hat - 1.0) < 1e-14
    min_hat = wcsf.compute_fields(sinusoid(0.5), product).theta_hat.min()
    assert min_hat > 0.0 and abs(min_hat - 1.0 / np.sqrt(1.25)) < 1e-12


def test_graphicality_reversing_r(product):
    m = 64
    u = spectral.nodes(m)
    coords = np.column_stack([u + 1.5 * np.sin(u), 0.3 * np.sin(u)])
    c = wcsf.DiscreteCurve("parametric", coords, (1, 0))
    min_hat = wcsf.compute_fields(c, product).theta_hat.min()
    assert min_hat <= 0.0


def test_resample_examples(product):
    c = sinusoid(0.5, m=64)
    up = resample(c, 128)
    u = spectral.nodes(128)
    assert np.abs(up.coords[:, 1] - 0.5 * np.sin(u)).max() < 1e-12
    down = resample(sinusoid(0.5, m=128), 64)
    assert np.abs(down.coords[:, 1]
                  - 0.5 * np.sin(spectral.nodes(64))).max() < 1e-12

    rng = np.random.default_rng(41)
    f = wcsf.FourierField(rng.normal(size=10) * 0.02,
                          rng.normal(size=10) * 0.02)
    c256 = wcsf.make_graph_curve(f, 256)
    c512 = resample(c256, 512)
    l1 = wcsf.compute_fields(c256, product).length
    l2 = wcsf.compute_fields(c512, product).length
    assert abs(l1 - l2) / l1 < 1e-10


def test_resample_keeps_a_parametric_curves_gauge():
    # a DeTurck curve resamples like any periodic data: bandlimited data
    # lands on the finer nodes and comes back to the coarse ones
    def loop(m):
        u = spectral.nodes(m)
        r = 2.0 * u + 0.3 * np.sin(u) - 0.1 * np.cos(3 * u)
        coords = np.column_stack([r, u + 0.2 * np.cos(2 * u)])
        return wcsf.DiscreteCurve("parametric", coords, (2, 1))

    c = loop(64)
    up = resample(c, 128)
    assert (up.mode, up.winding) == ("parametric", (2, 1))
    assert np.abs(up.coords - loop(128).coords).max() < 1e-12
    back = resample(up, 64)
    assert back.mode == "parametric"
    assert np.abs(back.coords - c.coords).max() < 1e-12


def test_winding_graph_ramp():
    # a graph winding around the base flows to a geodesic whose speed in r
    # varies, so it comes back as the parametric curve through its nodes
    f = wcsf.FourierField.constant(0.0)
    u = spectral.nodes(64)
    for w in (1, -1, 2):
        ramp = wcsf.make_graph_curve(f, 64, x_winding=w)
        assert (ramp.mode, ramp.winding) == ("parametric", (1, w))
        assert ramp.coords[:, 0].tobytes() == u.tobytes()
        assert np.abs(ramp.coords[:, 1] - w * u).max() < 1e-14


def test_graph_mode_winds_once_in_r_and_never_in_x():
    u = spectral.nodes(64)
    coords = np.column_stack([u, u + 0.3 * np.sin(u)])
    for winding in ((1, 1), (1, -1), (2, 0), (0, 0)):
        with pytest.raises(ValueError, match="winds"):
            wcsf.DiscreteCurve("graph", coords, winding)
    assert wcsf.DiscreteCurve("parametric", coords, (1, 1)).winding == (1, 1)


FIELD_ATTRS = ("deriv", "speed", "tangent", "curvature", "curvature_norm",
               "theta", "theta_hat")


def _worst_gap(curve, twin, manifold):
    a, b = (wcsf.compute_fields(c, manifold) for c in (curve, twin))
    gaps = [float(np.abs(getattr(a, n) - getattr(b, n)).max())
            for n in FIELD_ATTRS]
    gaps.append(float(np.abs(tangential_part(curve, a)
                             - tangential_part(twin, b)).max()))
    return max(gaps + [abs(a.length - b.length)])


@pytest.mark.parametrize("name", ["left", "right", "product"])
def test_graph_and_parametric_paths_agree(name):
    # a graph curve and its parametric twin carry identical data; the graph
    # twin takes r' = 1, r'' = 0 as given while the parametric twin
    # differentiates its r column, so the two may only differ at rounding
    # level
    manifold = MANIFOLDS[name]()
    f = wcsf.FourierField([0.1], [0.0, 0.4, 0.0, 0.05])
    gaps = {}
    for m in (64, 128):
        g = wcsf.make_graph_curve(f, m)
        twin = wcsf.DiscreteCurve("parametric", g.coords, g.winding)
        gaps[m] = _worst_gap(g, twin, manifold)
    assert gaps[64] < 1e-9
    assert gaps[128] < 1e-12


def moving_r_curve(f, m):
    # a parametric curve whose r-coordinate moves along the parameter, so
    # r' and r'' are nonconstant and the right warp is sampled off-grid
    u = spectral.nodes(m)
    r = u + 0.2 * np.sin(u) + 0.05 * np.cos(2.0 * u)
    return wcsf.DiscreteCurve("parametric", np.column_stack([r, f(u)]), (1, 0))


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
@pytest.mark.parametrize("shape, bounds", [
    ("graph", {64: 1e-9, 128: 1e-12}),
    ("moving_r", {64: 1e-7, 128: 1e-11}),
])
def test_kernel_matches_einsum_oracle(name, shape, bounds):
    # the scalar kernel against the dense-tensor formula with a spectral
    # speed derivative: they may differ only by the aliasing of that
    # second differentiation and by rounding
    manifold = MANIFOLDS[name]()
    f = wcsf.FourierField([0.1], [0.0, 0.4, 0.0, 0.05])
    for m, bound in bounds.items():
        c = (wcsf.make_graph_curve(f, m) if shape == "graph"
             else moving_r_curve(f, m))
        got = wcsf.compute_fields(c, manifold)
        want = einsum_fields(c, manifold)
        have = {attr: getattr(got, attr) for attr in want
                if attr != "pre_tangential"}
        have["pre_tangential"] = tangential_part(c, got)
        for attr, ref in want.items():
            gap = float(np.abs(np.asarray(have[attr]) - ref).max())
            assert gap < bound, (attr, m, gap)
        if shape == "graph":
            # a graph's nodes never move in r
            assert np.all(got.velocity[:, 0] == 0.0)


def test_a_graph_off_the_node_grid_is_rejected():
    # compute_fields reads a graph's r column as the node grid, so a graph
    # with r = u + 0.5 would get another curve's fields: in the right
    # exp_cos(0.2) product its angle would be off by 5.4e-3 and its length
    # by 1.2e-3 against its parametric twin
    u = spectral.nodes(64)
    coords = np.column_stack([u + 0.5, 0.3 * np.sin(u)])
    with pytest.raises(ValueError, match="node grid"):
        wcsf.DiscreteCurve("graph", coords, (1, 0))
    # one ulp off at one node is off the grid too
    coords = np.column_stack([u, 0.3 * np.sin(u)])
    coords[5, 0] = np.nextafter(u[5], 10.0)
    with pytest.raises(ValueError, match="node grid"):
        wcsf.DiscreteCurve("graph", coords, (1, 0))
    # its parametric twin moves both columns freely, a graph x alone
    twin = wcsf.DiscreteCurve("parametric", coords, (1, 0))
    assert (twin.moving, sinusoid().moving) == (slice(0, 2), slice(1, 2))


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
    for bad in (16, 100, 63, 32.7, 64.0):
        with pytest.raises(ValueError):
            wcsf.make_graph_curve(f, bad)
    # int() would truncate these to a valid node count or winding
    c = wcsf.make_graph_curve(f, 64)
    for bad in (64.9, 128.0):
        with pytest.raises(ValueError, match="integer"):
            resample(c, bad)
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="integer"):
            wcsf.make_graph_curve(f, 64, x_winding=bad)
    for bad in ((1, 0.5), (1.0, 0), (1, True)):
        with pytest.raises(ValueError, match="integer"):
            wcsf.DiscreteCurve("parametric", c.coords, bad)
