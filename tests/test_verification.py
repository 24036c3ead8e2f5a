import numpy as np
import pytest

import oracles
import wcsf
from conftest import left_exp_manifold, product_manifold, right_exp_manifold


def sin_field(a):
    return wcsf.FourierField([0.0], [0.0, a])


def short_run(manifold, field, m=64, t_max=0.05, stride=5, tol_geo=1e-6):
    curve = wcsf.make_graph_curve(field, m)
    params = wcsf.FlowParams(t_max=t_max, record_stride=stride,
                             tol_geo=tol_geo)
    traj, rep = wcsf.run(manifold, curve, params)
    return traj


def test_stationary_residuals_vanish(left_exp, right_exp):
    # geodesic r-circles: every monitored quantity is identically zero
    for manifold, x0 in ((left_exp, 0.0), (right_exp, 1.1)):
        traj = short_run(manifold, wcsf.FourierField.constant(x0),
                         tol_geo=0.0, stride=1)
        k = len(traj) // 2
        res = wcsf.evolution_residual(traj, manifold, k)
        assert np.abs(res).max() < 1e-12
        assert wcsf.commutator_residual(traj, manifold, k) < 1e-12
        assert wcsf.gradient_identity_residual(traj[k], manifold) < 1e-12
        diss = wcsf.dissipation_monitor(traj, manifold)
        assert diss.passed and abs(diss.worst_slack) < 1e-12


def test_left_right_agree_when_warp_constant():
    # right product with constant warp c equals a left product with unit
    # warp over a base scaled by c^2; the two residual routes must agree.
    # The right run carries c through the warp terms and the left run
    # through the base metric, so the two kernels evaluate the same metric
    # by different products; the bar sits at rounding level, far below
    # the 1e-5 truncation signal being compared.
    c = 1.7
    right = wcsf.WarpedProduct(wcsf.RIGHT, warp=c)
    left = wcsf.WarpedProduct(wcsf.LEFT, warp=1.0,
                              g11=wcsf.FourierField.constant(c * c))
    field = sin_field(0.3)
    traj_r = short_run(right, field, stride=1, tol_geo=0.0)
    traj_l = short_run(left, field, stride=1, tol_geo=0.0)
    k = min(len(traj_r), len(traj_l)) // 2
    res_r = wcsf.evolution_residual(traj_r, right, k)
    res_l = wcsf.evolution_residual(traj_l, left, k)
    assert np.abs(res_r - res_l).max() < 1e-11
    assert abs(wcsf.commutator_residual(traj_r, right, k)
               - wcsf.commutator_residual(traj_l, left, k)) < 1e-11


def test_left_exp_constant_value(left_exp):
    c = wcsf.exp_constant(left_exp)
    assert abs(c - 0.09) < 1e-12
    assert c == wcsf.exp_constant(left_exp)


def test_right_constants_values(right_exp):
    c = wcsf.exp_constant(right_exp)
    assert abs(c - 0.2) < 1e-12
    d = wcsf.drift_constant(right_exp, 2.0, 1.0)
    # analytic max of 0.16 sin^2 + 0.2 |cos| at cos r = 0.625
    assert abs(d - 0.2225) < 1e-6
    assert d == wcsf.drift_constant(right_exp, 0.0, 0.5)


def test_left_drift_constant_formula(left_exp):
    got = wcsf.drift_constant(left_exp, t0=2.0, min_theta0=1.2)
    c = 0.09
    expect = 4.0 * c * (1.0 + np.exp(0.6) * np.exp(c * 2.0) / 1.2)
    assert abs(got - expect) < 1e-10


def test_product_constant_is_zero(product):
    assert wcsf.exp_constant(product) == 0.0


def test_left_constants_on_a_curved_base():
    # g11 = 1 + 0.2 cos x enters C = max |D log psi|_g^2 through the
    # raised gradient: (log psi)' = -0.3 sin x, so C is the max of
    # 0.09 sin^2 x / (1 + 0.2 cos x), about 0.0909
    g11 = wcsf.FourierField([1.0, 0.2])
    curved = wcsf.WarpedProduct(wcsf.LEFT, warp=wcsf.FourierField.exp_cos(0.3),
                                g11=g11)
    x = np.linspace(0.0, 2.0 * np.pi, 1 << 20, endpoint=False)
    dense = float(np.max(0.09 * np.sin(x) ** 2 / (1.0 + 0.2 * np.cos(x))))
    c = wcsf.exp_constant(curved)
    assert abs(c - dense) < 1e-8
    assert c > 0.0901    # the flat-base value 0.09 is left behind
    got = wcsf.drift_constant(curved, t0=2.0, min_theta0=1.2)
    # max psi^2 = e^{0.6}, at x = 0
    expect = 4.0 * c * (1.0 + np.exp(0.6) * np.exp(c * 2.0) / 1.2)
    assert abs(got - expect) < 1e-10


def test_residual_needs_interior_index(left_exp):
    traj = short_run(left_exp, sin_field(0.2))
    with pytest.raises(ValueError):
        wcsf.evolution_residual(traj, left_exp, 0)
    with pytest.raises(ValueError):
        wcsf.evolution_residual(traj, left_exp, len(traj) - 1)


@pytest.mark.parametrize("kind", ["left_exp", "right_exp"])
def test_evolution_residual_small_on_recorded_run(kind, request):
    manifold = request.getfixturevalue(kind)
    traj = short_run(manifold, sin_field(0.3))
    res = wcsf.evolution_residual(traj, manifold, len(traj) // 2)
    assert res.max() < 1e-4


def test_theta_monitor_exact_zero_slack_at_start(left_exp):
    traj = short_run(left_exp, sin_field(0.3))
    exp_rep, drift_rep = wcsf.theta_bound_monitor(traj, left_exp)
    assert exp_rep.passed and exp_rep.worst_slack == 0.0
    assert abs(exp_rep.constant_value - 0.09) < 1e-12
    assert drift_rep.passed and drift_rep.worst_slack > 0.0
    assert exp_rep.constant_inputs["min_theta_0"] == traj[0].fields.theta.min()


def test_drift_report_constant_is_left_drift_constant(left_exp):
    traj = short_run(left_exp, sin_field(0.3))
    _, drift_rep = wcsf.theta_bound_monitor(traj, left_exp)
    t_final, theta0 = traj.scalars[-1, 0], traj.scalars[0, 1]
    assert drift_rep.constant_value == wcsf.drift_constant(
        left_exp, t_final, theta0)


def test_theta_monitor_flags_a_violated_bound(left_exp):
    # a steeper graph 0.01 later has a smaller min theta than the
    # exponential bound allows; the slack is reported, never clamped
    traj = wcsf.Trajectory()
    for t, a in ((0.0, 0.3), (0.01, 1.5)):
        curve = wcsf.make_graph_curve(sin_field(a), 64)
        traj.append(wcsf.FlowState(curve, t,
                                   wcsf.compute_fields(curve, left_exp)))
    exp_rep, _ = wcsf.theta_bound_monitor(traj, left_exp)
    assert exp_rep.worst_slack < -0.1 and not exp_rep.passed


def test_theta_monitor_rejects_bad_tolerance(left_exp):
    # a negative eps_tol would report bounds that hold as falsified
    traj = short_run(left_exp, sin_field(0.3))
    for bad in (-0.5, -1e-12, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps_tol"):
            wcsf.theta_bound_monitor(traj, left_exp, eps_tol=bad)
    exp_rep, _ = wcsf.theta_bound_monitor(traj, left_exp, eps_tol=0.0)
    assert exp_rep.passed and exp_rep.worst_slack == 0.0


def test_theta_monitor_vacuous_drift_on_single_state(left_exp):
    curve = wcsf.make_graph_curve(sin_field(0.3), 64)
    traj, _ = wcsf.run(left_exp, curve, wcsf.FlowParams(t_max=0.0))
    exp_rep, drift_rep = wcsf.theta_bound_monitor(traj, left_exp)
    assert exp_rep.passed and drift_rep.passed
    assert "vacuous" in drift_rep.notes
    # a parametric run has interior states, but none is time-differenced
    pc = wcsf.DiscreteCurve("parametric", curve.coords, curve.winding)
    traj, _ = wcsf.run(left_exp, pc,
                       wcsf.FlowParams(t_max=0.05, record_stride=1))
    assert len(traj) >= 3
    _, drift_rep = wcsf.theta_bound_monitor(traj, left_exp)
    assert drift_rep.passed and drift_rep.worst_slack == np.inf
    assert drift_rep.notes == ("parametric states are not time-differenced;"
                               " vacuous")


def test_dissipation_monitor_small_defect(product):
    traj = short_run(product, sin_field(0.5))
    rep = wcsf.dissipation_monitor(traj, product)
    assert rep.passed
    assert rep.worst_slack <= 0.0
    assert -rep.worst_slack < 1e-4


@pytest.mark.parametrize("kind", ["product", "left_exp", "right_exp"])
def test_dissipation_monitor_matches_loop_reference(kind, request):
    # same arithmetic per interval as the loop, so the result is bitwise
    manifold = request.getfixturevalue(kind)
    traj = short_run(manifold, sin_field(0.4), t_max=0.3, stride=3)
    rep = wcsf.dissipation_monitor(traj, manifold)
    assert -rep.worst_slack == oracles.dissipation_defect_loop(traj)


def test_dissipation_monitor_single_state_has_no_defect(product):
    curve = wcsf.make_graph_curve(sin_field(0.5), 64)
    traj, _ = wcsf.run(product, curve, wcsf.FlowParams(t_max=0.0))
    rep = wcsf.dissipation_monitor(traj, product)
    assert rep.passed and rep.worst_slack == 0.0


def test_closed_form_theta_conventions(left_exp, right_exp):
    for manifold in (left_exp, right_exp):
        traj = short_run(manifold, sin_field(0.3))
        direct = wcsf.closed_form_theta(traj[0], manifold)
        assert direct < 1e-12


def test_studies_pass_on_small_grids(left_exp, monkeypatch):
    # the three studies share the ladder's runs, integrated on first read;
    # the gradient identity study never triggers them
    calls = []
    real_run = wcsf.verification.run

    def counted(manifold, curve, params):
        calls.append(curve.m)
        return real_run(manifold, curve, params)

    monkeypatch.setattr(wcsf.verification, "run", counted)
    ladder = wcsf.RefinementLadder(left_exp, sin_field(0.3), grids=(32, 64),
                                   t_end=0.04)
    assert wcsf.gradient_identity_study(ladder).passed
    assert calls == []
    rep = wcsf.evolution_residual_study(ladder)
    assert rep.passed and rep.orders[0] > 1.8
    rep = wcsf.commutator_residual_study(ladder)
    assert rep.passed and rep.orders[0] > 1.5
    rep = wcsf.dissipation_residual_study(ladder)
    assert rep.passed and rep.orders[0] > 1.8
    assert calls == [32, 64]


@pytest.mark.parametrize("kwargs", [
    {"grids": (64,)}, {"grids": ()}, {"grids": (64, 64)},
    {"grids": (128, 64)}, {"t_end": 0.0}, {"t_end": float("nan")},
    {"t_end": float("inf")}, {"cfl": 0.0}, {"cfl": 1.5},
    {"cfl": float("nan")},
])
def test_refinement_ladder_rejects_a_ladder_without_orders(left_exp, kwargs):
    # one grid gave a study with orders () that passed vacuously
    with pytest.raises(ValueError):
        wcsf.RefinementLadder(left_exp, sin_field(0.3), **kwargs)


def test_gradient_identity_study_floor_escape(left_exp):
    ladder = wcsf.RefinementLadder(left_exp, sin_field(0.3), grids=(64, 128))
    rep = wcsf.gradient_identity_study(ladder)
    assert rep.passed
    assert max(rep.max_residuals) < 1e-11


def test_material_derivative_needs_graph_nodes(product):
    u = wcsf.spectral.nodes(64)
    coords = np.column_stack([u, 0.3 * np.sin(u)])
    curve = wcsf.DiscreteCurve("parametric", coords, (1, 0))
    traj, _ = wcsf.run(product, curve,
                       wcsf.FlowParams(t_max=0.02, record_stride=1,
                                       tol_geo=0.0))
    with pytest.raises(ValueError):
        wcsf.evolution_residual(traj, product, 1)