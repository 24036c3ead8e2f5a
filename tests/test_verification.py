from functools import cached_property

import numpy as np
import pytest

import oracles
import wcsf
from conftest import curved_manifold
from wcsf.identities import BoundConstants


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
        res = wcsf.evolution_residual(traj, k)
        assert np.abs(res).max() < 1e-12
        assert wcsf.commutator_residual(traj, k) < 1e-12
        assert wcsf.gradient_identity_residual(traj[k]) < 1e-12
        diss = wcsf.dissipation_monitor(traj)
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
    res_r = wcsf.evolution_residual(traj_r, k)
    res_l = wcsf.evolution_residual(traj_l, k)
    assert np.abs(res_r - res_l).max() < 1e-11
    assert abs(wcsf.commutator_residual(traj_r, k)
               - wcsf.commutator_residual(traj_l, k)) < 1e-11


def test_left_exp_constant_value(left_exp):
    c = wcsf.exp_constant(left_exp)
    assert abs(c - 0.09) < 1e-12
    assert c == wcsf.exp_constant(left_exp)


def test_right_constants_values(right_exp):
    c = wcsf.exp_constant(right_exp)
    assert abs(c - 0.2) < 1e-12
    d = BoundConstants(right_exp, 1.0).constant(2.0)
    # analytic max of 0.16 sin^2 + 0.2 |cos| at cos r = 0.625
    assert abs(d - 0.2225) < 1e-6
    assert d == BoundConstants(right_exp, 0.5).constant(0.0)


def test_left_drift_constant_formula(left_exp):
    got = BoundConstants(left_exp, min_theta0=1.2).constant(2.0)
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
    got = BoundConstants(curved, min_theta0=1.2).constant(2.0)
    # max psi^2 = e^{0.6}, at x = 0
    expect = 4.0 * c * (1.0 + np.exp(0.6) * np.exp(c * 2.0) / 1.2)
    assert abs(got - expect) < 1e-10


def test_residual_needs_interior_index(left_exp):
    traj = short_run(left_exp, sin_field(0.2))
    with pytest.raises(ValueError):
        wcsf.evolution_residual(traj, 0)
    with pytest.raises(ValueError):
        wcsf.evolution_residual(traj, len(traj) - 1)


@pytest.mark.parametrize("kind", ["left_exp", "right_exp"])
def test_evolution_residual_small_on_recorded_run(kind, request):
    manifold = request.getfixturevalue(kind)
    traj = short_run(manifold, sin_field(0.3))
    res = wcsf.evolution_residual(traj, len(traj) // 2)
    assert res.max() < 1e-4


def test_theta_monitor_exact_zero_slack_at_start(left_exp):
    traj = short_run(left_exp, sin_field(0.3))
    exp_rep, drift_rep = wcsf.theta_bound_monitor(traj)
    assert exp_rep.passed and exp_rep.worst_slack == 0.0
    assert abs(exp_rep.constant_value - 0.09) < 1e-12
    assert drift_rep.passed and drift_rep.worst_slack > 0.0
    assert exp_rep.input["min_theta_0"] == traj[0].fields.theta.min()


def test_drift_report_constant_is_left_drift_constant(left_exp):
    traj = short_run(left_exp, sin_field(0.3))
    _, drift_rep = wcsf.theta_bound_monitor(traj)
    t_final, theta0 = traj.scalars[-1, 0], traj.scalars[0, 1]
    assert drift_rep.constant_value == BoundConstants(
        left_exp, theta0).constant(t_final)


def test_theta_monitor_flags_a_violated_bound(left_exp):
    # a steeper graph 0.01 later has a smaller min theta than the
    # exponential bound allows; the slack is reported, never clamped
    traj = wcsf.Trajectory()
    for t, a in ((0.0, 0.3), (0.01, 1.5)):
        curve = wcsf.make_graph_curve(sin_field(a), 64)
        traj.append(wcsf.FlowState(curve, t,
                                   wcsf.compute_fields(curve, left_exp)))
    exp_rep, _ = wcsf.theta_bound_monitor(traj)
    assert exp_rep.worst_slack < -0.1 and not exp_rep.passed


def test_theta_monitor_rejects_bad_tolerance(left_exp):
    # a negative eps_tol would report bounds that hold as falsified
    traj = short_run(left_exp, sin_field(0.3))
    for bad in (-0.5, -1e-12, float("nan"), float("inf")):
        for monitor in (wcsf.theta_bound_monitor, wcsf.dissipation_monitor):
            with pytest.raises(ValueError, match="eps_tol"):
                monitor(traj, eps_tol=bad)
    exp_rep, _ = wcsf.theta_bound_monitor(traj, eps_tol=0.0)
    assert exp_rep.passed and exp_rep.worst_slack == 0.0


def test_theta_monitor_checks_the_drift_of_a_single_state(left_exp):
    # the flow's exact rate needs no neighbour in time: one state, one row
    curve = wcsf.make_graph_curve(sin_field(0.3), 64)
    traj, _ = wcsf.run(left_exp, curve, wcsf.FlowParams(t_max=0.0))
    assert len(traj.drift) == 1 and np.isfinite(traj.drift[0])
    exp_rep, drift_rep = wcsf.theta_bound_monitor(traj)
    assert exp_rep.passed and drift_rep.passed
    assert np.isfinite(drift_rep.worst_slack)


def test_deturck_drift_slack_matches_the_graph_twin():
    # the drift check reads DeTurck states too: both gauges trace one
    # flow, so the worst slacks agree (gap 4.4e-16)
    manifold = wcsf.WarpedProduct(wcsf.LEFT,
                                  warp=wcsf.FourierField.exp_cos(0.3),
                                  g11=wcsf.FourierField([1.0, 0.2]))
    graph = wcsf.make_graph_curve(
        wcsf.FourierField([0.05], [0.0, 0.3, 0.1]), 128)
    twin = wcsf.DiscreteCurve("parametric", graph.coords, graph.winding)
    params = wcsf.FlowParams(t_max=2.0, record_stride=20)
    slacks = []
    for curve in (graph, twin):
        traj, _ = wcsf.run(manifold, curve, params)
        _, drift_rep = wcsf.theta_bound_monitor(traj)
        assert drift_rep.passed
        slacks.append(drift_rep.worst_slack)
    assert np.isfinite(slacks[1])
    assert abs(slacks[1] - slacks[0]) < 1e-6


@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("kind", [wcsf.LEFT, wcsf.RIGHT])
def test_the_exact_angle_rate_matches_a_difference_along_the_velocity(
        kind, curved):
    # FlowRates' covariant rates against the angle and the length of
    # gamma +- eps W, at every recorded state of graph, DeTurck and winding
    # runs (largest gaps 1.7e-8 and 1.8e-9 at m = 128, the difference
    # step's error)
    manifold = (curved_manifold(kind) if curved else wcsf.WarpedProduct(
        kind, warp=wcsf.FourierField.exp_cos(0.3)))
    field = wcsf.FourierField([0.05], [0.0, 0.3, 0.1])
    params = wcsf.FlowParams(t_max=0.1, record_stride=5)
    for m in (32, 64, 128):
        graph = wcsf.make_graph_curve(field, m)
        for curve in (graph,
                      wcsf.DiscreteCurve("parametric", graph.coords, (1, 0)),
                      wcsf.make_graph_curve(field, m, 1)):
            traj, _ = wcsf.run(manifold, curve, params)
            assert len(traj) > 2
            for state in traj:
                rates = wcsf.rates.FlowRates(state)
                gap = np.abs(rates.theta_dt - oracles.theta_dt_fd(state)).max()
                assert gap < 1e-7, (m, curve.mode, curve.winding, state.t)
                gap = abs(rates.length_dt - oracles.length_dt_fd(state))
                assert gap < 1e-7, (m, curve.mode, curve.winding, state.t)


@pytest.mark.parametrize("kind", [wcsf.LEFT, wcsf.RIGHT])
def test_the_identity_columns_match_the_centred_residuals(kind):
    # each state's exact-rate defect against the centred-difference
    # residual at its interior states, on graph, DeTurck and winding runs
    # over a curved base: the gaps are the centred differences' own error,
    # at most 8.9e-5 (evolution) and 2.9e-4 (commutator) at stride 1, and
    # near 3.6 times larger at stride 2, as the second-order error of a
    # difference over twice the time steps
    manifold = curved_manifold(kind)
    field = wcsf.FourierField([0.05], [0.0, 0.3, 0.1])
    graph = wcsf.make_graph_curve(field, 64)
    for curve in (graph,
                  wcsf.DiscreteCurve("parametric", graph.coords, (1, 0)),
                  wcsf.make_graph_curve(field, 64, 1)):
        gaps = []
        for stride in (1, 2):
            traj, _ = wcsf.run(manifold, curve, wcsf.FlowParams(
                t_max=0.02, record_stride=stride, tol_geo=0.0))
            assert len(traj) > 3
            interior = range(1, len(traj) - 1)
            gaps.append((
                max(abs(wcsf.evolution_residual(traj, k).max()
                        - traj.evolution_defect[k]) for k in interior),
                max(abs(wcsf.commutator_residual(traj, k)
                        - traj.commutator_defect[k]) for k in interior)))
            assert max(traj.evolution_defect.max(),
                       traj.commutator_defect.max()) < 1e-8
        (evolution, commutator), coarse = gaps
        assert evolution < 1.5e-4 and commutator < 5e-4, curve.winding
        assert coarse[0] > 3.0 * evolution and coarse[1] > 3.0 * commutator


def test_dissipation_monitor_small_defect(product):
    traj = short_run(product, sin_field(0.5))
    rep = wcsf.dissipation_monitor(traj)
    assert rep.passed
    assert rep.worst_slack <= 0.0
    assert -rep.worst_slack < 1e-4


@pytest.mark.parametrize("kind", ["product", "left_exp", "right_exp"])
def test_dissipation_monitor_matches_a_difference_along_the_velocity(
        kind, request):
    # each state's defect against the length of gamma +- eps W: the two
    # agree to the difference step's error, and the slack is the largest
    manifold = request.getfixturevalue(kind)
    traj = short_run(manifold, sin_field(0.4), t_max=0.3, stride=3)
    defect = traj.dissipation_defect
    assert len(defect) == len(traj) > 3
    for state, got, dissipation in zip(
            traj, defect, traj.scalars[:, wcsf.record.DISSIPATION]):
        want = oracles.length_dt_fd(state) + dissipation
        assert abs(got - want) < 1e-7, state.t
    rep = wcsf.dissipation_monitor(traj)
    assert rep.worst_slack == -np.abs(defect).max() > -1e-14


def test_dissipation_monitor_checks_a_single_state(product):
    # the flow's exact rate needs no neighbour in time: one state, one row
    curve = wcsf.make_graph_curve(sin_field(0.5), 64)
    traj, _ = wcsf.run(product, curve, wcsf.FlowParams(t_max=0.0))
    rep = wcsf.dissipation_monitor(traj)
    assert len(traj.dissipation_defect) == 1
    assert rep.passed and -1e-14 < rep.worst_slack <= 0.0


def test_dissipation_monitor_reads_only_the_table(left_exp):
    # with every state's coordinates dropped, the monitor answers as on
    # the kept run
    traj = short_run(left_exp, sin_field(0.3))
    want = wcsf.dissipation_monitor(traj)
    traj._drop(range(len(traj)))
    with pytest.raises(LookupError):
        traj.curve(0)
    assert traj.kept() == []
    assert wcsf.dissipation_monitor(traj) == want


def test_closed_form_theta_conventions(left_exp, right_exp):
    for manifold in (left_exp, right_exp):
        traj = short_run(manifold, sin_field(0.3))
        direct = wcsf.closed_form_theta(traj[0])
        assert direct < 1e-12


def test_bound_monitor_reads_each_runs_own_manifold(left_exp, right_exp):
    # the constants are those of the manifold the run flowed in
    for manifold in (left_exp, right_exp):
        exp_rep, drift_rep = wcsf.theta_bound_monitor(
            short_run(manifold, sin_field(0.3)))
        assert exp_rep.constant_name == f"C_{manifold.kind}"
        assert drift_rep.constant_name == f"C_{manifold.kind}_drift"
        assert exp_rep.constant_value == wcsf.exp_constant(manifold)


def test_closed_form_theta_takes_either_gauge():
    # a DeTurck curve measures r' where a graph takes r' = 1: at t = 0
    # the two twins agree, and the parametric run keeps its closed form
    manifold = curved_manifold(wcsf.LEFT)
    graph = wcsf.make_graph_curve(sin_field(0.3), 64)
    twin = wcsf.DiscreteCurve("parametric", graph.coords, graph.winding)
    direct = [wcsf.closed_form_theta(
        wcsf.FlowState(c, 0.0, wcsf.compute_fields(c, manifold)))
        for c in (graph, twin)]
    assert abs(direct[1] - direct[0]) < 1e-15
    traj, _ = wcsf.run(manifold, twin,
                       wcsf.FlowParams(t_max=0.5, record_stride=5))
    assert len(traj) > 3
    for state in traj:
        assert wcsf.closed_form_theta(state) < 1e-12


def test_studies_pass_on_small_grids(left_exp, monkeypatch):
    # the three studies share the ladder's runs, integrated on first read;
    # the gradient identity study never triggers them
    calls = []
    real_run = wcsf.verification.run

    def counted(manifold, curve, params, traj=None):
        calls.append(curve.m)
        return real_run(manifold, curve, params, traj)

    monkeypatch.setattr(wcsf.verification, "run", counted)
    monkeypatch.setattr(wcsf.verification, "LADDER_GRIDS", (32, 64))
    monkeypatch.setattr(wcsf.verification, "LADDER_T_END", 0.04)
    ladder = wcsf.RefinementLadder(left_exp, sin_field(0.3))
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
    {"t_end": float("inf")}, {"grids": (48, 96)}, {"grids": (True, 64)},
    {"grids": (32.7, 64)}, {"grids": (64.0, 128)}, {"winding": 1.5},
    {"winding": True},
])
def test_refinement_ladder_rejects_a_ladder_without_orders(left_exp, kwargs):
    # one grid gave a study with orders () that passed vacuously; the grids
    # and the horizon are now fixed, so a ladder refuses them outright
    error = ValueError if "winding" in kwargs else TypeError
    with pytest.raises(error):
        wcsf.RefinementLadder(left_exp, sin_field(0.3), **kwargs)


def test_the_ladder_constants_give_orders():
    # what the deleted per-ladder checks enforced, held by the one ladder
    grids = wcsf.verification.LADDER_GRIDS
    assert len(grids) >= 2
    assert all(a < b for a, b in zip(grids, grids[1:]))
    assert [wcsf.curves._validate_m(m) for m in grids] == list(grids)
    t_end = wcsf.verification.LADDER_T_END
    assert 0.0 < t_end < float("inf")
    assert wcsf.FlowParams(t_max=t_end, tol_geo=0.0).t_max == t_end


@pytest.mark.parametrize("kwargs", [
    {}, {"LADDER_GRIDS": (32, 64), "LADDER_T_END": 0.04}])
def test_lean_rungs_give_the_full_runs_numbers(left_exp, kwargs,
                                               monkeypatch):
    # the studies read exactly the numbers of a plain run at the recorded
    # state k nearest LADDER_T_END / 2, moved inward to have two neighbours
    for name, value in kwargs.items():
        monkeypatch.setattr(wcsf.verification, name, value)
    t_end = wcsf.verification.LADDER_T_END
    ladder = wcsf.RefinementLadder(left_exp, sin_field(0.3))
    reports = (wcsf.evolution_residual_study(ladder),
               wcsf.commutator_residual_study(ladder),
               wcsf.dissipation_residual_study(ladder))
    expected = ([], [], [])
    for m in wcsf.verification.LADDER_GRIDS:
        curve = wcsf.curves.flow_curve(left_exp, sin_field(0.3), m, 0)
        traj, _ = wcsf.run(left_exp, curve,
                           wcsf.FlowParams(t_max=t_end, tol_geo=0.0,
                                           record_stride=1))
        times = traj.scalars[:, wcsf.record.TIME]
        k = int(np.argmin(np.abs(times - 0.5 * t_end)))
        k = min(max(k, 1), len(traj) - 2)
        expected[0].append(
            float(wcsf.evolution_residual(traj, k).max()))
        expected[1].append(wcsf.commutator_residual(traj, k))
        t, length, dissipation = traj.scalars[
            k - 1:k + 2, [wcsf.record.TIME, wcsf.record.LENGTH,
                          wcsf.record.DISSIPATION]].T
        expected[2].append(abs(wcsf.spectral.centered_dt(
            *length, t[1] - t[0], t[2] - t[1]) + dissipation[1]))
    for rep, want in zip(reports, expected):
        assert rep.max_residuals == tuple(want)
    if kwargs:
        # rungs this short put the window against both ends of the run
        assert [len(t) for t in ladder.trajectories] == [4, 11]


def test_a_rung_gives_the_bound_reports_of_a_kept_run(left_exp):
    # a rung is a plain run that keeps every state, so the bound monitor
    # answers on it as on the same run made outside the ladder
    ladder = wcsf.RefinementLadder(left_exp, sin_field(0.3))
    rung = ladder.trajectories[0]
    curve = wcsf.curves.flow_curve(left_exp, sin_field(0.3),
                                   wcsf.verification.LADDER_GRIDS[0], 0)
    params = wcsf.FlowParams(t_max=wcsf.verification.LADDER_T_END,
                             tol_geo=0.0, record_stride=1)
    kept, _ = wcsf.run(left_exp, curve, params)
    assert rung.kept() == list(range(len(rung))) and len(rung) == len(kept)
    assert wcsf.theta_bound_monitor(rung) == wcsf.theta_bound_monitor(kept)


@pytest.mark.parametrize("share", [0.0, 0.5, 2.0])
def test_mid_residuals_read_the_state_nearest_mid_moved_inward(
        left_exp, share, monkeypatch):
    # with LADDER_T_END / 2 at the first state, inside the run and past its
    # end: the state nearest it, moved inward to have two neighbours
    curve = wcsf.make_graph_curve(sin_field(0.3), 64)
    params = wcsf.FlowParams(t_max=0.05, tol_geo=0.0, record_stride=1)
    kept, _ = wcsf.run(left_exp, curve, params)
    n = len(kept)
    assert n > 10
    monkeypatch.setattr(wcsf.verification, "LADDER_T_END", 2 * share * 0.05)
    seen = []

    def residual(traj, k):
        seen.append((traj, k))
        return np.array([float(k)])

    ladder = type("Ladder", (), {"trajectories": (kept,)})()
    got = wcsf.verification._mid_residuals(ladder, residual)
    gaps = [abs(kept.scalars[i, wcsf.record.TIME] - share * 0.05)
            for i in range(n)]
    nearest = gaps.index(min(gaps))
    want = {0.0: 1, 0.5: nearest, 2.0: n - 2}[share]
    if share == 0.5:
        assert 1 < nearest < n - 2
    assert seen == [(kept, want)] and got == [float(want)]


@pytest.mark.parametrize("winding", [0, 1])
def test_ladder_winds_like_its_scenario(left_exp, winding):
    # every rung and every initial curve of the gradient study has the
    # mode and winding of the scenario's own initial curve: the DeTurck
    # gauge of a left warped run; all four studies pass on that flow
    text = ("manifold.kind = left\nwarp.exp_cos = 0.3\n"
            f"init.sin = 0.0, 0.3\ninit.winding = {winding}\n")
    scn = wcsf.parse_config(text)
    want = (scn.initial_curve().mode, scn.initial_curve().winding)
    assert want == ("parametric", (1, winding))
    ladder = wcsf.RefinementLadder(left_exp, sin_field(0.3), winding=winding)
    assert ([(t.final.curve.mode, t.final.curve.winding)
             for t in ladder.trajectories] == [want] * 3)
    for study in (wcsf.evolution_residual_study,
                  wcsf.commutator_residual_study,
                  wcsf.dissipation_residual_study,
                  wcsf.gradient_identity_study):
        assert study(ladder).passed


class DeTurckLadder(wcsf.RefinementLadder):
    """A ladder whose grids run from the parametric twin of the initial
    graph, so that the nodes move in the DeTurck gauge where a plain
    ladder keeps the graph: in a right product with winding 0."""

    @cached_property
    def trajectories(self) -> tuple:
        t_end = wcsf.verification.LADDER_T_END
        params = wcsf.FlowParams(t_max=t_end, tol_geo=0.0, record_stride=1)
        out = []
        for m in wcsf.verification.LADDER_GRIDS:
            g = wcsf.make_graph_curve(self.init_field, m, self.winding)
            twin = wcsf.DiscreteCurve("parametric", g.coords, g.winding)
            out.append(wcsf.run(self.manifold, twin, params)[0])
        return tuple(out)


def graph_gauge_material_dt(t_prev, mid, t_next, values_prev, values_mid,
                            values_next):
    # the graph gauge's rule: centred difference plus H^0 d_u(value)
    node_dt = wcsf.spectral.centered_dt(values_prev, values_mid, values_next,
                                        mid.t - t_prev, t_next - mid.t)
    h0 = mid.fields.curvature[:, 0]
    du = wcsf.spectral.diff(values_mid)
    return node_dt + (h0[:, None] if du.ndim > 1 else h0) * du


@pytest.mark.parametrize("winding", [0, 1])
@pytest.mark.parametrize("kind", [wcsf.LEFT, wcsf.RIGHT])
def test_deturck_ladder_converges_and_the_graph_rule_fails(kind, winding,
                                                           monkeypatch):
    # the material derivative reads DeTurck nodes at the graph gauge's
    # orders; the graph gauge's advection on them leaves an O(1) defect
    a = 0.3 if kind == wcsf.LEFT else 0.2
    manifold = wcsf.WarpedProduct(kind, warp=wcsf.FourierField.exp_cos(a),
                                  g11=wcsf.FourierField([1.0, 0.2]))
    # a left ladder and a winding one flow in the DeTurck gauge already
    ladder = (DeTurckLadder if (kind, winding) == (wcsf.RIGHT, 0)
              else wcsf.RefinementLadder)(manifold, sin_field(0.3),
                                          winding=winding)
    assert {t.final.curve.mode for t in ladder.trajectories} == {"parametric"}
    rep = wcsf.evolution_residual_study(ladder)
    assert rep.passed and min(rep.orders) >= 1.8, rep
    rep = wcsf.commutator_residual_study(ladder)
    assert rep.passed and min(rep.orders) >= 1.5, rep
    monkeypatch.setattr(wcsf.curves, "_material_dt",
                        graph_gauge_material_dt)
    rep = wcsf.evolution_residual_study(ladder)
    assert not rep.passed, rep


def test_gradient_identity_study_floor_escape(left_exp):
    ladder = wcsf.RefinementLadder(left_exp, sin_field(0.3))
    rep = wcsf.gradient_identity_study(ladder)
    assert rep.passed
    assert max(rep.max_residuals) < 1e-11


def test_material_derivative_reads_deturck_nodes(product, left_exp):
    # DeTurck nodes are time-differenced like graph nodes, whether their
    # r-coordinates stay put (flat product) or move (warped product)
    u = wcsf.spectral.nodes(64)
    coords = np.column_stack([u, 0.3 * np.sin(u)])
    curve = wcsf.DiscreteCurve("parametric", coords, (1, 0))
    for manifold in (product, left_exp):
        traj, _ = wcsf.run(manifold, curve,
                           wcsf.FlowParams(t_max=0.02, record_stride=1,
                                           tol_geo=0.0))
        res = wcsf.evolution_residual(traj, 1)
        assert res.shape == (64,) and res.max() < 1e-6
    assert not np.array_equal(traj[1].curve.coords[:, 0], u)