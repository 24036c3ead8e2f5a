import gc
import io
import statistics
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wcsf
from wcsf import flow, record, spectral
from conftest import (left_exp_manifold, load_perfbench, product_manifold,
                      right_exp_manifold)
from oracles import (clairaut_length, einsum_fields, polyline_hausdorff,
                     scalar_rk4, tangential_part, taylor_table_fraction)
from wcsf.artifacts import write_trajectory_csv
from wcsf.cli import execute_scenario
from wcsf.scenario import parse_config

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

TWO_PI = 2.0 * np.pi


def graph_state(manifold, field, m=64):
    curve = wcsf.make_graph_curve(field, m)
    return wcsf.FlowState(curve, 0.0, wcsf.compute_fields(curve, manifold))


def sin_field(a):
    return wcsf.FourierField([0.0], [0.0, a])


def test_velocity_zero_on_right_geodesic(right_exp):
    state = graph_state(right_exp, wcsf.FourierField.constant(1.3))
    assert np.abs(state.fields.velocity).max() < 1e-14


def test_velocity_left_r_circle_example(left_exp):
    state = graph_state(left_exp, wcsf.FourierField.constant(np.pi / 2))
    w = state.fields.velocity
    assert np.abs(w[:, 0]).max() == 0.0
    assert np.abs(w[:, 1] - 0.3).max() < 1e-12
    # parametric mode agrees: an r-circle has v' = 0, so q/v^2 = H, and H
    # has no circle component here
    u = spectral.nodes(64)
    coords = np.column_stack([u, np.full(64, np.pi / 2)])
    pc = wcsf.DiscreteCurve("parametric", coords, (1, 0))
    ps = wcsf.FlowState(pc, 0.0, wcsf.compute_fields(pc, left_exp))
    assert np.abs(ps.fields.velocity - w).max() < 1e-12


def test_velocity_graph_gauge_kills_r_component(product):
    state = graph_state(product, sin_field(0.5))
    w = state.fields.velocity
    assert np.abs(w[:, 0]).max() == 0.0


def test_adaptive_dt_examples(product):
    state = graph_state(product, wcsf.FourierField.constant(0.0), m=64)
    dt = wcsf.adaptive_dt(state, 0.25)
    assert abs(dt - 0.25 * (TWO_PI / 64) ** 2) < 1e-15
    assert abs(dt - 2.4087e-3) < 1e-6
    state128 = graph_state(product, wcsf.FourierField.constant(0.0), m=128)
    assert abs(wcsf.adaptive_dt(state128, 0.25) - dt / 4.0) < 1e-15


def test_step_stationary_curve_drifts_below_float_noise(right_exp):
    state = graph_state(right_exp, wcsf.FourierField.constant(2.0))
    dt = wcsf.adaptive_dt(state, 0.25)
    nxt = wcsf.step_rk4(state, right_exp, dt)
    assert nxt.t == dt
    assert np.abs(nxt.curve.coords - state.curve.coords).max() < 1e-14


def test_one_step_matches_scalar_ode(left_exp):
    state = graph_state(left_exp, wcsf.FourierField.constant(np.pi / 2))
    dt = wcsf.adaptive_dt(state, 0.25)
    nxt = wcsf.step_rk4(state, left_exp, dt)
    oracle = scalar_rk4(lambda x: 0.3 * np.sin(x), np.pi / 2, [dt])[-1]
    assert np.abs(nxt.curve.coords[:, 1] - oracle).max() < 1e-14


def test_one_step_length_decreases(product):
    state = graph_state(product, sin_field(0.5))
    dt = wcsf.adaptive_dt(state, 0.25)
    nxt = wcsf.step_rk4(state, product, dt)
    assert nxt.fields.length < state.fields.length


def test_run_zero_t_max_is_max_time(product):
    curve = wcsf.make_graph_curve(sin_field(0.5), 64)
    traj, rep = wcsf.run(product, curve, wcsf.FlowParams(t_max=0.0))
    assert rep.stop_reason is wcsf.StopReason.MAX_TIME
    assert len(traj) == 1 and rep.steps == 0 and rep.t_final == 0.0
    assert rep.dt_min is rep.dt_median is rep.dt_max is None


def test_run_instant_convergence_on_geodesic(right_exp):
    curve = wcsf.make_graph_curve(wcsf.FourierField.constant(0.7), 64)
    traj, rep = wcsf.run(right_exp, curve, wcsf.FlowParams())
    assert rep.stop_reason is wcsf.StopReason.CONVERGED
    assert len(traj) == 1 and rep.t_final == 0.0
    assert rep.geodesic_certified


def test_run_preserves_odd_symmetry(product):
    curve = wcsf.make_graph_curve(sin_field(0.3), 64)
    traj, rep = wcsf.run(product, curve,
                         wcsf.FlowParams(t_max=2.0, record_stride=100))
    x = traj.final.curve.coords[:, 1]
    mirrored = -np.roll(x[::-1], 1)  # f(2 pi - u) = -f(u) on the node set
    assert np.abs(x - mirrored).max() < 1e-8


def test_gauge_equivalence_hausdorff(product):
    m = 64
    curve = wcsf.make_graph_curve(sin_field(0.5), m)
    params = wcsf.FlowParams(t_max=1.0, record_stride=10 ** 6)
    traj_g, rep_g = wcsf.run(product, curve, params)
    pc = wcsf.DiscreteCurve("parametric", curve.coords.copy(), curve.winding)
    traj_p, rep_p = wcsf.run(product, pc, params)
    assert rep_g.t_final == rep_p.t_final == 1.0
    dist = polyline_hausdorff(traj_g.final.curve.coords, curve.winding,
                              traj_p.final.curve.coords, curve.winding)
    assert dist <= 5.0 * (TWO_PI / m) ** 2


def test_run_deterministic(left_exp):
    curve = wcsf.make_graph_curve(sin_field(0.3), 64)
    params = wcsf.FlowParams(t_max=0.3, record_stride=20)
    t1, r1 = wcsf.run(left_exp, curve, params)
    t2, r2 = wcsf.run(left_exp, curve, params)
    assert np.array_equal(t1.scalars, t2.scalars)
    assert r1.t_final == r2.t_final and r1.steps == r2.steps
    assert np.array_equal(t1.final.curve.coords, t2.final.curve.coords)


def test_graph_loss_flagged(product):
    curve = wcsf.make_graph_curve(sin_field(0.5), 64)
    traj, rep = wcsf.run(product, curve, wcsf.FlowParams(theta_floor=0.999))
    assert rep.stop_reason is wcsf.StopReason.GRAPH_LOSS
    assert not rep.geodesic_certified


def test_blowup_threshold(product):
    curve = wcsf.make_graph_curve(sin_field(0.5), 64)
    traj, rep = wcsf.run(product, curve, wcsf.FlowParams(a_ceiling=0.01))
    assert rep.stop_reason is wcsf.StopReason.BLOWUP


def test_blowup_beats_convergence_in_priority(product):
    curve = wcsf.make_graph_curve(sin_field(0.5), 64)
    traj, rep = wcsf.run(product, curve,
                         wcsf.FlowParams(tol_geo=1.0, a_ceiling=0.01))
    assert rep.stop_reason is wcsf.StopReason.BLOWUP


def test_converging_undecided_flag(product):
    curve = wcsf.make_graph_curve(sin_field(0.5), 64)
    traj, rep = wcsf.run(product, curve,
                         wcsf.FlowParams(t_max=0.5, record_stride=20))
    assert rep.stop_reason is wcsf.StopReason.MAX_TIME
    assert rep.converging_undecided
    assert not rep.geodesic_certified


def test_length_monotone_in_report(product, left_exp, right_exp):
    for manifold in (product, left_exp, right_exp):
        curve = wcsf.make_graph_curve(sin_field(0.4), 64)
        traj, rep = wcsf.run(manifold, curve,
                             wcsf.FlowParams(t_max=1.0, record_stride=25))
        assert rep.length_monotone
        lengths = traj.scalars[:, 4]
        assert np.all(np.diff(lengths) <= 1e-10)


def test_state_fields_match_fresh_computation(left_exp):
    curve = wcsf.make_graph_curve(sin_field(0.3), 64)
    traj, _ = wcsf.run(left_exp, curve,
                       wcsf.FlowParams(t_max=0.2, record_stride=7))
    state = traj.final
    fresh = wcsf.compute_fields(state.curve, left_exp)
    assert np.array_equal(state.fields.theta, fresh.theta)
    assert np.array_equal(state.fields.curvature, fresh.curvature)


def test_trajectory_requires_increasing_time(product):
    state = graph_state(product, sin_field(0.1))
    traj = wcsf.Trajectory()
    traj.append(state)
    with pytest.raises(ValueError):
        traj.append(state)
    # nan <= t is false, so an order check alone lets a NaN time through
    at_nan = wcsf.FlowState(state.curve, float("nan"), state.fields)
    for target in (traj, wcsf.Trajectory()):
        with pytest.raises(ValueError, match="finite"):
            target.append(at_nan)
    assert len(traj) == 1


def test_trajectory_requires_one_manifold(product, left_exp):
    traj = wcsf.Trajectory()
    traj.append(graph_state(product, sin_field(0.1)))
    other = graph_state(left_exp, sin_field(0.1))
    with pytest.raises(ValueError, match="manifold"):
        traj.append(wcsf.FlowState(other.curve, 1.0, other.fields))


def test_trajectory_requires_one_mode_grid_and_winding(product):
    first = graph_state(product, sin_field(0.1))
    traj = wcsf.Trajectory()
    traj.append(first)
    u = spectral.nodes(64)
    # a graph curve off the node grid could not be rebuilt from x1; it
    # cannot even be built
    with pytest.raises(ValueError):
        wcsf.DiscreteCurve("graph", np.column_stack([u + 1e-3, u * 0.0]),
                           (1, 0))
    others = [
        wcsf.DiscreteCurve("parametric", first.curve.coords, (1, 0)),
        wcsf.make_graph_curve(sin_field(0.1), 128),
        wcsf.make_graph_curve(sin_field(0.1), 64, x_winding=1),
    ]
    for curve in others:
        state = wcsf.FlowState(curve, 1.0, wcsf.compute_fields(curve, product))
        with pytest.raises(ValueError):
            traj.append(state)
    assert len(traj) == 1
    assert traj.curve(0) is first.curve


FIELD_ATTRS = ("deriv", "speed", "tangent", "curvature", "curvature_norm",
               "theta", "theta_hat", "length")


def rebuild_case(name):
    if name == "parametric":
        u = spectral.nodes(64)
        coords = np.column_stack([u, 0.4 * np.sin(u)])
        return product_manifold(), wcsf.DiscreteCurve("parametric", coords,
                                                      (1, 0))
    manifold = {"left": left_exp_manifold, "right": right_exp_manifold}[name]
    return manifold(), wcsf.make_graph_curve(sin_field(0.3), 64)


@pytest.mark.parametrize("name", ["left", "right", "parametric"])
def test_rebuilt_fields_are_the_flows_fields(name, monkeypatch):
    # a trajectory keeps only coordinates; reading an older state rebuilds
    # its curve and fields, which must be bit for bit those the stepper
    # produced
    manifold, curve = rebuild_case(name)
    flowed = {}
    step = flow.step_rk4

    def capture(state, *args, **kwargs):
        nxt = step(state, *args, **kwargs)
        flowed.setdefault(state.t, state)   # the initial state
        flowed[nxt.t] = nxt
        return nxt

    monkeypatch.setattr(flow, "step_rk4", capture)
    traj, _ = wcsf.run(manifold, curve,
                       wcsf.FlowParams(t_max=0.05, record_stride=3))
    n = len(traj)
    assert n >= 4
    for k in range(n):
        for state in (traj[k], traj[k - n]):
            want = flowed[state.t]
            # older curves are rebuilt from the kept coordinates
            assert state.curve.mode == want.curve.mode
            assert state.curve.winding == want.curve.winding
            assert (state.curve.coords.tobytes()
                    == want.curve.coords.tobytes())
            for attr in FIELD_ATTRS:
                assert np.array_equal(getattr(state.fields, attr),
                                      getattr(want.fields, attr)), attr
            assert np.array_equal(tangential_part(state.curve, state.fields),
                                  tangential_part(want.curve, want.fields))
    assert [s.t for s in traj] == list(traj.scalars[:, record.TIME])
    with pytest.raises(IndexError):
        traj[n]


def test_trajectory_holds_curves_not_fields(product):
    # at m = 128 a curve's coordinates take 2 KB and its CurveFields
    # about 12.7 KB more; a trajectory keeps fields for its newest state
    # only, and of an older graph state only the 1 KB x1 column
    curve = wcsf.make_graph_curve(sin_field(0.5), 128)
    params = wcsf.FlowParams(t_max=0.13, record_stride=1)
    tracemalloc.start()
    try:
        traj, _ = wcsf.run(product, curve, params)
        n = len(traj)
        held = tracemalloc.get_traced_memory()[0]
        del traj
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n >= 200
    assert held / n <= 2048


def test_flow_params_validation():
    with pytest.raises(ValueError):
        wcsf.FlowParams(t_max=-1.0)
    with pytest.raises(ValueError):
        wcsf.FlowParams(record_stride=0)
    # record times are j * stride * dt0, so the stride must be a count
    for bad in (2.5, True, False, "2"):
        with pytest.raises(ValueError, match="record_stride"):
            wcsf.FlowParams(record_stride=bad)
    stride = wcsf.FlowParams(record_stride=np.int64(3)).record_stride
    assert stride == 3 and type(stride) is int
    for t_max in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            wcsf.FlowParams(t_max=t_max)
    for name in ("tol_geo", "tol_bound", "theta_floor", "a_ceiling"):
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match=name):
                wcsf.FlowParams(**{name: bad})
    with pytest.raises(ValueError, match="a_ceiling"):
        wcsf.FlowParams(a_ceiling=0.0)
    # the studies run to a fixed time with convergence switched off
    assert wcsf.FlowParams(tol_geo=0.0, theta_floor=0.0).tol_geo == 0.0


def test_record_stride_controls_sampling(product):
    curve = wcsf.make_graph_curve(sin_field(0.3), 64)
    traj, rep = wcsf.run(product, curve,
                         wcsf.FlowParams(t_max=0.05, record_stride=1))
    assert len(traj) == rep.steps + 1
    times = traj.scalars[:, record.TIME]
    assert np.all(np.diff(times) > 0.0)
    assert times[0] == 0.0 and abs(times[-1] - 0.05) < 1e-12


def test_recorded_times_on_the_fixed_grid(left_exp):
    curve = wcsf.make_graph_curve(sin_field(0.3), 64)
    params = wcsf.FlowParams(t_max=0.4, record_stride=30)
    traj, rep = wcsf.run(left_exp, curve, params)
    dt0 = wcsf.adaptive_dt(traj[0], wcsf.flow.CFL)
    times = traj.scalars[:, record.TIME]
    assert len(traj) >= 4 and times[-1] == 0.4
    for j, t in enumerate(times[:-1]):
        assert t == j * params.record_stride * dt0
    # each record interval is split into equal steps, so some intervals
    # take more than one step
    assert rep.steps > len(traj) - 1


def test_a_t_max_a_sliver_past_a_record_time_adds_one_record(tmp_path):
    # a t_max 2e-12 or 4e-12 past the third record time gets a record
    # interval of its own; both checks read each state alone, so neither
    # slack moves, where the dissipation defect's Delta L / Delta t across
    # such a sliver read -2.51e-4 against -3.12e-5
    text = (SCENARIO_DIR / "product.cfg").read_text()
    scn = parse_config(text)
    curve = scn.initial_curve()
    state = wcsf.FlowState(curve, 0.0,
                           wcsf.compute_fields(curve, scn.manifold))
    t3 = 3 * scn.params.record_stride * wcsf.adaptive_dt(state, flow.CFL)
    slack = {"drift": [], "dissipation": []}
    for t_max, records in ((t3, "4"), (t3 + 2e-12, "5"), (t3 + 4e-12, "5")):
        out = tmp_path / repr(t_max)
        scn = parse_config(text + f"time.t_max = {t_max!r}\n")
        assert execute_scenario(scn, out) == (0, "max_time")
        report = dict(line.split(" = ", 1) for line
                      in (out / "report.txt").read_text().splitlines())
        assert report["flow.t_final"] == repr(t_max)
        assert report["flow.recorded_states"] == records
        slack["drift"].append(float(report["bounds.drift.worst_slack"]))
        slack["dissipation"].append(float(report["dissipation.worst_slack"]))
    for name, values in slack.items():
        assert max(values) - min(values) < 1e-12, (name, values)


@pytest.mark.parametrize("name, strides", [("product", (20, 1000)),
                                           ("left_warped", (100, 1000)),
                                           ("right_warped", (100, 1000))])
def test_the_drift_slack_does_not_depend_on_the_record_stride(name, strides):
    # both checks read each state's exact rate, so 23 records of the
    # product flow give the worst slacks that 1,093 give; the dissipation
    # slack of Delta L / Delta t read -3.12e-5 and -3.59e-2 on product
    scn = parse_config((SCENARIO_DIR / f"{name}.cfg").read_text())
    drift, dissipation = [], []
    for stride in strides:
        params = replace(scn.params, record_stride=stride)
        traj, _ = wcsf.run(scn.manifold, scn.initial_curve(), params)
        drift.append(wcsf.theta_bound_monitor(traj)[1].worst_slack)
        dissipation.append(wcsf.dissipation_monitor(traj).worst_slack)
    assert abs(drift[1] - drift[0]) < 1e-8, drift
    assert abs(dissipation[1] - dissipation[0]) < 1e-12, dissipation


STOCK = {
    # scenario: (manifold, initial sin(r) amplitude, stock record stride)
    "left_warped": (left_exp_manifold(), 0.3, 100),
    "right_warped": (right_exp_manifold(), 0.3, 100),
    "product": (product_manifold(), 0.5, 20),
}


@pytest.mark.parametrize("name", sorted(STOCK))
def test_sparse_recording_keeps_the_outcome(name):
    # with record_stride = 10**6 only t_max bounds a record interval, so
    # the steps are held by the step limit and DT_MAX alone
    manifold, amp, stride = STOCK[name]
    curve = wcsf.make_graph_curve(sin_field(amp), 128)
    _, stock = wcsf.run(manifold, curve, wcsf.FlowParams(record_stride=stride))
    traj, sparse = wcsf.run(manifold, curve,
                            wcsf.FlowParams(record_stride=10 ** 6))
    assert len(traj) == 2
    assert sparse.stop_reason is stock.stop_reason
    assert abs(sparse.length_final - stock.length_final) < 1e-8


def test_sparse_recording_r_circle_reaches_pi(left_exp):
    curve = wcsf.make_graph_curve(wcsf.FourierField.constant(np.pi / 2), 64)
    traj, rep = wcsf.run(left_exp, curve,
                         wcsf.FlowParams(record_stride=10 ** 6))
    assert rep.stop_reason is wcsf.StopReason.CONVERGED
    assert abs(traj.final.curve.coords[0, 1] - np.pi) < 1e-3
    assert rep.steps * flow.DT_MAX >= rep.t_final


SCENARIOS = sorted(SCENARIO_DIR.glob("*.cfg"))


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_stock_record_intervals_fit_under_the_cap(path):
    # the cap is no smaller than any stock record interval (0.107 left,
    # 0.060 right, 0.012 product), so once nothing is stiff each interval
    # takes one step
    scn = parse_config(path.read_text())
    curve = scn.initial_curve()
    state = wcsf.FlowState(curve, 0.0,
                           wcsf.compute_fields(curve, scn.manifold))
    params = scn.params
    dt0 = wcsf.adaptive_dt(state, wcsf.flow.CFL)
    assert params.record_stride * dt0 <= flow.DT_MAX


TIME_ERROR_CASES = {
    # case: (manifold, initial field, m, record_stride, t_max, tol_geo, bound)
    "left": (left_exp_manifold(), sin_field(0.3), 128, 100, 5.0, 1e-6, 1e-8),
    "right": (right_exp_manifold(), sin_field(0.3), 128, 100, 5.0, 1e-6,
              1e-8),
    # one record interval of length 20, so only DT_MAX holds the steps;
    # measured 1.5e-8 at DT_MAX = 0.125 and 2.2e-7 at 0.25
    "asymmetric_left": (left_exp_manifold(),
                        wcsf.FourierField([0.05], [0.0, 0.3]), 64, 10 ** 6,
                        20.0, 0.0, 1e-7),
}
# the "left" case's graph in the DeTurck gauge of a left scenario's run:
# measured 8.8e-10, against 6.1e-10 in the graph gauge
TIME_ERROR_CASES["left_deturck"] = TIME_ERROR_CASES["left"]


@pytest.mark.parametrize("name", sorted(TIME_ERROR_CASES))
def test_time_error_against_a_finer_reference(name, monkeypatch):
    manifold, field, m, stride, t_max, tol_geo, bound = TIME_ERROR_CASES[name]
    curve = (wcsf.curves.flow_curve(manifold, field, m, 0)
             if name == "left_deturck" else wcsf.make_graph_curve(field, m))
    params = wcsf.FlowParams(t_max=t_max, tol_geo=tol_geo,
                             record_stride=stride)
    traj, _ = wcsf.run(manifold, curve, params)
    monkeypatch.setattr(flow, "DT_MAX", flow.DT_MAX / 10.0)
    ref, _ = wcsf.run(manifold, curve, params)
    assert (list(traj.scalars[:, record.TIME])
            == list(ref.scalars[:, record.TIME]))
    # both columns: a DeTurck curve moves its r nodes too
    err = max(np.abs(traj.curve(i).coords - ref.curve(i).coords).max()
              for i in range(len(traj)))
    assert err <= bound


def test_curved_verify_flows_in_fewer_steps_in_the_deturck_gauge():
    # the benchmark's seed-0 curved_verify config (a left warp over a
    # curved base): the DeTurck gauge evens out the node speed, so the
    # stiffness limit lets go sooner than in the graph gauge, for the
    # same length (measured 47 against 62 steps, lengths 3.4e-12 apart)
    config = load_perfbench("workloads").WORKLOADS["curved_verify"].config(0)
    scn = parse_config(config)
    curve = scn.initial_curve()
    assert curve.mode == "parametric"
    _, deturck = wcsf.run(scn.manifold, curve, scn.params)
    graph = wcsf.make_graph_curve(scn.init_field, scn.m)
    _, plain = wcsf.run(scn.manifold, graph, scn.params)
    assert deturck.steps <= 50 and plain.steps == 62
    assert abs(deturck.length_final - plain.length_final) < 1e-10


def test_steady_record_intervals_take_one_step(left_exp):
    curve = wcsf.make_graph_curve(sin_field(0.3), 128)
    params = wcsf.FlowParams(t_max=5.0, record_stride=100)
    traj, rep = wcsf.run(left_exp, curve, params)
    interval = params.record_stride * wcsf.adaptive_dt(traj[0], wcsf.flow.CFL)
    assert abs(rep.dt_max - interval) < 1e-12
    assert rep.dt_min <= rep.dt_median <= rep.dt_max


def test_etd_weights_reduce_to_rk4_at_zero():
    e, e2, q, f1, f2, f3 = flow._etd_weights(np.zeros(1), 0.3)
    assert e[0] == e2[0] == 1.0
    assert q[0] == 0.15
    assert f1[0] == f2[0] == f3[0] == 0.3 * (1.0 / 6.0)


def test_taylor_table_is_the_exact_rational_table():
    assert flow._TAYLOR.tobytes() == taylor_table_fraction().tobytes()


def test_median_is_statistics_median():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4, 7, 10):
        values = list(rng.uniform(0.0, 1.0, n))
        assert record._median(values) == statistics.median(values)
    # unsorted input of even length: the mean of the two middle values
    assert record._median([0.3, 0.1, 0.2, 0.4]) == 0.25


def test_reduced_angles_lie_below_two_pi():
    # an angle a few ulps below 0 reduces to 0, not to 2 pi, in the limit
    # base point and in every trajectory.csv coordinate
    for angles in ([-1e-17], [1e-17, -3e-17], [-1e-17, 2e-17, -4e-17]):
        assert 0.0 <= record._circular_mean(np.array(angles)) < TWO_PI
    state = graph_state(product_manifold(), wcsf.FourierField([-1e-17]))
    fh = io.StringIO()
    write_trajectory_csv(fh, state)
    rows = np.loadtxt(io.StringIO(fh.getvalue()), delimiter=",")
    assert np.all((0.0 <= rows[:, 2:4]) & (rows[:, 2:4] < TWO_PI))


def test_etd_weights_series_meets_closed_form():
    # both branches at |z| = 2 and far out against the phi-function
    # forms f1 = phi1 - 3 phi2 + 4 phi3, f2 = phi2 - 2 phi3,
    # f3 = 4 phi3 - phi2, evaluated here by the plain recurrences
    z = np.array([-2.0 + 1e-12, -2.0, -7.5, -400.0])
    _, _, q, f1, f2, f3 = flow._etd_weights(z, 1.0)
    phi1 = np.expm1(z) / z
    phi2 = (phi1 - 1.0) / z
    phi3 = (phi2 - 0.5) / z
    assert np.allclose(q, np.expm1(0.5 * z) / z, rtol=1e-13, atol=0.0)
    assert np.allclose(f1, phi1 - 3.0 * phi2 + 4.0 * phi3, rtol=1e-12, atol=0.0)
    assert np.allclose(f2, phi2 - 2.0 * phi3, rtol=1e-12, atol=0.0)
    assert np.allclose(f3, 4.0 * phi3 - phi2, rtol=1e-12, atol=0.0)


def test_parametric_velocity_is_the_einsum_acceleration(product, left_exp):
    # parametric nodes move with the DeTurck velocity q/v^2, q the
    # covariant acceleration gamma'' + Gamma(gamma', gamma')
    u = spectral.nodes(64)
    curve = wcsf.DiscreteCurve(
        "parametric", np.column_stack([u + 0.2 * np.sin(u), 0.4 * np.sin(u)]),
        (1, 0))
    for manifold in (product, left_exp):
        state = wcsf.FlowState(curve, 0.0,
                               wcsf.compute_fields(curve, manifold))
        want = einsum_fields(curve, manifold)["velocity"]
        assert np.abs(state.fields.velocity - want).max() < 1e-12


def test_parametric_trajectory_keeps_its_own_coordinates():
    # the recorded initial state must not follow later writes to the
    # caller's coordinate array
    flat = wcsf.WarpedProduct(wcsf.LEFT)
    u = spectral.nodes(32)
    a = np.column_stack([u, 0.3 * np.sin(u)])
    curve = wcsf.DiscreteCurve("parametric", a, (1, 0))
    traj, _ = wcsf.run(flat, curve,
                       wcsf.FlowParams(t_max=0.05, record_stride=5))
    assert len(traj) >= 3
    kept = traj.curve(0).coords.copy()
    a[:, 1] = 0.0
    assert np.array_equal(traj.curve(0).coords, kept)
    assert traj[0].fields.length == traj.scalars[0, 4]


@pytest.mark.parametrize("mode", ["graph", "parametric"])
def test_run_without_steps_keeps_its_own_coordinates(mode):
    # a run that takes no step records its initial state only, as its
    # newest state; that state must not follow later writes to the
    # caller's coordinate array either
    flat = wcsf.WarpedProduct(wcsf.LEFT)
    u = spectral.nodes(32)
    a = np.column_stack([u, 0.3 * np.sin(u)])
    curve = wcsf.DiscreteCurve(mode, a, (1, 0))
    traj, _ = wcsf.run(flat, curve, wcsf.FlowParams(t_max=0.0))
    assert len(traj) == 1
    kept = traj.curve(0).coords.copy()
    a[:, 1] = 0.0
    assert np.array_equal(traj.curve(0).coords, kept)
    fresh = wcsf.compute_fields(traj.curve(0), flat)
    assert traj[0].fields.length == fresh.length == traj.scalars[0, 4]


def test_run_records_into_the_callers_trajectory(product):
    # run appends to the Trajectory it is handed and returns that object,
    # with the same states as a run that makes its own
    curve = wcsf.make_graph_curve(sin_field(0.3), 32)
    params = wcsf.FlowParams(t_max=0.05, record_stride=2)
    mine = wcsf.Trajectory()
    traj, report = wcsf.run(product, curve, params, mine)
    assert traj is mine and len(mine) > 2
    fresh, fresh_report = wcsf.run(product, curve, params)
    assert np.array_equal(mine.scalars, fresh.scalars)
    assert report.steps == fresh_report.steps
    with pytest.raises(ValueError, match="empty"):
        wcsf.run(product, curve, params, mine)


@pytest.mark.parametrize("kind", ["left_exp", "right_exp"])
def test_a_winding_graph_has_no_limit_base_point(kind, request):
    # a graph winding once around the base converges to a closed geodesic
    # of class (1, 1), not to an r-circle: no base point is its limit
    manifold = request.getfixturevalue(kind)
    curve = wcsf.make_graph_curve(sin_field(0.3), 32, x_winding=1)
    traj, rep = wcsf.run(manifold, curve,
                         wcsf.FlowParams(t_max=80.0, record_stride=200))
    assert rep.stop_reason is wcsf.StopReason.CONVERGED
    assert rep.limit_base_point is None
    assert rep.limit_warp_gradient_norm is None
    assert rep.geodesic_certified
    # the final x values spread over the base: their mean resultant
    # length is far from 1
    x = traj.final.curve.coords[:, 1]
    assert abs(np.exp(1j * x).mean()) < 0.5


@pytest.mark.parametrize("kind, a", [("left", 0.3), ("right", 0.2)])
def test_a_winding_graph_converges_to_its_clairaut_geodesic(kind, a):
    # in the DeTurck gauge the nodes follow the (1, 1) geodesic's varying
    # r-speed: m = 32 converges in 222 (left) and 233 (right) steps, where
    # the graph gauge took 1,167 and 420, and the limit's length meets the
    # Clairaut oracle's to about 4e-12 (1.4e-8 on the left in the graph
    # gauge)
    scn = parse_config(f"manifold.kind = {kind}\nwarp.exp_cos = {a}\n"
                       "init.sin = 0.0, 0.3\ninit.winding = 1\n"
                       "grid.m = 32\ntime.t_max = 200\n")
    _, rep = wcsf.run(scn.manifold, scn.initial_curve(), scn.params)
    _, length = clairaut_length(kind, scn.manifold.warp, 1)
    assert rep.stop_reason is wcsf.StopReason.CONVERGED
    assert rep.steps <= 300, rep.steps
    assert abs(rep.length_final - length) < 1e-9


# (kind, exp_cos amplitude, w, Clairaut constant c, length L): ROADMAP
# item 12's table; the sign of w does not matter
CLAIRAUT_TABLE = [("left", 0.3, 1, 0.6228506574, 8.6234897928),
                  ("left", 0.3, -1, 0.6228506574, 8.6234897928),
                  ("left", 0.3, 2, 0.4056829260, 13.9184738660),
                  ("right", 0.2, 1, 0.6655429132, 8.7607332882),
                  ("right", 0.2, 2, 0.8003389832, 13.4979737663)]


def test_clairaut_oracle_reproduces_its_table():
    for kind, a, w, c, length in CLAIRAUT_TABLE:
        got = clairaut_length(kind, wcsf.FourierField.exp_cos(a), w)
        assert abs(got[0] - c) < 1e-10 and abs(got[1] - length) < 1e-10, got


def test_a_run_does_not_depend_on_the_lift_of_its_graph(left_exp):
    # the warp reads x mod 2 pi, so a graph and its shift by -2 pi flow
    # alike: the same steps and states, the same limit, x equal mod 2 pi.
    # The steps never fold the lift back: the mean-3.5 run stays above pi
    params = wcsf.FlowParams(t_max=50.0, record_stride=50)
    runs = []
    for mean in (3.5, 3.5 - 2.0 * np.pi):
        field = wcsf.FourierField([mean], [0.0, 0.3])
        runs.append(wcsf.run(left_exp, wcsf.make_graph_curve(field, 32),
                             params))
    (lifted, rep), (plain, plain_rep) = runs
    assert rep.stop_reason is wcsf.StopReason.CONVERGED
    assert (rep.steps, rep.recorded_states) == (plain_rep.steps,
                                                plain_rep.recorded_states)
    assert rep.limit_base_point == plain_rep.limit_base_point
    assert rep.length_final == plain_rep.length_final
    assert np.abs(lifted.scalars - plain.scalars).max() < 1e-12
    x, x_plain = (t.final.curve.coords[:, 1] for t in (lifted, plain))
    assert x.mean() > np.pi
    assert np.abs(x - 2.0 * np.pi - x_plain).max() < 1e-12


def failing_kernel(monkeypatch, n):
    """Make flow's compute_fields raise ImmersionError on its n-th call."""
    kernel = flow.compute_fields
    calls = []

    def kernel_or_fail(curve, manifold):
        calls.append(None)
        if len(calls) == n:
            raise wcsf.ImmersionError("degenerate node")
        return kernel(curve, manifold)

    monkeypatch.setattr(flow, "compute_fields", kernel_or_fail)


def test_an_immersion_error_stops_the_run_as_blowup(left_exp, monkeypatch,
                                                    tmp_path):
    # the kernel runs once on the initial curve and four times a step, so
    # call 1 + 4 * 2 + 2 fails inside the third step of three
    curve = wcsf.make_graph_curve(sin_field(0.3), 32)
    params = wcsf.FlowParams(t_max=0.2, record_stride=10)
    steps = []
    step = flow.step_rk4

    def recorded_step(*args):
        steps.append(step(*args))
        return steps[-1]

    with monkeypatch.context() as patch:
        patch.setattr(flow, "step_rk4", recorded_step)
        wcsf.run(left_exp, curve, params)
    failing_kernel(monkeypatch, 1 + 4 * 2 + 2)
    traj, rep = wcsf.run(left_exp, curve, params)
    assert rep.stop_reason is wcsf.StopReason.BLOWUP
    assert len(steps) == 3 and rep.steps == 2
    assert traj.final.t == steps[1].t
    assert np.array_equal(traj.final.curve.coords, steps[1].curve.coords)

    failing_kernel(monkeypatch, 1 + 4 * 2 + 2)
    scn = parse_config("manifold.kind = left\nwarp.exp_cos = 0.3\n"
                       "init.sin = 0.0, 0.3\ngrid.m = 32\n"
                       "time.t_max = 0.2\nrecord.stride = 10\n")
    assert execute_scenario(scn, tmp_path) == (3, "blowup")
