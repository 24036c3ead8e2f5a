import gc
import statistics
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wcsf
from wcsf import flow, spectral
from conftest import left_exp_manifold, product_manifold, right_exp_manifold
from oracles import (einsum_fields, polyline_hausdorff, scalar_rk4,
                     taylor_table_fraction)
from wcsf.scenario import parse_config

TWO_PI = 2.0 * np.pi


def graph_state(manifold, field, m=64):
    curve = wcsf.make_graph_curve(field, m)
    return wcsf.FlowState(curve, 0.0, wcsf.compute_fields(curve, manifold))


def sin_field(a):
    return wcsf.FourierField([0.0], [0.0, a])


def test_velocity_zero_on_right_geodesic(right_exp):
    state = graph_state(right_exp, wcsf.FourierField.constant(1.3))
    assert np.abs(wcsf.velocity(state)).max() < 1e-14


def test_velocity_left_r_circle_example(left_exp):
    state = graph_state(left_exp, wcsf.FourierField.constant(np.pi / 2))
    w = wcsf.velocity(state)
    assert np.abs(w[:, 0]).max() == 0.0
    assert np.abs(w[:, 1] - 0.3).max() < 1e-12
    # parametric mode agrees: an r-circle has v' = 0, so q/v^2 = H, and H
    # has no circle component here
    u = spectral.nodes(64)
    coords = np.column_stack([u, np.full(64, np.pi / 2)])
    pc = wcsf.DiscreteCurve("parametric", coords, (1, 0))
    ps = wcsf.FlowState(pc, 0.0, wcsf.compute_fields(pc, left_exp))
    assert np.abs(wcsf.velocity(ps) - w).max() < 1e-12


def test_velocity_graph_gauge_kills_r_component(product):
    state = graph_state(product, sin_field(0.5))
    w = wcsf.velocity(state)
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
    assert np.array_equal(r1.series, r2.series)
    assert r1.t_final == r2.t_final and r1.steps == r2.steps
    assert np.array_equal(t1.final.curve.coords, t2.final.curve.coords)


def test_graph_loss_flagged(product):
    curve = wcsf.make_graph_curve(sin_field(0.5), 64)
    traj, rep = wcsf.run(product, curve, wcsf.FlowParams(theta_floor=0.999))
    assert rep.stop_reason is wcsf.StopReason.GRAPH_LOSS
    assert rep.graph_loss_falsification
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
        lengths = rep.series[:, 4]
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
    traj = wcsf.Trajectory([graph_state(product, sin_field(0.1))])
    other = graph_state(left_exp, sin_field(0.1))
    with pytest.raises(ValueError, match="manifold"):
        traj.append(wcsf.FlowState(other.curve, 1.0, other.fields))


def test_trajectory_requires_one_mode_grid_and_winding(product):
    first = graph_state(product, sin_field(0.1))
    traj = wcsf.Trajectory([first])
    u = spectral.nodes(64)
    others = [
        wcsf.DiscreteCurve("parametric", first.curve.coords, (1, 0)),
        wcsf.make_graph_curve(sin_field(0.1), 128),
        wcsf.make_graph_curve(sin_field(0.1), 64, x_winding=1,
                              allow_x_winding=True),
        # a graph curve off the node grid could not be rebuilt from x1
        wcsf.DiscreteCurve("graph", np.column_stack([u + 1e-3, u * 0.0]),
                           (1, 0)),
    ]
    for curve in others:
        state = wcsf.FlowState(curve, 1.0, wcsf.compute_fields(curve, product))
        with pytest.raises(ValueError):
            traj.append(state)
    assert len(traj) == 1
    assert traj.curve(0) is first.curve


FIELD_ATTRS = ("deriv", "speed", "tangent", "curvature", "curvature_norm",
               "theta", "theta_hat", "length", "pre_tangential")


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
    assert [s.t for s in traj] == list(traj.times)
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
        wcsf.FlowParams(cfl=0.0)
    with pytest.raises(ValueError):
        wcsf.FlowParams(cfl=1.5)
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
    for name in ("tol_geo", "theta_floor", "a_ceiling"):
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
    times = traj.times
    assert np.all(np.diff(times) > 0.0)
    assert times[0] == 0.0 and abs(times[-1] - 0.05) < 1e-12


def test_recorded_times_on_the_fixed_grid(left_exp):
    curve = wcsf.make_graph_curve(sin_field(0.3), 64)
    params = wcsf.FlowParams(t_max=0.4, record_stride=30)
    traj, rep = wcsf.run(left_exp, curve, params)
    dt0 = wcsf.adaptive_dt(traj[0], params.cfl)
    times = traj.times
    assert len(traj) >= 4 and times[-1] == 0.4
    for j, t in enumerate(times[:-1]):
        assert t == j * params.record_stride * dt0
    # each record interval is split into equal steps, so some intervals
    # take more than one step
    assert rep.steps > len(traj) - 1


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


SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios")
                   .glob("*.cfg"))


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_stock_record_intervals_fit_under_the_cap(path):
    # the cap is no smaller than any stock record interval (0.107 left,
    # 0.060 right, 0.012 product), so once nothing is stiff each interval
    # takes one step
    scn = parse_config(path.read_text())
    curve = scn.initial_curve()
    state = wcsf.FlowState(curve, 0.0,
                           wcsf.compute_fields(curve, scn.manifold))
    assert scn.record_stride * wcsf.adaptive_dt(state, scn.cfl) <= flow.DT_MAX


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


@pytest.mark.parametrize("name", sorted(TIME_ERROR_CASES))
def test_time_error_against_a_finer_reference(name, monkeypatch):
    manifold, field, m, stride, t_max, tol_geo, bound = TIME_ERROR_CASES[name]
    curve = wcsf.make_graph_curve(field, m)
    params = wcsf.FlowParams(t_max=t_max, tol_geo=tol_geo,
                             record_stride=stride)
    traj, _ = wcsf.run(manifold, curve, params)
    monkeypatch.setattr(flow, "DT_MAX", flow.DT_MAX / 10.0)
    ref, _ = wcsf.run(manifold, curve, params)
    assert list(traj.times) == list(ref.times)
    err = max(np.abs(a.coords[:, 1] - b.coords[:, 1]).max()
              for a, b in zip(traj.curves, ref.curves))
    assert err <= bound


def test_steady_record_intervals_take_one_step(left_exp):
    curve = wcsf.make_graph_curve(sin_field(0.3), 128)
    params = wcsf.FlowParams(t_max=5.0, record_stride=100)
    traj, rep = wcsf.run(left_exp, curve, params)
    interval = params.record_stride * wcsf.adaptive_dt(traj[0], params.cfl)
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
        assert flow._median(values) == statistics.median(values)
    # unsorted input of even length: the mean of the two middle values
    assert flow._median([0.3, 0.1, 0.2, 0.4]) == 0.25


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
        want = einsum_fields(curve, manifold)["accel"]
        assert np.abs(wcsf.velocity(state) - want).max() < 1e-12


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
