"""Flow invariants over random small bandlimited warps and initial graphs.

Examples are drawn deterministically (derandomize), on coarse grids and
short horizons, so the whole module stays fast and reproducible.
"""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wcsf
from oracles import drift_worst, graph_twin_gap, resample
from wcsf.cli import _Recorder
from wcsf.spectral import TWO_PI

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)

small = st.floats(min_value=-0.1, max_value=0.1, allow_nan=False)
height = st.floats(min_value=-0.4, max_value=0.4, allow_nan=False)


@st.composite
def flows(draw):
    """(manifold, initial curve): a left or right warp 1 + sum of degree
    <= 2 terms of size <= 0.1 (so it stays above 0.6) and a height of
    degree <= 3 on m = 32 or 64 nodes."""
    kind = draw(st.sampled_from((wcsf.LEFT, wcsf.RIGHT)))
    warp = wcsf.FourierField([1.0] + draw(st.lists(small, min_size=2,
                                                   max_size=2)),
                             [0.0] + draw(st.lists(small, min_size=2,
                                                   max_size=2)))
    init = wcsf.FourierField(draw(st.lists(height, min_size=4, max_size=4)),
                             [0.0] + draw(st.lists(height, min_size=3,
                                                   max_size=3)))
    m = draw(st.sampled_from((32, 64)))
    return (wcsf.WarpedProduct(kind, warp=warp),
            wcsf.make_graph_curve(init, m))


def short(**kw):
    return wcsf.FlowParams(t_max=0.3, record_stride=5, **kw)


@SETTINGS
@given(flows())
def test_length_monotone_and_angle_bound(case):
    manifold, curve = case
    traj, rep = wcsf.run(manifold, curve, short())
    assert rep.length_monotone
    assert np.all(np.diff(traj.scalars[:, 4]) <= 1e-10)
    exp_rep, _ = wcsf.theta_bound_monitor(traj)
    assert exp_rep.passed, exp_rep.worst_slack


@SETTINGS
@given(flows())
def test_reruns_bitwise_identical(case):
    manifold, curve = case
    t1, r1 = wcsf.run(manifold, curve, short())
    t2, r2 = wcsf.run(manifold, curve, short())
    assert r1.steps == r2.steps
    assert np.array_equal(t1.scalars, t2.scalars)
    assert np.array_equal(t1.final.curve.coords, t2.final.curve.coords)


@SETTINGS
@given(flows())
def test_graph_loss_and_blowup_are_stop_reasons(case):
    manifold, curve = case
    fields = wcsf.compute_fields(curve, manifold)
    floor = float(fields.theta_hat.min()) + 1e-9
    _, rep = wcsf.run(manifold, curve, short(tol_geo=0.0, theta_floor=floor))
    assert rep.stop_reason is wcsf.StopReason.GRAPH_LOSS
    ceiling = 0.5 * float(fields.curvature_norm.max())
    if ceiling > 0.0:
        _, rep = wcsf.run(manifold, curve, short(a_ceiling=ceiling))
        assert rep.stop_reason is wcsf.StopReason.BLOWUP


@SETTINGS
@given(flows())
def test_scalars_are_a_read_only_float64_table_of_the_states(case):
    manifold, curve = case
    traj, _ = wcsf.run(manifold, curve, short())
    rows = traj.scalars
    assert rows.dtype == np.float64 and rows.shape == (len(traj), 6)
    for i, row in enumerate(rows):
        state = traj[i]
        f = state.fields
        expected = np.array([
            state.t, f.theta.min(), f.theta_hat.min(),
            f.curvature_norm.max(), f.length,
            (f.curvature_norm ** 2 * f.speed).sum() * (TWO_PI / curve.m)])
        assert row.tobytes() == expected.tobytes(), i
    before = rows.copy()
    with pytest.raises(ValueError):
        rows[:] = -1.0
    assert traj.scalars.tobytes() == before.tobytes()
    with pytest.raises(ValueError):
        traj.drift[:] = -1.0


def parametric_twin(curve):
    return wcsf.DiscreteCurve("parametric", curve.coords, curve.winding)


@SETTINGS
@given(flows())
def test_parametric_twin_converges_to_the_graph_run(case):
    # the DeTurck flow of a graph traces the graph flow: the distance of
    # the parametric nodes from the graph run's final curve is a
    # discretization error, which must fall by 16x per doubling of m
    manifold, curve = case
    gaps = []
    for m in (curve.m, 2 * curve.m):
        g = resample(curve, m)
        traj_g, _ = wcsf.run(manifold, g, short(tol_geo=0.0))
        traj_p, _ = wcsf.run(manifold, parametric_twin(g), short(tol_geo=0.0))
        assert traj_g.final.t == traj_p.final.t == 0.3
        gaps.append(graph_twin_gap(traj_g.final.curve, traj_p.final.curve))
    assert gaps[1] <= gaps[0] / 16.0 or gaps[1] < 1e-10, gaps


@SETTINGS
@given(flows())
def test_parametric_flow_keeps_a_graph(case):
    manifold, curve = case
    traj, rep = wcsf.run(manifold, parametric_twin(curve), short())
    assert np.all(traj.scalars[:, 2] > 0.0)
    assert rep.length_monotone
    exp_rep, _ = wcsf.theta_bound_monitor(traj)
    assert exp_rep.passed, exp_rep.worst_slack


@SETTINGS
@given(flows())
@example((wcsf.WarpedProduct(wcsf.RIGHT, warp=wcsf.FourierField.exp_cos(0.2),
                             g11=wcsf.FourierField([1.0, 0.2])),
          wcsf.make_graph_curve(wcsf.FourierField([0.0], [0.0, 0.3]), 64)))
def test_streamed_drift_check_matches_the_post_run_monitor(case):
    # the drift table filled as run records gives the recorder the reports
    # of the monitor over the kept trajectory and the per-state check's
    # slack to its difference step, on warps with sine terms in both
    # families, in the graph and the DeTurck gauge
    manifold, graph = case
    for curve in (graph, parametric_twin(graph)):
        kept, _ = wcsf.run(manifold, curve, short())
        streamed, _ = wcsf.run(manifold, curve, short(),
                               _Recorder(io.StringIO()))
        # a flat draw converges at once: one state, one drift row
        assert len(streamed.drift) == len(kept)
        reports = wcsf.theta_bound_monitor(streamed)
        assert reports == wcsf.theta_bound_monitor(kept)
        assert abs(reports[1].worst_slack - drift_worst(kept)) < 1e-7
