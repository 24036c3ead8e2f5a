"""Acceptance gate: the eight primary criteria, one test per criterion.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Every test prints its measured numbers so a failure carries
the evidence inline. Criterion 4 has a companion test that reruns the
same scenario with the initial symmetry broken; see the note there.
"""
import time

import numpy as np
import pytest

import oracles
import wcsf
from conftest import (left_exp_manifold, perturbed_base, product_manifold,
                      right_exp_manifold)
from wcsf.cli import main as cli_main


def sin_field(a, mean=0.0):
    return wcsf.FourierField([mean], [0.0, a])


def circ_dist(a, b):
    return float(abs((a - b + np.pi) % (2.0 * np.pi) - np.pi))


def timed_run(manifold, field, m, t_max, stride, tol_geo=1e-6):
    curve = wcsf.make_graph_curve(field, m)
    params = wcsf.FlowParams(t_max=t_max, record_stride=stride,
                             tol_geo=tol_geo)
    t0 = time.perf_counter()
    traj, rep = wcsf.run(manifold, curve, params)
    return traj, rep, time.perf_counter() - t0


def timed_study(func, ladder):
    t0 = time.perf_counter()
    rep = func(ladder)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def crit2_runs():
    manifold = left_exp_manifold()
    field = wcsf.FourierField.constant(np.pi / 2)
    ode = timed_run(manifold, field, 64, 5.0, 1, tol_geo=0.0)
    limit = timed_run(manifold, field, 64, 50.0, 200)
    return manifold, ode, limit


@pytest.fixture(scope="module")
def scenario3():
    manifold = product_manifold()
    return (manifold,) + timed_run(manifold, sin_field(0.5), 128, 50.0, 20)


@pytest.fixture(scope="module")
def scenario4():
    manifold = left_exp_manifold()
    return (manifold,) + timed_run(manifold, sin_field(0.3), 128, 50.0, 40)


@pytest.fixture(scope="module")
def scenario5():
    manifold = right_exp_manifold()
    return (manifold,) + timed_run(manifold, sin_field(0.3), 128, 50.0, 20)


@pytest.fixture(scope="module")
def studies():
    setups = {
        "product": (product_manifold(), sin_field(0.5)),
        "left": (left_exp_manifold(), sin_field(0.3)),
        "right": (right_exp_manifold(), sin_field(0.3)),
    }
    out = {}
    for label, (manifold, field) in setups.items():
        ladder = wcsf.RefinementLadder(manifold, field)
        # evolution reads the ladder first, so its time includes the runs
        # that criteria 3 and 5 add to their flow's time
        out[label] = {
            "evolution": timed_study(wcsf.evolution_residual_study, ladder),
            "commutator": timed_study(wcsf.commutator_residual_study, ladder),
            "dissipation": timed_study(wcsf.dissipation_residual_study,
                                       ladder),
        }
    return out


def test_criterion_1_structural_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    flat, bumpy = None, perturbed_base()
    configs = [
        wcsf.WarpedProduct(wcsf.LEFT, warp=wcsf.FourierField.exp_cos(0.3)),
        wcsf.WarpedProduct(wcsf.LEFT, warp=wcsf.FourierField.exp_cos(0.3),
                           g11=bumpy),
        wcsf.WarpedProduct(wcsf.RIGHT, warp=wcsf.FourierField.exp_cos(0.2)),
        wcsf.WarpedProduct(wcsf.RIGHT, warp=wcsf.FourierField.exp_cos(0.2),
                           g11=bumpy),
    ]
    worst_dr, worst_conf, worst_chris = 0.0, 0.0, 0.0
    for manifold in configs:
        # drawn point by point, r, x, X, Y in turn, then checked at once
        draws = [(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi),
                  rng.normal(size=2), rng.normal(size=2))
                 for _ in range(1000)]
        pts = np.array([d[:2] for d in draws])
        x = np.array([d[2] for d in draws])
        y = np.array([d[3] for d in draws])
        worst_dr = max(worst_dr, float(oracles.dr_identity_residual(
            manifold, pts, x, y).max()))
        if manifold.kind == wcsf.RIGHT:
            worst_conf = max(worst_conf, float(oracles.conformal_residual(
                manifold, pts, x).max()))
        pts = np.array([(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
                        for _ in range(25)])
        for p, got in zip(pts, manifold.frame(pts)[1]):
            want = oracles.fd_christoffel(manifold, p)
            worst_chris = max(worst_chris, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: dr residual {worst_dr:.3e}, conformal "
          f"{worst_conf:.3e}, christoffel vs FD {worst_chris:.3e}, "
          f"runtime {elapsed:.2f}s")
    assert worst_dr < 1e-10
    assert worst_conf < 1e-10
    assert worst_chris < 1e-6
    assert elapsed < 5.0


def test_criterion_2_symmetry_reduction_oracle(crit2_runs):
    manifold, ode_run, limit_run = crit2_runs
    traj, rep, t_ode = ode_run

    spread = max(float(np.ptp(state.curve.coords[:, 1])) for state in traj)
    assert spread < 1e-12  # r-circles stay r-circles node for node

    dts = np.diff(traj.scalars[:, wcsf.record.TIME])
    oracle = oracles.scalar_rk4(lambda x: 0.3 * np.sin(x),
                                np.pi / 2, dts)
    got = np.array([state.curve.coords[0, 1] for state in traj])
    gap = float(np.abs(got - oracle).max())

    ltraj, lrep, t_lim = limit_run
    x_final = float(ltraj.final.curve.coords[0, 1])
    dist = circ_dist(x_final, np.pi)
    elapsed = t_ode + t_lim
    print(f"criterion 2: PDE vs scalar RK4 gap {gap:.3e} on [0,5], "
          f"|x(T)-pi| {dist:.3e} at t={lrep.t_final:.2f}, "
          f"runtime {elapsed:.2f}s")
    assert gap < 1e-8
    assert lrep.stop_reason is wcsf.StopReason.CONVERGED
    assert lrep.t_final <= 50.0
    assert dist < 1e-3
    assert elapsed < 10.0


def test_criterion_3_product_case(scenario3, studies):
    manifold, traj, rep, t_run = scenario3
    study, t_study = studies["product"]["evolution"]
    theta_drop = float(traj.scalars[0, 1] - traj.scalars[:, 1].min())
    elapsed = t_run + t_study
    print(f"criterion 3: stop={rep.stop_reason.value} t={rep.t_final:.2f} "
          f"max|A|={rep.final_max_curvature:.2e}, "
          f"min theta drop {theta_drop:.2e}, "
          f"orders {tuple(round(o, 2) for o in study.orders)}, "
          f"runtime {elapsed:.1f}s")
    assert rep.stop_reason is wcsf.StopReason.CONVERGED
    assert rep.t_final < 50.0
    assert rep.final_max_curvature < 1e-6
    assert theta_drop <= 1e-4
    assert study.passed and all(o >= 1.8 for o in study.orders)
    assert elapsed < 60.0


def test_criterion_4_left_warped(scenario4):
    manifold, traj, rep, t_run = scenario4
    exp_rep, drift_rep = wcsf.theta_bound_monitor(traj)
    dist = circ_dist(rep.limit_base_point, np.pi)
    print(f"criterion 4: stop={rep.stop_reason.value} t={rep.t_final:.2f}, "
          f"exp slack {exp_rep.worst_slack:.3e} "
          f"(C={exp_rep.constant_value:.4f}), "
          f"drift slack {drift_rep.worst_slack:.3e}, "
          f"limit base point {rep.limit_base_point:.6f} "
          f"(distance to pi {dist:.3e}), runtime {t_run:.1f}s")
    assert rep.stop_reason is not wcsf.StopReason.GRAPH_LOSS
    assert abs(exp_rep.constant_value - 0.09) < 1e-12
    assert exp_rep.passed  # theta(t) >= exp(-0.09 t) min theta(0) - 1e-4
    assert drift_rep.passed and drift_rep.worst_slack >= -1e-4
    assert rep.stop_reason is wcsf.StopReason.CONVERGED
    assert dist < 1e-3, (
        "the limit r-circle sits at the symmetry-protected equilibrium "
        "x=0, not at x=pi: the initial profile 0.3 sin r is odd, the flow "
        "preserves that symmetry, so the mean of f stays pinned at 0 for "
        "all time and the limit cannot leave x=0 (an unstable equilibrium "
        "reachable only on the symmetric slice). Any perturbation escapes: "
        "see test_criterion_4_companion_asymmetric_limit, which runs the "
        "identical scenario with the mean shifted by 0.05 and converges "
        "to x=pi well inside 1e-3."
    )
    assert t_run < 60.0


def test_criterion_4_companion_asymmetric_limit():
    # same scenario as criterion 4 with the odd symmetry broken; the limit
    # then reaches the stable equilibrium x=pi as expected. The base point
    # spends about seven time units in transit before the exponential decay
    # regime, so this run gets a longer horizon on a coarser grid.
    manifold = left_exp_manifold()
    traj, rep, t_run = timed_run(manifold, sin_field(0.3, mean=0.05),
                                 64, 80.0, 40)
    exp_rep, drift_rep = wcsf.theta_bound_monitor(traj)
    dist = circ_dist(rep.limit_base_point, np.pi)
    print(f"criterion 4 companion: stop={rep.stop_reason.value} "
          f"t={rep.t_final:.2f}, distance to pi {dist:.3e}, "
          f"geodesic certified {rep.geodesic_certified}, "
          f"runtime {t_run:.1f}s")
    assert rep.stop_reason is wcsf.StopReason.CONVERGED
    assert exp_rep.passed and drift_rep.passed
    assert dist < 1e-3
    assert rep.geodesic_certified
    assert t_run < 60.0


def test_criterion_5_right_warped(scenario5, studies):
    manifold, traj, rep, t_run = scenario5
    study, t_study = studies["right"]["evolution"]
    exp_rep, drift_rep = wcsf.theta_bound_monitor(traj)
    elapsed = t_run + t_study
    print(f"criterion 5: stop={rep.stop_reason.value} t={rep.t_final:.2f}, "
          f"orders {tuple(round(o, 2) for o in study.orders)}, "
          f"exp slack {exp_rep.worst_slack:.3e} "
          f"(C={exp_rep.constant_value:.4f}), "
          f"drift slack {drift_rep.worst_slack:.3e} "
          f"(C={drift_rep.constant_value:.6f}), "
          f"final min theta_hat 1-{1.0 - rep.final_min_theta_hat:.2e}, "
          f"runtime {elapsed:.1f}s")
    assert study.passed and all(o >= 1.8 for o in study.orders)
    assert abs(exp_rep.constant_value - 0.2) < 1e-12
    assert exp_rep.passed  # theta(t) >= exp(-0.2 t) min theta(0) - 1e-4
    assert abs(drift_rep.constant_value - 0.2225) < 1e-6
    assert drift_rep.passed and drift_rep.worst_slack >= -1e-4
    assert rep.stop_reason is wcsf.StopReason.CONVERGED
    assert rep.final_min_theta_hat > 1.0 - 1e-6
    assert elapsed < 60.0


def test_criterion_6_commutator_identity(studies):
    orders = {}
    for label in ("product", "left", "right"):
        study, _ = studies[label]["commutator"]
        orders[label] = tuple(round(o, 2) for o in study.orders)
        assert study.passed and all(o >= 1.5 for o in study.orders), label
    print(f"criterion 6: commutator orders {orders}")


def test_criterion_7_dissipation(studies, crit2_runs, scenario3, scenario4,
                                 scenario5):
    orders = {}
    for label in ("product", "left", "right"):
        study, _ = studies[label]["dissipation"]
        orders[label] = tuple(round(o, 2) for o in study.orders)
        assert study.passed and all(o >= 1.8 for o in study.orders), label
    reports = [crit2_runs[1][1], crit2_runs[2][1], scenario3[2],
               scenario4[2], scenario5[2]]
    assert all(rep.length_monotone for rep in reports)
    print(f"criterion 7: dissipation orders {orders}, length monotone in "
          f"all {len(reports)} flow runs")


@pytest.mark.usefixtures("planted_drift_defect")
def test_criterion_8_determinism_and_plumbing(tmp_path):
    base = ("manifold.kind = left\nwarp.exp_cos = 0.3\n"
            "init.sin = 0.0, 0.3\ngrid.m = 32\ntime.t_max = 0.2\n"
            "record.stride = 10\n")
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(base)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(cfg), "--out", str(a)]) == 0
    assert cli_main(["run", str(cfg), "--out", str(b)]) == 0
    identical = all((a / n).read_bytes() == (b / n).read_bytes()
                    for n in ("report.txt", "trajectory.csv"))
    assert identical

    suite = tmp_path / "suite"
    suite.mkdir()
    injections = {
        "ok": (base, 0),
        # flat warp: no cushion in the drift bound, so the planted defect
        # fails it by 9e-4 past tol.bound (conftest)
        "falsified": (base.replace("warp.exp_cos = 0.3\n", ""), 1),
        "lost": (base + "tol.theta_floor = 0.999\n", 2),
        "blown": (base + "tol.a_ceiling = 0.01\n", 3),
    }
    single_codes = {}
    for stem, (text, expect) in injections.items():
        path = suite / f"{stem}.cfg"
        path.write_text(text)
        code = cli_main(["run", str(path),
                         "--out", str(tmp_path / f"single_{stem}")])
        single_codes[stem] = code
        assert code == expect, stem
    report = (tmp_path / "single_falsified" / "report.txt").read_text()
    assert "bounds.drift.passed = no" in report
    assert "dissipation.passed = yes" in report
    out = tmp_path / "suite_out"
    suite_code = cli_main(["suite", str(suite), "--out", str(out)])
    assert suite_code == max(single_codes.values()) == 3
    summary = (out / "summary.txt").read_text()
    for stem, code in single_codes.items():
        assert f"{stem}: exit {code}" in summary
    print(f"criterion 8: reruns byte-identical {identical}, single exits "
          f"{single_codes}, suite exit {suite_code}")