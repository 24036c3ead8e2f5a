import gc
import io
import os
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import wcsf
import wcsf.cli
from conftest import report_steps
from oracles import (chart_text, drift_worst, svg_snapshot_indices,
                     trajectory_csv_text)
from wcsf.artifacts import (_SNAPSHOTS, open_trajectory_csv, write_svg,
                            write_trajectory_csv)
from wcsf.cli import _Recorder, execute_scenario, main
from wcsf.scenario import parse_config

FAST = """\
manifold.kind = left
warp.exp_cos = 0.3
init.sin = 0.0, 0.3
grid.m = 32
time.t_max = 0.2
record.stride = 10
"""

# a flat warp leaves the drift bound no cushion: conftest's
# planted_drift_defect falsifies it
FLAT = FAST.replace("warp.exp_cos = 0.3\n", "")


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


def read_report(out):
    """The report.txt in the directory out, as a dict of its lines."""
    return dict(line.split(" = ", 1)
                for line in (out / "report.txt").read_text().splitlines())


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "demo.cfg", FAST)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "flow.stop_reason = max_time" in report
    assert "bounds.exp.passed = yes" in report
    assert "dissipation.passed = yes" in report
    assert "residuals." not in report
    csv = (out / "trajectory.csv").read_text().splitlines()
    assert csv[0] == "t, j, r, x1, theta, theta_hat, curvature"
    assert (len(csv) - 1) % 32 == 0
    stdout = capsys.readouterr().out
    assert "exit 0" in stdout and "wall seconds" in stdout


def test_a_winding_run_reports_no_limit_base_point(tmp_path):
    cfg = write_cfg(tmp_path / "winding.cfg", FAST + "init.winding = 1\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text().splitlines()
    assert "flow.limit_base_point = none" in report
    assert "flow.limit_warp_gradient_norm = none" in report


def test_report_has_the_dt_range_but_no_rhs_count(tmp_path):
    # perfbench counts RHS evaluations itself when report.txt has no
    # flow.rhs_evals line, so the report must not carry one
    cfg = write_cfg(tmp_path / "demo.cfg", FAST)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    keys = [line.split(" = ")[0]
            for line in (out / "report.txt").read_text().splitlines()]
    assert "flow.rhs_evals" not in keys
    at = keys.index("flow.steps")
    assert keys[at + 1:at + 4] == ["flow.dt_min", "flow.dt_median",
                                   "flow.dt_max"]


def test_report_flow_section_is_the_flow_report(tmp_path):
    cfg = write_cfg(tmp_path / "demo.cfg", FAST)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    keys = [line.split(" = ")[0]
            for line in (out / "report.txt").read_text().splitlines()]
    assert [k[len("flow."):] for k in keys if k.startswith("flow.")] == [
        f.name for f in fields(wcsf.FlowReport)]


def test_report_sections_are_their_records(tmp_path):
    # each section is its record's fields in order: the scenario's
    # FlowParams sit between m and winding, and a bound or residual report
    # loses its name and flattens input
    cfg = write_cfg(tmp_path / "demo.cfg", FAST + "base.g11.cos = 1.0, 0.2\n")
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out)]) == 0
    keys = [line.split(" = ")[0]
            for line in (out / "report.txt").read_text().splitlines()]

    def section(prefix):
        return [k[len(prefix):] for k in keys if k.startswith(prefix)]

    assert section("scenario.") == ["name", "kind", "m"] + [
        f.name for f in fields(wcsf.FlowParams)] + ["winding"]
    bound = [f.name for f in fields(wcsf.BoundReport)][1:]
    inputs = ["input.grid", "input.min_theta_0", "input.max_warp_sq"]
    at = bound.index("input")
    for prefix, flat in (("bounds.exp.", inputs), ("bounds.drift.", inputs),
                         ("dissipation.", []), ("evolution.", []),
                         ("commutator.", [])):
        assert section(prefix) == bound[:at] + flat + bound[at + 1:]
    studies = {k.split(".")[1] for k in keys if k.startswith("residuals.")}
    assert studies == {"left_gradient_identity"}
    assert section("residuals.left_gradient_identity.") == [
        f.name for f in fields(wcsf.ResidualReport)][1:]


def test_rerun_byte_identical(tmp_path):
    # --out after the path, before it, and as --out=DIR
    cfg = write_cfg(tmp_path / "demo.cfg", FAST)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", "--out", str(b), cfg]) == 0
    assert main(["run", f"--out={c}", cfg]) == 0
    for name in ("report.txt", "trajectory.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes() \
            == (c / name).read_bytes()


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "-h"]])
def test_help_prints_the_usage_and_exits_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: wcsf run CONFIG [--out DIR]\n")
    assert captured.err == ""


def test_verify_adds_residual_sections(tmp_path):
    # the evolution and commutator identities at every recorded state, laid
    # out like the dissipation check; of the ladder studies only the
    # gradient identity's is left, which reads the initial graph alone
    cfg = write_cfg(tmp_path / "demo.cfg", FAST)
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out)]) == 0
    report = read_report(out)
    for name in ("evolution", "commutator"):
        assert report[f"{name}.passed"] == "yes"
        assert -1e-10 < float(report[f"{name}.worst_slack"]) <= 0.0
    assert report["residuals.left_gradient_identity.passed"] == "yes"
    assert "closed_form_theta.direct" in report
    assert not any(key.startswith(("residuals.left_evolution",
                                   "residuals.left_dissipation",
                                   "residuals.left_commutator"))
                   for key in report)


def test_verify_integrates_only_its_own_flow(tmp_path, monkeypatch):
    # every check reads the run's own recorded states, and the gradient
    # study the ladder's initial curves: the scenario's flow is the one
    # run, and verification.run, which integrates the ladder's rungs, is
    # never called
    calls = []
    for module in (wcsf.cli, wcsf.verification):
        def counted(manifold, curve, params, traj=None,
                    name=module.__name__, real_run=module.run):
            calls.append((name, curve.m))
            return real_run(manifold, curve, params, traj)

        monkeypatch.setattr(module, "run", counted)
    cfg = write_cfg(tmp_path / "demo.cfg", FAST + "base.g11.cos = 1.0, 0.2\n")
    assert main(["verify", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == [("wcsf.cli", 32)]


def test_verify_checks_the_scenarios_winding(tmp_path, monkeypatch):
    # the studies' curves wind like the run's and take its DeTurck gauge:
    # a ladder that dropped init.winding certified the unwound flow, and
    # one in the graph gauge another gauge's orders
    windings = set()
    real_fields = wcsf.verification.compute_fields

    def spy(curve, manifold):
        windings.add((curve.mode, curve.winding))
        return real_fields(curve, manifold)

    monkeypatch.setattr(wcsf.verification, "compute_fields", spy)
    cfg = write_cfg(tmp_path / "winding.cfg",
                    FAST + "init.winding = 1\nverify.gradient = on\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert windings == {("parametric", (1, 1))}


def test_verify_reports_a_rung_with_too_few_states(tmp_path):
    # with psi >= 10 the m = 64 rung's first record interval outlasts
    # LADDER_T_END: it records two states, which give no time
    # difference, so the three studies that need one fail on that grid
    scn = parse_config("manifold.kind = left\nwarp.cos = 10\n"
                       "init.sin = 0.0, 0.3\ngrid.m = 64\ntime.t_max = 1\n")
    ladder = wcsf.RefinementLadder(scn.manifold, scn.init_field)
    for study in (wcsf.evolution_residual_study,
                  wcsf.commutator_residual_study,
                  wcsf.dissipation_residual_study):
        report = study(ladder)
        assert np.isnan(report.max_residuals[0]) and report.passed is False
        assert np.isnan(report.orders[0])
    # the run's own checks need no neighbour in time: `wcsf verify` passes
    cfg = write_cfg(tmp_path / "sparse.cfg", "manifold.kind = left\n"
                    "warp.cos = 10\ninit.sin = 0.0, 0.3\ngrid.m = 64\n"
                    "time.t_max = 1\n")
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["evolution.passed"] == report["commutator.passed"] == "yes"
    assert "closed_form_theta.direct" in report


def test_a_single_state_run_checks_its_dissipation(tmp_path):
    # t_max = 0 records one state; its exact rate needs no neighbour in
    # time, so the slack is that state's defect, at rounding level
    cfg = write_cfg(tmp_path / "one.cfg",
                    FAST.replace("time.t_max = 0.2", "time.t_max = 0"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["flow.recorded_states"] == "1"
    assert -1e-15 < float(report["dissipation.worst_slack"]) <= 0.0
    assert report["dissipation.passed"] == "yes"
    assert not any(key.endswith(".notes") for key in report)


def test_a_flat_warp_with_sparse_records_passes_its_drift_check(tmp_path):
    # centred differences of records 10 dt0 apart read worst slack
    # -1.373e-4 and exited 1; the exact rate reads -1.9e-11
    scn = parse_config(FLAT)
    assert execute_scenario(scn, tmp_path) == (0, "max_time")
    report = (tmp_path / "report.txt").read_text()
    assert "bounds.drift.passed = yes" in report


def test_a_run_of_two_records_checks_its_drift(tmp_path):
    # two records left no interior state to difference: the slack read inf
    # and the notes called the check vacuous
    scn = parse_config(FAST.replace("warp.exp_cos = 0.3", "warp.cos = 10")
                       .replace("grid.m = 32", "grid.m = 64")
                       .replace("time.t_max = 0.2", "time.t_max = 1")
                       .replace("record.stride = 10", "record.stride = 50"))
    assert execute_scenario(scn, tmp_path) == (0, "max_time")
    report = read_report(tmp_path)
    assert report["flow.recorded_states"] == "2"
    assert np.isfinite(float(report["bounds.drift.worst_slack"]))
    assert "bounds.drift.notes" not in report


def test_exit_code_falsified(tmp_path, planted_drift_defect):
    # the planted defect fails the drift bound by 9e-4 past tol.bound, and
    # nothing else
    cfg = write_cfg(tmp_path / "f.cfg", FLAT)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    report = read_report(tmp_path / "o")
    assert report["bounds.drift.passed"] == "no"
    slack = float(report["bounds.drift.worst_slack"])
    assert abs(slack + planted_drift_defect) < 1e-9
    assert report["bounds.exp.passed"] == report["dissipation.passed"] == "yes"


PLANTED = ("warp.exp_cos = {a}\ninit.cos = 0.05\ninit.sin = 0.0, 0.3, 0.1\n"
           "grid.m = 64\ntime.t_max = 0.5\n")


@pytest.mark.parametrize("kind, a", [("left", 0.3), ("right", 0.2)])
def test_a_planted_velocity_error_fails_the_dissipation_check(
        tmp_path, monkeypatch, kind, a):
    # nodes moving 1% too fast shorten the curve at 1.01 int |A|^2 ds:
    # slacks -1.7e-3 (left) and -9.2e-3 (right) against a clean run's
    # rounding, at most 3.3e-16
    cfg = write_cfg(tmp_path / "p.cfg", f"manifold.kind = {kind}\n"
                    + PLANTED.format(a=a))
    real = wcsf.flow.compute_fields

    def fast(curve, manifold):
        fields = real(curve, manifold)
        fields.velocity = 1.01 * fields.velocity
        return fields

    slack = {}
    for planted in (False, True):
        if planted:
            monkeypatch.setattr(wcsf.flow, "compute_fields", fast)
        out = tmp_path / str(planted)
        code = main(["run", cfg, "--out", str(out)])
        report = read_report(out)
        assert code == int(planted)
        assert report["dissipation.passed"] == ("no" if planted else "yes")
        assert report["bounds.drift.passed"] == "yes"
        slack[planted] = float(report["dissipation.worst_slack"])
    assert slack[False] >= -1e-15 and slack[True] < -1e-3


def test_an_under_resolved_run_fails_its_dissipation_check(tmp_path):
    # a steep graph's spectral tail: the defect reads 0.25, 1.2e-2 and
    # 2.8e-7 at m = 32, 64 and 128, so m = 128 is the first to pass
    slack = []
    for m in (32, 64, 128):
        cfg = write_cfg(tmp_path / f"steep{m}.cfg",
                        "manifold.kind = left\nwarp.exp_cos = 0.3\n"
                        "init.cos = 0.1\ninit.sin = 0.0, 3, 0.6\n"
                        f"grid.m = {m}\ntime.t_max = 0.5\n")
        out = tmp_path / str(m)
        assert main(["run", cfg, "--out", str(out)]) == (0 if m == 128
                                                         else 1)
        report = read_report(out)
        assert report["flow.stop_reason"] == "max_time"
        assert report["bounds.drift.passed"] == "yes"
        slack.append(float(report["dissipation.worst_slack"]))
    assert slack[0] < -0.1 and -0.1 < slack[1] < -1e-3
    assert -1e-6 < slack[2] < 0.0


def test_exit_code_graph_loss(tmp_path):
    cfg = write_cfg(tmp_path / "g.cfg", FAST + "tol.theta_floor = 0.999\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    report = (tmp_path / "o" / "report.txt").read_text()
    assert "flow.stop_reason = graph_loss" in report


def test_exit_code_blowup(tmp_path):
    cfg = write_cfg(tmp_path / "b.cfg", FAST + "tol.a_ceiling = 0.01\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3


def test_usage_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path / "ok.cfg", FAST)
    out = str(tmp_path / "o")
    # a line outside the grammar, an abbreviated, repeated or empty --out
    # among them, prints the usage and one error line and makes nothing
    for argv in ([], ["fly", cfg], ["run"], ["run", cfg, cfg],
                 ["run", cfg, "--quiet"], ["run", cfg, "--ou", out],
                 ["run", cfg, "--out", out, "--out", out],
                 ["run", cfg, "--out"], ["run", cfg, "--out", ""],
                 ["run", "--out=", cfg],
                 ["suite", str(tmp_path), "--out", ""]):
        assert main(argv) == 64, argv
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: ") and err[-1].startswith(
            "wcsf: error: "), argv
        assert sum(line.startswith("wcsf: error:") for line in err) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.cfg"], argv
    assert main(["run", str(tmp_path / "missing.cfg")]) == 64
    bad = write_cfg(tmp_path / "bad.cfg", FAST + "grid.m = 100\n")
    assert main(["run", bad]) == 64
    # e^{800 cos x} overflows its series; this used to run and exit 3
    huge = write_cfg(tmp_path / "huge.cfg",
                     FAST.replace("exp_cos = 0.3", "exp_cos = 800"))
    assert main(["run", huge, "--out", str(tmp_path / "h")]) == 64
    assert main(["suite", str(tmp_path / "not_a_dir")]) == 64
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["suite", str(empty)]) == 64


def test_usage_error_message(tmp_path, capsys):
    bad = write_cfg(tmp_path / "bad.cfg", "grid.m = 100\n")
    assert main(["run", bad]) == 64
    err = capsys.readouterr().err
    assert "config error" in err and "bad.cfg" in err


@pytest.mark.usefixtures("planted_drift_defect")
def test_suite_aggregates(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    write_cfg(suite / "ok.cfg", FAST)
    write_cfg(suite / "falsified.cfg", FLAT)
    write_cfg(suite / "lost.cfg", FAST + "tol.theta_floor = 0.999\n")
    out = tmp_path / "suite_out"
    assert main(["suite", str(suite), "--out", str(out)]) == 2
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary == ["falsified: exit 1 (max_time)",
                       "lost: exit 2 (graph_loss)",
                       "ok: exit 0 (max_time)"]
    assert (out / "ok" / "report.txt").exists()


def test_suite_rejects_any_bad_config(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    write_cfg(suite / "ok.cfg", FAST)
    write_cfg(suite / "bad.cfg", "nonsense\n")
    assert main(["suite", str(suite)]) == 64
    # a broken config aborts the whole suite before any scenario runs
    assert not (tmp_path / "wcsf_out").exists()


@pytest.mark.parametrize("file_name", ["...cfg", "..cfg"])
def test_a_suite_file_stem_that_is_no_run_name_is_a_usage_error(
        tmp_path, capsys, file_name):
    # the suite names a run's directory after its file stem, also when the
    # config sets scenario.name: the stem ".." of "...cfg" would write
    # above --out, the stem "." of "..cfg" into --out itself
    suite = tmp_path / "suite"
    suite.mkdir()
    write_cfg(suite / "ok.cfg", FAST)
    write_cfg(suite / file_name, FAST + "scenario.name = ok\n")
    root = tmp_path / "root"
    assert main(["suite", str(suite), "--out", str(root / "inner")]) == 64
    err = one_error_line(capsys)
    assert "config error" in err and f"{file_name}: file stem" in err
    assert not root.exists()


def test_a_suite_makes_every_artifact_directory_before_its_first_run(
        tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    write_cfg(suite / "a.cfg", FAST)
    write_cfg(suite / "b.cfg", FAST)
    out = tmp_path / "out"
    out.mkdir()
    (out / "b").write_text("kept\n")
    assert main(["suite", str(suite), "--out", str(out)]) == 64
    assert "[a]" not in capsys.readouterr().out
    assert list(out.rglob("report.txt")) == []
    assert not (out / "summary.txt").exists()
    assert (out / "b").read_text() == "kept\n"


def test_zero_horizon_records_single_state(tmp_path):
    cfg = write_cfg(tmp_path / "z.cfg", FAST.replace("time.t_max = 0.2",
                                                     "time.t_max = 0"))
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    csv = (out / "trajectory.csv").read_text().splitlines()
    assert len(csv) == 1 + 32
    assert csv[1].startswith("0.0, 0, ")


def test_svg_artifact(tmp_path):
    cfg = write_cfg(tmp_path / "s.cfg", FAST + "output.svg = on\n")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    svg = (out / "chart.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "polyline" in svg


def test_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path / "demo.cfg", FAST)
    assert main(["run", cfg]) == 0
    assert (tmp_path / "wcsf_out" / "demo" / "report.txt").exists()


def test_a_file_stem_that_is_no_run_name_is_a_usage_error(tmp_path,
                                                          monkeypatch):
    # the stem of "..cfg" is ".", which would put the artifacts straight
    # into wcsf_out/
    monkeypatch.chdir(tmp_path)
    write_cfg(tmp_path / "..cfg", FAST)
    assert main(["run", "..cfg"]) == 64
    assert sorted(p.name for p in tmp_path.iterdir()) == ["..cfg"]


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def test_a_nul_byte_in_the_run_name_is_a_config_error(tmp_path, monkeypatch,
                                                      capsys):
    # the name would reach mkdir and raise "embedded null byte"
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path / "nul.cfg", FAST + "scenario.name = a\0b\n")
    assert main(["run", cfg]) == 64
    err = one_error_line(capsys)
    assert "config error" in err and "line 7: scenario.name" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nul.cfg"]


@pytest.mark.parametrize("command", ["run", "verify"])
def test_an_overlong_run_name_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                               command):
    # a 300-character directory name is too long for the file system; the
    # crash used to exit 1, the code of a falsified run
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path / "long.cfg",
                    FAST + "scenario.name = " + "n" * 300 + "\n")
    assert main([command, cfg]) == 64
    assert one_error_line(capsys).startswith("wcsf: error: ")


@pytest.mark.parametrize("command", ["run", "verify", "suite"])
def test_an_out_that_names_a_file_is_a_usage_error(tmp_path, capsys, command):
    suite = tmp_path / "suite"
    suite.mkdir()
    cfg = write_cfg(suite / "demo.cfg", FAST)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    target = str(suite) if command == "suite" else cfg
    assert main([command, target, "--out", str(taken)]) == 64
    assert one_error_line(capsys).startswith("wcsf: error: ")
    assert taken.read_text() == "kept\n"


def test_report_values_match_trajectory(tmp_path):
    cfg = write_cfg(tmp_path / "demo.cfg", FAST)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    report = dict(line.split(" = ", 1) for line
                  in (out / "report.txt").read_text().splitlines() if line)
    assert report["scenario.name"] == "demo"
    assert report["scenario.m"] == "32"
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    t_final = rows[-1, 0]
    assert report["flow.t_final"] == repr(float(t_final))
    assert float(report["flow.length_final"]) < \
        float(report["flow.length_initial"])


@pytest.mark.parametrize("warp", [0.3, None])
def test_trajectory_csv_matches_loop_writer(tmp_path, warp):
    # left-warped and product runs; the writer, fed one state at a time,
    # must give the same bytes as the per-node loop in the oracles
    manifold = wcsf.WarpedProduct(
        wcsf.LEFT, warp=wcsf.FourierField.exp_cos(warp) if warp else 1.0)
    curve = wcsf.make_graph_curve(wcsf.FourierField([0.1], [0.0, 0.4]), 64)
    traj, _ = wcsf.run(manifold, curve,
                       wcsf.FlowParams(t_max=0.5, record_stride=10))
    path = tmp_path / "trajectory.csv"
    with open_trajectory_csv(path) as fh:
        for state in traj:
            write_trajectory_csv(fh, state)
    assert path.read_bytes() == trajectory_csv_text(traj).encode()


# a flat left run of 25 steps and 26 recorded states, bounds and chart on
SHORT_PRODUCT = """\
manifold.kind = left
init.sin = 0.0, 0.5
grid.m = 64
record.stride = 5
time.t_max = 0.3
output.svg = on
"""


def test_a_scenario_run_rebuilds_no_state(tmp_path, monkeypatch):
    # the CSV rows, the drift check, the closed form and the chart read
    # the states as run records them, so the kernel runs only inside the
    # flow: 4 calls a step and one for the initial state
    kernel = wcsf.curves.compute_fields
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return kernel(*args, **kwargs)

    for module in (wcsf.flow, wcsf.verification, wcsf.curves):
        monkeypatch.setattr(module, "compute_fields", counted)
    code, _ = execute_scenario(wcsf.parse_config(SHORT_PRODUCT), tmp_path)
    steps = report_steps(tmp_path)
    assert code == 0 and steps == 25
    assert calls[0] == 4 * steps + 1


def test_a_main_run_in_the_deturck_gauge_passes_every_check(tmp_path):
    # the checks read the gauge and the manifold from the recorded states;
    # a winding graph runs in the DeTurck gauge
    cfg = FAST + "base.g11.cos = 1.0, 0.2\ninit.winding = 1\n" + "".join(
        f"verify.{k} = on\n" for k in ("bounds", "dissipation", "evolution",
                                       "commutator", "gradient"))
    scn = wcsf.parse_config(cfg)
    assert scn.initial_curve().mode == "parametric"
    assert execute_scenario(scn, tmp_path)[0] == 0
    report = (tmp_path / "report.txt").read_text()
    direct = float(report.split("closed_form_theta.direct = ")[1].split()[0])
    assert direct < 1e-12


def _charted(tmp_path, monkeypatch, cfg):
    """The trajectory a scenario run hands to write_svg, and the bytes of
    the chart.svg it wrote."""
    charted = []

    def capture(path, traj):
        charted.append(traj)
        write_svg(path, traj)

    monkeypatch.setattr(wcsf.cli, "write_svg", capture)
    assert execute_scenario(wcsf.parse_config(cfg), tmp_path)[0] == 0
    (traj,) = charted
    return traj, (tmp_path / "chart.svg").read_bytes()


def test_a_long_run_keeps_a_bounded_chart_set(tmp_path, monkeypatch):
    # every state reaches trajectory.csv, but the chart keeps the curves
    # of at most 2 * _SNAPSHOTS + 1 of them, the first and newest included
    cfg = (SHORT_PRODUCT.replace("grid.m = 64", "grid.m = 32")
           .replace("record.stride = 5", "record.stride = 1")
           .replace("time.t_max = 0.3", "time.t_max = 2.5"))
    traj, _ = _charted(tmp_path, monkeypatch, cfg)
    kept = traj.kept()
    assert len(traj) >= 200
    assert len(kept) <= 2 * _SNAPSHOTS + 1
    assert kept[0] == 0 and kept[-1] == len(traj) - 1
    rows = (tmp_path / "trajectory.csv").read_text().count("\n")
    assert rows == 1 + 32 * len(traj)


def test_a_recorder_keeps_under_120_bytes_per_state():
    # the slope of the traced heap a recorder holds after a dense flat run,
    # between runs of 209 and 832 states: a float64 table row (80 B with
    # its four defect cells, up to twice that in a half-full table) and a
    # list slot per state, 106 B measured; rows of Python floats took
    # about 230 B
    def held(t_max):
        scn = wcsf.parse_config(
            FAST.replace("warp.exp_cos = 0.3\n", "")
            .replace("record.stride = 10", "record.stride = 1")
            .replace("time.t_max = 0.2", f"time.t_max = {t_max}")
            + "tol.geo = 0\n")
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        with open_trajectory_csv(os.devnull) as csv:
            traj, _ = wcsf.run(scn.manifold, scn.initial_curve(), scn.params,
                               _Recorder(csv))
        gc.collect()
        return len(traj), tracemalloc.get_traced_memory()[0] - before

    held(0.1)       # fills the lazy caches, untraced
    tracemalloc.start()
    try:
        (n1, b1), (n2, b2) = held(2), held(8)
    finally:
        tracemalloc.stop()
    assert (n1, n2) == (209, 832)
    assert (b2 - b1) / (n2 - n1) < 120


@pytest.mark.parametrize("n", [1, 2, 16, 17, 33])
def test_a_short_run_charts_the_snapshots_of_a_full_record(tmp_path,
                                                          monkeypatch, n):
    # up to 2 * _SNAPSHOTS + 1 states the recorder keeps every curve, so
    # the chart draws the states it drew when every curve was kept
    manifold = wcsf.WarpedProduct(wcsf.LEFT, warp=1.0)
    curve = wcsf.make_graph_curve(wcsf.FourierField([0.0], [0.0, 0.5]), 32)
    state0 = wcsf.FlowState(curve, 0.0, wcsf.compute_fields(curve, manifold))
    params = wcsf.FlowParams(t_max=(n - 1) * wcsf.adaptive_dt(state0, 0.25),
                             tol_geo=0.0, record_stride=1)
    traj, _ = wcsf.run(manifold, curve, params,
                       _Recorder(io.StringIO()))
    assert len(traj) == n
    drawn = []
    real_curve = wcsf.record.Trajectory.curve

    def spy(self, i):
        drawn.append(i)
        return real_curve(self, i)

    monkeypatch.setattr(wcsf.record.Trajectory, "curve", spy)
    write_svg(tmp_path / "chart.svg", traj)
    assert drawn == svg_snapshot_indices(n)


def _snapshot_points(svg: str) -> np.ndarray:
    """The pixel points of the chart's first curve snapshot."""
    start = svg.index('points="', svg.index("<polyline")) + len('points="')
    text = svg[start:svg.index('"', start)]
    return np.array([[float(v) for v in p.split(",")] for p in text.split()])


@pytest.mark.parametrize("winding", [(0, 0), (2, 1)])
def test_the_chart_closes_a_curve_by_its_own_winding(tmp_path, winding):
    # closed one period on, a (0, 0) loop meets its first point again and
    # the (2, 1) line r = 2u + 1, x = u + 1 goes on along its line
    u = wcsf.spectral.nodes(32)
    if winding == (0, 0):
        coords = np.column_stack([1.0 + 0.5 * np.cos(u),
                                  1.0 + 0.5 * np.sin(u)])
    else:
        coords = np.column_stack([2.0 * u + 1.0, u + 1.0])
    curve = wcsf.DiscreteCurve("parametric", coords, winding)
    manifold = wcsf.WarpedProduct(wcsf.LEFT, warp=1.0)
    traj = wcsf.Trajectory()
    traj.append(wcsf.FlowState(curve, 0.0,
                               wcsf.compute_fields(curve, manifold)))
    write_svg(tmp_path / "chart.svg", traj)
    pts = _snapshot_points((tmp_path / "chart.svg").read_text())
    assert len(pts) == 33
    closing = pts[0] if winding == (0, 0) else pts[0] + 32 * (pts[1] - pts[0])
    assert np.abs(pts[-1] - closing).max() < 1e-3


SVG = "output.svg = on\n"
# each chart.svg the streamed writer must write as the joined one did: a
# short product run (some curves dropped), a winding (1, 1) left run, a
# run of at most 2 * _SNAPSHOTS + 1 states (every curve kept) and a
# single state
CHARTS = {
    "product": (SHORT_PRODUCT.replace("stride = 5", "stride = 1"),
                lambda traj: len(traj.kept()) < len(traj)),
    "winding": (FAST + "init.winding = 1\n" + SVG,
                lambda traj: traj.final.curve.winding == (1, 1)),
    "all_kept": (FAST + SVG, lambda traj: 1 < len(traj) <= 2 * _SNAPSHOTS + 1
                 and traj.kept() == list(range(len(traj)))),
    "one_state": (FAST.replace("time.t_max = 0.2", "time.t_max = 0") + SVG,
                  lambda traj: len(traj) == 1),
}


@pytest.mark.parametrize("case", CHARTS)
def test_the_streamed_chart_is_the_joined_chart(tmp_path, monkeypatch, case):
    cfg, is_case = CHARTS[case]
    traj, chart = _charted(tmp_path, monkeypatch, cfg)
    assert is_case(traj)
    assert chart == chart_text(traj).encode()


def test_the_chart_writer_holds_under_60_percent_of_the_joined_chart(
        tmp_path):
    # the traced heap peak of each writer on the stock product flow
    # recorded every 20 dt0, 1,093 states; the joined chart held its whole text about three times
    # over and a list of point strings per time series
    scn = wcsf.parse_config((Path(__file__).resolve().parents[1]
                             / "scenarios/product.cfg").read_text())
    params = replace(scn.params, record_stride=20)
    with open_trajectory_csv(os.devnull) as csv:
        traj, _ = wcsf.run(scn.manifold, scn.initial_curve(), params,
                           _Recorder(csv))
    assert len(traj) >= 1000

    def joined(path, traj):
        with open(path, "w", newline="\n") as fh:
            fh.write(chart_text(traj))

    def peak(writer):
        writer(tmp_path / "chart.svg", traj)    # fills the lazy caches
        tracemalloc.start()
        try:
            writer(tmp_path / "chart.svg", traj)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(write_svg) <= 0.6 * peak(joined)


def test_a_chart_of_no_state_raises_and_leaves_no_file(tmp_path):
    # every scale is computed before the file opens
    with pytest.raises(ValueError, match="need at least one array"):
        write_svg(tmp_path / "chart.svg", wcsf.Trajectory())
    assert not (tmp_path / "chart.svg").exists()


@pytest.mark.parametrize("kind", [wcsf.LEFT, wcsf.RIGHT])
def test_streamed_drift_check_matches_the_post_run_monitor(kind):
    # one drift table, filled as run records: the recorder, which drops
    # curves, gives the reports of a kept trajectory, and their slack is
    # the per-state check's to its difference step
    manifold = wcsf.WarpedProduct(kind, warp=wcsf.FourierField.exp_cos(0.3))
    curve = wcsf.make_graph_curve(wcsf.FourierField([0.0], [0.0, 0.3]), 32)
    params = wcsf.FlowParams(t_max=0.3, record_stride=3)
    kept, _ = wcsf.run(manifold, curve, params)
    streamed, _ = wcsf.run(manifold, curve, params,
                           _Recorder(io.StringIO()))
    assert len(streamed.drift) == len(kept.drift) == len(kept) > 2
    reports = wcsf.theta_bound_monitor(streamed)
    assert reports == wcsf.theta_bound_monitor(kept)
    assert abs(reports[1].worst_slack - drift_worst(kept)) < 1e-7
