"""Command line front end.

    wcsf run CONFIG [--out DIR]       flow one scenario, write its artifacts
    wcsf verify CONFIG [--out DIR]    same, every verification pass forced on
    wcsf suite DIRECTORY [--out DIR]  run all *.cfg files, write a summary

`--out DIR` or `--out=DIR`, before or after the path, once and not empty;
`-h` or `--help` anywhere, also after a command, prints the one usage
text and exits 0. The words are split here: argparse, with the gettext
and locale modules it loads, added about 0.25 MB to every run's peak.
Unlike argparse, this rejects an abbreviated option (`--ou`) and a
repeated `--out`.

Every check but one reads the defects the run recorded at each of its
states, so `wcsf verify` integrates the scenario's own flow and nothing
else; the gradient identity's study reads its initial graph on three
grids.

Exit codes: 0 clean, 1 a monitored bound or residual check failed,
2 the curve stopped being a graph, 3 curvature blew up, 64 usage or
config errors or an artifact directory that cannot be written.
Wall-clock timing is printed to stdout only and never written into
artifact files, which are byte-reproducible.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from . import verification
from .artifacts import (_SNAPSHOTS, open_trajectory_csv, write_report,
                        write_svg, write_trajectory_csv)
from .flow import run
from .identities import closed_form_theta
from .record import FlowState, StopReason, Trajectory
from .scenario import ConfigError, Scenario, _run_name, parse_config

__all__ = ["main", "execute_scenario",
           "EXIT_OK", "EXIT_FALSIFIED", "EXIT_GRAPH_LOSS", "EXIT_BLOWUP",
           "EXIT_USAGE"]

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_GRAPH_LOSS = 2
EXIT_BLOWUP = 3
EXIT_USAGE = 64


_USAGE = """\
usage: wcsf run CONFIG [--out DIR]
       wcsf verify CONFIG [--out DIR]
       wcsf suite DIRECTORY [--out DIR]
DIR defaults to wcsf_out/<scenario name>, or to wcsf_out under suite.
"""


def _parse(argv: list) -> tuple:
    """(command, path, out) of a command line, out None without --out;
    a line outside _USAGE raises ValueError with the reason."""
    if not argv or argv[0] not in ("run", "verify", "suite"):
        raise ValueError("expected a command: run, verify or suite")
    paths, outs = [], []
    words = iter(argv[1:])
    for word in words:
        option, eq, value = word.partition("=")
        if option == "--out":
            outs.append(value if eq else next(words, ""))
        elif word.startswith("-"):
            raise ValueError(f"unknown option {word}")
        else:
            paths.append(word)
    if len(paths) != 1 or len(outs) > 1 or "" in outs:
        raise ValueError("expected one path and at most one nonempty --out")
    return argv[0], paths[0], outs[0] if outs else None


def _load_scenario(path: Path) -> Scenario:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        return parse_config(text, name=path.stem)
    except ConfigError as exc:
        raise ConfigError(f"{path.name}: {exc}") from None


def _suite_scenario(path: Path) -> Scenario:
    """A suite's scenario, whose artifact directory is named after the file
    stem even when the config sets scenario.name."""
    try:
        _run_name(path.stem)
    except ValueError as exc:
        raise ConfigError(f"{path.name}: file stem {exc}") from None
    return _load_scenario(path)


def _section(record) -> dict:
    """A bound or residual report's section: its fields in order, less the
    name its key already gives."""
    section = asdict(record)
    del section["name"]
    return section


class _Recorder(Trajectory):
    """The record of a scenario's own run, taken as run appends each state.

    On append the state's rows go to the open trajectory CSV. The
    recorder keeps every scalar row and the first state, but coordinates
    only for the chart: state 0, the newest state and the states at
    multiples of a power-of-two stride, which doubles whenever more than
    2 * _SNAPSHOTS older states would be kept.
    So it holds at most 2 * _SNAPSHOTS + 1 curves however long the run,
    and every curve of a run of at most that many states.
    """

    def __init__(self, csv):
        super().__init__()
        self._csv = csv
        self._stride = 1
        self.first: FlowState | None = None

    def append(self, state: FlowState) -> None:
        super().append(state)
        write_trajectory_csv(self._csv, state)
        i = len(self) - 1
        if i == 0:
            self.first = state
        if i and (i - 1) % self._stride:    # the previous newest, off stride
            self._drop((i - 1,))
        # states 0, stride, ... below i: (i - 1) // stride + 1 of them
        if (i - 1) // self._stride >= 2 * _SNAPSHOTS:
            self._drop(range(self._stride, i, 2 * self._stride))
            self._stride *= 2


def execute_scenario(scn: Scenario, out_dir) -> tuple:
    """Run one scenario, write its artifacts, return (exit_code, stop).

    trajectory.csv is written while the flow runs, one recorded state at
    a time; the report and the chart follow the run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    params = scn.params
    curve0 = scn.initial_curve()
    with open_trajectory_csv(out / "trajectory.csv") as csv:
        traj, rep = run(scn.manifold, curve0, params, _Recorder(csv))
    wall = time.perf_counter() - started

    sections = {
        "scenario": {"name": scn.name, "kind": scn.manifold.kind, "m": scn.m,
                     **asdict(params), "winding": scn.winding},
        "flow": asdict(rep),
    }

    checks = []
    if scn.verify_bounds:
        exp_rep, drift_rep = verification.theta_bound_monitor(
            traj, eps_tol=params.tol_bound)
        sections["bounds"] = {"exp": _section(exp_rep),
                              "drift": _section(drift_rep)}
        checks += [exp_rep, drift_rep]
    if scn.verify_dissipation:
        diss = verification.dissipation_monitor(traj, params.tol_bound)
        sections["dissipation"] = _section(diss)
        checks.append(diss)
    evolution, commutator = verification.identity_monitor(traj)
    for on, name, check in ((scn.verify_evolution, "evolution", evolution),
                            (scn.verify_commutator, "commutator", commutator)):
        if on:
            sections[name] = _section(check)
            checks.append(check)

    studies = []
    if scn.verify_gradient:
        # reads the ladder's initial curves, never integrates its runs
        studies.append(verification.gradient_identity_study(
            verification.RefinementLadder(scn.manifold, scn.init_field,
                                          winding=scn.winding)))
        sections["residuals"] = {s.name: _section(s) for s in studies}
    sections["closed_form_theta"] = {
        "direct": closed_form_theta(traj.first)}

    write_report(out / "report.txt", sections)
    if scn.svg:
        write_svg(out / "chart.svg", traj)

    code = EXIT_OK
    if rep.stop_reason is StopReason.BLOWUP:
        code = EXIT_BLOWUP
    elif rep.stop_reason is StopReason.GRAPH_LOSS:
        code = EXIT_GRAPH_LOSS
    if any(not c.passed for c in checks) or any(not s.passed for s in studies):
        code = max(code, EXIT_FALSIFIED)

    tag = f"[{scn.name}]"
    print(f"{tag} stop={rep.stop_reason.value} t={rep.t_final:.6g} "
          f"steps={rep.steps} length {rep.length_initial:.9g} -> "
          f"{rep.length_final:.9g}")
    for c in checks:
        print(f"{tag} check {c.name}: {'PASS' if c.passed else 'FAIL'} "
              f"(worst slack {c.worst_slack:.3e})")
    for s in studies:
        orders = ", ".join(f"{o:.2f}" for o in s.orders)
        print(f"{tag} residual {s.name}: {'PASS' if s.passed else 'FAIL'} "
              f"(orders {orders})")
    print(f"{tag} wall seconds {wall:.3f}")
    print(f"{tag} exit {code}")
    return code, rep.stop_reason.value


def _cmd_single(config: str, out: str | None, force_verify: bool) -> int:
    scn = _load_scenario(Path(config))
    if force_verify:
        scn = replace(scn, verify_bounds=True, verify_dissipation=True,
                      verify_evolution=True, verify_commutator=True,
                      verify_gradient=True)
    code, _ = execute_scenario(
        scn, Path("wcsf_out") / scn.name if out is None else Path(out))
    return code


def _cmd_suite(directory: str, out: str | None) -> int:
    root = Path(directory)
    if not root.is_dir():
        print(f"wcsf: error: {root} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    paths = sorted(root.glob("*.cfg"))
    if not paths:
        print(f"wcsf: error: no .cfg files in {root}", file=sys.stderr)
        return EXIT_USAGE
    scenarios = [(p, _suite_scenario(p)) for p in paths]
    out_root = Path("wcsf_out" if out is None else out)
    # every directory before the first run: one that cannot be made aborts
    # the suite before any run, as a broken config does
    for p in paths:
        (out_root / p.stem).mkdir(parents=True, exist_ok=True)
    outcomes = {p: execute_scenario(scn, out_root / p.stem)
                for p, scn in scenarios}
    lines = [f"{p.stem}: exit {outcomes[p][0]} ({outcomes[p][1]})"
             for p in paths]
    with open(out_root / "summary.txt", "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(f"[suite] {line}")
    return max(code for code, _ in outcomes.values())


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "-h" in argv or "--help" in argv:
        print(_USAGE, end="")
        return EXIT_OK
    try:
        command, path, out = _parse(argv)
    except ValueError as exc:
        print(f"{_USAGE}wcsf: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if command == "suite":
            return _cmd_suite(path, out)
        return _cmd_single(path, out, force_verify=command == "verify")
    except ConfigError as exc:
        print(f"wcsf: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # the artifact directory could not be made or written; uncaught,
        # the error would exit 1, the code of a falsified run
        print(f"wcsf: error: cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
