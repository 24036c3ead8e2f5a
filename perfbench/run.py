"""wcsf benchmark: one workload, one seed, tracing off or on.

    python3 perfbench/run.py --workload left_warped --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The workload's scenario config is generated from the seed into a
scratch directory under `.perfbench_work/`, and the program sees only that
`.cfg` through `wcsf.scenario.parse_config` and `wcsf.cli.execute_scenario`.

Every repetition runs in a fresh child process, one at a time, because a
`wcsf run` user pays the interpreter start, the scipy import and the lazy
spectral caches on every run. A run first starts two set-up-only
children (the first also reads the environment fingerprint), then
repeats the workload while the next repetition is predicted to end within
--seconds: at least once (tracing off) or one untraced/traced pair
(tracing on). Reported values are medians.

Tracing off prints the end-to-end metrics:
  setup_s      child start -> import wcsf -> parse_config done
  steps        report.txt flow.steps of the scenario's own flow
  rhs_evals    report.txt flow.rhs_evals if present, else the counted
               curve-field kernel calls inside the scenario's own flow
  peak_rss_mb  child ru_maxrss
and, on a `#` line and in the saved result but not in the result line,
  wall_s       execute_scenario, parsed config to last artifact written.
Wall time is not a gated metric: on a shared 2-vCPU host it moves by
30-50% between minutes (the whole host slows, so longer runs, medians or
minima do not steady it), while the counts repeat exactly.

Tracing on prints the per-layer metrics (see layers.py and sweep.py),
cli.execute_scenario.s (the untraced wall_s of the same run) and
trace.overhead_s, traced minus untraced wall_s.

Every repetition is checked: exit code and stop reason equal the
workload's, flow.length_final and flow.limit_base_point lie within the
workload's stated tolerance of its reference, report.txt and
trajectory.csv are byte-identical across the run's repetitions, and every
layer the workload must reach saw calls. A repetition failing any check
counts in `failed`; error rate = failed / attempted.

The last stdout line is the JSON result; the same result plus the
environment fingerprint is saved under `perfbench_results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import sweep  # noqa: E402
from layers import LAYERS  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

# a run must end within 180 s; stop starting children past this budget
BUDGET_S = 165.0
SETUP_ONLY_CHILDREN = 2
MIN_REPS = 1

END_TO_END = {
    "setup_s": "s", "steps": "count", "rhs_evals": "count",
    "peak_rss_mb": "MB",
}
# printed and saved with tracing off, not part of the result line
UNGATED = {"wall_s": "s"}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "cli.execute_scenario.s": "s",
        "verification.study_rhs_evals": "count",
        "artifacts.bytes": "B",
        "flow.recorded_states": "count",
        "setup.import_s": "s",
        "scenario.parse_config.s": "s",
        "trace.overhead_s": "s",
    })
    units.update({name: "us" for name in sweep.metric_names()})
    return units


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (program missing, child
    crashed before any repetition finished, ...)."""


class Runner:
    def __init__(self, workload, seed: int, seconds: float, scratch: Path):
        self.workload = workload
        self.seconds = seconds
        self.scratch = scratch
        self.config = scratch / f"{workload.name}.cfg"
        self.config.write_text(workload.config(seed))
        self.started = time.monotonic()
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.reps = []          # checked repetition records
        self.setup_samples = []
        self.hashes = None
        self._rep_count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, *args) -> dict:
        remaining = BUDGET_S - self.elapsed()
        if remaining <= 1.0:
            raise TimeoutError("run budget spent")
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=remaining)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-5:]
            raise RuntimeError(f"child {args[0]} exited {proc.returncode}: "
                               + " | ".join(tail))
        result = json.loads(lines[-1])
        if "ready" in result:
            result["setup_s"] = result["ready"] - spawned
        return result

    def setup_only(self) -> dict:
        """Set-up-only children; the first also reads the fingerprint."""
        fingerprint = None
        for _ in range(SETUP_ONLY_CHILDREN):
            args = ["setup", str(self.config)]
            if fingerprint is None:
                args.append("--fingerprint")
            try:
                result = self.child(*args)
            except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
                    ValueError) as exc:
                raise BenchError(f"set-up child failed: {exc}") from None
            self.setup_samples.append(result["setup_s"])
            fingerprint = fingerprint or result["fingerprint"]
        return fingerprint

    def repetition(self, trace: bool) -> dict:
        """Run the workload once in a child and check what it wrote."""
        self._rep_count += 1
        out = self.scratch / f"rep{self._rep_count}"
        rec = {"trace": trace, "problems": []}
        args = ["run", str(self.config), str(out)] + (["--trace"] if trace else [])
        try:
            result = self.child(*args)
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
                ValueError) as exc:
            rec["problems"].append(str(exc))
            self.reps.append(rec)
            return rec
        rec.update(result)
        self.setup_samples.append(result["setup_s"])
        self._check(rec, out)
        shutil.rmtree(out, ignore_errors=True)
        self.reps.append(rec)
        return rec

    def _check(self, rec: dict, out: Path) -> None:
        w = self.workload
        problems = rec["problems"]
        try:
            report = read_report(out / "report.txt")
            hashes = {name: sha256(out / name)
                      for name in ("report.txt", "trajectory.csv")}
            stop = report["flow.stop_reason"]
            length = float(report["flow.length_final"])
            limit = [float(x) for x in report["flow.limit_base_point"].split(",")]
            rec["steps"] = int(report["flow.steps"])
            rec["recorded_states"] = int(report["flow.recorded_states"])
            rec["rhs_evals"] = int(report.get("flow.rhs_evals", rec["rhs_main"]))
            rec["bytes"] = sum(p.stat().st_size for p in out.iterdir())
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"artifacts unreadable: {exc!r}")
            return
        if rec["exit_code"] != w.exit_code:
            problems.append(f"exit {rec['exit_code']} != {w.exit_code}")
        if stop != w.stop_reason:
            problems.append(f"stop_reason {stop} != {w.stop_reason}")
        if not abs(length - w.length_final) <= w.length_tol:
            problems.append(f"length_final {length!r} not within "
                            f"{w.length_tol} of {w.length_final!r}")
        for x in limit:
            if not circular_distance(x, w.limit_base_point) <= w.limit_tol:
                problems.append(f"limit_base_point {x!r} not within "
                                f"{w.limit_tol} of {w.limit_base_point}")
        if rec["rhs_evals"] <= 0:
            problems.append("no curve-field kernel calls in the main flow")
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            changed = [n for n in hashes if hashes[n] != self.hashes[n]]
            problems.append("not byte-identical to the first repetition: "
                            + ", ".join(changed))
        if rec["trace"]:
            for layer in sorted(w.reaches):
                if rec["layers"][f"{layer}.calls"] == 0:
                    problems.append(f"layer {layer} saw zero calls")

    def repeat(self, body, minimum: int) -> None:
        """Call body() at least `minimum` times, then again while the next
        call, predicted to last as long as the previous one, ends within
        --seconds of the first call and inside the budget."""
        started = time.monotonic()
        done = 0
        last = 0.0
        while done < minimum or time.monotonic() - started + last <= self.seconds:
            if done and self.elapsed() + 1.5 * last >= BUDGET_S:
                break
            t0 = time.monotonic()
            body()
            last = time.monotonic() - t0
            done += 1


def read_report(path: Path) -> dict:
    entries = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            entries[key] = value
    return entries


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def circular_distance(a: float, b: float) -> float:
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def git_state() -> dict:
    """Commit and dirty flag of the checkout, or unknown outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return {"git_sha": "unknown", "git_dirty": None}
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": "unknown", "git_dirty": None}
    return {"git_sha": sha.stdout.strip() or "unknown",
            "git_dirty": bool(status.stdout.strip())}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(child_part: dict) -> dict:
    env = {k: v for k, v in sorted(os.environ.items())
           if k.startswith(("OPENBLAS_", "OMP_"))}
    return {**child_part, "env": env, "cpu_model": cpu_model(),
            "nproc": os.cpu_count(), **git_state()}


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def measure(runner: Runner, trace: bool) -> tuple:
    """Run repetitions and return (metrics, units)."""
    if not trace:
        runner.repeat(lambda: runner.repetition(trace=False), MIN_REPS)
        done = [r for r in runner.reps if "wall_s" in r and "steps" in r]
        if not done:
            raise BenchError("no repetition finished: "
                             + "; ".join(runner.reps[-1]["problems"]))
        metrics = {
            "wall_s": median_of(done, "wall_s"),
            "setup_s": statistics.median(runner.setup_samples),
            "steps": statistics.median_low(r["steps"] for r in done),
            "rhs_evals": statistics.median_low(r["rhs_evals"] for r in done),
            "peak_rss_mb": median_of(done, "rss_mb"),
        }
        return metrics, END_TO_END

    def pair():
        runner.repetition(trace=False)
        runner.repetition(trace=True)

    runner.repeat(pair, 1)
    plain = [r for r in runner.reps if not r["trace"] and "steps" in r]
    traced = [r for r in runner.reps if r["trace"] and "steps" in r]
    if not plain or not traced:
        raise BenchError("no traced/untraced pair finished: "
                         + "; ".join(runner.reps[-1]["problems"]))
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics.update({
        "artifacts.bytes": median_of(traced, "bytes"),
        "flow.recorded_states": median_of(traced, "recorded_states"),
        "setup.import_s": median_of(traced, "import_s"),
        "scenario.parse_config.s": median_of(traced, "parse_s"),
        "cli.execute_scenario.s": median_of(plain, "wall_s"),
        "trace.overhead_s": (median_of(traced, "wall_s")
                             - median_of(plain, "wall_s")),
    })
    try:
        metrics.update(runner.child("sweep"))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            ValueError) as exc:
        raise BenchError(f"kernel sweep failed: {exc}") from None
    units = per_layer_units()
    return {name: metrics[name] for name in units}, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + sorted(SMOKE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wcsf" / "__init__.py").is_file():
        print(f"run.py: no wcsf sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload) or SMOKE[args.workload]
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work))
    try:
        runner = Runner(workload, args.seed, args.seconds, scratch)
        env = fingerprint(runner.setup_only())
        metrics, units = measure(runner, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(runner.reps)
    failed = sum(1 for r in runner.reps if r["problems"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    for i, rep in enumerate(runner.reps, 1):
        tag = "traced" if rep["trace"] else "untraced"
        wall = rep.get("wall_s", float("nan"))
        print(f"# rep {i} ({tag}) wall_s={wall:.4f} "
              + ("ok" if not rep["problems"] else "; ".join(rep["problems"])))
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"error_rate={failed / attempted:.4g} ({failed}/{attempted})")
    for name, value in metrics.items():
        unit = units.get(name) or UNGATED[name]
        print(f"#   {name:<42} {value:>16.6g} {unit}")
    save(workload, args, env, result, runner.reps)
    print(json.dumps(result))
    return 0


def save(workload, args, env, result, reps) -> None:
    out = ROOT / "perfbench_results"
    out.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "config": workload.config(args.seed), "environment": env,
        "checks": {"exit_code": workload.exit_code,
                   "stop_reason": workload.stop_reason,
                   "length_final": workload.length_final,
                   "length_tol": workload.length_tol,
                   "limit_base_point": workload.limit_base_point,
                   "limit_tol": workload.limit_tol,
                   "reaches": sorted(workload.reaches)},
        "repetitions": [{k: v for k, v in r.items() if k != "layers"}
                        for r in reps],
        "result": result,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
