"""Every workload end to end and traced, printed as one table.

    python3 perfbench/suite.py [--seed N] [--seconds S]
    python3 perfbench/suite.py --smoke

Runs run.py on each workload of BENCHMARK.json with tracing off and on,
one process at a time, and prints every end-to-end metric per workload,
the error rate, and the per-layer table with trace.overhead_s.

--smoke is the benchmark's own smoke test: the same scenarios cut at
t_max = 0.5, a few seconds per run. Both forms exit 1 unless every metric
named in BENCHMARK.json is printed with its unit, every run's result
line is well formed, and the error rate is 0 on every workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def problems_in(result: dict, expected: dict) -> list:
    """What is wrong with one result line against BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not result["attempted"] >= 1:
        problems.append("nothing attempted")
    if result["failed"] or not result["correct"]:
        problems.append(f"error rate {result['failed']}/{result['attempted']}")
    got = result["metrics"]
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        problems.append(f"missing {missing} extra {extra}")
    for name, unit in expected.items():
        if name in got and got[name]["unit"] != unit:
            problems.append(f"{name} unit {got[name]['unit']} != {unit}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run (default: BENCHMARK.json run_seconds, "
                             "6 with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="short horizons, for testing the benchmark")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or (6 if args.smoke else spec["run_seconds"])
    expected = [{m["name"]: m["unit"] for m in spec[key]}
                for key in ("end_to_end", "per_layer")]
    names = [w["name"] for w in spec["workloads"]]

    results = {}
    failures = []
    for name in names:
        workload = f"{name}.smoke" if args.smoke else name
        for trace in (0, 1):
            try:
                result = run_one(workload, args.seed, seconds, trace)
            except (RuntimeError, subprocess.TimeoutExpired,
                    ValueError) as exc:
                failures.append(str(exc))
                continue
            results[name, trace] = result
            failures += [f"{workload} trace={trace}: {p}"
                         for p in problems_in(result, expected[trace])]

    for trace, title in ((0, "end to end (tracing off)"),
                         (1, "per layer (traced run)")):
        print(f"\n{title}, seed {args.seed}")
        print(f"{'metric':<42} {'unit':<6}"
              + "".join(f"{n:>16}" for n in names))
        rows = list(expected[trace].items())
        if trace == 0:
            rows.append(("error_rate", "fraction"))
        for metric, unit in rows:
            cells = []
            for n in names:
                result = results.get((n, trace))
                if result is None:
                    cells.append("-")
                elif metric == "error_rate":
                    cells.append(f"{result['failed'] / result['attempted']:g}")
                elif metric in result["metrics"]:
                    cells.append(f"{result['metrics'][metric]['value']:.6g}")
                else:
                    cells.append("-")
            print(f"{metric:<42} {unit:<6}" + "".join(f"{c:>16}" for c in cells))

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("suite: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
