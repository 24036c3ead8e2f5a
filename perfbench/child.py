"""One benchmark repetition in a fresh interpreter.

    child.py setup <config> [--fingerprint]
    child.py run <config> <out_dir> [--trace]
    child.py sweep

Every mode prints one JSON object on stdout. `ready` is this process's
perf_counter (CLOCK_MONOTONIC, shared with the parent) once `import wcsf`
and `parse_config` are done, so the parent can measure set-up from the
moment it started the child. The program's own prints go to stderr.
"""

import contextlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def _setup(config: Path) -> tuple:
    t0 = perf_counter()
    import wcsf
    import wcsf.cli  # noqa: F401  (what `wcsf run` imports)
    t1 = perf_counter()
    scn = wcsf.parse_config(config.read_text(), name=config.stem)
    t2 = perf_counter()
    return scn, {"ready": t2, "import_s": t1 - t0, "parse_s": t2 - t1}


def _fingerprint() -> dict:
    import platform

    import numpy
    import scipy

    config = numpy.show_config(mode="dicts")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        "simd": config.get("SIMD Extensions"),
    }


def _run(config: Path, out_dir: str, trace: bool) -> dict:
    scn, result = _setup(config)
    from layers import Tracer, count_main_rhs
    from wcsf.cli import execute_scenario

    if trace:
        tracer = Tracer()
        tracer.install()
    else:
        counts = count_main_rhs()
    t0 = perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        code, _ = execute_scenario(scn, out_dir)
    result["wall_s"] = perf_counter() - t0
    result["exit_code"] = code
    # ru_maxrss is in KiB on Linux
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        result["layers"] = tracer.metrics()
        result["rhs_main"] = tracer.rhs["main"]
    else:
        result["rhs_main"] = counts["main"]
    return result


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        _, result = _setup(Path(argv[1]))
        if "--fingerprint" in argv:
            result["fingerprint"] = _fingerprint()
    elif mode == "run":
        result = _run(Path(argv[1]), argv[2], "--trace" in argv)
    elif mode == "sweep":
        import sweep
        result = sweep.sweep()
    else:
        print(f"child.py: unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
