"""The run path in fresh interpreters: artifacts that do not depend on the
BLAS kernel, and no module loaded beyond numpy and an allow-list."""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import wcsf

SRC = str(Path(wcsf.__file__).resolve().parents[1])

LEFT = """\
manifold.kind = left
warp.exp_cos = 0.3
init.sin = 0.0, 0.3
grid.m = 32
time.t_max = 0.2
record.stride = 10
"""

PRODUCT_SVG = """\
manifold.kind = left
init.sin = 0.0, 0.5
grid.m = 32
time.t_max = 0.2
record.stride = 2
output.svg = on
"""

# the verify checks' curved-base path: geometry.frame and the exact
# rates' broadcast sums at every recorded state
CURVED = """\
manifold.kind = left
warp.exp_cos = 0.3
base.g11.cos = 1.0, 0.2
init.sin = 0.0, 0.3
grid.m = 32
time.t_max = 0.2
record.stride = 10
"""

RUN = """\
import sys
import numpy
before = set(sys.modules)
from wcsf.cli import main
code = main([sys.argv[3], sys.argv[1], "--out", sys.argv[2]])
for name in sorted(set(sys.modules) - before):
    print("loaded", name)
raise SystemExit(code)
"""

# what a run may import beyond `import numpy`: each further module costs
# setup time or memory on every run. The command line is split by
# wcsf.cli itself: argparse, with the gettext and locale it loads, added
# about 0.25 MB to a run's peak memory to split at most four words.
ALLOWED_PACKAGES = ("wcsf", "numpy.fft")
ALLOWED_MODULES = {"copy", "dataclasses", "__future__"}


def run_child(cfg: Path, out: Path, command: str = "run", **env) -> str:
    """`wcsf <command> cfg --out out` in a fresh interpreter."""
    child_env = dict(os.environ, PYTHONPATH=SRC, **env)
    done = subprocess.run(
        [sys.executable, "-c", RUN, str(cfg), str(out), command],
        env=child_env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def digest(out: Path) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("trajectory.csv", "report.txt")}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types named here are x86 kernels")
def test_artifacts_identical_across_openblas_kernels(tmp_path):
    # OPENBLAS_CORETYPE picks the kernel of an OpenBLAS built with
    # DYNAMIC_ARCH; Haswell (AVX2) and Prescott (SSE3) round sums and
    # products differently, so any BLAS call feeding an artifact shows
    for name, text, command in (("left", LEFT, "run"),
                                ("curved", CURVED, "verify")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        hashes = {}
        for core in ("Haswell", "Prescott"):
            out = tmp_path / name / core
            run_child(cfg, out, command, OPENBLAS_CORETYPE=core)
            hashes[core] = digest(out)
        assert hashes["Haswell"] == hashes["Prescott"], name


def allowed(name: str) -> bool:
    return name in ALLOWED_MODULES or any(
        name == pkg or name.startswith(pkg + ".") for pkg in ALLOWED_PACKAGES)


def test_svg_run_loads_only_allowed_modules(tmp_path):
    # the chart writer's path under wcsf run and wcsf suite, the identity
    # checks' under wcsf verify
    suite = tmp_path / "suite"
    suite.mkdir()
    product = suite / "product.cfg"
    product.write_text(PRODUCT_SVG)
    curved = tmp_path / "curved.cfg"
    curved.write_text(CURVED)
    for target, out, command in ((product, "product", "run"),
                                 (curved, "curved", "verify"),
                                 (suite, "suite_out", "suite")):
        stdout = run_child(target, tmp_path / out, command)
        loaded = [line.split()[1] for line in stdout.splitlines()
                  if line.startswith("loaded ")]
        assert "wcsf.artifacts" in loaded
        assert [m for m in loaded if not allowed(m)] == [], command
    chart = tmp_path / "product" / "chart.svg"
    assert chart.stat().st_size > 0
    assert (tmp_path / "suite_out" / "product" / "chart.svg").read_bytes() \
        == chart.read_bytes()
    report = (tmp_path / "curved" / "report.txt").read_text()
    assert "commutator.passed = yes" in report
