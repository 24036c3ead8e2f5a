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

RUN = """\
import sys
import numpy
before = set(sys.modules)
from wcsf.cli import main
code = main(["run", sys.argv[1], "--out", sys.argv[2]])
for name in sorted(set(sys.modules) - before):
    print("loaded", name)
raise SystemExit(code)
"""

# what a run may import beyond `import numpy`: each further module costs
# setup time or memory on every run
ALLOWED_PACKAGES = ("wcsf", "numpy.fft")
ALLOWED_MODULES = {"argparse", "gettext", "locale", "_locale", "copy",
                   "dataclasses", "__future__"}


def run_child(cfg: Path, out: Path, **env) -> str:
    child_env = dict(os.environ, PYTHONPATH=SRC, **env)
    done = subprocess.run([sys.executable, "-c", RUN, str(cfg), str(out)],
                          env=child_env, capture_output=True, text=True,
                          timeout=120)
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
    cfg = tmp_path / "left.cfg"
    cfg.write_text(LEFT)
    hashes = {}
    for core in ("Haswell", "Prescott"):
        out = tmp_path / core
        run_child(cfg, out, OPENBLAS_CORETYPE=core)
        hashes[core] = digest(out)
    assert hashes["Haswell"] == hashes["Prescott"]


def allowed(name: str) -> bool:
    return name in ALLOWED_MODULES or any(
        name == pkg or name.startswith(pkg + ".") for pkg in ALLOWED_PACKAGES)


def test_svg_run_loads_only_allowed_modules(tmp_path):
    cfg = tmp_path / "product.cfg"
    cfg.write_text(PRODUCT_SVG)
    out = tmp_path / "out"
    stdout = run_child(cfg, out)
    assert (out / "chart.svg").stat().st_size > 0
    loaded = [line.split()[1] for line in stdout.splitlines()
              if line.startswith("loaded ")]
    assert "wcsf.artifacts" in loaded
    assert [name for name in loaded if not allowed(name)] == []
