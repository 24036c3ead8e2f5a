"""Every identity check of `wcsf verify` can fail: planted defects.

Each case plants one defect through a seam a test can patch, runs
`wcsf verify` on a curved left and a curved right config and asserts that
the run exits 1 and names the checks that failed. The clean configs pass.
Largest evolution / commutator defects at m = 64 (left; right):

    clean                            2.2e-12 / 2.4e-12;  3.4e-10 / 6.5e-10
    velocity x 1.01                  1.4e-3  / 3.4e-3;   4.8e-3  / 1.0e-2
    warp_terms derivative x 1.01     5.2e-4  / 6.1e-6;   1.3e-3  / 5.6e-4
    base_terms derivative x 1.01     2.1e-5  / 6.8e-6;   6.5e-5  / 3.7e-5

The base-metric row passes the dissipation check, and its defects lie
below tol.bound = 1e-4: the exact identity checks pass at
verification.IDENTITY_TOL for that reason.
"""

import pytest

import wcsf
import wcsf.flow
import wcsf.scenario
from wcsf.cli import main
from wcsf.record import BOUND_TOL
from wcsf.verification import IDENTITY_TOL

CONFIG = """\
manifold.kind = {kind}
warp.exp_cos = {a}
base.g11.cos = 1.0, 0.2
init.cos = 0.05
init.sin = 0.0, 0.3, 0.1
grid.m = 64
time.t_max = 0.5
record.stride = 10
"""

FAMILIES = [("left", 0.3), ("right", 0.2)]


class SkewedWarp(wcsf.WarpedProduct):
    """The warp's derivative 1% too large wherever warp_terms is read: the
    kernel, frame and the left evolution right-hand side."""

    def warp_terms(self, s):
        w2, wdw, dlog = super().warp_terms(s)
        return w2, 1.01 * wdw, 1.01 * dlog


class SkewedBase(wcsf.WarpedProduct):
    """The base metric's derivative g' 1% too large."""

    def base_terms(self, x):
        g, dg = super().base_terms(x)
        return g, 1.01 * dg


def plant(monkeypatch, defect: str) -> None:
    if defect == "velocity":
        real = wcsf.flow.compute_fields

        def fast(curve, manifold):
            fields = real(curve, manifold)
            fields.velocity = 1.01 * fields.velocity
            return fields

        monkeypatch.setattr(wcsf.flow, "compute_fields", fast)
    else:
        # parse_config builds the scenario's manifold by this name
        monkeypatch.setattr(wcsf.scenario, "WarpedProduct",
                            {"warp": SkewedWarp, "base": SkewedBase}[defect])


def verify(tmp_path, kind, a):
    """(exit code, report.txt as a dict) of `wcsf verify` on CONFIG."""
    cfg = tmp_path / f"{kind}.cfg"
    cfg.write_text(CONFIG.format(kind=kind, a=a))
    out = tmp_path / "out"
    code = main(["verify", str(cfg), "--out", str(out)])
    return code, dict(line.split(" = ", 1)
                      for line in (out / "report.txt").read_text()
                      .splitlines())


def defects(report) -> tuple:
    return tuple(-float(report[f"{name}.worst_slack"])
                 for name in ("evolution", "commutator"))


@pytest.mark.parametrize("kind, a", FAMILIES)
def test_the_clean_configs_pass(tmp_path, kind, a):
    code, report = verify(tmp_path, kind, a)
    assert code == 0
    assert max(defects(report)) < 1e-9


@pytest.mark.parametrize("defect", ["velocity", "warp", "base"])
@pytest.mark.parametrize("kind, a", FAMILIES)
def test_a_planted_defect_fails_the_identity_checks(tmp_path, monkeypatch,
                                                    capsys, kind, a, defect):
    plant(monkeypatch, defect)
    code, report = verify(tmp_path, kind, a)
    stdout = capsys.readouterr().out
    assert code == 1
    for name, check in (("evolution", "angle_evolution"),
                        ("commutator", "commutator")):
        assert report[f"{name}.passed"] == "no", name
        assert f"check {check}: FAIL" in stdout
    assert min(defects(report)) > 10 * IDENTITY_TOL
    if defect == "base":
        # what tol.bound would let through
        assert report["dissipation.passed"] == "yes"
        assert max(defects(report)) < BOUND_TOL
