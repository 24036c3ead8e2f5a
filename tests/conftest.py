import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import wcsf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """A module of perfbench/, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def left_exp_manifold(a=0.3):
    return wcsf.WarpedProduct(wcsf.LEFT, warp=wcsf.FourierField.exp_cos(a))


def right_exp_manifold(a=0.2):
    return wcsf.WarpedProduct(wcsf.RIGHT, warp=wcsf.FourierField.exp_cos(a))


def product_manifold():
    return wcsf.WarpedProduct(wcsf.LEFT, warp=1.0)


def perturbed_base():
    # g11 = 1 + 0.2 cos x + 0.1 sin 2x, safely positive
    return wcsf.FourierField(np.array([1.0, 0.2]), np.array([0.0, 0.0, 0.1]))


def curved_manifold(kind):
    a = 0.3 if kind == wcsf.LEFT else 0.2
    return wcsf.WarpedProduct(kind, warp=wcsf.FourierField.exp_cos(a),
                              g11=perturbed_base())


def report_steps(out):
    """flow.steps of the report.txt in the directory out."""
    report = (out / "report.txt").read_text()
    return int(report.split("flow.steps = ")[1].split("\n")[0])


MANIFOLDS = {"left": left_exp_manifold, "right": right_exp_manifold,
             "product": product_manifold,
             "curved_left": lambda: curved_manifold(wcsf.LEFT),
             "curved_right": lambda: curved_manifold(wcsf.RIGHT)}


@pytest.fixture
def left_exp():
    return left_exp_manifold()


@pytest.fixture
def right_exp():
    return right_exp_manifold()


@pytest.fixture
def product():
    return product_manifold()


@pytest.fixture
def planted_drift_defect(monkeypatch):
    """C_drift lowered by 1e-3 in every bound monitor call; returns 1e-3.

    A flat left warp's drift slack, -1.9e-11 on a clean run, then reads
    -1e-3, 9e-4 past the default tol.bound of 1e-4, while every other
    check passes."""
    defect = 1e-3
    real = wcsf.identities.BoundConstants.constant
    monkeypatch.setattr(wcsf.identities.BoundConstants, "constant",
                        lambda self, t: real(self, t) - defect)
    return defect
