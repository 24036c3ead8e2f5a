import numpy as np
import pytest

import wcsf


def left_exp_manifold(a=0.3):
    return wcsf.WarpedProduct(wcsf.LEFT, warp=wcsf.FourierField.exp_cos(a))


def right_exp_manifold(a=0.2):
    return wcsf.WarpedProduct(wcsf.RIGHT, warp=wcsf.FourierField.exp_cos(a))


def product_manifold():
    return wcsf.WarpedProduct(wcsf.LEFT, warp=1.0)


def perturbed_base():
    # g11 = 1 + 0.2 cos x + 0.1 sin 2x, safely positive
    return wcsf.FourierField(np.array([1.0, 0.2]), np.array([0.0, 0.0, 0.1]))


@pytest.fixture
def left_exp():
    return left_exp_manifold()


@pytest.fixture
def right_exp():
    return right_exp_manifold()


@pytest.fixture
def product():
    return product_manifold()
