import math

import pytest

from quadhecke.empirical import DensityConfig, one_level_density
from quadhecke.transforms import make_bump, make_fejer, make_gaussian_weight

X_GRID = (500.0, 2000.0, 8000.0)


@pytest.fixture(scope="session")
def weight():
    return make_gaussian_weight()


@pytest.fixture(scope="session")
def fejer15():
    return make_fejer(1.5)


@pytest.fixture(scope="session")
def bump15():
    return make_bump(1.5)


@pytest.fixture(scope="session")
def fejer08():
    return make_fejer(0.8)


# the empirical grid runs dominate suite wall time; computed once, shared by
# the acceptance criteria and the module-level consistency tests
@pytest.fixture(scope="session")
def emp_grid_15(fejer15, weight):
    out = {}
    for x in X_GRID:
        out[x] = one_level_density(DensityConfig(x, fejer15, weight))
    return out


@pytest.fixture(scope="session")
def emp_grid_08(fejer08, weight):
    out = {}
    for x in X_GRID:
        out[x] = one_level_density(DensityConfig(x, fejer08, weight))
    return out


@pytest.fixture(scope="session")
def coeffs08_m1(fejer08, weight):
    from quadhecke.expansion import expansion_coefficients
    return expansion_coefficients(1, fejer08, weight)


def approx_log(x: float) -> float:
    return math.log(x)
