import numpy as np
import pytest

from shearmodes.eigen import DispersionProblem, find_tau
from shearmodes.heat import HeatFlow, solve_heat
from shearmodes.path import track_critical_point
from shearmodes.profiles import make_profile

Y_MAX = 30.0
NY = 601
T0 = 0.15
NT = 16


@pytest.fixture(scope="session")
def pair():
    return find_tau(DispersionProblem())


@pytest.fixture(scope="session")
def y_grid():
    return np.linspace(0.0, Y_MAX, NY)


@pytest.fixture(scope="session")
def t_grid():
    return np.linspace(0.0, T0, NT)


@pytest.fixture(scope="session")
def gauss_prof():
    return make_profile("gaussian-bump", {"U0": 1.0, "A": 1.0})


@pytest.fixture(scope="session")
def gauss_flow(gauss_prof):
    return HeatFlow(gauss_prof)


@pytest.fixture(scope="session")
def gauss_field(gauss_flow, y_grid, t_grid):
    return solve_heat(gauss_flow, y_grid, t_grid, max_order=1)


@pytest.fixture(scope="session")
def gauss_path(gauss_flow, gauss_prof):
    return track_critical_point(gauss_flow, gauss_prof.a0, T0)


@pytest.fixture(scope="session")
def alg4_prof():
    return make_profile("algebraic-bump", {"U0": 1.0, "A": 4.0})


@pytest.fixture(scope="session")
def alg4_flow(alg4_prof):
    return HeatFlow(alg4_prof)


@pytest.fixture(scope="session")
def alg4_path(alg4_flow, alg4_prof):
    return track_critical_point(alg4_flow, alg4_prof.a0, T0)
