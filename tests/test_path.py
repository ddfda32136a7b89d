import numpy as np
import pytest
from scipy.optimize import brentq

from shearmodes.errors import CurvatureVanished, HorizonExceeded, NotConverged
from shearmodes.heat import HeatFlow
from shearmodes.path import FLOOR_FRAC, track_critical_point
from shearmodes.profiles import make_profile


def test_initial_conditions(gauss_path, gauss_prof):
    assert float(gauss_path.a(0.0)) == pytest.approx(gauss_prof.a0, abs=1e-12)
    assert float(gauss_path.lam(0.0)) == pytest.approx(gauss_prof.curvature,
                                                       rel=1e-10)


def test_path_against_per_slice_root_find(gauss_path, gauss_flow):
    """Independent oracle: bracketed root of d_y u_s at each time slice."""
    for t in np.linspace(0.01, 0.15, 6):
        a_path = float(gauss_path.a(t))

        def slope(yv):
            return gauss_flow.derivs(t, np.array([yv]), orders=(1,))[0][0]

        a_root = brentq(slope, a_path - 0.05, a_path + 0.05, xtol=1e-13)
        assert abs(a_path - a_root) < 1e-8, t


def test_path_stays_on_root_manifold(gauss_path):
    # |d_y u_s(t, a(t))| from the path's own flow
    gap = max(abs(gauss_path.flow.derivs(
        float(t), np.array([float(gauss_path.a(t))]), orders=(1,))[0][0])
              for t in np.linspace(0, 0.15, 9))
    assert gap < 1e-9


def test_curvature_negative_and_flattening(gauss_path):
    ts = np.linspace(0, 0.15, 31)
    lam = gauss_path.lam(ts)
    assert np.all(lam < 0)
    # empirical monotone flattening for this family
    assert np.all(np.diff(np.abs(lam)) < 1e-12)


def test_horizon_guard(gauss_path):
    with pytest.raises(HorizonExceeded):
        gauss_path.a(0.2)


def test_shallow_bump_loses_curvature():
    prof = make_profile("gaussian-bump", {"U0": 1.0, "A": 0.62})
    flow = HeatFlow(prof)
    with pytest.raises(CurvatureVanished, match="at t=0.0460 "):
        track_critical_point(flow, prof.a0, 0.15)
    # the path ends at the first node below the floor: up to the node before
    # it the path exists with every node above the floor, and the window
    # closes by near-annihilation of the extremum pair: the curvature there
    # has collapsed well below its initial size
    path = track_critical_point(flow, prof.a0, 0.044)
    assert np.all(path.lam_nodes <= -FLOOR_FRAC * abs(prof.curvature))
    lam_end = flow.derivs(path.t0, np.array([float(path.a(path.t0))]),
                          orders=(2,))[0][0]
    assert abs(lam_end) <= 0.2 * abs(prof.curvature)


def test_kappa_definition(gauss_path):
    t = 0.05
    assert float(gauss_path.kappa(t)) == pytest.approx(
        np.sqrt(abs(float(gauss_path.lam(t))) / 2.0), rel=1e-12)


@pytest.mark.parametrize("family", ["gauss", "alg4"])
def test_us_along_the_path_grows_at_lambda(request, family):
    # d/dt u_s(t, a(t)) = d_t u_s + a' d_y u_s = d_y^2 u_s = lambda(t): the
    # identity modes.phase_integral integrates by parts; Richardson central
    # differences of kernel values against the path's Hermite lambda
    path = request.getfixturevalue(f"{family}_path")

    def us_a(t):
        return path.flow.derivs(t, np.array([float(path.a(t))]),
                                orders=(0,))[0][0]

    def central(t, h):
        return (us_a(t + h) - us_a(t - h)) / (2 * h)

    for t in (0.01, 0.05, 0.1, 0.14):
        slope = (4 * central(t, 5e-5) - central(t, 1e-4)) / 3
        lam = float(path.lam(t))
        assert abs(slope - lam) <= 1e-9 * abs(lam), t


def test_path_kernel_calls_per_node(monkeypatch, gauss_prof, alg4_prof):
    # node 0 is a0 itself, node 1 is predicted by an Euler step and every
    # later one by Hermite extrapolation; Newton stops when the step is at
    # rounding level, so each node is a root of d_y u_s to rounding
    calls = []
    derivs = HeatFlow.derivs

    def counted(self, t, y, orders=(0, 1, 2, 3, 4)):
        calls.append(t)
        return derivs(self, t, y, orders)

    monkeypatch.setattr(HeatFlow, "derivs", counted)
    alg1_prof = make_profile("algebraic-bump", {"U0": 1.0, "A": 1.0})
    for prof in (gauss_prof, alg4_prof, alg1_prof):
        flow = HeatFlow(prof)
        calls.clear()
        path = track_critical_point(flow, prof.a0, 0.15)
        assert path.t_nodes.size == 76
        per_node = [calls.count(t) for t in path.t_nodes]
        assert per_node[0] == 1 and per_node[1] <= 3
        assert max(per_node[2:]) <= 2
        assert len(calls) <= 153
        for t, a, lam in zip(path.t_nodes, path.a_nodes, path.lam_nodes):
            slope = flow.derivs(t, np.array([a]), orders=(1,))[0][0]
            assert abs(slope) <= 1e-14 * abs(lam), (prof.a0, t)


class _CubeRootSlope:
    """A stand-in flow with d_y u = -cbrt(y - 1): a maximum at y = 1 from
    which each Newton step lands twice as far on the other side."""

    def derivs(self, t, y, orders):
        d = np.asarray(y, dtype=float) - 1.0
        return [-np.cbrt(d), -np.abs(d) ** (-2 / 3) / 3,
                np.zeros_like(d), np.zeros_like(d)]


def test_newton_that_cannot_settle_raises():
    with pytest.raises(NotConverged, match="at t=0.0000 "):
        track_critical_point(_CubeRootSlope(), 1.001, 0.15)
