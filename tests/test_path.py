import numpy as np
import pytest
from scipy.optimize import brentq

from shearmodes.errors import CurvatureVanished, HorizonExceeded
from shearmodes.heat import HeatFlow
from shearmodes.path import track_critical_point
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
    assert gauss_path.root_gap(np.linspace(0, 0.15, 9)) < 1e-9


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
    # up to the last node before the cut the path exists, and the window
    # closes by near-annihilation of the extremum pair: the curvature there
    # has collapsed well below its initial size
    path = track_critical_point(flow, prof.a0, 0.044)
    lam_end = flow.derivs(path.t0, np.array([float(path.a(path.t0))]),
                          orders=(2,))[0][0]
    assert abs(lam_end) <= 0.2 * abs(prof.curvature)


def test_path_ends_at_the_first_node_below_the_floor(gauss_flow, gauss_prof):
    # at dt = 0.05, |lambda| falls from 1.122 at node 0 to 0.639 at node 1
    # and lower at node 2: a floor of 0.5 |lambda(0)| raises at node 2, and
    # a path to node 1 keeps every node above it
    kw = dict(dt=0.05, floor_frac=0.5)
    with pytest.raises(CurvatureVanished, match="at t=0.1000 "):
        track_critical_point(gauss_flow, gauss_prof.a0, 0.15, **kw)
    path = track_critical_point(gauss_flow, gauss_prof.a0, 0.05, **kw)
    assert path.lam_nodes.size == 2
    assert np.all(path.lam_nodes <= -0.5 * abs(gauss_prof.curvature))


def test_kappa_definition(gauss_path):
    t = 0.05
    assert float(gauss_path.kappa(t)) == pytest.approx(
        np.sqrt(abs(float(gauss_path.lam(t))) / 2.0), rel=1e-12)


def test_each_node_evaluates_the_kernel_at_most_five_times(monkeypatch,
                                                           gauss_prof):
    # one evaluation at the node, one more after its Newton correction, and
    # three RK4 stages: the first stage is the node's own a'
    calls = []
    derivs = HeatFlow.derivs

    def counted(self, t, y, orders=(0, 1, 2, 3, 4)):
        calls.append(t)
        return derivs(self, t, y, orders)

    monkeypatch.setattr(HeatFlow, "derivs", counted)
    path = track_critical_point(HeatFlow(gauss_prof), gauss_prof.a0, 0.15)
    assert path.t_nodes.size == 76
    assert len(calls) <= 1 + 5 * path.t_nodes.size
