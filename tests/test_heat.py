import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.special import erf

from shearmodes.cli import (PROBE_MIN_STEPS, PROBE_T, Pipeline, deep_merge,
                            load_config)
from shearmodes.errors import QuadratureFailure
from shearmodes.heat import (HeatFlow, check_quadrature, gl_panels,
                             heat_residual_probe, solve_heat)
from shearmodes.profiles import build_family

from oracles import frozen_field


def test_erf_layer_is_self_similar_exact():
    prof = build_family("monotone", {"U0": 1.0})
    y = np.linspace(0, 30, 301)
    ts = np.linspace(0, 0.25, 6)
    field = solve_heat(HeatFlow(prof), y, ts, max_order=0)
    for i, t in enumerate(ts):
        exact = erf(y / (2 * np.sqrt(1 + t)))
        assert np.max(np.abs(field.us[i] - exact)) < 1e-10


def test_initial_slice_is_identity(gauss_flow, gauss_prof, y_grid):
    field = solve_heat(gauss_flow, y_grid, np.array([0.0, 0.05]),
                       max_order=3)
    exact = gauss_prof.derivs(y_grid)
    for j in range(4):
        assert np.array_equal(field.rows[j][0], exact[j])


def _cn_reference(prof, t_end, Y=38.0, ny=4001, nt=2000):
    y = np.linspace(0, Y, ny)
    dy = y[1] - y[0]
    dt = t_end / nt
    u = prof.derivs(y)[0].copy()
    r = dt / (2 * dy * dy)
    n = ny - 2
    ab = np.zeros((3, n))
    ab[0, 1:] = -r
    ab[1, :] = 1 + 2 * r
    ab[2, :-1] = -r
    for _ in range(nt):
        rhs = u[1:-1] + r * (u[2:] - 2 * u[1:-1] + u[:-2])
        rhs[0] += r * u[0]
        rhs[-1] += r * u[-1]
        u[1:-1] = solve_banded((1, 1), ab, rhs)
    return y, u


def test_kernel_solution_matches_crank_nicolson(gauss_prof):
    t = 0.1
    yr, ur = _cn_reference(gauss_prof, t)
    flow = HeatFlow(gauss_prof)
    sel = yr <= 30.0
    u_kernel = flow.derivs(t, yr[sel], orders=(0,))[0]
    gap = np.max(np.abs(u_kernel - ur[sel]))
    # CN reference error is O(dt^2 + dy^2) ~ 1e-5 at this resolution
    assert gap < 5e-5


def test_pde_residual_probe_small(gauss_field, y_grid):
    r = heat_residual_probe(gauss_field.flow, 0.08, y_grid[::12])
    assert r < 1e-6


def test_pde_residual_probe_small_algebraic(alg4_flow, y_grid):
    r = heat_residual_probe(alg4_flow, 0.05, y_grid[::12])
    assert r < 1e-6


def test_wall_value_exactly_zero(gauss_field):
    assert np.all(gauss_field.us[:, 0] == 0.0)


def _dense_derivs(flow, t, y, orders):
    """Every y against every node, one explicit Hermite polynomial per
    order: the unwindowed kernel sum, kept here as the oracle."""
    hermite = (lambda x: np.ones_like(x), lambda x: 2 * x,
               lambda x: 4 * x * x - 2, lambda x: 8 * x**3 - 12 * x,
               lambda x: 16 * x**4 - 48 * x * x + 12)
    ramp = flow._ramp_derivs(t, y, max(orders))
    nodes, wts = flow._nodes(t, float(y.min()), float(y.max()))
    f = flow._remainder(nodes) * wts
    c = 1.0 / np.sqrt(4.0 * t)
    xm = c * (y[:, None] - nodes[None, :])
    xp = c * (y[:, None] + nodes[None, :])
    km = np.exp(-xm**2) * (c / np.sqrt(np.pi))
    kp = np.exp(-xp**2) * (c / np.sqrt(np.pi))
    return [ramp[j] + (-c) ** j * ((km * hermite[j](xm)) @ f
                                   - (kp * hermite[j](xp)) @ f)
            for j in orders]


@pytest.mark.parametrize("t", [1e-4, 1.25e-3, 0.03, 0.15])
def test_windowed_kernel_matches_dense_sum(gauss_prof, alg4_prof, t):
    # unsorted, crossing the wall's image reach, 203 points (not a multiple
    # of the 64-point chunk), and one lone point
    y_many = np.random.default_rng(1).permutation(np.linspace(0.0, 8.0, 203))
    orders = (0, 1, 2, 3, 4)
    # relative to max(1, the order's sup); order 4 carries a c^4 ~ 6e6
    # factor at t = 1e-4, where the two sums round differently
    tol = (1e-13, 1e-13, 1e-12, 1e-11, 1e-9)
    for prof in (gauss_prof, alg4_prof):
        flow = HeatFlow(prof)
        for y in (y_many, np.array([0.37])):
            got = flow.derivs(t, y, orders)
            ref = _dense_derivs(flow, t, y, orders)
            for j, g, r, tl in zip(orders, got, ref, tol):
                assert g.shape == y.shape
                scale = max(1.0, float(np.max(np.abs(r))))
                assert np.max(np.abs(g - r)) <= tl * scale, (prof.a0, j)


def test_wall_value_exactly_zero_at_small_time(gauss_prof):
    y = np.linspace(0.0, 30.0, 601)
    assert HeatFlow(gauss_prof).derivs(1e-4, y, orders=(0,))[0][0] == 0.0


def test_far_field_and_max_principle(gauss_field):
    assert np.max(np.abs(gauss_field.us[:, -1] - 1.0)) < 1e-3
    assert gauss_field.max_principle_gap() < 1e-9


def test_quadrature_guard_trips_on_tiny_time(gauss_prof, y_grid):
    # panels of 0.75 sqrt(4e-7) out to y = 30 + 9 sqrt(4e-7)
    with pytest.raises(QuadratureFailure, match=r"needs 759096 .*\(> 60000\)"):
        HeatFlow(gauss_prof).derivs(1e-7, y_grid)


def test_solve_heat_self_check_passes(gauss_flow):
    # the pipeline checks its flow's quadrature on the grid it samples
    y, ts = np.linspace(0, 30, 201), np.linspace(0, 0.1, 3)
    check_quadrature(gauss_flow, y, ts)
    field = solve_heat(gauss_flow, y, ts, max_order=1)
    assert field.us.shape == (3, 201)


def test_slice_interp_matches_direct_evaluation(gauss_field, y_grid):
    # cubic-in-t interpolation error must stay far below the stepper's
    # O(dt^2) discretization errors (~1e-4 at the defaults)
    t = 0.0733
    us_i, dy_i = gauss_field.slice_interp(t)
    us_d, dy_d = gauss_field.flow.derivs(t, y_grid, orders=(0, 1))
    assert np.max(np.abs(us_i - us_d)) < 2e-6
    assert np.max(np.abs(dy_i - dy_d)) < 2e-5


def test_slice_interp_weights_match_nested_products(gauss_field):
    # reference: each Lagrange weight as the product of its three factors
    tg = gauss_field.t_grid
    ts_probe = np.concatenate([tg, np.random.default_rng(0).uniform(
        tg[0], tg[-1], 200)])
    for t in ts_probe:
        i = int(np.clip(np.searchsorted(tg, t) - 1, 1, tg.size - 3))
        idx = [i - 1, i, i + 1, i + 2]
        ts = tg[idx]
        w = np.array([np.prod([(t - ts[m]) / (ts[j] - ts[m])
                               for m in range(4) if m != j]) for j in range(4)])
        us, dy = gauss_field.slice_interp(t)
        assert np.array_equal(us, w @ gauss_field.us[idx])
        assert np.array_equal(dy, w @ gauss_field.dy_us[idx])


@pytest.mark.parametrize("ts", [[0.0, 0.05, 0.1], [0.0, 0.1]])
def test_slice_interp_needs_four_times(gauss_flow, ts):
    # a cubic stencil on fewer slices would wrap its index and give NaN rows
    field = solve_heat(gauss_flow, np.linspace(0, 30, 101), ts, max_order=1)
    with pytest.raises(ValueError, match="at least 4 times"):
        field.slice_interp(0.03)


def test_stepper_coefficients_at_probe_step_times():
    # the stepper reads (u_s, d_y u_s) from slice_interp, cubic in t on the
    # 16 slices; HeatFlow.derivs is the exact kernel solution.  Measured at
    # the probe's 241 step times (its floor binds at the defaults),
    # the same to these digits as at 1 201: 4.0e-4 and 2.09e-2 overall,
    # both in the sqrt(t) wall corner layer at t < 3e-3, and 1.37e-5 and
    # 1.65e-4 for t >= 0.02.  The bounds add a 25 % margin; at nt = 6 the
    # errors are 1.4e-3 and 3.9e-2 overall, 6.3e-4 and 1.3e-2 for t >= 0.02
    cfg = load_config(None)
    pipe = Pipeline(cfg)
    t = min(PROBE_T, pipe.path.t0)
    times = np.linspace(0.0, t, PROBE_MIN_STEPS + 1)
    ref = [pipe.field.flow.derivs(float(tv), pipe.y, orders=(0, 1))
           for tv in times]
    late = times >= 0.02
    bounds = np.array([5e-4, 2.6e-2]), np.array([1.7e-5, 2.1e-4])

    def within(field):
        # sup over y of |slice_interp - derivs|, one row per step time
        err = np.array([[np.max(np.abs(a - b))
                         for a, b in zip(field.slice_interp(float(tv)), r)]
                        for tv, r in zip(times, ref)])
        return (np.all(err.max(axis=0) <= bounds[0])
                and np.all(err[late].max(axis=0) <= bounds[1]))

    assert pipe.field.t_grid.size == 16
    assert within(pipe.field)
    coarse = Pipeline(deep_merge(cfg, {"grid": {"nt": 6}})).field
    assert not within(coarse)


def test_gl_panels_integrate_degree_15_exactly():
    rng = np.random.default_rng(5)
    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, 9))])
    p = np.polynomial.Polynomial(rng.standard_normal(16))
    exact = p.integ()(edges[-1]) - p.integ()(edges[0])
    nodes, wts = gl_panels(0.5 * (edges[1:] + edges[:-1]),
                           0.5 * np.diff(edges), 8)
    assert nodes.shape == wts.shape == (9, 8)
    assert abs(np.sum(wts * p(nodes)) - exact) <= 1e-13 * abs(exact)


def test_frozen_field_slices_are_static(gauss_prof, y_grid):
    ff = frozen_field(gauss_prof, y_grid, np.linspace(0, 0.3, 4))
    assert np.array_equal(ff.us[0], ff.us[-1])
    assert np.array_equal(ff.us[0], gauss_prof.derivs(y_grid)[0])


def test_field_refuses_rows_it_did_not_sample(gauss_flow):
    # reading an order solve_heat did not sample raises, not gives zeros
    two = solve_heat(gauss_flow, np.linspace(0, 30, 11),
                     np.array([0.0, 0.05]), max_order=1)
    assert len(two.rows) == 2
    with pytest.raises(ValueError, match="order 2 was not sampled"):
        two.d2y_us
