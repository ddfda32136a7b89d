import importlib
import tracemalloc

import numpy as np
import pytest

from shearmodes.cli import (PROBE_KS, PROBE_MIN_STEPS, PROBE_T, Pipeline,
                            load_config)
from shearmodes.errors import NonFiniteState, NotConverged
from shearmodes.evolve import (_DIAG, _KL, _KU, C_CFL, _advection,
                               _cn_factors, _cn_solve, _ContourExp,
                               _ShiftedBand, _step_count, _streamed_matvec,
                               evolve, growth_row, operator_growth_probe,
                               step, transient_amplification)
from shearmodes.heat import HeatFlowField, solve_heat
from shearmodes.modes import default_params

from oracles import (dense_transient_amplification, dirichlet_heat_kernel,
                     frozen_field, frozen_mode_operator, inviscid_exact)


def _blob(y):
    return np.exp(-((y - 3.0) / 1.0) ** 2) * y**2 / 9.0


def _band(profile, k, t, ny):
    """transient_amplification's band: the profile's rows on ny points of
    [0, 20]."""
    y = np.linspace(0.0, 20.0, ny)
    return _ShiftedBand(y, profile.derivs(y)[:2], k, t)


def _step_coefs(field, t, dt):
    """What evolve passes step: the coefficient rows at the ends of the
    step from t."""
    return field.slice_interp(t), field.slice_interp(t + dt)


def _frame_speed(field):
    """sup|u_s - c| over the field, c its top u_s at its first time."""
    return float(np.max(np.abs(field.us - field.us[0, -1])))


def _step_dts(monkeypatch):
    """The dt of each step evolve takes from here on, in a list."""
    ev = importlib.import_module("shearmodes.evolve")
    dts = []

    def recorded(u, dt, **kwargs):
        dts.append(dt)
        return step(u, dt, **kwargs)

    monkeypatch.setattr(ev, "step", recorded)
    return dts


def test_zero_data_stays_zero(gauss_field, y_grid):
    # evolve refuses zero data (it checks the rows' log norms), so step it
    # alone
    u1 = step(np.zeros(y_grid.size, complex), 1e-3, k=16, y=y_grid,
              coefs=_step_coefs(gauss_field, 0.0, 1e-3),
              lu=_cn_factors(y_grid, 1e-3))
    assert np.all(u1 == 0.0)


def test_heat_reduction_k0_order2(gauss_flow):
    errs = []
    for ny, nsteps in ((601, 200), (1201, 400)):
        y = np.linspace(0, 30, ny)
        field = solve_heat(gauss_flow, y, np.linspace(0, 0.15, 4),
                           max_order=1)
        final = evolve(field, 0, _blob(y).astype(complex), 0.1,
                       min_steps=nsteps)
        oracle = dirichlet_heat_kernel(_blob, y, 0.1)
        errs.append(np.max(np.abs(final - oracle)))
    assert np.log2(errs[0] / errs[1]) > 1.9
    assert errs[1] < 1e-4


def test_inviscid_scheme_matches_exact_formula(gauss_prof):
    U = lambda yy: gauss_prof.derivs(yy)[0]
    Up = lambda yy: gauss_prof.derivs(yy)[1]
    k, tf = 8, 0.2
    errs = []
    for ny, nsteps in ((601, 100), (1201, 200)):
        y = np.linspace(0, 30, ny)
        ff = frozen_field(gauss_prof, y, np.linspace(0, 0.3, 4))
        final = evolve(ff, k, _blob(y).astype(complex), tf,
                       min_steps=nsteps, inviscid=True)
        ue, _ = inviscid_exact(_blob, U, Up, k, tf, y)
        errs.append(np.max(np.abs(final - ue)))
    assert np.log2(errs[0] / errs[1]) > 1.9


def test_inviscid_exact_constant_shear(y_grid):
    c, k, t = 0.7, 5, 0.3
    ue, ve = inviscid_exact(_blob, lambda yy: c * np.ones_like(yy),
                            lambda yy: 0.0 * yy, k, t, y_grid)
    exact = np.exp(-1j * k * c * t) * _blob(y_grid)
    assert np.max(np.abs(ue - exact)) < 1e-10


def test_inviscid_exact_identity_at_t0(y_grid, gauss_prof):
    from scipy.integrate import quad
    U = lambda yy: gauss_prof.derivs(yy)[0]
    Up = lambda yy: gauss_prof.derivs(yy)[1]
    ue, ve = inviscid_exact(_blob, U, Up, 9, 0.0, y_grid)
    assert np.max(np.abs(ue - _blob(y_grid))) < 1e-14
    for yv in (2.0, 5.0, 20.0):
        ref, _ = quad(_blob, 0.0, yv, limit=200, epsabs=1e-13, epsrel=1e-13)
        j = int(np.argmin(np.abs(y_grid - yv)))
        assert abs(ve[j] + 1j * 9 * ref) < 1e-9


def test_divergence_relation_of_state(gauss_field, y_grid):
    u0 = _blob(y_grid).astype(complex)
    # with u_s = 0 and d_y u_s = -1 the advection term is v itself
    v = _advection(u0, y_grid, 12, 0.0, -1.0)
    h = y_grid[1] - y_grid[0]
    # trapezoid consistency: the discrete derivative of v matches -ik times
    # the cell average of u exactly
    lhs = np.diff(v) / h
    rhs = -1j * 12 * 0.5 * (u0[1:] + u0[:-1])
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_linearity_spot_check(gauss_field, y_grid):
    u1 = _blob(y_grid).astype(complex)
    u2 = (np.sin(y_grid) * np.exp(-0.5 * (y_grid - 5) ** 2)).astype(complex)
    a, b = 1.3 - 0.4j, -0.7 + 2.1j
    outs = []
    for u0 in (u1, u2, a * u1 + b * u2):
        outs.append(evolve(gauss_field, 24, u0, 0.05, min_steps=100))
    combo = a * outs[0] + b * outs[1]
    scale = np.max(np.abs(combo))
    assert np.max(np.abs(outs[2] - combo)) / scale < 1e-11


def test_cfl_guard(monkeypatch, gauss_field, y_grid):
    # a floor of one step would span all of t = 0.05; at k = 512 evolve
    # takes the CFL count instead, each step within the bound
    dts = _step_dts(monkeypatch)
    evolve(gauss_field, 512, _blob(y_grid).astype(complex), 0.05,
           min_steps=1)
    speed = _frame_speed(gauss_field)
    assert len(dts) == int(np.ceil(0.05 * 512 * speed / C_CFL)) > 1
    assert all(512 * speed * dt <= C_CFL for dt in dts)


@pytest.mark.parametrize("scheme", ["imex-cn", "inviscid"])
def test_evolve_matches_standalone_steps(gauss_field, y_grid, scheme):
    # evolve factors the Crank-Nicolson matrix once and carries each step's
    # end-time coefficients over; here every step gets fresh ones.  Both step
    # in the frame that moves at c, the field's top u_s at t = 0, and rotate
    # back by e^{-ikc t} at the end
    dt, inviscid = 2.0**-11, scheme == "inviscid"
    c = float(gauss_field.us[0, -1])
    u = _blob(y_grid).astype(complex)
    final = evolve(gauss_field, 24, u, 10 * dt, min_steps=10,
                   inviscid=inviscid)
    t = 0.0
    for _ in range(10):
        lu = None if inviscid else _cn_factors(y_grid, dt)
        coefs = [(us - c, dyus)
                 for us, dyus in _step_coefs(gauss_field, t, dt)]
        u = step(u, dt, k=24, y=y_grid, coefs=coefs, lu=lu)
        t += dt
    assert np.array_equal(final, u * np.exp(-1j * 24 * c * (10 * dt)))


@pytest.mark.parametrize("nsteps", [1, 7, 100])
def test_uniform_stream_is_a_pure_phase_at_any_step(y_grid, nsteps):
    # u_s = c0 and d_y u_s = 0 everywhere: the inviscid mode is e^{-ik c0 t}
    # u0, and in the frame that moves at c0 nothing is left to step, so the
    # phase is exact to rounding whatever the step (a wrong sign or k in the
    # rotation back is off by O(1))
    c0, t, ks = 0.7, 0.25, (8, 512)
    t_grid = np.linspace(0.0, 0.3, 4)
    field = HeatFlowField(y_grid=y_grid, t_grid=t_grid,
                          rows=(np.full((4, y_grid.size), c0),
                                np.zeros((4, y_grid.size))), flow=None)
    u0 = _batch_data(y_grid)[:2]
    final = evolve(field, ks, u0, t, min_steps=nsteps, inviscid=True)
    exact = np.exp(-1j * np.array(ks)[:, None] * c0 * t) * u0
    assert np.max(np.abs(final - exact)) <= 1e-13 * np.max(np.abs(u0))


def test_probe_row_converges_at_the_step_floor():
    # the probe's k = 512 row at PROBE_MIN_STEPS steps against 4 800: in the
    # free-stream frame the gap is 3.2e-6; without it, 3.1e-4 at 1 200 steps
    # and 0.050 at 240
    pipe = Pipeline(load_config(None))
    t, k = min(PROBE_T, pipe.path.t0), PROBE_KS[-1]
    u0 = pipe.mode_initial(k).astype(complex)
    logs = [np.log(np.max(np.abs(evolve(pipe.field, k, u0, t, min_steps=n))))
            for n in (PROBE_MIN_STEPS, 4800)]
    assert abs(logs[0] - logs[1]) <= 2e-5


def _refuse_to_step(monkeypatch):
    """Make step and _cn_factors raise: evolve must neither step nor
    factor."""
    ev = importlib.import_module("shearmodes.evolve")

    def never(*args, **kwargs):
        raise AssertionError("evolve stepped or factored")

    monkeypatch.setattr(ev, "step", never)
    monkeypatch.setattr(ev, "_cn_factors", never)


@pytest.mark.parametrize("k", [24, (8, 16)])
def test_evolve_to_its_start_time_returns_the_start_state(monkeypatch,
                                                          gauss_field, y_grid,
                                                          k):
    _refuse_to_step(monkeypatch)
    u0 = _batch_data(y_grid)[:2] if isinstance(k, tuple) else _blob(y_grid)
    u0 = u0.astype(complex)
    assert evolve(gauss_field, k, u0, 0.0, min_steps=1) is u0


def test_evolve_rejects_a_final_time_before_the_start(gauss_field, y_grid):
    with pytest.raises(ValueError, match="before the start time"):
        evolve(gauss_field, 24, _blob(y_grid).astype(complex), -0.01,
               min_steps=10)


def test_evolve_rejects_a_final_time_past_the_horizon(monkeypatch,
                                                      gauss_field, y_grid):
    # the field's rows end at its horizon; past it by more than the 1e-12
    # allowance, nothing is stepped or factored
    _refuse_to_step(monkeypatch)
    t_final = gauss_field.horizon + 1e-9
    with pytest.raises(ValueError, match=r"outside \[0, 0\.15\]"):
        evolve(gauss_field, 24, _blob(y_grid).astype(complex), t_final,
               min_steps=10)


def test_step_rejects_grid_below_five_points(gauss_prof):
    y = np.linspace(0.0, 1.0, 4)
    ff = frozen_field(gauss_prof, y, np.linspace(0.0, 0.3, 4))
    with pytest.raises(ValueError, match="at least 5 grid points"):
        evolve(ff, 1, np.ones(4, complex), 1e-3, min_steps=1)


@pytest.mark.parametrize("dt", [1e-3, 0.1])
def test_cn_solve_matches_dense_solve(y_grid, dt):
    # the zpttrf/zpttrs factor of I - (dt/2) D2 against numpy's dense
    # solve of the same matrix, for a batch of five right-hand sides
    n = y_grid.size - 2
    h = y_grid[1] - y_grid[0]
    r = dt / (2 * h * h)
    A = ((1 + 2 * r) * np.eye(n) - r * np.eye(n, k=1) - r * np.eye(n, k=-1))
    rng = np.random.default_rng(3)
    b = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    x = _cn_solve(_cn_factors(y_grid, dt), b.copy())
    ref = np.linalg.solve(A, b.T).T
    assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_evolve_takes_n_steps_at_dt_t_over_n(monkeypatch, gauss_field, y_grid):
    # step sees no time: evolve reads the coefficient rows at 0 and at the
    # end of each step, a float sum of dt from 0
    times = []
    slice_interp = HeatFlowField.slice_interp

    def timed(self, t):
        times.append(t)
        return slice_interp(self, t)

    monkeypatch.setattr(HeatFlowField, "slice_interp", timed)
    evolve(gauss_field, 8, _blob(y_grid).astype(complex), 0.1, min_steps=95)
    dt = 0.1 / 95
    assert len(times) == 96
    assert times[1] == dt
    assert all(b == a + dt for a, b in zip(times, times[1:]))


def test_evolve_raises_when_a_row_overflows(gauss_field, y_grid):
    # the finiteness check reads the rows' sup norms: a row past the
    # floating-point range makes its sup inf or nan
    u0 = _batch_data(y_grid)[:3]
    u0[1] *= 1e308
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteState, match="floating-point range"):
        evolve(gauss_field, (8, 16, 24), u0, 0.01, min_steps=10)


def test_non_finite_guard(gauss_field, y_grid):
    # evolve tests u0 before any step: here it takes none
    bad = np.full(y_grid.size, np.inf, complex)
    with pytest.raises(NonFiniteState, match="floating-point range"):
        evolve(gauss_field, 1, bad, 0.0, min_steps=1)


def test_non_finite_guard_sees_imaginary_part(gauss_field, y_grid):
    bad = np.ones(y_grid.size, complex)
    bad[7] = complex(1.0, np.nan)    # 1 + 1j * nan would make both parts nan
    with pytest.raises(NonFiniteState, match="floating-point range"):
        evolve(gauss_field, 1, bad, 0.0, min_steps=1)


def _batch_data(y):
    return np.stack([_blob(y), np.sin(y) * np.exp(-0.5 * (y - 5) ** 2),
                     (1 + 2j) * _blob(y) ** 2, np.exp(-((y - 2) ** 2))]
                    ).astype(complex)


@pytest.mark.parametrize("scheme", ["imex-cn", "inviscid"])
def test_batch_rows_equal_one_row_evolves_exactly(gauss_field, y_grid,
                                                  scheme):
    ks = (8, 16, 24, 32)
    u0 = _batch_data(y_grid)
    inviscid = scheme == "inviscid"
    batch = evolve(gauss_field, ks, u0, 0.02, min_steps=41,
                   inviscid=inviscid)
    assert batch.shape == u0.shape
    for i, k in enumerate(ks):
        one = evolve(gauss_field, k, u0[i], 0.02, min_steps=41,
                     inviscid=inviscid)
        assert np.array_equal(batch[i], one)


def test_probe_batch_rows_match_per_k_rows(gauss_field, y_grid):
    data = dict(zip((8, 12, 16, 20), _batch_data(y_grid)))
    kw = dict(min_steps=41, t=0.01, m=1, alpha=0.5, sigmas=[0.3, 1.2],
              mu=0.25)
    rows = operator_growth_probe(gauss_field, list(data), list(data.values()),
                                 **kw)
    per_k = {k: operator_growth_probe(gauss_field, [k], [data[k]], **kw)
             for k in data}
    # rows are sigma-major: sigma index j, k index i
    assert rows == [per_k[k][j] for j in range(2) for k in (8, 12, 16, 20)]


def test_probe_interpolates_coefficients_once_per_step_for_all_ks(
        monkeypatch, gauss_field, y_grid):
    calls = []
    slice_interp = HeatFlowField.slice_interp

    def counted(self, t):
        calls.append(t)
        return slice_interp(self, t)

    monkeypatch.setattr(HeatFlowField, "slice_interp", counted)
    u0 = _blob(y_grid)
    nsteps = 40
    counts = []
    for ks in ([64], [16, 32, 64, 128, 256]):
        calls.clear()
        operator_growth_probe(gauss_field, ks, [u0] * len(ks),
                              min_steps=nsteps, t=0.01, m=1, alpha=0.0,
                              sigmas=[1.0], mu=0.25)
        counts.append(len(calls))
    assert counts == [nsteps + 1, nsteps + 1]


def test_batch_cfl_guard_reads_largest_k(monkeypatch, gauss_field, y_grid):
    # a batch takes the CFL count of its largest k, as that k alone would
    dts = _step_dts(monkeypatch)
    u0 = np.stack([_blob(y_grid)] * 3).astype(complex)
    counts = []
    for k, u in (((1, 2), u0[:2]), ((1, 2, 512), u0), (512, u0[0])):
        dts.clear()
        evolve(gauss_field, k, u, 0.1, min_steps=1)
        counts.append(len(dts))
    speed = _frame_speed(gauss_field)
    assert counts == [_step_count(2, speed, 0.1, 1),
                      _step_count(512, speed, 0.1, 1),
                      _step_count(512, speed, 0.1, 1)]
    assert counts[0] < counts[1]


def test_batch_with_a_zero_row_raises(gauss_field, y_grid):
    u0 = _batch_data(y_grid)[:3]
    u0[1] = 0.0
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteState,
                                                     match="collapsed"):
        evolve(gauss_field, (8, 16, 24), u0, 0.01, min_steps=10)


class _ConstantKappaPath:
    @staticmethod
    def kappa(t):
        return np.full(np.shape(t), 0.8)


def test_growth_row_fits_the_compensated_amplitude():
    # a(t) = t kappa^{3/2} exp(c sqrt(k) kappa t): once the t and kappa^{3/2}
    # prefactors are taken off, the slope in t is c sqrt(k) kappa
    k, c = 64, 0.7
    t = np.linspace(0.03 / 24, 0.03, 24)
    ln = np.log(t) + 1.5 * np.log(0.8) + c * np.sqrt(k) * 0.8 * t
    row = growth_row(k, t, ln, _ConstantKappaPath())
    assert row["sigma"] == pytest.approx(c * np.sqrt(k) * 0.8, rel=1e-12)
    assert row["sigma_over_sqrt_k"] == pytest.approx(c * 0.8, rel=1e-12)
    assert row["fit_residual"] < 1e-12


def test_auto_dt_respects_cfl(gauss_field):
    # evolve's step count: the fewest steps within the CFL bound, unless the
    # floor asks for more
    speed = _frame_speed(gauss_field)
    n = _step_count(256, speed, 0.1, 1)
    assert 256 * speed * (0.1 / n) <= C_CFL < 256 * speed * (0.1 / (n - 1))
    assert _step_count(256, speed, 0.1, 240) == 240 > n


def test_transient_amplification_known_value(gauss_prof):
    # frozen-operator amplification at k=64, t=0.05 (ground-truth matrix
    # exponential); regression anchor for the growth experiments
    amp = transient_amplification(gauss_prof, 64, 0.05, ny=700)
    assert amp == pytest.approx(1.131, rel=0.02)


@pytest.mark.parametrize("k, t, prof", [
    (64, 0.05, "gauss_prof"), (256, 0.05, "gauss_prof"),
    (64, 1e-4, "gauss_prof"),
    pytest.param(256, 0.05, "alg4_prof", id="alg4-256-0.05"),
    pytest.param(256, 0.1, "alg4_prof", id="alg4-256-0.1")],
    ids=["64-0.05", "256-0.05", "64-0.0001", None, None])
def test_transient_amplification_matches_scipy_expm(request, k, t, prof):
    # reference: the 2-norm of scipy's dense expm (Pade approximant and
    # squarings); (64, 1e-4) is where the top singular values cluster, and
    # alg4 (256, 0.1) has the widest spectrum (imaginary half-width 29.3)
    profile = request.getfixturevalue(prof)
    ref = dense_transient_amplification(profile, k, t, ny=300)
    amp = transient_amplification(profile, k, t, ny=300)
    assert abs(amp - ref) <= 1e-13 * ref


@pytest.mark.parametrize("ny", range(3, 12))
def test_transient_amplification_on_a_coarse_grid(gauss_prof, ny):
    # ny - 2 Golub-Kahan steps span the whole space, where sigma_max of the
    # bidiagonal is exact even if it has not yet repeated (at ny = 12 it
    # repeats first)
    ref = dense_transient_amplification(gauss_prof, 64, 0.05, ny=ny)
    amp = transient_amplification(gauss_prof, 64, 0.05, ny=ny)
    assert abs(amp - ref) <= 1e-13 * ref


def test_transient_amplification_repeats_exactly(gauss_prof):
    # Golub-Kahan is iterative; its fixed all-ones start vector makes the
    # value, and so the artifacts, reproducible
    first = transient_amplification(gauss_prof, 64, 0.05, ny=300)
    assert repr(transient_amplification(gauss_prof, 64, 0.05, ny=300)) == repr(first)


def test_band_is_the_shifted_operator_times_the_differencing(gauss_prof):
    # the band of _ShiftedBand at z, rebuilt densely, is (z - tA) D, D the
    # lower bidiagonal with 1 on and -1 below the diagonal (gap 3.6e-16)
    k, t, ny, z = 128, 0.05, 12, 2.0 - 7.5j
    n = ny - 2
    A, _ = frozen_mode_operator(gauss_prof, k, ny=ny)
    ref = (z * np.eye(n) - t * A) @ (np.eye(n) - np.eye(n, k=-1))
    ab = _band(gauss_prof, k, t, ny).ab.copy()
    ab[_DIAG] += z
    ab[_DIAG + 1, :-1] -= z
    dense = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(max(i - _KL, 0), min(i + _KU + 1, n)):
            dense[i, j] = ab[_DIAG + i - j, j]
    assert np.max(np.abs(dense - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("prof", ["gauss_prof", "alg4_prof"])
def test_band_system_solves_match_dense_resolvent(request, prof):
    # the band system's solve and its conjugate-transposed solve against the
    # dense z - tA of the oracle operator, on a coarse grid and on the
    # CLI's; the differencing x = D w loses about a factor n, and the
    # largest gap at ny = 900 was 2.2e-13
    profile = request.getfixturevalue(prof)
    k, t, z = 128, 0.05, 2.0 - 7.5j
    for ny in (300, 900):
        A, _ = frozen_mode_operator(profile, k, ny=ny)
        M = z * np.eye(ny - 2) - t * A
        rng = np.random.default_rng(3)
        b = rng.standard_normal(ny - 2) + 1j * rng.standard_normal(ny - 2)
        band = _band(profile, k, t, ny)
        factors = band.factor(z)
        adjoint = band.solve_m(factors, band.difference_h(b), trans=2)
        for x, ref in ((band.solve(factors, b), np.linalg.solve(M, b)),
                       (adjoint, np.linalg.solve(M.conj().T, b))):
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_transient_amplification_too_few_nodes_is_not_converged(
        monkeypatch, gauss_prof):
    # the rule at n and n + 32 nodes must agree; at 8 nodes it cannot
    ev = importlib.import_module("shearmodes.evolve")
    monkeypatch.setattr(ev, "_node_count", lambda half: 8)
    with pytest.raises(NotConverged, match="nodes differs"):
        transient_amplification(gauss_prof, 64, 0.05, ny=100)


@pytest.mark.parametrize("k, t, prof", [
    (64, 1e-4, "gauss_prof"), (64, 0.05, "gauss_prof"),
    (128, 0.05, "alg4_prof"), (256, 0.05, "alg4_prof"),
    (256, 0.1, "alg4_prof")],
    ids=["half-0.003", "half-1.6", "half-7.3", "half-14.7", "half-29.3"])
def test_node_count_has_a_margin(monkeypatch, request, k, t, prof):
    # the node law keeps at least 16 nodes above the fewest that meet the
    # dense oracle to 1e-13, from a point spectrum to the widest one tested
    ev = importlib.import_module("shearmodes.evolve")
    law = ev._node_count
    monkeypatch.setattr(ev, "_node_count", lambda half: law(half) - 16)
    profile = request.getfixturevalue(prof)
    ref = dense_transient_amplification(profile, k, t, ny=300)
    amp = transient_amplification(profile, k, t, ny=300)
    assert abs(amp - ref) <= 1e-13 * ref


def test_streamed_check_is_the_stored_rule(gauss_prof):
    # the self-check's one-node-at-a-time sum is the stored rule's matvec,
    # with the same weights in the same order
    k, t, ny, n_nodes = 64, 0.05, 300, 112
    band = _band(gauss_prof, k, t, ny)
    lo, hi = float(band.U.min()), float(band.U.max())
    m, half = -t * k * (hi + lo) / 2, t * k * (hi - lo) / 2
    rng = np.random.default_rng(5)
    v = rng.standard_normal(ny - 2) + 1j * rng.standard_normal(ny - 2)
    assert np.array_equal(_streamed_matvec(band, m, half, n_nodes, v),
                          _ContourExp(band, m, half, n_nodes).matvec(v))


def test_stored_rule_adjoint_is_the_per_node_sum(gauss_prof):
    # rmatvec differences u once for every node; the sum is that of the
    # nodes' own adjoint solves, with the conjugate weights in their order
    k, t, ny, n_nodes = 64, 0.05, 300, 112
    band = _band(gauss_prof, k, t, ny)
    lo, hi = float(band.U.min()), float(band.U.max())
    op = _ContourExp(band, -t * k * (hi + lo) / 2, t * k * (hi - lo) / 2,
                     n_nodes)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(ny - 2) + 1j * rng.standard_normal(ny - 2)
    per_node = sum(np.conj(w) * band.solve_m(f, band.difference_h(u),
                                             trans=2)
                   for w, f in zip(op.weights, op.factors))
    assert np.array_equal(op.rmatvec(u), per_node)


def _count_nodes_and_factors(monkeypatch):
    """Record _node_count's results and the number of band factorisations."""
    ev = importlib.import_module("shearmodes.evolve")
    law, factor = ev._node_count, _ShiftedBand.factor
    seen = {"nodes": [], "factors": 0}

    def count_nodes(half):
        seen["nodes"].append(law(half))
        return seen["nodes"][-1]

    def count_factor(self, z):
        seen["factors"] += 1
        return factor(self, z)

    monkeypatch.setattr(ev, "_node_count", count_nodes)
    monkeypatch.setattr(_ShiftedBand, "factor", count_factor)
    return seen


def test_transient_amplification_factors_each_node_once(monkeypatch,
                                                        gauss_prof):
    # N // 2 nodes for the first stage, N for the full rule, N + 32 for its
    # self-check, nothing refactored: 232 at ny = 300
    seen = _count_nodes_and_factors(monkeypatch)
    transient_amplification(gauss_prof, 64, 0.05, ny=300)
    (n_nodes,) = seen["nodes"]
    assert seen["factors"] == n_nodes // 2 + 2 * n_nodes + 32


def test_full_rule_only_finishes_golub_kahan(monkeypatch, gauss_prof):
    # Golub-Kahan converges on the half-node rule; started from its right
    # singular vector, the full rule takes one step: op v, op^H u and op v
    # again (one stage on the full rule took 37 products)
    seen = _count_nodes_and_factors(monkeypatch)
    sizes = []
    for name in ("matvec", "rmatvec"):
        def counted(self, x, apply=getattr(_ContourExp, name)):
            sizes.append(self.weights.size)
            return apply(self, x)
        monkeypatch.setattr(_ContourExp, name, counted)
    transient_amplification(gauss_prof, 64, 0.05, ny=300)
    (n_nodes,) = seen["nodes"]
    assert set(sizes) == {n_nodes // 2, n_nodes}
    assert sizes.count(n_nodes) <= 3


def test_transient_amplification_at_the_cli_grid(gauss_prof):
    # growth-scan's case (k = 64, t = 0.05, ny = 900) against the value of
    # the one-stage Golub-Kahan on the full rule; the dense oracle takes
    # 5.3-5.8 s there, and the two values meet it to 1.3e-14 (one stage)
    # and -2.7e-15 (two stages)
    amp = transient_amplification(gauss_prof, 64, 0.05, ny=900)
    assert abs(amp - 1.131402663239474) <= 1e-13 * amp


def test_transient_amplification_holds_one_rule_of_factors(monkeypatch,
                                                           gauss_prof):
    # the self-check streams its N + 32 nodes, so the traced peak is about
    # the rule's N factorisations, not N + 32 of them
    ny = 300
    transient_amplification(gauss_prof, 64, 0.05, ny=ny)  # loads LAPACK
    seen = _count_nodes_and_factors(monkeypatch)
    band = _band(gauss_prof, 64, 0.05, ny)
    lu, ipiv = band.factor(1.0)
    factor_bytes = lu.nbytes + ipiv.nbytes
    tracemalloc.start()
    try:
        transient_amplification(gauss_prof, 64, 0.05, ny=ny)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (seen["nodes"][-1] + 16) * factor_bytes


def test_transient_amplification_peak_memory_at_the_cli_grid(gauss_prof):
    # at most 80 factorisations of 0.09 MB each held at ny = 900 (the 40 of
    # the half-node rule are dropped first); the traced peak was 7.1 MiB,
    # 8.0 MiB with one stage on the full rule, and 21.6 MiB with the
    # interleaved 2n system in (x, c)
    transient_amplification(gauss_prof, 64, 0.05, ny=100)  # loads LAPACK
    tracemalloc.start()
    try:
        transient_amplification(gauss_prof, 64, 0.05, ny=900)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_transient_amplification_rejects_negative_t(gauss_prof):
    with pytest.raises(ValueError, match="t >= 0"):
        transient_amplification(gauss_prof, 64, -0.01, ny=100)


def test_frozen_mode_operator_matches_loop_reference(gauss_prof):
    # reference: T filled row by row, U' applied as a dense diagonal product
    k, y_max, ny = 64, 20.0, 41
    y = np.linspace(0.0, y_max, ny)
    h = y[1] - y[0]
    d = gauss_prof.derivs(y)
    Ui, U1i = d[0][1:-1], d[1][1:-1]
    n = ny - 2
    D2 = (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
          + np.diag(np.ones(n - 1), -1)) / h**2
    T = np.zeros((n, n))
    for j in range(n):
        if j >= 1:
            T[j, :j] += h
        T[j, j] += h / 2
    ref = -1j * k * np.diag(Ui) + 1j * k * np.diag(U1i) @ T + D2
    A, yA = frozen_mode_operator(gauss_prof, k, y_max=y_max, ny=ny)
    assert np.array_equal(yA, y)
    assert np.array_equal(A, ref)


@pytest.mark.slow
def test_duhamel_gap_bounded_by_propagated_residual(
        pair, gauss_prof, gauss_field, gauss_path, y_grid):
    """The evolved solution deviates from the assembled mode by at most the
    time integral of the residual norm propagated with the measured
    operator amplification (frozen-operator amplification as the stand-in,
    with a factor-3 allowance for the slow drift of the coefficients)."""
    from shearmodes.modes import assemble_mode, default_params, residual
    from shearmodes.norms import weighted_sup
    n, t = 64, 0.05
    params = default_params(gauss_prof, n)
    u0 = params.eps * params.bump().f(y_grid)
    final = evolve(gauss_field, n, u0.astype(complex), t, min_steps=300)
    mode_t = assemble_mode(params, gauss_path, pair, t, y_grid)
    lhs = weighted_sup(final - mode_t.U, y_grid, 0.0)
    ss = np.linspace(0, t, 5)
    integrand = []
    for s in ss:
        lag = float(t - s)
        amp = 1.0 if lag == 0.0 else transient_amplification(
            gauss_prof, n, lag, ny=700)
        m = assemble_mode(params, gauss_path, pair, float(s), y_grid)
        integrand.append(amp * weighted_sup(residual(m).R,
                                            y_grid, 0.0))
    rhs = float(np.trapezoid(integrand, ss))
    assert lhs <= 3.0 * rhs
