"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured numbers (run with -s to see them on passing tests).

Criterion 7a checks the ill-posedness certificate of the linear theory: for
sigma below the dispersion rate and a derivative loss mu < 1/2, the damped
quantity rho_cert = k^{-mu} e^{-sigma sqrt(k) t} ||T_k(t)|| is unbounded in k.
It reads the leading eigenpair (lambda, phi) of the frozen mode operator,
for which ||e^{tA} phi|| / ||phi|| = e^{t Re lambda} is an exact lower bound on
||T_k(t)|| in every weighted norm.  The sweep sits at k = 2^16..2^20 because
the leading eigenvalue approaches the dispersion rate only slowly: measured
Re lambda_k ~ |Im tau| kappa sqrt(k) (1 - c k^{-1/4}) with c between 5.1 and
4.5, so Re lambda_k / (|Im tau| kappa sqrt(k)) is 0.08 at k = 1024, 0.70 at
2^16 and 0.86 at 2^20.  The gate's total rate sigma + 0.25 rate = 0.825
|Im tau| kappa sqrt(k) is reached near k ~ 6e5.  At k <= 512 the frozen
operator is spectrally stable (max Re lambda < 0, a far-field mode) and the
evolved data of the probe stay flat in amplification, so no quantity there can
show the certificate; those rows are checked by criterion 7b and the transient
rate by test_criterion_7_certificate.
"""

import time

import numpy as np
import pytest

from shearmodes.eigen import (DispersionProblem, find_root, find_tau,
                              matrix_eigenvalues, sample_profile)
from shearmodes.evolve import (FourierModeState, auto_dt, evolve,
                               growth_row, operator_growth_probe,
                               transient_amplification)
from shearmodes.heat import (HeatFlow, check_quadrature,
                             heat_residual_probe, solve_heat)
from shearmodes.modes import (assemble_mode, default_params,
                              initial_tangential_norm, mode_amplitude_series,
                              old_frozen_tangential, residual)
from shearmodes.norms import fit_power_law, weighted_sup
from shearmodes.profiles import build_family, make_profile
from scipy.linalg import eigvals, lu_factor, lu_solve
from scipy.optimize import brentq
from scipy.special import erf

from oracles import (frozen_field, frozen_mode_operator, inviscid_exact,
                     tail_class)


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def _im_tau_phys_sup(pair, path):
    """sup_t |Im tau_phys(t)|, tau_phys = kappa(t) tau, over 101 times of
    [0, t0], as the CLI's sigma0 takes it."""
    kappa = path.kappa(np.linspace(0.0, path.t0, 101))
    return abs(pair.tau.imag) * float(np.max(kappa))


def test_criterion_1_eigenpair_validity():
    t0 = time.time()
    prob = DispersionProblem()
    pair = find_tau(prob)
    resid = sample_profile(pair, prob).residual_norm
    oracle_gap = abs(matrix_eigenvalues(prob, pair.tau) - pair.tau)
    drift_z = abs(find_root(DispersionProblem(Z=2 * prob.Z, rtol=1e-12),
                            seed_tau=pair.tau)[0] - pair.tau)
    drift_tol = abs(find_root(DispersionProblem(rtol=prob.rtol / 100),
                              seed_tau=pair.tau)[0] - pair.tau)
    j = pair.v_jumps
    jump_err = max(abs(j["jump_V"] + pair.tau), abs(j["jump_V1"]),
                   abs(j["jump_V2"] - 2.0))
    elapsed = time.time() - t0
    ok = (pair.tau.imag < 0 and resid < 1e-8
          and jump_err < 1e-8 and oracle_gap < 1e-4
          and max(drift_z, drift_tol) < 1e-6 and elapsed < 60)
    _report(1, ok, f"tau={pair.tau:.10f} resid={resid:.1e} "
                   f"jumps={jump_err:.1e} oracle={oracle_gap:.1e} "
                   f"drift={max(drift_z, drift_tol):.1e} [{elapsed:.0f}s]")
    assert pair.tau.imag < 0
    assert resid < 1e-8
    assert jump_err < 1e-8
    assert oracle_gap < 1e-4
    assert max(drift_z, drift_tol) < 1e-6
    assert elapsed < 60


def test_criterion_2_heat_and_critical_path(gauss_flow, gauss_path):
    t0 = time.time()
    # self-similar layer reproduced exactly
    prof = build_family("monotone", {"U0": 1.0})
    y, ts = np.linspace(0, 30, 301), np.linspace(0, 0.2, 5)
    flow = HeatFlow(prof)
    check_quadrature(flow, y, ts)
    field = solve_heat(flow, y, ts, max_order=0)
    erf_gap = max(np.max(np.abs(field.us[i]
                                - erf(y / (2 * np.sqrt(1 + t)))))
                  for i, t in enumerate(field.t_grid))
    # interior equation residual with independent time differencing
    resid = heat_residual_probe(gauss_flow, 0.08, np.linspace(0, 30, 49))
    # path versus per-slice bracketed root finding
    gap = 0.0
    for t in np.linspace(0.0125, 0.15, 8):
        a_path = float(gauss_path.a(t))
        a_root = brentq(lambda yv: gauss_flow.derivs(
            t, np.array([yv]), orders=(1,))[0][0],
            a_path - 0.05, a_path + 0.05, xtol=1e-13)
        gap = max(gap, abs(a_path - a_root))
    elapsed = time.time() - t0
    ok = erf_gap < 1e-8 and resid < 1e-6 and gap < 1e-8 and elapsed < 60
    _report(2, ok, f"erf={erf_gap:.1e} pde_resid={resid:.1e} "
                   f"path_vs_root={gap:.1e} [{elapsed:.0f}s]")
    assert erf_gap < 1e-8
    assert resid < 1e-6
    assert gap < 1e-8
    assert elapsed < 60


def test_criterion_3_inviscid_oracle_equivalence(gauss_prof):
    t0 = time.time()
    U = lambda yy: gauss_prof.derivs(yy)[0]
    Up = lambda yy: gauss_prof.derivs(yy)[1]
    u0 = lambda yy: np.exp(-((yy - 3.0)) ** 2) * yy**2 / 9.0
    k, tf = 8, 0.2
    errs = []
    for ny, dt in ((601, 2e-3), (1201, 1e-3), (2401, 5e-4)):
        y = np.linspace(0, 30, ny)
        ff = frozen_field(gauss_prof, y, np.linspace(0, 0.3, 4))
        s0 = FourierModeState(k=k, t=0.0, y=y, u_hat=u0(y).astype(complex))
        final = evolve(s0, ff, dt, tf, inviscid=True)
        ue, _ = inviscid_exact(u0, U, Up, k, tf, y)
        errs.append(np.max(np.abs(final.u_hat - ue)))
    orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]
    yg = np.linspace(0, 30, 601)
    c = 0.7
    ue, _ = inviscid_exact(u0, lambda yy: c * np.ones_like(yy),
                           lambda yy: 0.0 * yy, 5, 0.3, yg)
    const_gap = np.max(np.abs(ue - np.exp(-1j * 5 * c * 0.3) * u0(yg)))
    elapsed = time.time() - t0
    ok = min(orders) >= 1.9 and const_gap < 1e-10 and elapsed < 120
    _report(3, ok, f"orders={[f'{o:.2f}' for o in orders]} "
                   f"const_shear={const_gap:.1e} [{elapsed:.0f}s]")
    assert min(orders) >= 1.9
    assert const_gap < 1e-10
    assert elapsed < 120


def test_criterion_4_growth_rate_scaling(
        pair, gauss_path, alg4_path):
    t0 = time.time()
    t_final = 0.03
    ts = np.linspace(t_final / 24, t_final, 24)
    summary = []
    ok = True
    for name, path in (("gaussian-bump", gauss_path),
                       ("algebraic-bump", alg4_path)):
        prof = path.flow.profile
        target = abs(pair.tau.imag) * float(path.kappa(0.0))
        ns = (32, 64, 128, 256)
        amps = mode_amplitude_series(prof, ns, path, pair, ts)
        fits = [growth_row(n, amp["t"], amp["log_sl"], path)
                for n, amp in zip(ns, amps)]
        rels = [abs(r["sigma_over_sqrt_k"] - target) / target for r in fits]
        p, _ = fit_power_law([r["k"] for r in fits],
                             [r["sigma"] for r in fits])
        fam_ok = 0.45 <= p <= 0.55 and max(rels) <= 0.15
        ok &= fam_ok
        summary.append(f"{name}: p={p:.3f} max_rel={max(rels) * 100:.1f}%")
    elapsed = time.time() - t0
    ok &= elapsed < 600
    _report(4, ok, "; ".join(summary) + f" [{elapsed:.0f}s]")
    assert ok, summary


def test_criterion_5_residual_bound_uniformity(
        pair, alg4_prof, alg4_path, y_grid):
    t0 = time.time()
    sigma0 = 1.1 * _im_tau_phys_sup(pair, alg4_path)
    # as residual-scan does: one kernel row set per time, read for every n
    us_rows = {t: alg4_path.flow.derivs(t, y_grid, orders=(0, 1, 2, 3))
               for t in (0.02, 0.05, 0.08)}
    ratios = {}
    for alpha in (0.0, 1.0, 2.0):
        per_eps = {}
        for n in (64, 128, 256, 512):
            params = default_params(alg4_prof, n)
            best = 0.0
            for t in (0.02, 0.05, 0.08):
                mode = assemble_mode(params, alg4_path, pair, t, y_grid,
                                     us_rows[t])
                res = residual(mode)
                damped = (weighted_sup(res.R, y_grid, alpha)
                          * np.exp(-sigma0 * t * np.sqrt(n)))
                best = max(best, damped)
            per_eps[n] = best
        vals = list(per_eps.values())
        ratios[alpha] = max(vals) / min(vals)
    elapsed = time.time() - t0
    ok = all(r <= 1.5 for r in ratios.values()) and elapsed < 300
    _report(5, ok, " ".join(f"alpha={a}:ratio={r:.3f}"
                            for a, r in ratios.items()) + f" [{elapsed:.0f}s]")
    assert all(r <= 1.5 for r in ratios.values()), ratios
    assert elapsed < 300


def test_criterion_6_decay_obstruction(pair):
    t0 = time.time()
    prof = make_profile("algebraic-bump", {"U0": 1.0, "A": 1.0})
    y = np.linspace(0, 30, 1501)
    U = lambda yy: prof.derivs(yy)[0]
    Up = lambda yy: prof.derivs(yy)[1]
    u0 = lambda yy: np.exp(-((yy - 2.0) / 0.8) ** 2)
    assert tail_class(u0(y), y).kind == "faster"
    uh, _ = inviscid_exact(u0, U, Up, 6, 0.3, y)
    tc_u = tail_class(np.abs(uh), y)
    tc_up = tail_class(np.abs(Up(y)), y)
    exponent_gap = abs(tc_u.rate - tc_up.rate)
    # old untruncated ansatz: weighted norm diverges as the grid extends
    old_norms, new_norms = [], []
    for ymax in (15.0, 30.0, 60.0):
        yg = np.linspace(0, ymax, int(20 * ymax) + 1)
        old = old_frozen_tangential(prof, pair, 1.0 / 64, yg)
        old_norms.append(weighted_sup(old, yg, 1.0))
        params = default_params(prof, 64)
        new_norms.append(max(initial_tangential_norm(params, yg, a)
                             for a in (0.0, 1.0, 2.0)))
    old_growth = old_norms[-1] / old_norms[0]
    new_spread = max(new_norms) / min(new_norms)
    elapsed = time.time() - t0
    ok = (tc_u.kind == "algebraic" and exponent_gap < 0.2
          and old_growth > 1e3 and new_spread < 1.0 + 1e-12
          and np.isfinite(new_norms[-1]) and elapsed < 120)
    _report(6, ok, f"tail={tc_u.kind}({tc_u.rate:.3f}) gap={exponent_gap:.2e} "
                   f"old_norm_growth={old_growth:.1e} "
                   f"corrector_norms_stable={new_spread:.12f} [{elapsed:.0f}s]")
    assert tc_u.kind == "algebraic"
    assert exponent_gap < 0.2
    assert old_growth > 1e3
    assert new_spread < 1.0 + 1e-12
    assert elapsed < 120


@pytest.fixture(scope="module")
def probe_rows(pair, gauss_field, gauss_path, gauss_prof, y_grid):
    rate = 1.1 * _im_tau_phys_sup(pair, gauss_path)
    ks = [32, 64, 128, 256, 512]
    u0s = []
    for k in ks:
        params = default_params(gauss_prof, k)
        u0s.append(params.eps * params.bump().f(y_grid))
    dt = auto_dt(ks[-1], gauss_field, 0.1, min_steps=240)
    return operator_growth_probe(gauss_field, ks, u0s, dt, t=0.1, m=2,
                                 alpha=1.0, sigmas=[2.0 * rate], mu=0.25)


def _leading_eigenpair(A):
    """Eigenvalue of largest real part and its eigenvector.  Dense eigvals
    plus inverse iteration at that eigenvalue costs about half of eig with
    all the eigenvectors."""
    w = eigvals(A, check_finite=False)
    lam = w[np.argmax(w.real)]
    lu = lu_factor(A - lam * np.eye(len(A)), check_finite=False)
    phi = np.ones(len(A), dtype=complex)
    for _ in range(2):
        phi = lu_solve(lu, phi)
        phi /= np.linalg.norm(phi)
    return lam, phi


@pytest.mark.slow
def test_criterion_7a_illposedness_certificate_as_stated(gauss_prof, pair,
                                                          gauss_path):
    """sigma = 0.5 rate, mu = 0.25, t = 0.1: rho_cert strictly increases over
    k = 2^16, 2^18, 2^20 and gains at least e^{0.25 rate t (sqrt(k_max) -
    sqrt(k_min))}, the growth left over after the damping and the loss (see the
    module docstring for why the sweep sits at these k).  Each eigenpair must
    have a relative residual <= 1e-10 and its Re lambda must agree within 1e-3
    between two grids, so an unresolved or spurious mode cannot pass."""
    t0 = time.time()
    rate = 1.1 * _im_tau_phys_sup(pair, gauss_path)
    target = abs(pair.tau.imag) * float(gauss_path.kappa(0.0))
    sigma, mu, t = 0.5 * rate, 0.25, 0.1
    ks = [2**16, 2**18, 2**20]
    certs, ratios, resids, grid_gaps = [], [], [], []
    for k in ks:
        re_lams = []
        for y_max, ny in ((4.0, 1400), (6.0, 2000)):
            A, _ = frozen_mode_operator(gauss_prof, k, y_max=y_max, ny=ny)
            lam, phi = _leading_eigenpair(A)
            resids.append(float(np.linalg.norm(A @ phi - lam * phi) / abs(lam)))
            re_lams.append(lam.real)
        grid_gaps.append(abs(re_lams[1] - re_lams[0]) / abs(re_lams[0]))
        # e^{tA} phi = e^{t lambda} phi, so this is rho_cert at the datum phi
        certs.append(k ** -mu * np.exp((re_lams[0] - sigma * np.sqrt(k)) * t))
        ratios.append(re_lams[0] / (target * np.sqrt(k)))
    needed = float(np.exp(0.25 * rate * t * (np.sqrt(ks[-1]) - np.sqrt(ks[0]))))
    increasing = all(b > a for a, b in zip(certs, certs[1:]))
    gain = certs[-1] / certs[0]
    elapsed = time.time() - t0
    ok = (increasing and gain >= needed and max(resids) <= 1e-10
          and max(grid_gaps) <= 1e-3 and elapsed < 120)
    _report("7a", ok, f"rho_cert={['%.3g' % c for c in certs]} "
                      f"gain={gain:.3g} needed={needed:.3f} "
                      f"Re_lambda/prediction={['%.3f' % r for r in ratios]} "
                      f"resid={max(resids):.1e} grid_gap={max(grid_gaps):.1e} "
                      f"[{elapsed:.0f}s]")
    assert max(resids) <= 1e-10
    assert max(grid_gaps) <= 1e-3
    assert increasing
    assert gain >= needed
    assert elapsed < 120


def test_criterion_7b_regularized_operator_is_tame(probe_rows):
    rhos = [r["rho"] for r in probe_rows]
    nonincreasing = all(b <= a * (1 + 1e-9) for a, b in zip(rhos, rhos[1:]))
    _report("7b", nonincreasing,
            f"rho(sigma=2 rate)={['%.3g' % r for r in rhos]}")
    assert nonincreasing


def test_criterion_7_certificate_transient_amplification(gauss_prof, pair,
                                                         gauss_path):
    """The defensible desk-scale certificate: the best-case amplification of
    the true (frozen) mode operator grows with k and its rate approaches the
    dispersion prediction from below."""
    t0 = time.time()
    target = abs(pair.tau.imag) * float(gauss_path.kappa(0.0))
    t_probe = 0.05
    ratios = []
    for k in (64, 128, 256):
        amp = transient_amplification(gauss_prof, k, t_probe)
        rate = np.log(amp) / t_probe
        ratios.append(rate / (target * np.sqrt(k)))
    elapsed = time.time() - t0
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    ok = increasing and ratios[-1] >= 0.85 and elapsed < 600
    _report("7-certificate", ok,
            f"rate/prediction={['%.3f' % r for r in ratios]} [{elapsed:.0f}s]")
    assert increasing
    assert ratios[-1] >= 0.85
    assert elapsed < 600


def test_criterion_8_initial_smallness_and_mode_structure(
        pair, gauss_prof, gauss_path, y_grid):
    t0 = time.time()
    # eps-linearity of the initial data norm
    base = {}
    for n in (64, 128, 256, 512):
        params = default_params(gauss_prof, n)
        base[n] = initial_tangential_norm(params, y_grid, 1.0) / params.eps
    vals = list(base.values())
    eps_lin_spread = (max(vals) - min(vals)) / max(vals)
    # jump cancellation and divergence at a working snapshot
    params = default_params(gauss_prof, 64)
    mode = assemble_mode(params, gauss_path, pair, 0.05, y_grid)
    rep = mode.jump_report(pair)
    jump = max(rep["V"], rep["dyV"], rep["d2yV"])
    div_analytic = float(np.max(np.abs(mode.dyV + 1j / params.eps * mode.U)))
    h = y_grid[1] - y_grid[0]
    fd = (mode.V[2:] - mode.V[:-2]) / (2 * h)
    div_fd = float(np.max(np.abs(fd + 1j / params.eps * mode.U[1:-1])))
    div_tol = 10 * h * h * float(np.max(np.abs(mode.U))) / params.eps
    elapsed = time.time() - t0
    ok = (eps_lin_spread < 1e-12 and jump < 1e-8
          and div_analytic == 0.0 and div_fd < div_tol and elapsed < 60)
    _report(8, ok, f"eps_linearity={eps_lin_spread:.1e} jumps={jump:.1e} "
                   f"div_exact={div_analytic:.1e} div_fd={div_fd:.1e} "
                   f"[{elapsed:.0f}s]")
    assert eps_lin_spread < 1e-12
    assert jump < 1e-8
    assert div_analytic == 0.0
    assert div_fd < div_tol
    assert elapsed < 60
