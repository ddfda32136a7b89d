import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from shearmodes import eigen
from shearmodes.cli import main
from shearmodes.eigen import (DispersionProblem, _log_derivative_defect,
                              find_root, find_tau, matrix_eigenvalues,
                              sample_profile, shoot_tails, tails_defect)
from shearmodes.errors import NoRootFound, NotConverged, TailBlowup
from shearmodes.path import CriticalPath

from oracles import dense_collocation_eigenvalues, dop853_tail

PROB = DispersionProblem()


@pytest.fixture(scope="module")
def samples(pair):
    return sample_profile(pair, PROB)


def test_eigenvalue_in_lower_half_plane(pair):
    assert pair.tau.imag < 0


def test_eigenvalue_known_value(pair):
    # closed form tau^2 = i, Im tau < 0: tau = -exp(i pi/4).  find_tau
    # builds the pair from it with no shot; the shooting and the
    # collocation oracle check it independently below
    assert abs(pair.tau - (-np.exp(1j * np.pi / 4))) < 1e-9


def test_ode_residual_small(samples):
    assert samples.residual_norm < 1e-8


def test_boundary_values(samples):
    assert samples.boundary_err < 1e-10
    assert abs(samples.W[0]) < 1e-10
    assert abs(samples.W[-1] - 1.0) < 1e-10


def test_profile_solves_ode_in_closed_form(pair, samples):
    # particular solution check: W' is proportional to
    # (tau - z^2)^(-2) exp(s1 z^2 / 2) with s1 = -exp(-i pi/4); direct
    # substitution shows this satisfies the equation when tau^2 = i.
    z = samples.z_grid
    mid = np.abs(z) < 8.0
    s1 = -np.exp(-1j * np.pi / 4)
    ref = (pair.tau - z[mid] ** 2) ** -2 * np.exp(s1 * z[mid] ** 2 / 2)
    ratio = samples.W1[mid] / ref
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-7


def test_matrix_collocation_oracle(pair):
    ev = matrix_eigenvalues(PROB, pair.tau)
    assert abs(ev - pair.tau) < 1e-4


@pytest.mark.parametrize("s", [-1, 1])
def test_shift_invert_oracle_matches_dense_nearest(s):
    # dense eigvals of the same collocation matrix is the reference; at
    # s = -1 the shift -1 - 2i lies off the spectrum, 1.33 from tau and
    # 2.23 from the next eigenvalue, so the iteration must travel to tau
    prob = DispersionProblem(sign_curvature=s)
    tau = s * np.exp(-1j * s * np.pi / 4)
    ev = dense_collocation_eigenvalues(s, 240, 8.0)
    shifts = [tau, -1.0 - 2.0j] if s == -1 else [tau]
    for near in shifts:
        dist = np.sort(np.abs(ev - near))
        assert dist[0] < 0.7 * dist[1]
        ref = ev[np.argmin(np.abs(ev - near))]
        assert abs(matrix_eigenvalues(prob, near) - ref) < 1e-9, near
    assert abs(matrix_eigenvalues(prob, tau) - tau) < 1e-13


def test_shift_invert_oracle_holds_no_companion_matrix(pair):
    # the eigen command's call inverts the 239-square pencil, not the
    # 478-square companion matrix (3.66 MB complex; the peak was about
    # 13 MB when it was formed)
    tracemalloc.start()
    try:
        matrix_eigenvalues(PROB, pair.tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.4e6


def test_shift_invert_oracle_raises_without_a_nearest_eigenvalue():
    # at s = +1 the two eigenvalues nearest -1 - 2i lie 2.00005 and 2.00011
    # away: inverse iteration cannot separate them within its step budget
    with pytest.raises(NotConverged):
        matrix_eigenvalues(DispersionProblem(sign_curvature=1), -1.0 - 2.0j)


def test_v_jump_identities(pair):
    j = pair.v_jumps
    assert abs(j["jump_V"] + pair.tau) < 1e-8
    assert abs(j["jump_V1"]) < 1e-8
    assert abs(j["jump_V2"] - 2.0) < 1e-8


def test_v_tail_decays_exponentially(samples):
    z, V = samples.z_grid, samples.V
    out = (z > PROB.Z / 3) & (np.abs(V) > 1e-300)
    zz, vv = z[out], np.log(np.abs(V[out]))
    slope = np.polyfit(zz, vv, 1)[0]
    assert slope < -1.0     # at least e^{-|z|}; actual decay is Gaussian-like


def test_w_reflection_symmetry(samples):
    # the equation is invariant under W -> 1 - W(-z) at the same tau, so the
    # (simple) eigenprofile satisfies W(z) + W(-z) = 1; conjugation is NOT a
    # symmetry: the conjugate of the eigenvalue is not a root (checked below)
    W = samples.W
    assert np.max(np.abs(W + W[::-1] - 1.0)) < 1e-8


def _matching_defect(tau, problem):
    return tails_defect(*shoot_tails(tau, problem))


def test_conjugate_is_not_a_root(pair):
    d = _matching_defect(np.conj(pair.tau), PROB)
    assert np.max(np.abs(d)) > 1e-2


def test_matching_defect_small_at_root(pair):
    d = _matching_defect(pair.tau, PROB)
    assert np.max(np.abs(d)) < 1e-8


def test_matching_defect_large_off_spectrum():
    d = _matching_defect(-1.0 - 2.0j, PROB)
    assert np.max(np.abs(d)) > 1e-2


def test_shoot_tails_rejects_real_tau():
    with pytest.raises(ValueError):
        shoot_tails(1.5 + 0.0j, PROB)


def test_swapped_branch_blows_up(monkeypatch):
    # seed both tails on the growing branch, -s1
    s1 = DispersionProblem.s1
    monkeypatch.setattr(DispersionProblem, "s1",
                        property(lambda self: -s1.fget(self)))
    with pytest.raises(TailBlowup):
        shoot_tails(-1j, PROB)


def test_taylor_shot_raises_when_its_step_budget_runs_out(monkeypatch, pair):
    # the budget bounds the loop when the steps cannot reach z = 0, as
    # with rtol = 0; the default shot takes 37 steps per tail
    monkeypatch.setattr(eigen, "_MAX_STEPS", 10)
    with pytest.raises(TailBlowup, match="Taylor steps"):
        shoot_tails(pair.tau, PROB)


def test_tail_boundary_values_on_decaying_branch():
    left, right = shoot_tails(-1j, PROB, dense=True)
    assert abs(left.y[0, 0]) < 1e-10          # W at -Z
    assert abs(right.y[0, 0]) < 1e-10         # W - 1 at +Z


def test_refinement_drift(pair):
    base = pair.tau
    prob_z = DispersionProblem(Z=18.0)
    tau_z, _ = find_root(prob_z, seed_tau=base)
    assert abs(tau_z - base) < 1e-6
    prob_tol = DispersionProblem(rtol=1e-12)
    tau_tol, _ = find_root(prob_tol, seed_tau=base)
    assert abs(tau_tol - base) < 1e-6


def test_find_root_rejects_a_root_in_the_upper_half_plane():
    # Newton from 2i converges to the root near 3 e^{i pi/4}, which has
    # Im tau > 0 and so is no admissible eigenvalue
    with pytest.raises(NoRootFound, match="Im tau < 0"):
        find_root(PROB, seed_tau=2j)


def test_positive_curvature_root_by_conjugation():
    # s = +1: W -> conj(W), tau -> -conj(tau) maps the s = -1 problem onto
    # it, so tau = exp(-i pi/4)
    prob = DispersionProblem(sign_curvature=1)
    p1 = find_tau(prob)
    assert abs(p1.tau - np.exp(-1j * np.pi / 4)) < 1e-10
    assert abs(matrix_eigenvalues(prob, p1.tau) - p1.tau) < 1e-9
    assert sample_profile(p1, prob).residual_norm < 1e-8


def _count_shots(monkeypatch):
    calls = []
    shoot = eigen.shoot_tails

    def counting(*args, **kwargs):
        calls.append(1)
        return shoot(*args, **kwargs)
    monkeypatch.setattr(eigen, "shoot_tails", counting)
    return calls


def test_unseeded_solve_makes_no_scan(monkeypatch):
    # the production pair is the closed form: no shot at all
    calls = _count_shots(monkeypatch)
    find_tau(DispersionProblem())
    find_tau(DispersionProblem(sign_curvature=1))
    assert len(calls) == 0


def test_shooting_defect_separates_the_root():
    # the Newton check is not vacuous: the defect vanishes at the closed
    # form and not a micro-step away from it
    prob = DispersionProblem()
    tau_s = -np.exp(1j * np.pi / 4)
    assert abs(_log_derivative_defect(tau_s, prob)) < 1e-11
    assert abs(_log_derivative_defect(tau_s + 1e-6, prob)) > 1e-7


def _synthetic_path(lam_value, flow):
    t = np.linspace(0.0, 1.0, 5)
    z = np.zeros_like(t)
    return CriticalPath(t_nodes=t, a_nodes=1.0 + z, lam_nodes=lam_value + z,
                        adot_nodes=z, lamdot_nodes=z, t0=1.0, flow=flow)


# tau scaled by the curvature along the path: tau_phys(t) = kappa(t) tau


def test_scaled_eigendata_unit_curvature(pair, gauss_flow):
    path = _synthetic_path(-2.0, gauss_flow)
    assert complex(path.kappa(0.0) * pair.tau) == pytest.approx(pair.tau)


def test_scaled_eigendata_strong_curvature(pair, gauss_flow):
    path = _synthetic_path(-8.0, gauss_flow)
    assert complex(path.kappa(0.0) * pair.tau) == pytest.approx(2.0 * pair.tau)


def test_scaled_eigendata_along_heat_path(pair, gauss_path):
    ts = np.linspace(0, gauss_path.t0, 12)
    im = np.imag(gauss_path.kappa(ts) * pair.tau)
    assert np.all(im < 0)
    assert np.all(np.diff(np.abs(im)) < 1e-12)   # flattening curvature


def test_eigenpair_artifact_schema(samples):
    # the scalars only: the samples are written once, to V_profile.csv
    art = samples.to_jsonable()
    assert set(art) == {"tau_re", "tau_im", "residual_norm", "boundary_err",
                        "v_jumps"}
    assert art["tau_im"] < 0


def _joined_profile(left, right):
    """W, W', W'' assembled from dense tails: the tails scaled so that W
    and W' match at z = 0, the right tail's first slot shifted by 1."""
    WL, GL, _ = left.at_match
    OmR, GR, _ = right.at_match
    A, B = np.linalg.solve(np.array([[WL, -OmR], [GL, -GR]]),
                           np.array([1.0, 0.0], dtype=complex))
    yl, yr = A * left.y, B * right.y
    yr[0] += 1.0
    z = np.concatenate([left.z, right.z[::-1][1:]])
    return z, np.concatenate([yl.T, yr.T[::-1][1:]]).T


def _shooting_profile(tau, problem):
    """W, W', W'' from the dense shot."""
    return _joined_profile(*shoot_tails(tau, problem, dense=True))


@pytest.mark.parametrize("s", [-1, 1])
def test_closed_form_profile_matches_shooting(s):
    # the shooting stays the oracle of the closed form; the Taylor shot at
    # rtol 1e-13 agrees with it to 7e-16 (pinned below), far inside 1e-12
    prob = DispersionProblem(sign_curvature=s)
    p = sample_profile(find_tau(prob), prob)
    z, (W, W1, W2) = _shooting_profile(p.pair.tau,
                                       replace(prob, rtol=1e-13))
    assert np.array_equal(z, p.z_grid)
    assert np.max(np.abs(W - p.W)) < 1e-12
    assert np.max(np.abs(W1 - p.W1)) < 1e-12
    assert np.max(np.abs(W2 - p.W2)) < 1e-12


@pytest.mark.parametrize("s", [-1, 1])
def test_taylor_shot_matches_closed_form_to_rounding(s):
    # the Taylor shot is a sharp oracle: its dense profile meets the closed
    # form's W, W', W'' to rounding level (6.8e-16 measured), and its last
    # dense sample is the state it hands to the matching
    prob = DispersionProblem(sign_curvature=s)
    p = sample_profile(find_tau(prob), prob)
    tails = shoot_tails(p.pair.tau, replace(prob, rtol=1e-13), dense=True)
    for tail in tails:
        assert np.array_equal(tail.y[:, -1], tail.at_match)
    z, (W, W1, W2) = _joined_profile(*tails)
    assert np.array_equal(z, p.z_grid)
    assert np.max(np.abs(W - p.W)) <= 1e-14
    assert np.max(np.abs(W1 - p.W1)) <= 1e-14
    assert np.max(np.abs(W2 - p.W2)) <= 1e-14


@pytest.mark.parametrize("s", [-1, 1])
def test_taylor_shot_matches_dop853(s):
    # scipy's DOP853 is the independent integrator of the same seeds
    prob = DispersionProblem(sign_curvature=s, rtol=1e-13)
    tau = s * np.exp(-1j * s * np.pi / 4)
    taylor = shoot_tails(tau, prob, dense=True)
    dop = tuple(dop853_tail(tau, prob, side, dense=True)
                for side in ("left", "right"))
    for a, b in zip(taylor, dop):
        _, G, Gp = a.at_match
        _, Gd, Gpd = b.at_match
        assert abs(Gp / G - Gpd / Gd) <= 1e-12
    z, y = _joined_profile(*taylor)
    zd, yd = _joined_profile(*dop)
    assert np.array_equal(z, zd)
    assert np.max(np.abs(y - yd)) <= 1e-12


def test_eigen_command_shoots_once(monkeypatch, tmp_path):
    # eigen's one shot is Newton on the refined problem at the closed form;
    # it gives both the drift and the matching defect
    calls = _count_shots(monkeypatch)
    assert main(["eigen", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    art = json.loads((tmp_path / "eigen" / "eigenpair.json").read_text())
    prob = DispersionProblem()
    refined = DispersionProblem(Z=1.5 * prob.Z, rtol=prob.rtol / 100)
    tau = complex(art["tau_re"], art["tau_im"])
    assert art["refinement_drift"] == 0.0
    assert art["match_defect"] == np.max(np.abs(_matching_defect(tau,
                                                                 refined)))


def test_v_and_slope_is_the_first_two_v_derivs(pair):
    # the series' V/V' pass skips W'' but rounds V and V' as v_derivs does,
    # on a stacked zeta that crosses 0 and reaches the decayed tail
    z = np.linspace(-9.0, 9.0, 401)[None, :] * np.array([[1.0], [0.37]])
    V, V1 = pair.v_and_slope(z)
    ref = pair.v_derivs(z)
    assert np.array_equal(V, ref[0]) and np.array_equal(V1, ref[1])


def test_v_samples_match_evaluator_and_decay(pair, samples):
    # V = q (W - 1) on z > 0 is taken without forming W - 1, so its tail
    # falls far below the 1e-16 * q that the subtraction would leave, and it
    # mirrors the z < 0 side to full relative precision
    z, V = samples.z_grid, samples.V
    assert np.array_equal(pair.v_derivs(z)[0], V)
    assert z[-1] == PROB.Z
    assert abs(V[-1]) < 1e-20
    pos = z > 0
    assert np.array_equal(-z[::-1][pos], z[pos])
    assert np.max(np.abs(V[pos] + V[::-1][pos]) / np.abs(V[pos])) < 1e-12
