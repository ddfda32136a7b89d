"""Independent oracles: exact solutions the stepper is checked against, the
dense frozen mode operator and its matrix exponential, a general-purpose
integrator for the dispersion shot, the dense spectrum of the collocation
oracle's companion matrix, the advective phase by one kernel call per
quadrature node, and a far-field decay classifier.

The stepper's oracles share only the Gauss-Legendre panel builder with the
package, and nothing of the heat or stepper code they check.  The dense
operator shares only the profile with the band system and contour rule of
transient_amplification.  The DOP853 shot shares only the tails' asymptotic
seed and TailSolution with the Taylor-series shot it checks.  The dense
companion spectrum shares only the collocation pencil with the shift-invert
iteration of matrix_eigenvalues.  The kernel-per-node phase shares only
the panel builder and the path's a(t) with modes.phase_integral, which
takes it by parts along the path.  The decay classifier tail_class shares
nothing with the package; it measures the tails the decay criterion and the
profile tests assert.
"""

from types import SimpleNamespace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from shearmodes.eigen import TailSolution, _collocation_pencil, _tail_seed
from shearmodes.heat import gl_panels


def inviscid_exact(u0, U, Uprime, k: int, t: float, y_grid) -> tuple:
    """Exact mode solution of the inviscid linearized problem around frozen U:

        u_hat(t,y) = e^{-i k U(y) t} u0(y)
                     + t U'(y) * i k * int_0^y e^{-i k U(z) t} u0(z) dz,

    with the matching v_hat.  u0, U, Uprime are callables; cumulative
    integrals by per-cell 8-point Gauss-Legendre on the output grid.
    """
    y = np.asarray(y_grid, dtype=float)
    nodes, wts = gl_panels(0.5 * (y[1:] + y[:-1]), 0.5 * np.diff(y), 8)
    fz = np.exp(-1j * k * U(nodes) * t) * u0(nodes)
    I_cells = np.sum(wts * fz, axis=1)
    J_cells = np.sum(wts * U(nodes) * fz, axis=1)
    I = np.concatenate([[0.0 + 0.0j], np.cumsum(I_cells)])
    J = np.concatenate([[0.0 + 0.0j], np.cumsum(J_cells)])
    Uy = U(y)
    u_hat = np.exp(-1j * k * Uy * t) * u0(y) + t * Uprime(y) * 1j * k * I
    v_hat = -1j * k * I + t * k * k * (Uy * I - J)
    return u_hat, v_hat


def dirichlet_heat_kernel(u0, y_grid, t: float, *, halfwidth: float = 9.0,
                          nodes_per_panel: int = 12,
                          panel_factor: float = 0.7) -> np.ndarray:
    """Kernel solution of the pure heat equation on the half line with
    u(t,0)=0 (odd extension); u0 is a callable on y >= 0.  Oracle for the
    k = 0 reduction of the stepper."""
    y = np.asarray(y_grid, dtype=float)
    if t == 0.0:
        return u0(y).astype(complex)
    width = np.sqrt(4.0 * t)
    h = min(panel_factor * width, 0.5)
    npan = int(np.ceil((y[-1] + halfwidth * width) / h))
    edges = np.linspace(0.0, npan * h, npan + 1)
    nodes, wts = (a.ravel() for a in gl_panels(0.5 * (edges[1:] + edges[:-1]),
                                               0.5 * h, nodes_per_panel))
    f = u0(nodes) * wts
    c = 1.0 / width
    km = np.exp(-(c * (y[:, None] - nodes[None, :])) ** 2)
    kp = np.exp(-(c * (y[:, None] + nodes[None, :])) ** 2)
    return (km - kp) @ f * (c / np.sqrt(np.pi))


def advective_phase(path, t: float) -> float:
    """int_0^t u_s(s, a(s)) ds by composite 8-point Gauss-Legendre on
    panels at most 0.02 wide, u_s(s, a(s)) by one kernel call per node."""
    npan = max(1, int(np.ceil(t / 0.02)))
    edges = np.linspace(0.0, t, npan + 1)
    nodes, wts = (a.ravel() for a in gl_panels(0.5 * (edges[1:] + edges[:-1]),
                                               0.5 * np.diff(edges), 8))
    vals = [path.flow.derivs(s, np.array([a]), orders=(0,))[0][0]
            for s, a in zip(nodes, path.a(nodes))]
    return float(wts @ np.array(vals))


def frozen_field(profile, y_grid, t_grid) -> SimpleNamespace:
    """The coefficient field of the frozen problem, every time slice the
    initial layer itself: what the stepper reads of a HeatFlowField
    (y_grid, its grid; us, for the frame velocity; horizon; and
    slice_interp, the u_s and d_y u_s rows at a time)."""
    y = np.asarray(y_grid, dtype=float)
    us, dy_us = (np.tile(r, (len(t_grid), 1)) for r in profile.derivs(y)[:2])
    return SimpleNamespace(y_grid=y, us=us, dy_us=dy_us,
                           horizon=float(t_grid[-1]),
                           slice_interp=lambda t: (us[0], dy_us[0]))


def frozen_mode_operator(profile, k: int, *, y_max: float = 20.0,
                         ny: int = 900) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrix of the frozen-coefficient mode operator on the interior
    grid (Dirichlet ends, trapezoid integration for v_hat), and the grid."""
    y = np.linspace(0.0, y_max, ny)
    h = y[1] - y[0]
    d = profile.derivs(y)
    Ui, U1i = d[0][1:-1], d[1][1:-1]
    n = ny - 2
    D2 = (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
          + np.diag(np.ones(n - 1), -1)) / h**2
    # trapezoid weights of int_0^y: h below the diagonal, h/2 on it
    T = np.tril(np.full((n, n), h), -1) + (h / 2) * np.eye(n)
    A = -1j * k * np.diag(Ui) + 1j * k * U1i[:, None] * T + D2
    return A, y


def dense_transient_amplification(profile, k: int, t: float, *,
                                  y_max: float = 20.0, ny: int = 900) -> float:
    """The 2-norm of scipy's dense expm of t times the frozen mode operator:
    the oracle of evolve.transient_amplification."""
    A, _ = frozen_mode_operator(profile, k, y_max=y_max, ny=ny)
    return float(np.linalg.norm(expm(t * A), 2))


def dense_collocation_eigenvalues(s: int, n_cheb: int = 240,
                                  z_max: float = 8.0) -> np.ndarray:
    """Every eigenvalue of the companion matrix [[0, I], [-C0, -C1]] of the
    collocation pencil, by numpy's dense eigvals: the reference of
    matrix_eigenvalues."""
    C0, C1 = _collocation_pencil(s, n_cheb, z_max)
    n = C0.shape[0]
    return np.linalg.eigvals(np.block([[np.zeros((n, n)), np.eye(n)],
                                       [-C0, -C1]]))


def _rhs(z, y, tau, s):
    W, G, Gp = y
    q = tau + s * z * z
    Gpp = (-6.0 * s * z * Gp + (1j * q * q - 6.0 * s) * G) / q
    return [G, Gp, Gpp]


def dop853_tail(tau: complex, problem, side: str, *,
                dense: bool = False) -> TailSolution:
    """One tail of the dispersion shot by scipy's DOP853, from the same seed
    as eigen._integrate_tail to z = 0, at the problem's rtol; atol is 1e-6
    of the seed's |G|.
    Dense output is taken on the same np.linspace as the Taylor shot's."""
    z0 = -problem.Z if side == "left" else problem.Z
    y0 = _tail_seed(z0, complex(tau), problem)
    atol = float(np.abs(y0[1])) * 1e-6 + 1e-290
    t_eval = None
    if dense:
        n = int(round(abs(z0) / problem.dz)) + 1
        t_eval = np.linspace(z0, 0.0, n)
    sol = solve_ivp(_rhs, [z0, 0.0], y0,
                    args=(complex(tau), problem.sign_curvature),
                    method="DOP853", rtol=problem.rtol, atol=atol,
                    t_eval=t_eval)
    assert sol.success, sol.message
    return TailSolution(at_match=sol.y[:, -1],
                        z=sol.t if dense else None,
                        y=sol.y if dense else None)


# below this |f| counts as decaying faster than either tail model resolves
TAIL_FLOOR = 1e-14


def _line_fit(x, v) -> tuple[float, float]:
    """Least-squares slope of v against x and the rms residual of the line."""
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
    return float(coef[0]), float(np.sqrt(np.mean((A @ coef - v) ** 2)))


def tail_class(f, y) -> SimpleNamespace:
    """Classify the far-field decay of |f| on the far half of the grid:
    kind "exponential" (rate the e-folding rate), "algebraic" (rate the
    power) or "faster" (rate None).

    Regresses log|f| against y and against log y and keeps whichever line
    fits better; fewer than four samples above TAIL_FLOOR read "faster".
    """
    f = np.asarray(f)
    y = np.asarray(y, dtype=float)
    sel = slice(y.size // 2, y.size)
    yy, av = y[sel], np.abs(f[sel])
    good = av > TAIL_FLOOR
    if int(good.sum()) < 4:
        return SimpleNamespace(kind="faster", rate=None)
    yy, lf = yy[good], np.log(av[good])
    s_exp, r_exp = _line_fit(yy, lf)
    s_alg, r_alg = _line_fit(np.log(yy), lf)
    if r_exp <= r_alg:
        return SimpleNamespace(kind="exponential", rate=-s_exp)
    return SimpleNamespace(kind="algebraic", rate=-s_alg)
