"""Time evolution of single x-Fourier modes of the linearized problem.

For wavenumber k the mode u_hat(t,y) obeys

    d_t u_hat = -i k u_s u_hat - v_hat d_y u_s + d_y^2 u_hat,
    v_hat(y) = -i k int_0^y u_hat dz,     u_hat(t, 0) = u_hat(t, Ymax) = 0.

The x-Fourier reduction is exact because the coefficients depend only on
(t, y).  The stepper treats diffusion with trapezoidal (Crank-Nicolson)
implicitness and the non-stiff advection/source explicitly via a
predictor-corrector pass, which is second order and self-starting.  An
"inviscid" scheme tag drops the diffusion for comparison against the exact
transport formula of the inviscid problem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CflViolation, NonFiniteState
from .heat import HeatFlowField
from .norms import fit_rate, weighted_sup

# Pade-13 scaling threshold of scaling and squaring (Higham 2005)
_THETA13 = 5.371920351148152
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True)
class FourierModeState:
    """One mode, or a batch of modes on one grid and at one time.

    One mode: k an int and u_hat of shape (ny,).  A batch: k a tuple of m
    ints and u_hat of shape (m, ny), row i the mode of wavenumber k[i].
    Everything acts along the last axis, so each row of a batch gets exactly
    the arithmetic it would get alone.
    """
    k: int | tuple[int, ...]
    t: float
    y: np.ndarray
    u_hat: np.ndarray

    @property
    def v_hat(self) -> np.ndarray:
        return -1j * _k_column(self.k) * cumulative_trapezoid(self.u_hat,
                                                              self.y)

    def check(self):
        # isfinite of a complex number is False if either part is inf or nan
        if not np.all(np.isfinite(self.u_hat)):
            raise NonFiniteState("u_hat left the floating-point range")


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    scheme: str = "imex-cn"      # or "inviscid"
    c_cfl: float = 0.5

    def __post_init__(self):
        if self.scheme not in ("imex-cn", "inviscid"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def cumulative_trapezoid(f, y):
    """int_{y[0]}^{y} f by the trapezoid rule along the last axis of f."""
    f = np.asarray(f)
    y = np.asarray(y, dtype=float)
    inc = 0.5 * np.diff(y) * (f[..., 1:] + f[..., :-1])
    out = np.zeros(f.shape, dtype=inc.dtype)
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


def _k_column(k) -> np.ndarray:
    """k as a column that broadcasts against u_hat: shape (1,) for an int,
    (m, 1) for a tuple of m."""
    return np.asarray(k)[..., None]


def auto_dt(k: int, field: HeatFlowField, t_final: float, *,
            c_cfl: float, min_steps: int) -> float:
    """The CFL step c_cfl / (k sup|u_s|), capped at t_final / min_steps."""
    umax = float(np.max(np.abs(field.us)))
    dt_cfl = c_cfl / (max(k, 1) * max(umax, 1e-12))
    return min(dt_cfl, t_final / min_steps)


def _check_cfl(state: FourierModeState, field: HeatFlowField,
               config: SolverConfig):
    """The advective step bound; in a batch the largest k binds."""
    umax = float(np.max(np.abs(field.us)))
    k = int(np.max(state.k))
    if k > 0 and config.dt > config.c_cfl / (k * max(umax, 1e-12)):
        raise CflViolation(
            f"dt={config.dt:g} exceeds c_cfl/(k sup|u_s|)="
            f"{config.c_cfl / (k * umax):g} at k={k}")


def _advection(u, y, k, us_row, dyus_row):
    v = -1j * k * cumulative_trapezoid(u, y)
    return -1j * k * us_row * u - v * dyus_row


def _cn_factors(y: np.ndarray, dt: float) -> tuple:
    """LU factors (LAPACK gttrf) of the tridiagonal (I - dt/2 D2) on the
    interior nodes, Dirichlet both ends; _cn_solve applies the inverse."""
    from scipy.linalg.lapack import zgttrf  # loaded on first use
    n = y.size - 2
    if n < 3:
        raise ValueError("the Crank-Nicolson solve needs at least 5 grid "
                         f"points, got {y.size}")
    h = y[1] - y[0]
    r = dt / (2 * h * h)
    off = np.full(n - 1, -r, dtype=complex)
    dl, d, du, du2, ipiv, _ = zgttrf(off, np.full(n, 1 + 2 * r, dtype=complex),
                                     off)
    return dl, d, du, du2, ipiv


def _cn_solve(lu: tuple, b: np.ndarray) -> np.ndarray:
    """(I - dt/2 D2)^{-1} b along the last axis of b: every row of a batch
    is one right-hand side of a single gttrs call."""
    from scipy.linalg.lapack import zgttrs  # loaded on first use
    return zgttrs(*lu, b.T)[0].T


def step(state: FourierModeState, config: SolverConfig, *, coefs,
         lu) -> FourierModeState:
    """One IMEX step (predictor-corrector on the explicit terms).

    coefs holds the (u_s, d_y u_s) rows at the step's start and end times,
    and lu the _cn_factors for config.dt (None for the inviscid scheme).
    evolve checks the CFL condition once, interpolates each row once and
    factors once, and passes them to every step.
    """
    y, dt, k = state.y, config.dt, _k_column(state.k)
    u = state.u_hat
    (us0, dyus0), (us1, dyus1) = coefs

    if config.scheme == "inviscid":
        n0 = _advection(u, y, k, us0, dyus0)
        up = u + dt * n0
        up[..., 0] = 0.0
        n1 = _advection(up, y, k, us1, dyus1)
        un = u + 0.5 * dt * (n0 + n1)
        un[..., 0] = 0.0
    else:
        h = y[1] - y[0]
        lap = u[..., 2:] - 2 * u[..., 1:-1] + u[..., :-2]
        base = u[..., 1:-1] + (dt / (2 * h * h)) * lap
        n0 = _advection(u, y, k, us0, dyus0)
        up = np.zeros_like(u)
        up[..., 1:-1] = _cn_solve(lu, base + dt * n0[..., 1:-1])
        n1 = _advection(up, y, k, us1, dyus1)
        un = np.zeros_like(u)
        un[..., 1:-1] = _cn_solve(lu, base + 0.5 * dt * (n0 + n1)[..., 1:-1])

    out = FourierModeState(k=state.k, t=state.t + dt, y=y, u_hat=un)
    out.check()
    return out


@dataclass(frozen=True)
class Trajectory:
    """Norm record of an evolve run.  lognorm is the log of the sup norm
    (the weighted sup norm at alpha = 0) at each time of t; log_scale is
    the accumulated renormalisation log-factor.  For a batch both carry a
    leading row axis, shapes (m, len(t)) and (m,), row i that of final's
    row i; for one mode they are (len(t),) and a scalar."""
    t: np.ndarray
    lognorm: np.ndarray
    final: FourierModeState
    log_scale: float | np.ndarray

    def row(self, i: int) -> Trajectory:
        """The one-mode trajectory of row i of a batch."""
        f = self.final
        return Trajectory(t=self.t, lognorm=self.lognorm[i],
                          final=FourierModeState(k=f.k[i], t=f.t, y=f.y,
                                                 u_hat=f.u_hat[i]),
                          log_scale=self.log_scale[i])


def _row_sup(u: np.ndarray):
    """max |u| along the last axis, the sup norm of each row."""
    return np.max(np.abs(u), axis=-1)


def evolve(state0: FourierModeState, field: HeatFlowField,
           config: SolverConfig, t_final: float, *,
           renormalize: bool = False) -> Trajectory:
    """Repeated stepping with norm recording; optional per-step rescaling to
    unit sup norm with an exact log bookkeeping of the factors.

    state0 may be one mode or a batch (see FourierModeState): a batch
    shares one dt, the steps' coefficient rows, one Crank-Nicolson LU and
    one multi-right-hand-side solve per stage, and each row is recorded and
    renormalised by its own norm.  evolve_grouped forms the batches of a
    probe or scan, one per dt.  t_final equal to the start time gives the
    one-sample trajectory; an earlier t_final raises ValueError.
    """
    if t_final > field.horizon + 1e-12:
        raise ValueError(f"t_final={t_final} beyond field horizon {field.horizon}")
    if t_final < state0.t:
        raise ValueError(f"t_final={t_final} before the start time {state0.t}")
    state0.check()
    ts = [state0.t]
    logn = [np.log(_row_sup(state0.u_hat))]
    log_scale = np.zeros(np.shape(logn[0]))[()]    # a scalar for one mode
    nsteps = int(np.ceil((t_final - state0.t) / config.dt))
    if nsteps:
        cfg = replace(config, dt=(t_final - state0.t) / nsteps)
        _check_cfl(state0, field, cfg)
        lu = _cn_factors(state0.y, cfg.dt) if cfg.scheme == "imex-cn" else None
        coef0 = field.slice_interp(state0.t)
    s = state0
    for _ in range(nsteps):
        coef1 = field.slice_interp(s.t + cfg.dt)
        s = step(s, cfg, coefs=(coef0, coef1), lu=lu)
        coef0 = coef1
        nrm = _row_sup(s.u_hat)
        if np.any(nrm == 0.0):
            raise NonFiniteState("mode collapsed to zero; nothing to record")
        log_nrm = np.log(nrm)
        ts.append(s.t)
        logn.append(log_nrm + log_scale)
        if renormalize:
            log_scale = log_scale + log_nrm
            s = replace(s, u_hat=s.u_hat / nrm[..., None])
    return Trajectory(t=np.array(ts), lognorm=np.stack(logn, axis=-1),
                      final=s, log_scale=log_scale)


def evolve_grouped(field: HeatFlowField, ks, u0s, configs,
                   t_final: float) -> list[Trajectory]:
    """Evolve the mode u0s[i] of wavenumber ks[i] from t = 0 under
    configs[i], renormalised, as one evolve batch per distinct config (in
    practice, per dt), each batch holding its ks in their given order.
    Returns the one-mode trajectories in the order of ks."""
    groups = {}
    for i, config in enumerate(configs):
        groups.setdefault(config, []).append(i)
    out = [None] * len(ks)
    for config, rows in groups.items():
        s0 = FourierModeState(k=tuple(int(ks[i]) for i in rows), t=0.0,
                              y=field.y_grid,
                              u_hat=np.stack([np.asarray(u0s[i], dtype=complex)
                                              for i in rows]))
        traj = evolve(s0, field, config, t_final, renormalize=True)
        for j, i in enumerate(rows):
            out[i] = traj.row(j)
    return out


# ---------------------------------------------------------------------------
# growth measurement and the ill-posedness probe


def growth_row(k: int, t, lognorm, path, *, window=(0.2, 0.9)) -> dict:
    """Fit the growth rate of one log-amplitude trajectory.

    The growing-component amplitude model is

        a(t) = const * t * kappa(t)^{3/2} * exp(|Im tau| sqrt(k) K(t)),

    K(t) = int_0^t kappa (path.kappa is all this reads of path): the t and
    kappa^{3/2} prefactors are known structure of the assembly, so they are
    subtracted before fitting.
    sigma(k) is the least-squares slope of the compensated log amplitude
    against t over the window (so it averages the instantaneous rate
    |Im tau| sqrt(k) kappa(t) across the window; the curvature decay of the
    background makes it sit a few percent below the t=0 rate).
    """
    t = np.asarray(t, dtype=float)
    ln = np.asarray(lognorm, dtype=float)
    t_final = t[-1]
    lo, hi = window[0] * t_final, window[1] * t_final
    comp = (ln - np.log(np.maximum(t, 1e-300))
            - 1.5 * np.log(np.asarray(path.kappa(t), dtype=float)))
    in_window = (t >= lo) & (t <= hi)
    fit_plain = fit_rate(t, comp, in_window)
    return {
        "k": int(k),
        "sigma": float(fit_plain.rate),
        "sigma_over_sqrt_k": float(fit_plain.rate / np.sqrt(k)),
        "fit_residual": float(fit_plain.residual),
        "window": [float(lo), float(hi)],
        "n_samples": fit_plain.n_samples,
        "t_final": float(t_final),
    }


def frozen_mode_operator(profile, k: int, *, y_max: float = 20.0,
                         ny: int = 900) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrix of the frozen-coefficient mode operator on the interior
    grid (Dirichlet ends, trapezoid integration for v_hat)."""
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


def transient_amplification(profile, k: int, t: float, *, y_max: float = 20.0,
                            ny: int = 900) -> float:
    """sup over initial data of the frozen-problem amplification at time t:
    the 2-norm of the matrix exponential of the mode operator.

    The frozen operator here is spectrally stable at desk-scale k; the
    high-frequency growth is a transient (pseudospectral) amplification
    whose rate approaches the dispersion prediction from below as k grows.
    This is the ground-truth certificate for the evolved-dynamics tests.

    Scaling and squaring (Higham 2005): s is the least power with
    ||tA||_1 / 2^s <= theta_13, scipy's expm takes e^{tA/2^s} (no squaring
    happens inside it at that norm), and the s squarings are done here.  The
    heat-kernel part of e^{tA} falls off like e^{-(dy)^2/4t}, so the squares
    hold thousands of subnormal entries, and a product with subnormal
    operands runs several times slower than an ordinary one.  Before each
    product the real and imaginary parts below sqrt(tiny) max(1, max|E|)
    are therefore set to 0: every product of the parts that remain is a
    normal number, and the dropped part has 2-norm below
    2n 1.5e-154 max(1, max|E|), far below one ulp of any result not itself
    near underflow.
    """
    from scipy.linalg import expm  # loaded on first use
    from scipy.sparse.linalg import svds  # loaded on first use
    A, _ = frozen_mode_operator(profile, k, y_max=y_max, ny=ny)
    tA = t * A
    norm1 = float(np.abs(tA).sum(axis=0).max())
    s = int(np.ceil(np.log2(norm1 / _THETA13))) if norm1 > _THETA13 else 0
    E = expm(tA / 2.0**s)
    for _ in range(s):
        parts = E.view(float)
        mag = np.abs(parts)
        parts[mag < _SQRT_TINY * max(1.0, mag.max())] = 0.0
        E = E @ E
    return float(svds(E, k=1, return_singular_vectors=False,
                      v0=np.ones(E.shape[0], complex))[0])


def operator_growth_probe(field: HeatFlowField, ks, u0s, configs, *,
                          t: float, m: int, alpha: float, sigmas,
                          mu: float) -> list[dict]:
    """Evolve the initial data u0s[i] of wavenumber ks[i] under configs[i]
    to t and report amplification ratios, one row per (sigma, k),
    sigma-major.  sigma enters only the damping, so each k is evolved once
    for all sigmas.

    rho:      e^{-sigma sqrt(k) t} ||u(t)||_{W0} / ((1+k^2)^{m/2} ||u(0)||_{W_alpha})
              (the literal mode-Sobolev ratio, an H^m_alpha -> W_0 ratio
              that loses m derivatives: its prefactor is
              (1+k^2)^{-m/2} ~ k^{-m}, since the eps of the data cancels
              between numerator and denominator).
    rho_cert: k^{-mu} e^{-sigma sqrt(k) t} ||u(t)||_{W0} / ||u(0)||_{W_alpha}
              (the certificate form, the quantity the sigma < rate verdict
              reads: bounded under the hypothetical well-posedness estimate
              with loss mu < 1/2, divergent in k when sigma is below the
              true rate).

    The ks that share a config are evolved as one batch (evolve_grouped).
    """
    trajs = evolve_grouped(field, ks, u0s, configs, t)
    evolved = [(k, weighted_sup(u0, field.y_grid, alpha), traj.lognorm[-1])
               for k, u0, traj in zip(ks, u0s, trajs)]
    rows = []
    for sigma in sigmas:
        for k, n0_alpha, log_nt in evolved:
            damp = -sigma * np.sqrt(k) * t
            rows.append({
                "k": int(k), "t": float(t), "m": int(m), "alpha": float(alpha),
                "mu": float(mu), "sigma": float(sigma),
                "rho": float(np.exp(log_nt + damp)
                             / ((1 + k * k) ** (m / 2.0) * n0_alpha)),
                "rho_cert": float(k ** (-mu) * np.exp(log_nt + damp)
                                  / n0_alpha),
                "amplification": float(np.exp(log_nt) / n0_alpha),
                "log_final_norm": float(log_nt),
            })
    return rows
