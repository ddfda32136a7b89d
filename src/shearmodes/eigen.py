"""Eigenvalue tau and profile W of the third-order dispersion ODE

    (tau + s z^2)^2 W' + i d^3/dz^3 [ (tau + s z^2) W ] = 0,
    W(-inf) = 0,  W(+inf) = 1,        s = sign of the curvature at a.

Since W = const solves the equation, G = W' satisfies the second-order

    i q G'' + 6 i s z G' + (q^2 + 6 i s) G = 0,      q = tau + s z^2,

whose solutions behave like exp(s1 z^2 / 2) z^{sm1} at |z| -> inf with
s1^2 = i s.  The eigenpair is explicit (Gerard-Varet & Dormy, JAMS 2010):
tau^2 = -i s, Im tau < 0 (tau = -e^{i pi/4} for s = -1; s = +1 follows by
W -> conj(W), tau -> -conj(tau)), with G = E / (N q^2), E = exp(s1 z^2 / 2),
and W an erfc plus an elementary term.  Eigenpair is these formulas;
erfc is special.erfc, Weideman's rational series for the Faddeeva function,
so the closed-form pair loads no scipy.

The production pair is the closed form alone: find_tau returns it, with
no shot and no samples; sample_profile samples it on the shot's z grid for
the eigen command and its checks.  The
shooting is an oracle.  Both tails are integrated inward on the decaying
branch and matched at z = 0; the eigenvalue condition is the vanishing
Wronskian of G across the matching point, found by complex Newton on the
logarithmic-derivative mismatch (holomorphic in tau).  The tails are
integrated by Taylor series (_integrate_tail): the G equation has polynomial
coefficients, so the series about any point follows from a short exact
recurrence, and the dense shot meets the closed form to about 7e-16.
find_root is that Newton step from a given seed; seeded at the closed form,
its first shot already has a defect below the Newton tolerance.  The
Chebyshev collocation in matrix_eigenvalues is the second, independent
oracle: it returns the collocation eigenvalue nearest a given tau by
shift-invert iteration on the quadratic pencil, checked by its residual on
the companion matrix applied blockwise.  Both oracles are numpy alone, so
no command loads scipy for the eigenpair or its checks.

The shear-layer profile is V = (tau + s z^2) W - 1_{z>0} (tau + s z^2); its
jumps at 0 ([V] = -tau, [V'] = 0, [V''] = 2 for s = -1) are identities of
the construction and are measured, not imposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoRootFound, NotConverged, TailBlowup
from .special import erfc

# degree of the Taylor polynomials of the tail shot, and its step budget
TAYLOR_ORDER = 30
_MAX_STEPS = 20_000
_GUARD = 1e12          # bound on |(W, G, G')| along each tail


@dataclass(frozen=True)
class DispersionProblem:
    sign_curvature: int = -1
    Z: float = 12.0                  # the tails run from -Z and Z to z = 0
    dz: float = 1e-3
    rtol: float = 1e-10              # the Taylor shot's step tolerance

    def __post_init__(self):
        if self.sign_curvature not in (-1, 1):
            raise ValueError("sign_curvature must be +-1")
        if not 2.0 <= self.Z <= 28.0:
            raise ValueError("Z outside the supported range [2, 28]")

    @property
    def s1(self) -> complex:
        # decaying-branch quadratic exponent: s1^2 = i * s, Re s1 < 0
        return -np.exp(1j * self.sign_curvature * np.pi / 4)


def _tail_seed(z0: float, tau: complex, problem: DispersionProblem):
    """Two-term asymptotic seed (W-like, G, G') on the decaying branch."""
    s1 = problem.s1
    sm1 = 1j * tau / (2 * s1) - 3.5
    G = np.exp(s1 * z0 * z0 / 2.0) * abs(z0) ** sm1
    Sp = s1 * z0 + sm1 / z0
    Spp = s1 - sm1 / (z0 * z0)
    Wlike = (G / Sp) * (1.0 + Spp / Sp**2)
    return np.array([Wlike, G, Sp * G], dtype=complex)


def _taylor_series(z0: float, y: np.ndarray, tau: complex, s: int
                   ) -> np.ndarray:
    """Coefficients c, shape (3, TAYLOR_ORDER + 1), of the Taylor polynomials
    of (W, G, G') about z0, so that y(z0 + x) = sum_n c[:, n] x^n.

    With q = q0 + q1 x + q2 x^2 and P = i q^2 - 6 s = sum_{m<=4} P_m x^m,
    the G equation q G'' + 6 s z G' - P G = 0 gives

        q0 (n+2)(n+1) g_{n+2} = -(q1 n + 6 s z0)(n+1) g_{n+1}
                                - (q2 n(n-1) + 6 s n) g_n + sum_m P_m g_{n-m},

    and W' = G gives w_{n+1} = g_n / (n + 1)."""
    N = TAYLOR_ORDER
    q0, q1, q2 = tau + s * z0 * z0, 2.0 * s * z0, float(s)
    P0, P1, P2, P3, P4 = (1j * q0 * q0 - 6.0 * s, 2j * q0 * q1,
                          1j * (q1 * q1 + 2.0 * q0 * q2), 2j * q1 * q2,
                          1j * q2 * q2)
    sz, s6 = 6.0 * s * z0, 6.0 * s
    # g with four leading zeros, so that g[n + 4] is g_n
    g = [0.0, 0.0, 0.0, 0.0, complex(y[1]), complex(y[2])]
    for n in range(N):
        k = n + 4
        acc = (P0 * g[k] + P1 * g[k - 1] + P2 * g[k - 2] + P3 * g[k - 3]
               + P4 * g[k - 4] - (q1 * n + sz) * (n + 1) * g[k + 1]
               - (q2 * n * (n - 1) + s6 * n) * g[k])
        g.append(acc / (q0 * (n + 2) * (n + 1)))
    n = np.arange(N + 1)
    g = np.array(g[4:])
    w = np.empty(N + 1, dtype=complex)
    w[0] = y[0]
    w[1:] = g[:N] / n[1:]
    return np.array([w, g[:N + 1], (n + 1) * g[1:]])


def _evaluate(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n c[:, n] x^n, shape (3, len(x))."""
    powers = np.vander(x, c.shape[1], increasing=True)
    return (c[:, None, :] * powers).sum(axis=2)


@dataclass(frozen=True)
class TailSolution:
    at_match: np.ndarray      # (W or W-1, G, G') at z = 0
    z: np.ndarray | None = None
    y: np.ndarray | None = None


def _integrate_tail(tau: complex, problem: DispersionProblem, side: str, *,
                    dense: bool = False) -> TailSolution:
    """One tail from its asymptotic seed at -Z or +Z inward to 0 by Taylor
    series of degree TAYLOR_ORDER (Jorba & Zou, Exp. Math. 14, 2005).

    Each step takes h = 1/2 min_n (rtol max|y| / |c_n|)^{1/n}, rtol the
    problem's, over the last two coefficients c_n of the state's series,
    and the last step lands on 0 exactly.  The bound _GUARD on |y| is
    checked on the seed and after every step (TailBlowup).  Dense output
    evaluates each step's polynomial at the points of np.linspace(z0, 0)
    that the step covers."""
    s, rtol = problem.sign_curvature, problem.rtol
    z0 = -problem.Z if side == "left" else problem.Z
    direction = 1.0 if z0 < 0.0 else -1.0
    y = _tail_seed(z0, tau, problem)
    if dense:
        z_out = np.linspace(z0, 0.0, int(round(abs(z0) / problem.dz)) + 1)
        y_out = np.empty((3, z_out.size), dtype=complex)
        ahead = direction * z_out          # increasing along the integration
        done = 0
    z = z0
    for _ in range(_MAX_STEPS):
        size = float(np.max(np.abs(y)))
        if not size <= _GUARD:
            raise TailBlowup(
                f"{side} tail exceeded the magnitude guard {_GUARD:g}; "
                "wrong branch or tau too far from the spectrum")
        if z == 0.0:
            break
        c = _taylor_series(z, y, tau, s)
        h = 0.5 * min((rtol * size / float(np.max(np.abs(c[:, n]))))
                      ** (1.0 / n) for n in (TAYLOR_ORDER - 1, TAYLOR_ORDER))
        z_new = 0.0 if h >= abs(z) else z + direction * h
        if dense:
            stop = int(np.searchsorted(ahead, direction * z_new))
            y_out[:, done:stop] = _evaluate(c, z_out[done:stop] - z)
            done = stop
        y = _evaluate(c, np.array([z_new - z]))[:, 0]
        z = z_new
    else:
        raise TailBlowup(f"{side} tail did not reach z = 0 in "
                         f"{_MAX_STEPS} Taylor steps")
    if not dense:
        return TailSolution(at_match=y)
    y_out[:, -1] = y
    return TailSolution(at_match=y, z=z_out, y=y_out)


def shoot_tails(tau: complex, problem: DispersionProblem, *,
                dense: bool = False) -> tuple[TailSolution, TailSolution]:
    """Integrate both tails to z = 0.  The right tail carries W - 1 in the
    first slot so that both sides hold a decaying quantity."""
    tau = complex(tau)
    if tau.imag == 0.0:
        raise ValueError("tau on the real axis: no growing/decaying selection")
    left = _integrate_tail(tau, problem, "left", dense=dense)
    right = _integrate_tail(tau, problem, "right", dense=dense)
    return left, right


def _log_mismatch(left: TailSolution, right: TailSolution) -> complex:
    _, GL, GLp = left.at_match
    _, GR, GRp = right.at_match
    return GRp / GR - GLp / GL


def _log_derivative_defect(tau: complex, problem: DispersionProblem) -> complex:
    """(G'/G)_right - (G'/G)_left at z = 0; holomorphic in tau, zero
    exactly at eigenvalues (Wronskian zero with G != 0)."""
    return _log_mismatch(*shoot_tails(tau, problem))


def tails_defect(left: TailSolution, right: TailSolution) -> np.ndarray:
    """Mismatch of (W, W', W'') of the two tails at z = 0 as a complex
    2-vector.

    The free constants A (left) and B (right) are fixed by constrained least
    squares: the W components (including the far-field 1) are matched
    exactly, and the returned vector is the remaining (W', W'') mismatch.
    Zero defect iff the tails were shot at an eigenvalue.
    """
    WL, GL, GLp = left.at_match
    OmR, GR, GRp = right.at_match
    # constraint A*WL - B*OmR = 1; minimize |A*GL - B*GR|^2 + |A*GLp - B*GRp|^2
    w = np.array([WL, -OmR])
    M = np.array([[GL, -GR], [GLp, -GRp]])
    x0 = np.conj(w) / np.vdot(w, w)          # min-norm particular solution
    nullv = np.array([OmR, WL])              # spans the constraint nullspace
    r0 = M @ x0
    rv = M @ nullv
    denom = np.vdot(rv, rv)
    c = -np.vdot(rv, r0) / denom if abs(denom) > 0 else 0.0
    return r0 + c * rv


def _newton_polish(tau: complex, problem: DispersionProblem
                   ) -> tuple[complex, tuple[TailSolution, TailSolution]] | None:
    """The root and the tails shot at it, or None: at most 40 Newton steps,
    stopping at a log-derivative defect below 1e-11."""
    for _ in range(40):
        try:
            tails = shoot_tails(tau, problem)
        except TailBlowup:
            return None
        d = _log_mismatch(*tails)
        if abs(d) < 1e-11:
            return tau, tails
        h = 1e-7 * (1.0 + abs(tau))
        try:
            dp = (_log_derivative_defect(tau + h, problem)
                  - _log_derivative_defect(tau - h, problem)) / (2 * h)
        except TailBlowup:
            return None
        if dp == 0:
            return None
        step = d / dp
        if abs(step) > 1.0:
            step /= abs(step)
        tau = tau - step
    return None


class Eigenpair:
    """The closed-form eigenpair at tau: W, W', W'' of the eigenprofile, the
    shear-layer profile V with derivatives up to third order (algebraic in
    W, W', W''), and the one-sided limits of V at 0.

    With q = tau + s z^2, E = exp(s1 z^2 / 2), alpha = 1/(tau - s s1 tau^2),
    beta = -s s1 alpha, r = sqrt(-s1/2) and N = beta sqrt(pi)/r:

        W' = E / (N q^2),   W'' = (s1 z / q^2 - 4 s z / q^3) E / N,
        W  = alpha z E / (N q) + erfc(-r z) / 2          (z <= 0),

    where erfc's coefficient beta sqrt(pi)/(2 r N) is 1/2, and W - 1 = -W(-z)
    for z > 0 because W' is even.  The reflection keeps W - 1 free of
    cancellation, so V decays to the underflow limit instead of stopping at
    rounding level.

    v_jumps holds V, V', V'' on each side of 0 and their jumps, from
    V = q (W - 1_{z>0}) and the closed-form W, W', W'' at 0.
    """

    def __init__(self, tau: complex, s: int):
        self.tau = tau
        self.s = s
        self._s1 = -np.exp(1j * s * np.pi / 4)
        alpha = 1.0 / (tau - s * self._s1 * tau**2)
        beta = -s * self._s1 * alpha
        self._r = np.sqrt(-self._s1 / 2)
        norm = beta * np.sqrt(np.pi) / self._r
        self._cw = alpha / norm
        self._c1 = 1.0 / norm
        W0, G0, Gp0 = (complex(v[0]) for v in self.w_derivs(np.zeros(1)))
        sides = zip(("V", "V1", "V2"),
                    (tau * W0, tau * G0, tau * Gp0 + 2 * s * W0),
                    (tau * (W0 - 1.0), tau * G0,
                     tau * Gp0 + 2 * s * (W0 - 1.0)))
        self.v_jumps = {}
        for name, left, right in sides:
            self.v_jumps.update({f"{name}_left": left, f"{name}_right": right,
                                 f"jump_{name}": right - left})

    def _profile(self, z):
        """(q, E, W - 1_{z >= 0}, W') at z; _w2 forms W'' from q and E."""
        zn = -np.abs(z)                       # W is evaluated on z <= 0 only
        q = self.tau + self.s * zn * zn
        E = np.exp(self._s1 * zn * zn / 2)
        Wn = 0.5 * erfc(-self._r * zn) + self._cw * zn * E / q
        W1 = self._c1 * E / q**2
        return q, E, np.where(z >= 0, -Wn, Wn), W1

    def _w2(self, z, q, E):
        return self._c1 * (self._s1 / q**2 - 4 * self.s / q**3) * z * E

    def w_derivs(self, z):
        z = np.asarray(z, dtype=float)
        q, E, Wm, W1 = self._profile(z)
        return Wm + (z >= 0), W1, self._w2(z, q, E)

    def v_and_slope(self, z):
        """V and V' of v_derivs, bit for bit, without forming W''."""
        z = np.asarray(z, dtype=float)
        q, _, Wm, W1 = self._profile(z)
        return q * Wm, q * W1 + 2 * self.s * z * Wm

    def v_derivs(self, z):
        """V, V', V'', V''' with the indicator subtraction on z >= 0.

        V''' = i q^2 W' exactly (the ODE removes the third derivative of W).
        """
        z = np.asarray(z, dtype=float)
        q, E, Wm, W1 = self._profile(z)
        V, V1 = q * Wm, q * W1 + 2 * self.s * z * Wm
        V2 = q * self._w2(z, q, E) + 4 * self.s * z * W1 + 2 * self.s * Wm
        V3 = 1j * q * q * W1
        return V, V1, V2, V3


@dataclass(frozen=True)
class ProfileSamples:
    """The eigenprofile of pair sampled on z_grid, and its quality measures."""

    pair: Eigenpair
    z_grid: np.ndarray
    W: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    V: np.ndarray
    residual_norm: float
    boundary_err: float

    def to_jsonable(self) -> dict:
        """The scalars of the samples; the samples themselves are not
        included (the eigen command writes them to V_profile.csv)."""
        tau = self.pair.tau
        return {
            "tau_re": tau.real,
            "tau_im": tau.imag,
            "residual_norm": self.residual_norm,
            "boundary_err": self.boundary_err,
            "v_jumps": {k: [v.real, v.imag]
                        for k, v in self.pair.v_jumps.items()},
        }


def _fd_ode_residual(z, W, W1, W2, tau, s):
    """ODE residual with the third derivative re-differenced from W'' samples
    (4th-order central stencil on every second grid point); W' and W'' are
    the samples themselves, and W is not read.  It measures the sampled
    profile independently of its formulas.  Its floor, about 2e-9 on the
    default problem (h = 2e-3 on every second point), is all the stencil's
    truncation and rounding, not a profile error: the closed-form profile
    agrees with a dense Taylor shot at rtol 1e-13 to about 7e-16, so the
    measure cannot see a profile error below about 1e-9."""
    z, W, W1, W2 = z[::2], W[::2], W1[::2], W2[::2]
    h = z[1] - z[0]
    W3 = np.full_like(W2, np.nan)
    W3[2:-2] = (W2[:-4] - 8 * W2[1:-3] + 8 * W2[3:-1] - W2[4:]) / (12 * h)
    q = tau + s * z * z
    r = q * q * W1 + 1j * (q * W3 + 6 * s * z * W2 + 6 * s * W1)
    r = r[4:-4]
    return float(np.max(np.abs(r)))


def find_root(problem: DispersionProblem, *, seed_tau: complex
              ) -> tuple[complex, tuple[TailSolution, TailSolution]]:
    """The shooting oracle: the eigenvalue tau near seed_tau and the tails
    shot at it, by complex Newton on the shooting defect."""
    seed = complex(seed_tau)
    root = _newton_polish(seed, problem)
    if root is None or root[0].imag >= 0:
        raise NoRootFound(f"Newton from {seed:.6g} found no eigenvalue "
                          "with Im tau < 0")
    return root


def find_tau(problem: DispersionProblem) -> Eigenpair:
    """The closed-form eigenpair, tau^2 = -i s with Im tau < 0; no shot and
    no samples."""
    s = problem.sign_curvature
    return Eigenpair(s * np.exp(-1j * s * np.pi / 4), s)


def sample_profile(pair: Eigenpair, problem: DispersionProblem
                   ) -> ProfileSamples:
    """W, W', W'' and V of pair sampled with step dz from -Z and from +Z to
    0 (the grid of the dense shot), with the boundary error
    max(|W(-Z)|, |W(Z) - 1|) and the finite-difference ODE residual."""
    zl = np.linspace(-problem.Z, 0.0, int(round(problem.Z / problem.dz)) + 1)
    zr = np.linspace(problem.Z, 0.0, zl.size)
    z = np.concatenate([zl, zr[::-1][1:]])
    W, W1, W2 = pair.w_derivs(z)
    return ProfileSamples(
        pair=pair, z_grid=z, W=W, W1=W1, W2=W2, V=pair.v_derivs(z)[0],
        residual_norm=_fd_ode_residual(z, W, W1, W2, pair.tau, pair.s),
        boundary_err=float(max(abs(W[0]), abs(W[-1] - 1.0))))


def _collocation_pencil(s: int, n_cheb: int, z_max: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """C0 and C1 of the Chebyshev collocation of the G equation, a quadratic
    eigenproblem (tau^2 I + tau C1 + C0) G = 0 on the interior points:

    tau^2 G + tau (i D2 + 2 s z^2) G
            + (i s z^2 D2 + 6 i s z D1 + z^4 + 6 i s) G = 0,  G(+-z_max) = 0.
    """
    N = n_cheb
    j = np.arange(N + 1)
    x = np.cos(np.pi * j / N)
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1) ** j
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    z = z_max * x
    D1 = D / z_max
    D2 = D1 @ D1
    inner = slice(1, N)
    zi = z[inner]
    zc = zi[:, None]                         # diag(z) as a row scaling
    D1i = D1[inner, inner]
    D2i = D2[inner, inner]
    C1 = 1j * D2i + np.diag(2 * s * zi**2)
    C0 = (1j * s * zc**2 * D2i + 6j * s * zc * D1i
          + np.diag(zi**4 + 6j * s))
    return C0, C1


def matrix_eigenvalues(problem: DispersionProblem, near: complex) -> complex:
    """Independent oracle: the eigenvalue nearest `near` of the companion
    matrix C = [[0, I], [-C0, -C1]] of the pencil (C0, C1) of
    _collocation_pencil at n_cheb 240 and z_max 8, without forming C.

    Shift-invert on the pencil: with Q = near^2 I + near C1 + C0, inverted
    once by numpy (no scipy), (C - near I)^{-1} (b1, b2) is (x1, b1 + near x1)
    with x1 = -Q^{-1} (b2 + C1 b1 + near b1).  Inverse iteration
    w = (C - near I)^{-1} v runs until the pair (lam, v),
    lam = near + 1 / (v^H w) for unit v, has ||C v - lam v|| <= 1e-9 |lam|,
    with C v - lam v = (v2 - lam v1, -C0 v1 - C1 v2 - lam v2) applied
    blockwise.  The residual is taken on C itself, so a converged pair is an
    eigenpair of C whatever the inverse did; if no iterate passes within 200
    steps, NotConverged is raised.
    Inverse iteration converges to the eigenvalue nearest the shift, at the
    rate of the ratio of its distance to the next one's; a pair that ends on
    another eigenvalue lies farther from `near`, so an oracle gap read from
    it can only come out larger.
    """
    C0, C1 = _collocation_pencil(problem.sign_curvature, 240, 8.0)
    n = C0.shape[0]
    near = complex(near)
    Q = C0 + near * C1
    Q.flat[::n + 1] += near * near
    Qinv = np.linalg.inv(Q)
    v = np.ones(2 * n, dtype=complex) / np.sqrt(2 * n)
    for _ in range(200):
        v1, v2 = v[:n], v[n:]
        x1 = -(Qinv @ (v2 + C1 @ v1 + near * v1))
        w = np.concatenate([x1, v1 + near * x1])
        lam = near + 1.0 / np.vdot(v, w)
        r = np.concatenate([v2 - lam * v1, -(C0 @ v1) - C1 @ v2 - lam * v2])
        if np.linalg.norm(r) <= 1e-9 * abs(lam):
            return complex(lam)
        v = w / np.linalg.norm(w)
    raise NotConverged(f"inverse iteration at {near:.6g} did not reach an "
                       "eigen-residual of 1e-9 in 200 steps")
