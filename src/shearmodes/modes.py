"""Assembly of the growing-mode approximate solutions and their residuals.

A mode at wavenumber n (eps = 1/n) consists of

    U(t,y) = E(t) [ eps vtilde'(y) + i t d_y S(t,y) ],
    V(t,y) = E(t) [ -i vtilde(y) + t/eps S(t,y) ],

with S = v_reg + v_sl the Heaviside regular part plus the truncated
shear-layer profile, E = exp(i/eps int_0^t w_eps) the phase, and vtilde
the normalized antiderivative of a compactly supported bump f.  The
advective half of the phase, int_0^t u_s(s, a(s)) ds, follows from the
critical path by parts (phase_integral), so no time integral evaluates the
heat kernel.
The corrector makes the initial tangential data compactly supported, so its
weighted norms are finite for every exponential weight, while the far-field
tail of d_y v_reg still tracks d_y u_s for t > 0.

All derivatives are analytic: kernel-differentiated u_s, closed-form
corrector polynomials, and chain rule through (a(t), lambda(t), phase) for
the shear layer.  The residual splits as R = Rbar + t Rtilde with Rbar the
corrector/regular part and Rtilde the shear-layer part; the split is the
definition of the assembly, and an independent finite-difference application
of the linearized operator reproduces R to discretization accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .eigen import Eigenpair
from .norms import weighted_sup
from .path import CriticalPath, time_integral
from .profiles import ShearProfile


# ---------------------------------------------------------------------------
# corrector: normalized antiderivative of a quintic bump


class BumpCorrector:
    """vtilde(y) = int_0^y f / int_0^inf f for f a quintic bump on [lo, hi].

    f(s) = s^5 (1-s)^5 on the unit interval (C^4 at the endpoints), so
    vtilde rises monotonically from 0 to 1 across the support and all
    derivatives used downstream are exact piecewise polynomials.
    """

    def __init__(self, lo: float, hi: float):
        if not hi > lo >= 0:
            raise ValueError("need 0 <= lo < hi")
        self.lo, self.hi = float(lo), float(hi)
        self.width = self.hi - self.lo
        s = Polynomial([0.0, 1.0])
        self._f = (s**5 * (1 - s) ** 5)
        self._f1 = self._f.deriv()
        self._f2 = self._f1.deriv()
        self._F = self._f.integ()
        self._mass_s = float(self._F(1.0))       # = 1/2772

    def _s(self, y):
        return (np.asarray(y, dtype=float) - self.lo) / self.width

    def _inside(self, y):
        s = self._s(y)
        return (s > 0) & (s < 1), np.clip(s, 0.0, 1.0)

    def f(self, y):
        """Bump normalized to unit mass on [lo, hi], which is vtilde'; f1 and
        f2 are its first two derivatives."""
        ins, s = self._inside(y)
        return np.where(ins, self._f(s), 0.0) / (self._mass_s * self.width)

    def f1(self, y):
        ins, s = self._inside(y)
        return np.where(ins, self._f1(s), 0.0) / (self._mass_s * self.width**2)

    def f2(self, y):
        ins, s = self._inside(y)
        return np.where(ins, self._f2(s), 0.0) / (self._mass_s * self.width**3)

    def vtilde(self, y):
        s = np.clip(self._s(y), 0.0, 1.0)
        return self._F(s) / self._mass_s


# ---------------------------------------------------------------------------
# smooth truncation


class Smoothstep:
    """Even cutoff: 1 on |r| <= inner, 0 on |r| >= outer, polynomial blend.

    The septic blend gives a C^3 junction (third derivative continuous),
    which keeps the pointwise residual fields continuous across the cutoff
    shells.
    """

    def __init__(self, inner: float, outer: float):
        if not 0 < inner < outer:
            raise ValueError("need 0 < inner < outer")
        self.inner, self.outer = float(inner), float(outer)
        self.width = self.outer - self.inner
        self._S = Polynomial([0, 0, 0, 0, 35, -84, 70, -20])
        self._S1 = self._S.deriv()
        self._S2 = self._S1.deriv()
        self._S3 = self._S2.deriv()

    def derivs(self, r):
        r = np.asarray(r, dtype=float)
        u = (np.abs(r) - self.inner) / self.width
        mid = (u > 0) & (u < 1)
        uc = np.clip(u, 0.0, 1.0)
        sgn = np.sign(r)
        phi = np.where(u <= 0, 1.0, np.where(u >= 1, 0.0, 1.0 - self._S(uc)))
        p1 = np.where(mid, -self._S1(uc) * sgn / self.width, 0.0)
        p2 = np.where(mid, -self._S2(uc) / self.width**2, 0.0)
        p3 = np.where(mid, -self._S3(uc) * sgn / self.width**3, 0.0)
        return phi, p1, p2, p3


# ---------------------------------------------------------------------------
# parameters and scalar bundle


@dataclass(frozen=True)
class ModeParams:
    """Wavenumber and geometry of the truncation / corrector seed."""

    n: int
    phi_inner: float
    phi_outer: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError("n must be a positive integer (eps = 1/n)")

    @property
    def eps(self) -> float:
        return 1.0 / self.n

    def cutoff(self) -> Smoothstep:
        return Smoothstep(self.phi_inner, self.phi_outer)

    def bump(self) -> BumpCorrector:
        return BumpCorrector(self.f_lo, self.f_hi)


def default_params(profile: ShearProfile, n: int) -> ModeParams:
    """Cutoff shells at (0.5, 1.0) * min(a0, 1); bump just beyond the outer
    shell, 2 wide: the wide bump (lower peak) lets the growing part
    overtake the corrector earlier in the smallest-k runs."""
    if profile.a0 is None:
        raise ValueError("profile has no located critical point")
    scale = min(profile.a0, 1.0)
    d2 = 1.0 * scale
    lo = profile.a0 + d2 + 0.5
    return ModeParams(n=n, phi_inner=0.5 * scale, phi_outer=d2,
                      f_lo=lo, f_hi=lo + 2.0)


class _Scalars:
    """Per-time scalar bundle: critical point, curvature, scalings, phase.
    us_a and dyus_a are u_s and d_y u_s at (t, a)."""

    def __init__(self, *, t, a, lam, adot, lamdot, us_a, dyus_a, eps, tau):
        self.t = t
        self.a = a
        self.dyus_a = dyus_a
        self.lam = lam
        self.adot = adot
        self.us_a = us_a
        self.kappa = np.sqrt(abs(lam) / 2.0)
        # kappa = sqrt(|lam| / 2), so kappa' = sign(lam) lam' / (4 kappa)
        self.kdot = np.sign(lam) * lamdot / (4.0 * self.kappa)
        self.ell = eps**0.25 * self.kappa**-0.5
        self.elldot = -0.5 * self.ell * self.kdot / self.kappa
        self.w_eps = -us_a + np.sqrt(eps) * self.kappa * tau
        self.eps = eps
        self.tau = tau


def _path_point(path: CriticalPath, t: float) -> dict:
    """The n-independent part of _Scalars along the path at time t; path.a
    raises HorizonExceeded past the path's horizon."""
    a = float(path.a(t))
    # one kernel call for u_s, d_y u_s and the path ODEs: a' = -d3/d2,
    # lam' = d4 + d3 a'
    d0, d1, d2, d3, d4 = (float(d[0]) for d in path.flow.derivs(
        t, np.array([a]), orders=(0, 1, 2, 3, 4)))
    adot = -d3 / d2
    return dict(t=t, a=a, lam=float(path.lam(t)), adot=adot,
                lamdot=d4 + d3 * adot, us_a=d0, dyus_a=d1)


def phase_integral(path: CriticalPath, sc: _Scalars) -> complex:
    """int_0^t w_eps(s) ds at t = sc.t, w_eps = -u_s(s, a(s)) + sqrt(eps)
    kappa(s) tau.

    On the path d/dt u_s(t, a(t)) = d_t u_s + a' d_y u_s = d_y^2 u_s =
    lambda(t), as u_s solves the heat equation and d_y u_s vanishes at a(t).
    By parts, int_0^t u_s(s, a(s)) ds = t u_s(t, a(t)) - int_0^t s lambda,
    so the phase is -t sc.us_a + int_0^t s lambda + sqrt(eps) tau
    int_0^t kappa: the kernel value of _path_point and two time integrals
    of the path's interpolants, neither of which calls the kernel.
    """
    s_lam = time_integral(lambda s: s * path.lam(s), [sc.t])[0]
    kap = time_integral(path.kappa, [sc.t])[0]
    return complex(-sc.t * sc.us_a + s_lam + np.sqrt(sc.eps) * kap * sc.tau)


# ---------------------------------------------------------------------------
# field containers


@dataclass(frozen=True)
class ModeField:
    """One assembled mode at time t on the y grid, with component breakdown."""

    t: float
    y: np.ndarray
    eps: float
    U: np.ndarray
    dyU: np.ndarray
    d2yU: np.ndarray
    V: np.ndarray
    dyV: np.ndarray
    w_eps: complex
    E: complex                # exp(i / eps int_0^t w_eps(s) ds)
    components: dict = field(repr=False)
    scalars: object = field(repr=False)

    def jump_report(self, pair: Eigenpair) -> dict:
        """One-sided limits of V, d_y V, d_y^2 V at a(t); the Heaviside jump
        of the regular part must cancel the shear-layer jump."""
        sc = self.scalars
        eps, kap, ell, t = sc.eps, sc.kappa, sc.ell, self.t
        j = pair.v_jumps
        seps = np.sqrt(eps)
        # one-sided S = v_reg + v_sl limits at a(t)
        S_r = seps * kap * sc.tau + seps * kap * j["V_right"]
        S_l = 0.0 + seps * kap * j["V_left"]
        # d_y S: reg side jump is d_y u_s(t,a) = 0 on the root; sl side [V']=0
        dyS_r = sc.dyus_a + seps * kap * j["V1_right"] / ell
        dyS_l = seps * kap * j["V1_left"] / ell
        d2yS_r = sc.lam + seps * kap * j["V2_right"] / ell**2
        d2yS_l = seps * kap * j["V2_left"] / ell**2
        E = self.E
        return {
            "V": abs(E * (t / eps) * (S_r - S_l)),
            "dyV": abs(E * (t / eps) * (dyS_r - dyS_l)),
            "d2yV": abs(E * (t / eps) * (d2yS_r - d2yS_l)),
            "part_jump_V": abs(E * (t / eps) * S_r),
        }


@dataclass(frozen=True)
class ResidualField:
    """R = Rbar + t * Rtilde on the grid."""

    t: float
    y: np.ndarray
    eps: float
    Rbar: np.ndarray
    Rtilde: np.ndarray

    @property
    def R(self) -> np.ndarray:
        return self.Rbar + self.t * self.Rtilde


# ---------------------------------------------------------------------------
# assembly


def _shear_layer(cut: Smoothstep, pair: Eigenpair, sc: _Scalars,
                 y: np.ndarray) -> dict:
    """v_sl = phi(y - a) sqrt(eps) kappa V((y - a) / ell) on y at sc.t, with
    its y-derivatives to third order and d_t d_y v_sl, by the chain rule
    through the cutoff phi and (a, kappa, ell)(t).  It reads no u_s."""
    seps = np.sqrt(sc.eps)
    r = y - sc.a
    zeta = r / sc.ell
    phi, p1, p2, p3 = cut.derivs(r)
    V, V1, V2, V3 = pair.v_derivs(zeta)
    amp = seps * sc.kappa
    Vf = amp * V
    dyVf = amp * V1 / sc.ell
    d2yVf = amp * V2 / sc.ell**2
    d3yVf = amp * V3 / sc.ell**3
    dzeta_dt = -sc.adot / sc.ell - zeta * sc.elldot / sc.ell
    dtVf = seps * (sc.kdot * V + sc.kappa * V1 * dzeta_dt)
    dtdyVf = seps * (sc.kdot * V1 / sc.ell
                     + sc.kappa * V2 * dzeta_dt / sc.ell
                     - sc.kappa * V1 * sc.elldot / sc.ell**2)

    v_sl = phi * Vf
    dy_vsl = p1 * Vf + phi * dyVf
    d2y_vsl = p2 * Vf + 2 * p1 * dyVf + phi * d2yVf
    d3y_vsl = p3 * Vf + 3 * p2 * dyVf + 3 * p1 * d2yVf + phi * d3yVf
    dtdy_vsl = (-sc.adot * p2 * Vf + p1 * dtVf
                - sc.adot * p1 * dyVf + phi * dtdyVf)
    return {"v_sl": v_sl, "dy_vsl": dy_vsl, "d2y_vsl": d2y_vsl,
            "d3y_vsl": d3y_vsl, "dtdy_vsl": dtdy_vsl, "phi": phi}


def _assemble(params: ModeParams, pair: Eigenpair, sc: _Scalars, y: np.ndarray,
              us_rows, phase: complex) -> ModeField:
    """us_rows are u_s and its first three y-derivatives on y at sc.t."""
    eps, t, tau = sc.eps, sc.t, sc.tau
    seps = np.sqrt(eps)
    bump = params.bump()

    us, dyus, d2yus, d3yus = us_rows

    H = (y >= sc.a).astype(float)
    g = us - sc.us_a + seps * sc.kappa * tau
    v_reg = H * g
    dy_vreg = H * dyus
    d2y_vreg = H * d2yus
    d3y_vreg = H * d3yus

    sl = _shear_layer(params.cutoff(), pair, sc, y)

    vt = bump.vtilde(y)
    vt1 = bump.f(y)
    vt2 = bump.f1(y)
    vt3 = bump.f2(y)

    S = v_reg + sl["v_sl"]
    dyS = dy_vreg + sl["dy_vsl"]
    d2yS = d2y_vreg + sl["d2y_vsl"]
    d3yS = d3y_vreg + sl["d3y_vsl"]

    E = np.exp(1j * phase / eps)
    U = E * (eps * vt1 + 1j * t * dyS)
    dyU = E * (eps * vt2 + 1j * t * d2yS)
    d2yU = E * (eps * vt3 + 1j * t * d3yS)
    V_big = E * (-1j * vt + (t / eps) * S)
    dyV_big = E * (-1j * vt1 + (t / eps) * dyS)

    comps = {
        "v_reg": v_reg, "S": S, "dy_vreg": dy_vreg, "dyS": dyS,
        "d2yS": d2yS, "d3yS": d3yS,
        "vtilde": vt, "vt1": vt1, "vt2": vt2, "vt3": vt3,
        "us": us, "dyus": dyus, "d2yus": d2yus, "d3yus": d3yus, **sl,
    }
    return ModeField(t=t, y=y, eps=eps, U=U, dyU=dyU, d2yU=d2yU,
                     V=V_big, dyV=dyV_big, w_eps=sc.w_eps, E=complex(E),
                     components=comps, scalars=sc)


def assemble_mode(params: ModeParams, path: CriticalPath, pair: Eigenpair,
                  t: float, y, rows=None) -> ModeField:
    """Time-dependent mode per the evolving shear flow (the main object), on
    y at time t.  rows are u_s and d_y^j u_s, j = 1, 2, 3, on y at t, as
    path.flow.derivs(t, y, orders=(0, 1, 2, 3)) gives them; when rows is
    None, the path's flow evaluates them."""
    y = np.asarray(y, dtype=float)
    sc = _Scalars(**_path_point(path, t), eps=params.eps, tau=pair.tau)
    if rows is None:
        rows = path.flow.derivs(t, y, orders=(0, 1, 2, 3))
    return _assemble(params, pair, sc, y, rows, phase_integral(path, sc))


def old_frozen_tangential(profile: ShearProfile, pair: Eigenpair, eps: float,
                          y_grid) -> np.ndarray:
    """Tangential profile i v' of the untruncated classic ansatz, whose tail
    is proportional to U'(y); kept for the decay-obstruction comparison."""
    y = np.asarray(y_grid, dtype=float)
    a, lam = profile.a0, profile.curvature
    kap = np.sqrt(abs(lam) / 2.0)
    ell = eps**0.25 * kap**-0.5
    dyus = profile.derivs(y)[1]
    H = (y >= a).astype(float)
    zeta = (y - a) / ell
    V1 = pair.v_derivs(zeta)[1]
    return 1j * (H * dyus + np.sqrt(eps) * kap * V1 / ell)


def residual(mode: ModeField) -> ResidualField:
    """Rbar and Rtilde from the assembled components (analytic derivatives).

    Rbar carries the corrector/regular terms; Rtilde is the shear-layer
    part (the regular part of the t-coefficient vanishes identically through
    the heat equation and the exact advection cancellation).
    """
    c = mode.components
    sc = mode.scalars
    eps, t, E = mode.eps, mode.t, mode.E
    w = sc.w_eps

    Rbar = E * (1j * (w + c["us"]) * c["vt1"]
                - 1j * c["dyus"] * c["vtilde"]
                - eps * c["vt3"]
                + 1j * c["dyS"])

    adv = w + c["us"]
    Rtilde = E * (-(adv / eps) * c["dy_vsl"]
                  + (c["dyus"] / eps) * c["v_sl"]
                  + 1j * c["dtdy_vsl"]
                  - 1j * c["d3y_vsl"])

    return ResidualField(t=t, y=mode.y, eps=eps, Rbar=Rbar, Rtilde=Rtilde)


def mode_amplitude_series(profile: ShearProfile, ks: Sequence[int],
                          path: CriticalPath, pair: Eigenpair,
                          ts) -> list[dict]:
    """Amplitude trajectories of the assembled mode family, one per k of ks,
    each at default_params(profile, k).

    Each dict holds the sample times t and, over them, log_sl: the log of
    the growing-component amplitude t * |E| * sup |d_y v_sl|, the sup taken
    on a fine grid across the layer.  The growing component carries the
    pure exp(|Im tau| sqrt(k) int kappa) envelope that the rate fits target.

    Only what log_sl reads is computed.  |E| depends on the phase's Im
    part alone, so log|E| = -Im tau int_0^t kappa / sqrt(eps) and no complex
    E or advective integral is formed.  Per sample time: the path scalars
    (one single-point kernel call) and int_0^t kappa, which calls no
    kernel.  v_sl reads no u_s, so no kernel row is taken on a grid.  The
    cutoff depends on the profile alone, so per sample time every k shares
    one layer grid, one evaluation of phi and phi' there, and one
    pair.v_and_slope call (V and V' only) on the stacked zeta of the ks; of
    the shear layer only d_y v_sl = phi' amp V + phi amp V' / ell is
    formed, amp = sqrt(eps) kappa.  log_sl equals, bit for bit, the log of
    t * |E| * max |d_y v_sl| of _shear_layer at each t.
    """
    ts = np.asarray(ts, dtype=float)
    kap = time_integral(path.kappa, ts)
    params = [default_params(profile, k) for k in ks]
    cut = params[0].cutoff()
    log_sl = np.empty((len(params), ts.size))
    for i, t in enumerate(ts):
        t = float(t)
        point = _path_point(path, t)
        # layer sup on a fine local grid so the argmax is not quantized by
        # the field grid (the fit noise budget is ~1e-4 in log amplitude)
        a, h = point["a"], cut.outer
        r = np.linspace(max(0.0, a - h), a + h, 1601) - a
        phi, p1 = cut.derivs(r)[:2]
        scs = [_Scalars(**point, eps=p.eps, tau=pair.tau) for p in params]
        V, V1 = pair.v_and_slope(np.array([r / sc.ell for sc in scs]))
        for j, (sc, Vj, V1j) in enumerate(zip(scs, V, V1)):
            amp = np.sqrt(sc.eps) * sc.kappa
            dy_vsl = p1 * (amp * Vj) + phi * (amp * V1j / sc.ell)
            amp_sl = t * float(np.max(np.abs(dy_vsl)))
            log_E = -pair.tau.imag * kap[i] / np.sqrt(sc.eps)
            log_sl[j, i] = (np.log(amp_sl) + log_E if amp_sl > 0
                            else -np.inf)
    return [{"t": ts, "log_sl": sl} for sl in log_sl]


def initial_tangential_norm(params: ModeParams, y_grid, alpha: float) -> float:
    """|| U(0, .) ||_{W_alpha^{2,inf}} = eps * max_j sup e^{alpha y} |vtilde^(1+j)|."""
    y = np.asarray(y_grid, dtype=float)
    b = params.bump()
    return params.eps * max(weighted_sup(b.f(y), y, alpha),
                            weighted_sup(b.f1(y), y, alpha),
                            weighted_sup(b.f2(y), y, alpha))
