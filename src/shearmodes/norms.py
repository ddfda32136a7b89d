"""Weighted norms, per-mode Sobolev norms, rate fitting, and tail classification.

Grid suprema stand in for essential suprema throughout; callers are expected
to confirm refinement stability for anything they assert at a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, WindowTooShort

TAIL_FLOOR = 1e-14


@dataclass(frozen=True)
class FitResult:
    rate: float
    residual: float
    window: tuple[float, float]
    n_samples: int


def weighted_sup(f, y, alpha: float = 0.0) -> float:
    """max over the grid of e^{alpha y} |f(y)|."""
    f = np.asarray(f)
    y = np.asarray(y, dtype=float)
    if f.shape != y.shape:
        raise ValueError("profile and grid shapes differ")
    if not np.all(np.isfinite(f)) or not np.all(np.isfinite(y)):
        raise ValueError("non-finite input")
    return float(np.max(np.exp(alpha * y) * np.abs(f)))


def mode_sobolev(f, y, k: int, m: int = 0, alpha: float = 0.0) -> float:
    """(1 + k^2)^{m/2} * weighted_sup: the single-mode restriction of the
    mixed H^m-in-x / weighted-sup-in-y norm."""
    return (1.0 + k * k) ** (m / 2.0) * weighted_sup(f, y, alpha)


def fit_rate(t, lognorm, window: tuple[float, float] | None = None,
             min_samples: int = 8) -> FitResult:
    """Least-squares slope of log-norm against t over the window."""
    t = np.asarray(t, dtype=float)
    lognorm = np.asarray(lognorm, dtype=float)
    if window is None:
        window = (float(t[0]), float(t[-1]))
    lo, hi = window
    mask = (t >= lo) & (t <= hi) & np.isfinite(lognorm)
    if int(mask.sum()) < min_samples:
        raise WindowTooShort(
            f"{int(mask.sum())} samples in window [{lo}, {hi}], need {min_samples}")
    tt, ll = t[mask], lognorm[mask]
    A = np.vstack([tt, np.ones_like(tt)]).T
    coef, *_ = np.linalg.lstsq(A, ll, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - ll) ** 2)))
    return FitResult(rate=float(coef[0]), residual=resid,
                     window=(float(lo), float(hi)), n_samples=int(mask.sum()))


def fit_regressor_rate(x, lognorm, window_mask=None, min_samples: int = 8) -> FitResult:
    """Least-squares slope of log-norm against an arbitrary known regressor x.

    Used by growth scans to fit against the path-integrated curvature instead
    of raw t, which removes the secular drift of the instability rate.
    """
    x = np.asarray(x, dtype=float)
    lognorm = np.asarray(lognorm, dtype=float)
    mask = np.isfinite(lognorm)
    if window_mask is not None:
        mask &= np.asarray(window_mask, dtype=bool)
    if int(mask.sum()) < min_samples:
        raise WindowTooShort(f"{int(mask.sum())} samples, need {min_samples}")
    xx, ll = x[mask], lognorm[mask]
    A = np.vstack([xx, np.ones_like(xx)]).T
    coef, *_ = np.linalg.lstsq(A, ll, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - ll) ** 2)))
    return FitResult(rate=float(coef[0]), residual=resid,
                     window=(float(xx[0]), float(xx[-1])), n_samples=int(mask.sum()))


def fit_power_law(ks, sigmas) -> tuple[float, float]:
    """log-log least squares of sigma(k) ~ c k^p; returns (p, rms residual)."""
    ks = np.asarray(ks, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if ks.size < 4 or np.unique(ks).size < 4:
        raise InsufficientData("need at least 4 distinct k values")
    if np.any(sigmas <= 0):
        raise InsufficientData("nonpositive rate in power-law fit")
    lk, ls = np.log(ks), np.log(sigmas)
    A = np.vstack([lk, np.ones_like(lk)]).T
    coef, *_ = np.linalg.lstsq(A, ls, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - ls) ** 2)))
    return float(coef[0]), resid


@dataclass(frozen=True)
class TailClass:
    kind: str            # "exponential" | "algebraic" | "faster"
    rate: float | None   # decay rate (exponential) or power (algebraic)
    residual: float


def tail_class(f, y, floor: float = TAIL_FLOOR) -> TailClass:
    """Classify the far-field decay of |f| on the far half of the grid.

    Regresses log|f| against y (exponential model) and against log y
    (algebraic model) and keeps whichever fits better.  Everything below
    the floor counts as decaying faster than either model resolves.
    """
    f = np.asarray(f)
    y = np.asarray(y, dtype=float)
    n = y.size
    sel = slice(n // 2, n)
    yy = y[sel]
    av = np.abs(f[sel])
    if np.all(av < floor):
        return TailClass(kind="faster", rate=None, residual=0.0)
    good = av > floor
    if int(good.sum()) < 4:
        return TailClass(kind="faster", rate=None, residual=0.0)
    yy, av = yy[good], av[good]
    lf = np.log(av)

    A_exp = np.vstack([yy, np.ones_like(yy)]).T
    c_exp, *_ = np.linalg.lstsq(A_exp, lf, rcond=None)
    r_exp = float(np.sqrt(np.mean((A_exp @ c_exp - lf) ** 2)))

    ly = np.log(yy)
    A_alg = np.vstack([ly, np.ones_like(ly)]).T
    c_alg, *_ = np.linalg.lstsq(A_alg, lf, rcond=None)
    r_alg = float(np.sqrt(np.mean((A_alg @ c_alg - lf) ** 2)))

    if r_exp <= r_alg:
        return TailClass(kind="exponential", rate=float(-c_exp[0]), residual=r_exp)
    return TailClass(kind="algebraic", rate=float(-c_alg[0]), residual=r_alg)
