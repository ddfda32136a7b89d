"""Weighted norms, rate fitting, and tail classification.

Grid suprema stand in for essential suprema throughout; callers are expected
to confirm refinement stability for anything they assert at a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, WindowTooShort

TAIL_FLOOR = 1e-14
# fewest samples a rate fit accepts
MIN_SAMPLES = 8


@dataclass(frozen=True)
class FitResult:
    rate: float
    residual: float
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


def _line_fit(x: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line v ~ slope x + intercept: (slope, intercept, rms
    residual)."""
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - v) ** 2)))
    return float(coef[0]), float(coef[1]), resid


def fit_rate(x, lognorm, mask=None) -> FitResult:
    """Least-squares slope of log-norm against the regressor x (time, or a
    known function of it such as the path-integrated curvature) over the
    samples where mask holds and the log-norm is finite."""
    x = np.asarray(x, dtype=float)
    lognorm = np.asarray(lognorm, dtype=float)
    keep = np.isfinite(lognorm)
    if mask is not None:
        keep &= np.asarray(mask, dtype=bool)
    n = int(keep.sum())
    if n < MIN_SAMPLES:
        raise WindowTooShort(f"{n} samples, need {MIN_SAMPLES}")
    rate, _, resid = _line_fit(x[keep], lognorm[keep])
    return FitResult(rate=rate, residual=resid, n_samples=n)


def fit_power_law(ks, sigmas) -> tuple[float, float]:
    """log-log least squares of sigma(k) ~ c k^p; returns (p, rms residual)."""
    ks = np.asarray(ks, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if ks.size < 4 or np.unique(ks).size < 4:
        raise InsufficientData("need at least 4 distinct k values")
    if np.any(sigmas <= 0):
        raise InsufficientData("nonpositive rate in power-law fit")
    p, _, resid = _line_fit(np.log(ks), np.log(sigmas))
    return p, resid


@dataclass(frozen=True)
class TailClass:
    kind: str            # "exponential" | "algebraic" | "faster"
    rate: float | None   # decay rate (exponential) or power (algebraic)
    residual: float


def tail_class(f, y) -> TailClass:
    """Classify the far-field decay of |f| on the far half of the grid.

    Regresses log|f| against y (exponential model) and against log y
    (algebraic model) and keeps whichever fits better.  Everything below
    TAIL_FLOOR counts as decaying faster than either model resolves.
    """
    f = np.asarray(f)
    y = np.asarray(y, dtype=float)
    sel = slice(y.size // 2, y.size)
    yy, av = y[sel], np.abs(f[sel])
    good = av > TAIL_FLOOR
    if int(good.sum()) < 4:
        return TailClass(kind="faster", rate=None, residual=0.0)
    yy, lf = yy[good], np.log(av[good])
    s_exp, _, r_exp = _line_fit(yy, lf)
    s_alg, _, r_alg = _line_fit(np.log(yy), lf)
    if r_exp <= r_alg:
        return TailClass(kind="exponential", rate=-s_exp, residual=r_exp)
    return TailClass(kind="algebraic", rate=-s_alg, residual=r_alg)
