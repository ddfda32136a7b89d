"""Weighted norms and rate fitting.

Grid suprema stand in for essential suprema throughout; callers are expected
to confirm refinement stability for anything they assert at a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, WindowTooShort

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
    if ks.size < 4 or len(set(ks.tolist())) < 4:
        raise InsufficientData("need at least 4 distinct k values")
    if np.any(sigmas <= 0):
        raise InsufficientData("nonpositive rate in power-law fit")
    p, _, resid = _line_fit(np.log(ks), np.log(sigmas))
    return p, resid

