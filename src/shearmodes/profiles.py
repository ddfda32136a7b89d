"""Initial shear layers with closed-form derivatives and general decay.

Three built-in families:

  gaussian-bump   U0 (1 - e^-y) + A y^2 e^{-y^2}        (exponential tail)
  algebraic-bump  (U0 y^2 + A y) / (1 + y^2)            (U' ~ y^-2 tail)
  monotone        U0 erf(y/2)                           (no critical point)

Every family exposes the profile alone and with its first four
y-derivatives, in closed form; nothing downstream ever differences a profile
numerically.  erf is the package's own (special.py), so a profile loads no
scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from .errors import DegenerateCritical, NoCriticalPoint
from .special import erf

SQRT_PI = np.sqrt(np.pi)


@dataclass(frozen=True)
class ShearProfile:
    """An initial shear layer U_s with closed-form derivatives.

    value(y) returns U, and derivs(y) returns (U, U', U'', U''', U''''), as
    arrays matching y; derivs takes its U from value, so the two agree bit
    for bit.  a0/curvature are None for profiles without a located critical
    point.
    """

    U0: float
    value: Callable[[np.ndarray], np.ndarray]
    derivs: Callable[[np.ndarray], tuple]
    a0: float | None = None
    curvature: float | None = None


def _gaussian_bump(U0: float, A: float):
    def value(y):
        y = np.asarray(y, dtype=float)
        return U0 * (1 - np.exp(-y)) + A * y**2 * np.exp(-y * y)

    def derivs(y):
        y = np.asarray(y, dtype=float)
        ey = np.exp(-y)
        g = np.exp(-y * y)
        U1 = U0 * ey + A * (2 * y - 2 * y**3) * g
        U2 = -U0 * ey + A * (2 - 10 * y**2 + 4 * y**4) * g
        U3 = U0 * ey + A * (-24 * y + 36 * y**3 - 8 * y**5) * g
        U4 = -U0 * ey + A * (-24 + 156 * y**2 - 112 * y**4 + 16 * y**6) * g
        return value(y), U1, U2, U3, U4
    return value, derivs


def _algebraic_bump(U0: float, A: float):
    # U = p/(1+y^2); d/dy [p/q^k] = (p' q - 2 k y p)/q^{k+1}
    q = Polynomial([1.0, 0.0, 1.0])
    p = Polynomial([0.0, A, U0])
    nums, powers = [p], [1]
    for _ in range(4):
        pk, k = nums[-1], powers[-1]
        nums.append(pk.deriv() * q - 2 * k * Polynomial([0.0, 1.0]) * pk)
        powers.append(k + 1)

    def value(y):
        y = np.asarray(y, dtype=float)
        return p(y) / (1.0 + y * y)

    def derivs(y):
        y = np.asarray(y, dtype=float)
        qv = 1.0 + y * y
        return (value(y),) + tuple(nums[d](y) / qv ** powers[d]
                                   for d in range(1, 5))
    return value, derivs


def _monotone(U0: float):
    def value(y):
        return U0 * erf(0.5 * np.asarray(y, dtype=float))

    def derivs(y):
        y = np.asarray(y, dtype=float)
        x = 0.5 * y
        g = np.exp(-x * x) / SQRT_PI
        U1 = U0 * g
        U2 = -U0 * x * g
        U3 = U0 * (x * x - 0.5) * g
        U4 = U0 * (1.5 * x - x**3) * g
        return value(y), U1, U2, U3, U4
    return value, derivs


# each family's builder reads its params after build_family has merged
# them over the defaults
_FAMILIES = {
    "gaussian-bump": {
        "build": lambda p: _gaussian_bump(p["U0"], p["A"]),
        "defaults": {"U0": 1.0, "A": 1.0},
    },
    "algebraic-bump": {
        "build": lambda p: _algebraic_bump(p["U0"], p["A"]),
        "defaults": {"U0": 1.0, "A": 1.0},
    },
    "monotone": {
        "build": lambda p: _monotone(p["U0"]),
        "defaults": {"U0": 1.0},
    },
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def build_family(family: str, params: dict | None = None) -> ShearProfile:
    """Construct a profile without locating a critical point (a0 left None)."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown profile family {family!r}; have {family_names()}")
    entry = _FAMILIES[family]
    merged = dict(entry["defaults"])
    merged.update(params or {})
    value, derivs = entry["build"](merged)
    return ShearProfile(U0=float(merged["U0"]), value=value, derivs=derivs)


def critical_points(profile: ShearProfile) -> list[tuple[float, float]]:
    """All interior roots of U' on (0, 20): a scan of 4001 points for sign
    changes, then one bisection of all brackets at once down to adjacent
    floats, keeping the endpoint with the smaller |U'|.

    Returns (location, curvature) pairs sorted by location.
    """
    ys = np.linspace(1e-6, 20.0, 4001)
    d1 = profile.derivs(ys)[1]
    i = np.flatnonzero(np.sign(d1[:-1]) * np.sign(d1[1:]) < 0)
    lo, hi, f_lo, f_hi = ys[i], ys[i + 1], d1[i], d1[i + 1]
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        f = profile.derivs(mid)[1]
        up = live & (np.sign(f) == np.sign(f_lo))      # root in [mid, hi]
        down = live & ~up
        lo, f_lo = np.where(up, mid, lo), np.where(up, f, f_lo)
        hi, f_hi = np.where(down, mid, hi), np.where(down, f, f_hi)
    a = np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi)
    return [(float(r), float(c)) for r, c in zip(a, profile.derivs(a)[2])]


# the least |U''| at the critical point that make_profile accepts
CURVATURE_TOL = 1e-6


def make_profile(family: str, params: dict | None = None) -> ShearProfile:
    """Build a family profile and locate its non-degenerate critical point.

    Picks the maximum (U'' < 0) with the largest |U''|; falls back to the
    strongest-curvature critical point of either sign.  Raises
    NoCriticalPoint / DegenerateCritical when the hypothesis fails.
    """
    prof = build_family(family, params)
    cands = critical_points(prof)
    if not cands:
        raise NoCriticalPoint(f"{family} profile has no interior critical point")
    maxima = [c for c in cands if c[1] < 0]
    pool = maxima if maxima else cands
    a0, curv = max(pool, key=lambda c: abs(c[1]))
    if abs(curv) < CURVATURE_TOL:
        raise DegenerateCritical(
            f"critical point at y={a0:.6f} has |U''|={abs(curv):.2e} < {CURVATURE_TOL}")
    return replace(prof, a0=a0, curvature=curv)
