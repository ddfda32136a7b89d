"""erf and erfc in numpy alone, so the package needs no scipy.special.

erf(x) applies the C library's erf (math.erf) to each element: the heat
kernel calls it on about 130 points at a time, where a vectorised series of
many numpy passes costs more per call than math.erf's loop.

erfc(w) on Re w >= 0 is e^{-w^2} w(i w), with the Faddeeva function w from
Weideman's rational series (SIAM J. Numer. Anal. 31, 1994) in N = 40 terms,
valid on the closed upper half plane that i w lies in.
"""

from __future__ import annotations

import math

import numpy as np

_N = 40
_L = np.sqrt(_N / np.sqrt(2.0))


def _weideman_coefficients() -> np.ndarray:
    """a_N, ..., a_1 of w(z) = 2 sum_n a_n Z^{n-1} / (L - iz)^2
    + 1 / (sqrt(pi) (L - iz)), Z = (L + iz) / (L - iz): the cosine sum
    a_n = (1/2M) sum_{|k|<M} f_k cos(n k pi / M), M = 2N, of
    f_k = e^{-t^2} (L^2 + t^2) at t = L tan(k pi / 2M)."""
    m = 2 * _N
    k = np.arange(-m + 1, m)
    t = _L * np.tan(k * np.pi / (2 * m))
    f = np.exp(-t * t) * (_L**2 + t * t)
    n = np.arange(1, _N + 1)
    a = np.cos(np.outer(n, k) * (np.pi / m)) @ f / (2 * m)
    return a[::-1].copy()


_COEFFS = _weideman_coefficients()


def erf(x) -> np.ndarray:
    """erf of a real array, elementwise by math.erf."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def erfc(w) -> np.ndarray:
    """erfc of a complex array with Re w >= 0."""
    w = np.asarray(w, dtype=complex)
    if np.any(w.real < 0):
        raise ValueError("erfc needs Re w >= 0")
    d = _L + w                       # L - iz at z = i w
    Z = (_L - w) / d
    p = np.full(w.shape, _COEFFS[0], dtype=complex)
    for c in _COEFFS[1:]:
        p *= Z
        p += c
    # -w^2 with its real part as (y - x)(y + x), as scipy's Faddeeva code
    # forms it: x^2 - y^2 rounds differently, 1e-13 relative at |w| = 30
    x, y = w.real, w.imag
    e = np.exp((y - x) * (y + x) - 2j * (x * y))
    return e * (2.0 * p / (d * d) + 1.0 / (np.sqrt(np.pi) * d))
