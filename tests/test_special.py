"""The package's erf and erfc against scipy.special as the oracle."""

import numpy as np
import pytest
import scipy.special

from shearmodes import eigen
from shearmodes.eigen import Eigenpair
from shearmodes.special import erf, erfc


def _ulps(a, b):
    return np.max(np.abs(a - b) / np.spacing(np.abs(b)))


def test_erf_matches_scipy_to_a_few_ulp():
    x = np.linspace(-30.0, 30.0, 2_000_001)
    assert _ulps(erf(x), scipy.special.erf(x)) <= 4
    tiny = np.geomspace(1e-300, 1.0, 100_001)
    for x in (tiny, -tiny):
        assert _ulps(erf(x), scipy.special.erf(x)) <= 4


def test_erf_zero_and_odd_symmetry():
    assert erf(np.array(0.0)) == 0.0
    x = np.linspace(0.0, 30.0, 300_001)
    assert np.array_equal(erf(-x), -erf(x))
    assert erf(np.zeros((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("s", [-1, 1])
def test_erfc_matches_scipy_on_the_eigenprofile_rays(s):
    # Eigenpair takes erfc on r |z| with r = e^{i s pi/8} / sqrt(2)
    w = np.linspace(0.0, 30.0, 300_001) * np.exp(1j * s * np.pi / 8)
    ours, ref = erfc(w), scipy.special.erfc(w)
    gap = np.abs(ours - ref)
    assert np.max(gap) <= 1e-14
    assert np.max(gap / np.abs(ref)) <= 1e-13


def test_erfc_rejects_the_left_half_plane():
    with pytest.raises(ValueError):
        erfc(np.array([1.0, -1e-3 + 1j]))


@pytest.mark.parametrize("s", [-1, 1])
def test_eigenprofile_matches_scipy_erfc(s, monkeypatch):
    ev = Eigenpair(s * np.exp(-1j * s * np.pi / 4), s)
    z = np.linspace(-18.0, 18.0, 36_001)
    ours = ev.w_derivs(z)
    monkeypatch.setattr(eigen, "erfc", scipy.special.erfc)
    ref = ev.w_derivs(z)
    for a, b in zip(ours, ref):
        assert np.max(np.abs(a - b)) <= 1e-14
