import numpy as np
import pytest
from scipy.optimize import brentq

from shearmodes import profiles
from shearmodes.errors import DegenerateCritical, NoCriticalPoint
from shearmodes.profiles import (build_family, critical_points, family_names,
                                 make_profile)

from oracles import tail_class


def _fd_derivative(f, y, order, h=1e-3):
    """Richardson-extrapolated central differences, an independent check of
    the closed-form derivative tables."""
    def d1(g, x, hh):
        return (g(x + hh) - g(x - hh)) / (2 * hh)
    g = f
    for _ in range(order):
        gg = g
        g = (lambda gg: lambda x: (4 * d1(gg, x, h / 2) - d1(gg, x, h)) / 3)(gg)
    return g(y)


@pytest.mark.parametrize("family,params", [
    ("gaussian-bump", {"U0": 1.0, "A": 1.0}),
    ("algebraic-bump", {"U0": 1.0, "A": 1.0}),
    ("algebraic-bump", {"U0": 1.0, "A": 4.0}),
    ("monotone", {"U0": 1.0}),
])
def test_closed_form_derivatives_match_finite_differences(family, params):
    prof = build_family(family, params)
    y = np.linspace(0.3, 8.0, 23)
    f0 = lambda x: prof.derivs(x)[0]
    for order in (1, 2, 3):
        exact = prof.derivs(y)[order]
        fd = _fd_derivative(f0, y, order, h=2e-3 if order < 3 else 4e-3)
        scale = np.max(np.abs(exact)) + 1.0
        assert np.max(np.abs(exact - fd)) / scale < 5e-6, (family, order)


@pytest.mark.parametrize("family", ["gaussian-bump", "algebraic-bump",
                                    "monotone"])
def test_value_is_bitwise_the_first_derivative_entry(family):
    # the heat kernel's remainder reads U alone; it must be derivs' U
    prof = build_family(family)
    y = np.linspace(0.0, 30.0, 601)
    assert np.array_equal(prof.value(y), prof.derivs(y)[0])
    assert prof.value(1.5) == prof.derivs(np.array([1.5]))[0][0]


def test_gaussian_bump_profile_shape():
    prof = make_profile("gaussian-bump", {"U0": 1.0, "A": 1.0})
    assert prof.value(np.array([0.0]))[0] == 0.0
    assert prof.value(np.array([28.0]))[0] == pytest.approx(1.0, abs=1e-9)
    # U' = U0 e^{-y} + A (2y - 2y^3) e^{-y^2}: the far field decays at rate 1
    far = np.linspace(0, 40, 2401)
    tc = tail_class(prof.derivs(far)[1], far)
    assert tc.kind == "exponential"
    assert tc.rate == pytest.approx(1.0, abs=1e-6)
    # independent placement oracle: dense argmax of U plus local quadratic fit
    y = np.linspace(0.5, 4.0, 400001)
    U = prof.derivs(y)[0]
    i = int(np.argmax(U))
    assert abs(y[i] - prof.a0) < 1e-4
    assert prof.curvature < 0
    d2_fd = _fd_derivative(lambda x: prof.derivs(x)[0], np.array([prof.a0]), 2)
    assert d2_fd[0] == pytest.approx(prof.curvature, rel=1e-5)


def test_algebraic_bump_exact_critical_point():
    # U = (y^2 + y)/(1 + y^2) has its maximum exactly at 1 + sqrt(2)
    prof = make_profile("algebraic-bump", {"U0": 1.0, "A": 1.0})
    assert prof.a0 == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-10)


def test_algebraic_bump_tail_is_quadratic():
    prof = make_profile("algebraic-bump", {"U0": 1.0, "A": 1.0})
    y = np.linspace(0, 60, 2401)
    d1 = np.abs(prof.derivs(y)[1])
    far = y >= 30
    scaled = d1[far] * y[far] ** 2
    assert scaled.max() / scaled.min() < 3.0
    tc = tail_class(d1, y)
    assert tc.kind == "algebraic"
    assert tc.rate == pytest.approx(2.0, abs=0.2)


def test_monotone_profile_has_no_critical_point():
    with pytest.raises(NoCriticalPoint):
        make_profile("monotone", {"U0": 1.0})


def test_degenerate_curvature_guard(monkeypatch):
    monkeypatch.setattr(profiles, "CURVATURE_TOL", 10.0)
    with pytest.raises(DegenerateCritical):
        make_profile("gaussian-bump", {"U0": 1.0, "A": 1.0})


def test_critical_points_scan_finds_both_extrema():
    prof = build_family("gaussian-bump", {"U0": 1.0, "A": 1.0})
    pts = critical_points(prof)
    assert len(pts) == 2
    assert pts[0][1] < 0 < pts[1][1]   # maximum then minimum


def test_profile_invariants_sampled(gauss_prof):
    # the standing hypotheses on a grid: U(0) = 0, U -> U0 in the far field,
    # a finite W^{4,inf} jet, and U'(a0) = 0
    y = np.linspace(0, 30, 601)
    d = gauss_prof.derivs(y)
    assert abs(d[0][0]) < 1e-6
    assert abs(d[0][-1] - gauss_prof.U0) < 1e-3
    assert np.all(np.isfinite(d))
    assert abs(gauss_prof.derivs(np.array([gauss_prof.a0]))[1][0]) < 1e-10


def test_family_registry():
    assert set(family_names()) == {"gaussian-bump", "algebraic-bump", "monotone"}
    with pytest.raises(ValueError):
        build_family("nope")


@pytest.mark.parametrize("family,A,n_roots", [
    ("gaussian-bump", 1.0, 2),
    ("gaussian-bump", 0.62, 2),
    ("algebraic-bump", 1.0, 1),
    ("algebraic-bump", 4.0, 1),
])
def test_critical_point_bisection_matches_brentq(family, A, n_roots):
    prof = build_family(family, {"U0": 1.0, "A": A})
    cps = critical_points(prof)
    assert len(cps) == n_roots

    def slope(y):
        return prof.derivs(np.array([y]))[1][0]

    for a0, _ in cps:
        ref = brentq(slope, a0 - 0.01, a0 + 0.01, xtol=1e-15, rtol=8.9e-16)
        assert abs(a0 - ref) <= 1e-13
        # U' changes sign within one ulp of a0
        near = np.array([np.nextafter(a0, 0.0), a0, np.nextafter(a0, 30.0)])
        signs = np.sign(prof.derivs(near)[1])
        assert signs.min() <= 0.0 <= signs.max()
    if family == "algebraic-bump" and A == 1.0:
        assert abs(cps[0][0] - (1 + np.sqrt(2))) <= 1e-13
