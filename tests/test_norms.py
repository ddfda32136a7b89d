import numpy as np
import pytest

from shearmodes.errors import InsufficientData, WindowTooShort
from shearmodes.norms import fit_power_law, fit_rate, weighted_sup

from oracles import tail_class


def test_weighted_sup_zero_function():
    y = np.linspace(0, 10, 101)
    assert weighted_sup(np.zeros_like(y), y, 1.0) == 0.0


def test_weighted_sup_rejects_imaginary_inf():
    y = np.linspace(0, 10, 101)
    f = np.exp(-y).astype(complex)
    f[3] = complex(0.5, np.inf)      # finite real part
    with pytest.raises(ValueError, match="non-finite"):
        weighted_sup(f, y, 0.0)


def test_weighted_sup_exponential_closed_form():
    y = np.linspace(0, 20, 4001)
    # e^{alpha y} e^{-2y} peaks at the wall for alpha < 2
    assert weighted_sup(np.exp(-2 * y), y, 1.0) == pytest.approx(1.0)


def test_weighted_sup_calculus_oracle():
    # max of y e^{-y} is 1/e at y = 1
    y = np.linspace(0, 20, 200001)
    val = weighted_sup(y * np.exp(-y), y, 0.0)
    assert val == pytest.approx(np.exp(-1.0), abs=1e-8)


def test_weighted_sup_monotone_in_alpha():
    y = np.linspace(0, 15, 301)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(y.size) * np.exp(-0.3 * y)
    alphas = [0.0, 0.3, 0.9, 2.0]
    vals = [weighted_sup(f, y, a) for a in alphas]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_weighted_sup_homogeneous_and_triangle():
    y = np.linspace(0, 8, 161)
    f = np.sin(y) * np.exp(-y)
    g = np.cos(2 * y) * np.exp(-0.5 * y)
    assert weighted_sup(3.5 * f, y, 1.2) == pytest.approx(
        3.5 * weighted_sup(f, y, 1.2), rel=1e-15)
    assert weighted_sup(f + g, y, 1.2) <= (weighted_sup(f, y, 1.2)
                                           + weighted_sup(g, y, 1.2)) + 1e-15


def test_weighted_sup_refinement_stable():
    f = lambda y: np.exp(-0.7 * y) * np.sin(3 * y + 0.2)
    y1 = np.linspace(0, 25, 2001)
    y2 = np.linspace(0, 25, 4001)
    v1 = weighted_sup(f(y1), y1, 0.5)
    v2 = weighted_sup(f(y2), y2, 0.5)
    assert abs(v1 - v2) / v2 < 0.01


def test_fit_rate_exact_linear():
    t = np.linspace(0, 2, 41)
    fit = fit_rate(t, 3.0 * t + 1.0)
    assert fit.rate == pytest.approx(3.0, abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_rate_t_exponential_envelope_late_window():
    t = np.linspace(0.05, 100, 4001)
    ln = np.log(t) + 3 * t
    early = fit_rate(t, ln, (t >= 0.1) & (t <= 1.0)).rate
    late = fit_rate(t, ln, (t >= 80.0) & (t <= 100.0)).rate
    assert abs(late - 3.0) < 0.02
    assert abs(late - 3.0) < abs(early - 3.0)


def test_fit_rate_noisy():
    rng = np.random.default_rng(11)
    t = np.linspace(0, 2, 801)
    ln = 1.7 * t + rng.uniform(-1e-3, 1e-3, t.size)
    assert abs(fit_rate(t, ln).rate - 1.7) < 1e-2


def test_fit_rate_window_too_short():
    t = np.linspace(0, 1, 30)
    with pytest.raises(WindowTooShort):
        fit_rate(t, t, (t >= 0.9) & (t <= 0.95))


def test_fit_power_law_exact():
    k = np.array([8, 16, 32, 64, 128.0])
    p, res = fit_power_law(k, 2.5 * np.sqrt(k))
    assert p == pytest.approx(0.5, abs=1e-12)
    p, res = fit_power_law(k, 0.3 * k)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_fit_power_law_insufficient():
    with pytest.raises(InsufficientData, match="4 distinct k"):
        fit_power_law([4, 8, 16], [1, 2, 3])
    # five ks, three distinct
    with pytest.raises(InsufficientData, match="4 distinct k"):
        fit_power_law([4, 8, 8, 16, 4.0], [1, 2, 2, 3, 1])
    with pytest.raises(InsufficientData, match="nonpositive rate"):
        fit_power_law([4, 8, 16, 32], [1, 2, 0, 3])


def test_tail_class_exponential():
    y = np.linspace(0, 20, 801)
    tc = tail_class(np.exp(-2 * y), y)
    assert tc.kind == "exponential"
    assert tc.rate == pytest.approx(2.0, abs=0.05)


def test_tail_class_algebraic():
    y = np.linspace(0, 100, 4001)
    tc = tail_class((1 + y) ** -3, y)
    assert tc.kind == "algebraic"
    assert tc.rate == pytest.approx(3.0, abs=0.1)


def test_tail_class_below_floor():
    y = np.linspace(0, 20, 401)
    f = np.where(y < 5, 1.0, 0.0) * np.exp(-y)
    assert tail_class(f, y).kind == "faster"
