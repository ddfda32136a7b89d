"""Half-line heat flow u_s(t,y) with Dirichlet wall and free-stream limit U0.

The solve is not a time stepper.  The initial layer splits as

    U_s(y) = U0 erf(y/2) + rem(y),

the ramp evolves in closed form (U0 erf(y / (2 sqrt(1+t)))), and the
remainder, from the profile's value alone (no derivatives), evolves by odd
extension and exact Gaussian-kernel convolution, so the wall condition is
exact and u_s stays mutually consistent with its first four y-derivatives at
any (t, y).  d_t u_s is d_y^2 u_s by construction, which is what the
mode-residual evaluation needs.

The kernel sums are windowed: y is taken sorted in chunks, and each chunk is
summed only against the quadrature nodes within kernel_halfwidth kernel
widths of it (terms beyond are below e^-81), with the wall image term only
for chunks that close to the wall.  erf is special.erf, the C library's
erf applied elementwise, so the heat flow loads no scipy.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Sequence

import numpy as np

from .errors import QuadratureFailure
from .profiles import ShearProfile
from .special import erf

SQRT_PI = np.sqrt(np.pi)

# y points summed together against one window of quadrature nodes
_CHUNK = 64


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def gl_panels(mid, half, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, shape (panels, n), of the n-point Gauss-Legendre
    rule on each panel [mid - half, mid + half]; half is one width for all
    panels or one per panel."""
    gx, gw = gauss_legendre(n)
    mid = np.asarray(mid, dtype=float)
    half = np.broadcast_to(np.asarray(half, dtype=float), mid.shape)[:, None]
    return mid[:, None] + half * gx, half * gw


def _gauss_hermite(x: np.ndarray, orders: Sequence[int]) -> list:
    """e^{-x^2} H_j(x) for j in orders, the physicists' Hermite H_j being
    built by the recurrence H_{n+1} = 2x H_n - 2n H_{n-1}, run directly on
    e^{-x^2} H_n; d^j/dx^j e^{-x^2} = (-1)^j H_j(x) e^{-x^2}."""
    x2 = 2.0 * x
    gh = [np.exp(-x * x)]
    gh.append(x2 * gh[0])
    for n in range(1, max(orders)):
        gh.append(x2 * gh[n] - (2.0 * n) * gh[n - 1])
    return [gh[j] for j in orders]


class HeatFlow:
    """Continuous evaluator of u_s(t, y) and d_y^j u_s for j <= 4."""

    # the kernel rule: panels of width min(panel_factor sqrt(4t), panel_cap)
    # of nodes_per_panel Gauss-Legendre nodes, reaching kernel_halfwidth
    # kernel widths past the largest y, at most max_nodes nodes in all
    panel_factor = 0.75
    panel_cap = 0.6
    nodes_per_panel = 12
    kernel_halfwidth = 9.0
    max_nodes = 60000

    def __init__(self, profile: ShearProfile):
        self.profile = profile
        self.U0 = profile.U0

    # ---- pieces -----------------------------------------------------------

    def _ramp_derivs(self, t: float, y: np.ndarray, max_order: int):
        s = np.sqrt(1.0 + t)
        x = y / (2.0 * s)
        base = self.U0 * np.exp(-x * x) / SQRT_PI
        out = [self.U0 * erf(x)]
        if max_order >= 1:
            out.append(base / s)
        if max_order >= 2:
            out.append(-x * base / s**2)
        if max_order >= 3:
            out.append((x * x - 0.5) * base / s**3)
        if max_order >= 4:
            out.append((1.5 * x - x**3) * base / s**4)
        return out

    def _remainder(self, eta: np.ndarray) -> np.ndarray:
        """Odd extension of U_s - U0 erf(y/2)."""
        a = np.abs(eta)
        rem = self.profile.value(a) - self.U0 * erf(a / 2.0)
        return np.sign(eta) * rem

    def _nodes(self, t: float, y_min: float, y_max: float):
        width = np.sqrt(4.0 * t)
        h = min(self.panel_factor * width, self.panel_cap)
        reach = self.kernel_halfwidth * width
        hi = y_max + reach
        npan = int(np.ceil(hi / h))
        if npan * self.nodes_per_panel > self.max_nodes:
            raise QuadratureFailure(
                f"t={t:g} needs {npan * self.nodes_per_panel} quadrature nodes "
                f"(> {self.max_nodes}); grid too fine for this solver")
        edges = np.linspace(0.0, npan * h, npan + 1)
        nodes, wts = gl_panels(0.5 * (edges[1:] + edges[:-1]), 0.5 * h,
                               self.nodes_per_panel)
        return nodes.ravel(), wts.ravel()

    # ---- public -----------------------------------------------------------

    def derivs(self, t: float, y, orders: Sequence[int] = (0, 1, 2, 3, 4)):
        """u_s and requested y-derivatives at one time on an array of y."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        max_order = max(orders)
        if t < 0:
            raise ValueError("t must be >= 0")
        if t == 0.0:
            prof = self.profile.derivs(y)
            return [prof[j] for j in orders]
        ramp = self._ramp_derivs(t, y, max_order)
        y_lo, y_hi = float(y.min()), float(y.max())
        nodes, wts = self._nodes(t, y_lo, y_hi)
        c = 1.0 / np.sqrt(4.0 * t)
        reach = self.kernel_halfwidth / c
        # the span of nodes that the chunk windows below reach
        span = slice(*np.searchsorted(nodes, (y_lo - reach, y_hi + reach)))
        nodes = nodes[span]
        fvals = self._remainder(nodes) * wts[span]
        sums = np.empty((len(orders), y.size))
        perm = np.argsort(y, kind="stable")
        for start in range(0, y.size, _CHUNK):
            idx = perm[start:start + _CHUNK]
            yc = y[idx]
            lo, hi = np.searchsorted(nodes, (yc[0] - reach, yc[-1] + reach))
            kern = _gauss_hermite(c * (yc[:, None] - nodes[lo:hi]), orders)
            if yc[0] < reach:
                # image term over the same window, so u_s(t, 0) = 0 exactly
                image = _gauss_hermite(c * (yc[:, None] + nodes[lo:hi]),
                                       orders)
                kern = [a - b for a, b in zip(kern, image)]
            for i, k in enumerate(kern):
                sums[i, idx] = k @ fvals[lo:hi]
        return [ramp[j] + (-c) ** j * (c / SQRT_PI) * sums[i]
                for i, j in enumerate(orders)]

    def quadrature_gap(self, t: float, y) -> float:
        """Self-check: re-evaluate with _FinerHeatFlow's rule and compare."""
        ref = self.derivs(t, y, orders=(0, 2))
        fin = _FinerHeatFlow(self.profile).derivs(t, y, orders=(0, 2))
        return float(max(np.max(np.abs(ref[0] - fin[0])),
                         np.max(np.abs(ref[1] - fin[1]))))


class _FinerHeatFlow(HeatFlow):
    """HeatFlow's rule at half the panel width and cap, two kernel widths
    further out, with twice the node cap."""

    panel_factor = HeatFlow.panel_factor / 2
    panel_cap = HeatFlow.panel_cap / 2
    kernel_halfwidth = HeatFlow.kernel_halfwidth + 2.0
    max_nodes = 2 * HeatFlow.max_nodes


@dataclass(frozen=True)
class HeatFlowField:
    """u_s and its first y-derivatives sampled on a (t, y) grid, plus the
    live evaluator.  rows[j], shape (Nt, Ny), is d_y^j u_s for the orders
    j <= max_order that solve_heat sampled; reading a higher one raises."""

    y_grid: np.ndarray
    t_grid: np.ndarray
    rows: tuple[np.ndarray, ...]
    flow: HeatFlow

    def _row(self, j: int) -> np.ndarray:
        if j >= len(self.rows):
            raise ValueError(f"the field holds d_y^j u_s for j <= "
                             f"{len(self.rows) - 1}; order {j} was not "
                             "sampled (solve_heat's max_order)")
        return self.rows[j]

    @property
    def us(self) -> np.ndarray:
        return self._row(0)

    @property
    def dy_us(self) -> np.ndarray:
        return self._row(1)

    @property
    def d2y_us(self) -> np.ndarray:
        return self._row(2)

    @property
    def U0(self) -> float:
        return self.flow.U0

    @property
    def horizon(self) -> float:
        return float(self.t_grid[-1])

    def slice_interp(self, t: float):
        """(u_s, d_y u_s) rows at arbitrary t by cubic interpolation in t,
        which needs at least four times in t_grid.  The four Lagrange
        weights are Python floats, each the product of its three factors in
        index order; the rows are read as one slice of each array."""
        tg = self.t_grid.tolist()
        if len(tg) < 4:
            raise ValueError("slice_interp interpolates cubically and needs "
                             f"at least 4 times, the field has {len(tg)}")
        if t < tg[0] - 1e-12 or t > tg[-1] + 1e-12:
            raise ValueError(f"t={t} outside field horizon [{tg[0]}, {tg[-1]}]")
        i = min(max(bisect_left(tg, t) - 1, 1), len(tg) - 3)
        ts = tg[i - 1:i + 3]
        w = np.array([prod((t - ts[m]) / (ts[j] - ts[m])
                           for m in range(4) if m != j) for j in range(4)])
        return w @ self.rows[0][i - 1:i + 3], w @ self.rows[1][i - 1:i + 3]

    def max_principle_gap(self) -> float:
        """How far u_s escapes [min(0, inf U_s), max(U0, sup U_s)] (0 = holds)."""
        U = self.us[0]
        lo = min(0.0, float(U.min()))
        hi = max(self.U0, float(U.max()))
        return float(max(0.0, np.max(self.us) - hi, lo - np.min(self.us)))


def check_quadrature(flow: HeatFlow, y_grid, t_grid):
    """The quadrature self-check of a (t, y) grid: flow's panel-doubling gap
    at the middle time of t_grid (the last one if the middle is 0) on about
    24 points of y_grid must not exceed 1e-8, else QuadratureFailure."""
    y = np.asarray(y_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if t[-1] > 0:
        probe_t = float(t[len(t) // 2] if t[len(t) // 2] > 0 else t[-1])
        probe_y = y[:: max(1, y.size // 24)]
        gap = flow.quadrature_gap(probe_t, probe_y)
        if gap > 1e-8:
            raise QuadratureFailure(
                f"panel-doubling disagreement {gap:.2e} > 1.00e-08")


def solve_heat(flow: HeatFlow, y_grid, t_grid, *,
               max_order: int) -> HeatFlowField:
    """Sample flow's u_s and d_y^j u_s, j <= max_order, on a (t, y) grid.
    Each row is the same whatever max_order is.  The quadrature is not
    checked here: check_quadrature checks a flow once for its grid."""
    y = np.asarray(y_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if y[0] != 0.0:
        raise ValueError("y_grid must start at the wall y=0")
    orders = tuple(range(max_order + 1))
    slices = [flow.derivs(float(tv), y, orders=orders) for tv in t]
    rows = tuple(np.array([s[j] for s in slices]) for j in orders)
    return HeatFlowField(y_grid=y, t_grid=t, rows=rows, flow=flow)


def heat_residual_probe(flow: HeatFlow, t: float, y) -> float:
    """sup | d_t u_s - d_y^2 u_s | with d_t from Richardson-extrapolated
    central differences of fresh kernel evaluations at steps 1e-4 and 5e-5,
    independent of the kernel's d_y^2 u_s."""
    y = np.asarray(y, dtype=float)
    d2 = flow.derivs(t, y, orders=(2,))[0]

    def central(h):
        up = flow.derivs(t + h, y, orders=(0,))[0]
        dn = flow.derivs(max(t - h, 0.0), y, orders=(0,))[0]
        return (up - dn) / ((t + h) - max(t - h, 0.0))

    r1 = central(1e-4)
    r2 = central(1e-4 / 2)
    dt_rich = (4.0 * r2 - r1) / 3.0
    return float(np.max(np.abs(dt_rich - d2)))
