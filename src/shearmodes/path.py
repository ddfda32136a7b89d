"""Tracking the non-degenerate critical point a(t) of u_s(t, .).

a(t) obeys  a' = - d_t d_y u_s(t, a) / d_y^2 u_s(t, a); since u_s solves the
heat equation exactly, d_t d_y u_s = d_y^3 u_s and the right-hand side is a
pointwise kernel evaluation.  The integrator is classic RK4 with a one-step
Newton correction of the root at every node, which keeps d_y u_s(t, a(t))
at root-finder tolerance along the whole path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurvatureVanished, HorizonExceeded, NoCriticalPoint
from .heat import HeatFlow, gauss_legendre, gl_panels


@dataclass(frozen=True)
class CriticalPath:
    """a(t), lambda(t) = d_y^2 u_s(t, a(t)) and their time derivatives."""

    t_nodes: np.ndarray
    a_nodes: np.ndarray
    lam_nodes: np.ndarray
    adot_nodes: np.ndarray
    lamdot_nodes: np.ndarray
    t0: float                  # validity horizon
    flow: HeatFlow

    def _hermite_eval(self, t, values, slopes):
        """Cubic Hermite interpolation on the uniform node grid."""
        t = np.asarray(t, dtype=float)
        tn = self.t_nodes
        if np.any(t < tn[0] - 1e-12) or np.any(t > self.t0 + 1e-12):
            raise HorizonExceeded(f"t outside [0, {self.t0}]")
        h = tn[1] - tn[0]
        i = np.clip(((t - tn[0]) / h).astype(int), 0, tn.size - 2)
        s = (t - tn[i]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return (h00 * values[i] + h * h10 * slopes[i]
                + h01 * values[i + 1] + h * h11 * slopes[i + 1])

    def a(self, t):
        return self._hermite_eval(t, self.a_nodes, self.adot_nodes)

    def lam(self, t):
        return self._hermite_eval(t, self.lam_nodes, self.lamdot_nodes)

    def kappa(self, t):
        """|lambda(t)/2|^{1/2}, the curvature scale along the path."""
        return np.sqrt(np.abs(self.lam(t)) / 2.0)

    def root_gap(self, t) -> float:
        """|d_y u_s(t, a(t))|: how well the path sits on the critical manifold."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        gaps = [abs(self.flow.derivs(float(tv), np.array([float(self.a(tv))]),
                                     orders=(1,))[0][0]) for tv in t]
        return float(max(gaps))


def track_critical_point(flow: HeatFlow, a0: float, t_final: float, *,
                         dt: float = 2e-3, floor_frac: float = 0.1
                         ) -> CriticalPath:
    """Integrate the critical path to t_final; raise NoCriticalPoint if a0
    is not a maximum of u_s(0, .), and CurvatureVanished if the curvature
    magnitude hits floor_frac * |lambda(0)| first.  Every node of a returned
    path has lambda < 0 and |lambda| >= floor_frac |lambda(0)|."""
    lam0 = flow.derivs(0.0, np.array([a0]), orders=(2,))[0][0]
    if lam0 >= 0:
        raise NoCriticalPoint(
            f"the critical point at y={a0:.6f} has U''={lam0:.3e} >= 0; "
            "the path tracks a maximum")
    floor = floor_frac * abs(lam0)

    n = max(2, int(np.ceil(t_final / dt)) + 1)
    t_nodes = np.linspace(0.0, t_final, n)
    h = t_nodes[1] - t_nodes[0]

    def rhs(t, a):
        d2, d3 = flow.derivs(t, np.array([a]), orders=(2, 3))
        return -d3[0] / d2[0]

    a_list, lam_list, adot_list, lamdot_list = [], [], [], []
    a = float(a0)
    for i, t in enumerate(t_nodes):
        d1, d2, d3, d4 = flow.derivs(t, np.array([a]), orders=(1, 2, 3, 4))
        # Newton correction keeps the node on the root of d_y u_s; where it
        # leaves a unchanged (a0 at t = 0 is exact to the last bit), so are
        # the derivatives
        a_new = a - d1[0] / d2[0]
        if a_new != a:
            a = a_new
            d1, d2, d3, d4 = flow.derivs(t, np.array([a]), orders=(1, 2, 3, 4))
        lam = d2[0]
        if abs(lam) < floor or lam >= 0:
            raise CurvatureVanished(
                f"|lambda| fell to {abs(lam):.3e} (< floor {floor:.3e}) "
                f"at t={t:.4f} before t_final={t_final}")
        adot = -d3[0] / d2[0]
        a_list.append(a)
        lam_list.append(lam)
        adot_list.append(adot)
        lamdot_list.append(d4[0] + d3[0] * adot)
        if i + 1 < n:
            k1 = adot    # rhs(t, a), which the node has just evaluated
            k2 = rhs(t + h / 2, a + h * k1 / 2)
            k3 = rhs(t + h / 2, a + h * k2 / 2)
            k4 = rhs(t + h, a + h * k3)
            a = a + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    return CriticalPath(
        t_nodes=t_nodes, a_nodes=np.array(a_list), lam_nodes=np.array(lam_list),
        adot_nodes=np.array(adot_list), lamdot_nodes=np.array(lamdot_list),
        t0=float(t_final), flow=flow)


def time_integral(f, ts) -> np.ndarray:
    """int_0^t f(s) ds at each t in ts, f mapping an array of times to the
    values there.

    Accumulated gap by gap over the sorted times, each gap by composite
    8-point Gauss-Legendre panels of width at most 0.02.  Each panel adds
    half * (gw @ f) with the weights gw of [-1, 1], not the sum against
    the panel weights half * gw, which rounds differently: the phase of
    every assembled mode is this sum.
    """
    ts = np.asarray(ts, dtype=float)
    out = np.empty(ts.size)
    gw = gauss_legendre(8)[1]
    acc = lo = 0.0
    for i in np.argsort(ts, kind="stable"):
        hi = float(ts[i])
        edges = np.linspace(lo, hi, int(np.ceil((hi - lo) / 0.02)) + 1)
        halves = 0.5 * np.diff(edges)
        nodes, _ = gl_panels(0.5 * (edges[1:] + edges[:-1]), halves, 8)
        for half, vals in zip(halves, f(nodes)):
            acc += half * float(gw @ vals)
        out[i], lo = acc, hi
    return out
