"""Tracking the non-degenerate critical point a(t) of u_s(t, .), the root of
d_y u_s(t, .), by Newton continuation.  Since u_s solves the heat equation
exactly, d_t d_y u_s = d_y^3 u_s, so a' = -d_y^3 u_s / d_y^2 u_s at the root
is a pointwise kernel evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CurvatureVanished, HorizonExceeded, NoCriticalPoint,
                     NotConverged)
from .heat import HeatFlow, gl_panels


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


# node spacing, curvature floor as a fraction of |lambda(0)|, and the Newton
# steps allowed at one node
DT = 2e-3
FLOOR_FRAC = 0.1
MAX_NEWTON = 8


def track_critical_point(flow: HeatFlow, a0: float, t_final: float
                         ) -> CriticalPath:
    """Follow the root a(t) of d_y u_s(t, .) from a0 to t_final on nodes DT
    apart, each by Newton from the cubic Hermite extrapolation of the two
    before it (an Euler step from node 0) until the step is at most
    1e-14 max(1, |a|).  Raise NoCriticalPoint if node 0 is not a maximum,
    NotConverged if a node takes more than MAX_NEWTON steps, and
    CurvatureVanished at the first node with lambda > -FLOOR_FRAC
    |lambda(0)|, so that no node of a returned path has one."""
    n = max(2, int(np.ceil(t_final / DT)) + 1)
    t_nodes = np.linspace(0.0, t_final, n)
    h = t_nodes[1] - t_nodes[0]

    nodes = []      # (a, lambda, a', lambda'), CriticalPath's field order
    a = float(a0)
    for i, t in enumerate(t_nodes):
        for _ in range(MAX_NEWTON):
            d1, d2, d3, d4 = (d[0] for d in flow.derivs(
                t, np.array([a]), orders=(1, 2, 3, 4)))
            step = d1 / d2
            if abs(step) <= 1e-14 * max(1.0, abs(a)):
                break
            a -= step
        else:
            raise NotConverged(f"Newton did not settle on the critical point "
                               f"at t={t:.4f} in {MAX_NEWTON} steps")
        if i == 0:
            if d2 >= 0:
                raise NoCriticalPoint(
                    f"the critical point at y={a:.6f} has U''={d2:.3e} >= 0; "
                    "the path tracks a maximum")
            floor = FLOOR_FRAC * abs(d2)
        if d2 > -floor:
            raise CurvatureVanished(
                f"|lambda| fell to {abs(d2):.3e} (< floor {floor:.3e}) "
                f"at t={t:.4f} before t_final={t_final}")
        # the root's evaluation gives a' = -d3/d2 and lambda' = d4 + d3 a'
        adot = -d3 / d2
        nodes.append((a, d2, adot, d4 + d3 * adot))
        if i == 0:
            a += h * adot
        else:
            a_prev, _, adot_prev, _ = nodes[-2]
            a = 5 * a_prev + 2 * h * adot_prev - 4 * a + 4 * h * adot

    return CriticalPath(t_nodes, *np.array(nodes).T, t0=float(t_final),
                        flow=flow)


def time_integral(f, ts) -> np.ndarray:
    """int_0^t f(s) ds at each t in ts, f mapping an array of times to the
    values there, by composite 8-point Gauss-Legendre on panels of [0, t]
    at most 0.02 wide, each t on its own panels."""
    out = []
    for t in np.asarray(ts, dtype=float):
        edges = np.linspace(0.0, t, int(np.ceil(t / 0.02)) + 1)
        nodes, wts = gl_panels(0.5 * (edges[1:] + edges[:-1]),
                               0.5 * np.diff(edges), 8)
        out.append(float(np.sum(wts * f(nodes))))
    return np.array(out)
