"""Independent oracles of the stepper: exact solutions it is checked against.

They share only the Gauss-Legendre panel builder with the package, and
nothing of the heat or stepper code they check.
"""

from types import SimpleNamespace

import numpy as np

from shearmodes.heat import gl_panels


def inviscid_exact(u0, U, Uprime, k: int, t: float, y_grid) -> tuple:
    """Exact mode solution of the inviscid linearized problem around frozen U:

        u_hat(t,y) = e^{-i k U(y) t} u0(y)
                     + t U'(y) * i k * int_0^y e^{-i k U(z) t} u0(z) dz,

    with the matching v_hat.  u0, U, Uprime are callables; cumulative
    integrals by per-cell 8-point Gauss-Legendre on the output grid.
    """
    y = np.asarray(y_grid, dtype=float)
    nodes, wts = gl_panels(0.5 * (y[1:] + y[:-1]), 0.5 * np.diff(y), 8)
    fz = np.exp(-1j * k * U(nodes) * t) * u0(nodes)
    I_cells = np.sum(wts * fz, axis=1)
    J_cells = np.sum(wts * U(nodes) * fz, axis=1)
    I = np.concatenate([[0.0 + 0.0j], np.cumsum(I_cells)])
    J = np.concatenate([[0.0 + 0.0j], np.cumsum(J_cells)])
    Uy = U(y)
    u_hat = np.exp(-1j * k * Uy * t) * u0(y) + t * Uprime(y) * 1j * k * I
    v_hat = -1j * k * I + t * k * k * (Uy * I - J)
    return u_hat, v_hat


def dirichlet_heat_kernel(u0, y_grid, t: float, *, halfwidth: float = 9.0,
                          nodes_per_panel: int = 12,
                          panel_factor: float = 0.7) -> np.ndarray:
    """Kernel solution of the pure heat equation on the half line with
    u(t,0)=0 (odd extension); u0 is a callable on y >= 0.  Oracle for the
    k = 0 reduction of the stepper."""
    y = np.asarray(y_grid, dtype=float)
    if t == 0.0:
        return u0(y).astype(complex)
    width = np.sqrt(4.0 * t)
    h = min(panel_factor * width, 0.5)
    npan = int(np.ceil((y[-1] + halfwidth * width) / h))
    edges = np.linspace(0.0, npan * h, npan + 1)
    nodes, wts = (a.ravel() for a in gl_panels(0.5 * (edges[1:] + edges[:-1]),
                                               0.5 * h, nodes_per_panel))
    f = u0(nodes) * wts
    c = 1.0 / width
    km = np.exp(-(c * (y[:, None] - nodes[None, :])) ** 2)
    kp = np.exp(-(c * (y[:, None] + nodes[None, :])) ** 2)
    return (km - kp) @ f * (c / np.sqrt(np.pi))


def frozen_field(profile, y_grid, t_grid) -> SimpleNamespace:
    """The coefficient field of the frozen problem, every time slice the
    initial layer itself: what the stepper reads of a HeatFlowField
    (y_grid, the u_s and d_y u_s rows, horizon and slice_interp)."""
    y = np.asarray(y_grid, dtype=float)
    us, dy_us = (np.tile(r, (len(t_grid), 1)) for r in profile.derivs(y)[:2])
    return SimpleNamespace(y_grid=y, us=us, dy_us=dy_us,
                           horizon=float(t_grid[-1]),
                           slice_interp=lambda t: (us[0], dy_us[0]))
