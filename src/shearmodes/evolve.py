"""Time evolution of single x-Fourier modes of the linearized problem.

For wavenumber k the mode u_hat(t,y) obeys

    d_t u_hat = -i k u_s u_hat - v_hat d_y u_s + d_y^2 u_hat,
    v_hat(y) = -i k int_0^y u_hat dz,     u_hat(t, 0) = u_hat(t, Ymax) = 0.

The x-Fourier reduction is exact because the coefficients depend only on
(t, y).  The stepper treats diffusion with trapezoidal (Crank-Nicolson)
implicitness and the non-stiff advection/source explicitly via a
predictor-corrector pass, which is second order and self-starting.  The
inviscid variant (evolve's inviscid=True) drops the diffusion, for
comparison against the exact transport formula of the inviscid problem.

evolve steps data given at t = 0 on the field's own grid, in the frame
that moves with the free stream.  With c the field's u_s at the top of its
grid at its first time, w = e^{ikct} u_hat obeys the same equation with
u_s - c in place of u_s (d_y u_s and v_hat's term are unchanged), and
evolve multiplies each row by e^{-ikc t_final} at the end.  The phase
leaves |u_hat| alone, so only the time error moves: the explicit advection sees k sup|u_s - c|, not the
fast phase k c.  At the probe's defaults and 240 steps the k = 512 row's
log sup norm is within 3.2e-6 of a 19 200-step run, against 0.050 without
the frame (and 3.1e-4 at 1 200 steps).  evolve picks its own step count:
the caller's min_steps, or more where the advective bound
k sup|u_s - c| dt <= C_CFL, read at the speed in the frame, needs them.

The Crank-Nicolson matrix I - (dt/2) D2 is real, symmetric and positive
definite: evolve factors it once with LAPACK zpttrf, and each stage solves
every row of a batch in one zpttrs call.  A step evaluates the advection
twice, in place, and reads its coefficient rows from one cubic
interpolation in t of the field's u_s and d_y u_s.  At the probe's batch of
5 rows on 601 points a step takes 250-280 us on one CPU of a 2-core host
(two solves of 48-64 us, two advection evaluations of 37-50 us, the
interpolation 8-15 us), against 355-420 us with the pivoted zgttrs solve
and the unfused advection.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import NonFiniteState, NotConverged
from .heat import HeatFlowField
from .norms import fit_rate, weighted_sup


# the advective step bound: k sup|u_s - c| dt <= C_CFL, c evolve's frame
# velocity
C_CFL = 0.5


def _k_column(k) -> np.ndarray:
    """k as a column that broadcasts against the rows u: shape (1,) for an
    int with u of shape (ny,), (m, 1) for a tuple of m with u of shape
    (m, ny)."""
    return np.asarray(k)[..., None]


def _frame(field: HeatFlowField) -> tuple[float, float]:
    """The frame velocity c, the field's u_s at the top of its grid at its
    first time, and sup|u_s - c| over the field, the speed the stepper
    advects in the frame that moves at c."""
    c = float(field.us[0, -1])
    return c, float(np.max(np.abs(field.us - c)))


def _step_count(k, speed: float, span: float, min_steps: int) -> int:
    """evolve's step count over span: min_steps, or the fewest equal steps
    that keep the advective bound |k| speed dt <= C_CFL; in a batch the
    largest |k| binds."""
    return max(min_steps,
               int(np.ceil(span * np.max(np.abs(k)) * speed / C_CFL)))


def _advection(u, y, k, us_row, dyus_row):
    """The explicit terms -ik u_s u - v_hat d_y u_s = -ik (u_s u - d_y u_s
    C(u)), C(u) = (h/2) sum_{j <= i} (u_j + u_{j-1}) the trapezoid integral
    int_0^y u on the uniform grid, along the last axis of u; formed in
    place, with C(u) the one temporary.  The neighbour sums run along the
    flattened batch, and the first entry of each row, which pairs it with
    the previous row's last, is then set to 0: each row still gets only its
    own arithmetic."""
    c = np.empty(u.shape, dtype=complex)
    flat = c.reshape(-1)
    u_flat = u.reshape(-1)
    np.add(u_flat[1:], u_flat[:-1], out=flat[1:])
    c[..., 0] = 0.0
    np.cumsum(c, axis=-1, out=c)
    c *= (0.5 * (y[1] - y[0])) * dyus_row
    out = np.multiply(u, us_row)
    out -= c
    out *= -1j * k
    return out


_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """scipy's f2py LAPACK extension, scipy.linalg._flapack, loaded without
    the scipy.linalg package.

    scipy/linalg/__init__.py loads scipy's array-API layer, which walks
    numpy's namespace and so imports numpy.f2py and numpy.testing too: after
    the CLI's start-up, importing scipy.linalg.lapack added 312 modules (85
    of scipy), 0.23-0.31 s and 22 MB on a 2-core host, all of it code that
    nothing here calls; this loader adds 24 modules (11 of scipy), 17-24 ms
    and 3.3 MB.  The four routines the package uses (zpttrf, zpttrs, zgbtrf,
    zgbtrs) live in the extension, and scipy.linalg.lapack re-exports the
    very same function objects.  So this imports the scipy package alone
    (its platform library set-up), finds the extension on scipy's own path,
    executes it and registers it in sys.modules under its own name.  A
    later import of scipy.linalg reuses that module, and one that
    scipy.linalg loaded first is reused here, so either way there is one
    extension.  Without the file it raises ImportError naming the paths
    searched; there is no second route through scipy.linalg.
    """
    if _FLAPACK not in sys.modules:
        import scipy
        paths = [os.path.join(p, "linalg") for p in scipy.__path__]
        spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, paths)
        if spec is None:
            raise ImportError(f"no {_FLAPACK} extension in {paths}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
    return sys.modules[_FLAPACK]


def _cn_factors(y: np.ndarray, dt: float) -> tuple:
    """The L D L^H factors (LAPACK zpttrf: d real, e complex) of the
    tridiagonal (I - dt/2 D2) on the interior nodes, Dirichlet both ends.
    The matrix is real, symmetric and diagonally dominant, so positive
    definite: no pivoting.  _cn_solve applies the inverse; its solutions
    differ from those of the pivoted LU (zgttrf/zgttrs) by about 1e-16
    relative, and a solve of 5 rows on 599 unknowns takes 48-64 us against
    63-67 us."""
    n = y.size - 2
    if n < 3:
        raise ValueError("the Crank-Nicolson solve needs at least 5 grid "
                         f"points, got {y.size}")
    h = y[1] - y[0]
    r = dt / (2 * h * h)
    d, e, _ = _lapack().zpttrf(np.full(n, 1 + 2 * r),
                               np.full(n - 1, -r, dtype=complex))
    return d, e


def _cn_solve(factors: tuple, b: np.ndarray) -> np.ndarray:
    """(I - dt/2 D2)^{-1} b along the last axis of b: every row of a batch
    is one right-hand side of a single zpttrs call.  A C-contiguous complex
    b is overwritten by the solution, which is returned."""
    return _lapack().zpttrs(*factors, b.T, overwrite_b=1)[0].T


def step(u: np.ndarray, dt: float, *, k, y: np.ndarray, coefs,
         lu) -> np.ndarray:
    """One IMEX step (predictor-corrector on the explicit terms) of the rows
    u on the grid y, k an int for one row or a tuple for a batch (see
    _k_column); returns the rows dt later, in a new array.

    coefs holds the (u_s, d_y u_s) rows at the step's start and end times,
    and lu the _cn_factors for dt, or None for the inviscid step, which has
    no diffusion.  step checks no bound: evolve picks dt once, within the
    CFL bound, interpolates each row once and factors once, and passes them
    to every step, the u_s rows less its frame velocity c; it also checks
    that the rows it returns are finite.  The right-hand sides are built in
    place, and the predictor lives in the buffer of the new rows.
    """
    k = _k_column(k)
    (us0, dyus0), (us1, dyus1) = coefs
    n0 = _advection(u, y, k, us0, dyus0)

    if lu is None:
        up = n0 * dt
        up += u
        up[..., 0] = 0.0
        un = _advection(up, y, k, us1, dyus1)
        un += n0
        un *= 0.5 * dt
        un += u
        un[..., 0] = 0.0
    else:
        h = y[1] - y[0]
        # the explicit half of Crank-Nicolson, u + (dt/2) D2 u
        base = np.multiply(u[..., 1:-1], -2.0)
        base += u[..., 2:]
        base += u[..., :-2]
        base *= dt / (2 * h * h)
        base += u[..., 1:-1]
        rhs = n0[..., 1:-1] * dt
        rhs += base
        un = np.empty_like(u)
        un[..., 0] = un[..., -1] = 0.0
        un[..., 1:-1] = _cn_solve(lu, rhs)
        n1 = _advection(un, y, k, us1, dyus1)
        np.add(n0[..., 1:-1], n1[..., 1:-1], out=rhs)
        rhs *= 0.5 * dt
        rhs += base
        un[..., 1:-1] = _cn_solve(lu, rhs)

    return un


def _log_row_sup(u: np.ndarray):
    """The log of max |u| along the last axis, the sup norm of each row.
    A nan or inf entry makes its row's sup nan or inf, and raises
    NonFiniteState; so does a row of zeros, whose log is -inf."""
    nrm = np.max(np.abs(u), axis=-1)
    if not np.all(np.isfinite(nrm)):
        raise NonFiniteState("u_hat left the floating-point range")
    if np.any(nrm == 0.0):
        raise NonFiniteState("mode collapsed to zero; its log norm is -inf")
    return np.log(nrm)


def evolve(field: HeatFlowField, k, u0: np.ndarray, t_final: float, *,
           min_steps: int, inviscid: bool = False) -> np.ndarray:
    """Step u0, given at t = 0 on field.y_grid, to t_final and return the
    rows reached there.

    One mode: k an int and u0 of shape (ny,).  A batch: k a tuple of m ints
    and u0 of shape (m, ny), row i of wavenumber k[i]; everything acts along
    the last axis, so each row gets exactly the arithmetic it would get
    alone, and a batch shares the steps' coefficient rows, one
    Crank-Nicolson factorisation and one multi-right-hand-side solve per
    stage.  evolve takes n equal steps, dt = t_final / n: n is min_steps
    (at least 1), or more where the advective bound
    k sup|u_s - c| dt <= C_CFL at the largest |k| needs them
    (_step_count).  The steps run in the free-stream frame (see the module
    docstring), and the rows are rotated back to the rest frame by
    e^{-ikc t_final}, not rescaled.  A nan, inf or zero row of u0 raises
    NonFiniteState before any step, and so does one of the returned rows:
    the step is linear, so a row that leaves the floating-point range or
    collapses to zero stays so, and the check at the end sees what a check
    after every step would.  t_final 0 returns u0 itself; a t_final outside
    [0, field.horizon] raises ValueError.
    """
    if not 0 <= t_final <= field.horizon + 1e-12:
        raise ValueError(f"t_final={t_final} outside [0, {field.horizon}]: "
                         "before the start time or past the field's horizon")
    _log_row_sup(u0)
    if not t_final:
        return u0
    c, speed = _frame(field)
    nsteps = _step_count(k, speed, t_final, min_steps)
    dt = t_final / nsteps
    y = field.y_grid
    lu = None if inviscid else _cn_factors(y, dt)

    def rows(t):
        us, dyus = field.slice_interp(t)
        return us - c, dyus

    t = 0.0
    coef0 = rows(t)
    u = u0
    for _ in range(nsteps):
        t += dt
        coef1 = rows(t)
        u = step(u, dt, k=k, y=y, coefs=(coef0, coef1), lu=lu)
        coef0 = coef1
    # back from the frame: the phase e^{-ik c t_final} of each row
    u *= np.exp(-1j * _k_column(k) * c * t_final)
    _log_row_sup(u)
    return u


# ---------------------------------------------------------------------------
# growth measurement and the ill-posedness probe


def growth_row(k: int, t, lognorm, path) -> dict:
    """Fit the growth rate of one log-amplitude trajectory.

    The growing-component amplitude model is

        a(t) = const * t * kappa(t)^{3/2} * exp(|Im tau| sqrt(k) K(t)),

    K(t) = int_0^t kappa (path.kappa is all this reads of path): the t and
    kappa^{3/2} prefactors are known structure of the assembly, so they are
    subtracted before fitting.
    sigma(k) is the least-squares slope of the compensated log amplitude
    against t over the window [0.2, 0.9] t[-1] (so it averages the rate
    |Im tau| sqrt(k) kappa(t) across the window; the curvature decay of the
    background makes it sit a few percent below the t=0 rate).
    """
    t = np.asarray(t, dtype=float)
    ln = np.asarray(lognorm, dtype=float)
    t_final = t[-1]
    lo, hi = 0.2 * t_final, 0.9 * t_final
    comp = (ln - np.log(np.maximum(t, 1e-300))
            - 1.5 * np.log(np.asarray(path.kappa(t), dtype=float)))
    in_window = (t >= lo) & (t <= hi)
    fit_plain = fit_rate(t, comp, in_window)
    return {
        "k": int(k),
        "sigma": float(fit_plain.rate),
        "sigma_over_sqrt_k": float(fit_plain.rate / np.sqrt(k)),
        "fit_residual": float(fit_plain.residual),
        "window": [float(lo), float(hi)],
        "n_samples": fit_plain.n_samples,
        "t_final": float(t_final),
    }


# _ShiftedBand's band widths, below and above; entry (row, col) of its LAPACK
# band storage is ab[_DIAG + row - col, col], after _KL rows of fill-in room
_KL, _KU = 2, 1
_DIAG = _KL + _KU
# the parabolic contour z(u) = a - b u^2 + i(c u + m), u in (-pi, pi): its
# ends reach Re z = a - b pi^2 = -36, where e^z = 2.3e-16 is about one ulp
_CONTOUR_A = 5.0
_CONTOUR_B = 41.0 / np.pi**2
# extra nodes of the self-check, and its relative bound
_CHECK_NODES = 32
_CHECK_RTOL = 1e-10
# Golub-Kahan stops when sigma moves by at most this much, relative
_SIGMA_RTOL = 1e-14


class _ShiftedBand:
    """z - tA, A the frozen mode operator of the coefficient rows (U, U') on
    the uniform grid y, on its n interior points (Dirichlet ends, trapezoid
    integration for v_hat), as M = (z - tA)D in the unknowns
    w = S x: S is the lower-triangular all-ones matrix, D = S^{-1} the
    bidiagonal with 1 on and -1 below the diagonal.  As c = int_0^y x =
    hS x - (h/2)x, c_i = (h/2)(w_i + w_{i-1}); with a_i = 2t/h^2 + itk U_i,
    q_i = itk U'_i h/2 and r = t/h^2, row i of M holds -r, z + a_i + r - q_i
    (no r in the last row, where x_n = 0), -(z + a_i) - r - q_i and r in
    columns i+1 down to i-2: widths (2, 1), 6n entries for zgbtrf.  Then
    (z - tA)^{-1} b = D M^{-1} b and (z - tA)^{-H} b = M^{-H} D^H b.  The
    differencing by D loses about a factor n: at ny = 900 a solve's residual
    is up to 4.1e-13 relative, against 7.3e-14 for the 2n system in (x, c)
    with 18n entries; sigma meets the dense oracle to 2.4e-14 in the tests.
    """

    def __init__(self, y: np.ndarray, rows, k: int, t: float):
        h = y[1] - y[0]
        U, dU = rows
        self.U = U[1:-1]
        a = 2 * t / h**2 + 1j * t * k * self.U
        q = 0.5j * t * k * h * dU[1:-1]
        r = t / h**2
        ab = np.zeros((_DIAG + _KL + 1, y.size - 2), dtype=complex, order="F")
        ab[_DIAG - 1, 1:] = -r
        ab[_DIAG] = a + r - q
        ab[_DIAG, -1] -= r
        ab[_DIAG + 1, :-1] = -a[1:] - r - q[1:]
        ab[_DIAG + 2, :-2] = r
        self.ab = ab

    def factor(self, z: complex) -> tuple:
        """zgbtrf's (lu, ipiv) of M at z."""
        ab = self.ab.copy(order="F")
        ab[_DIAG] += z
        ab[_DIAG + 1, :-1] -= z
        lu, ipiv, info = _lapack().zgbtrf(ab, _KL, _KU, overwrite_ab=1)
        if info > 0:
            raise NotConverged(f"z - tA is singular at the contour node {z}")
        return lu, ipiv

    def solve(self, factors: tuple, b: np.ndarray):
        """(z - tA)^{-1} b."""
        w = self.solve_m(factors, b)
        w[1:] -= w[:-1].copy()
        return w

    @staticmethod
    def difference_h(b: np.ndarray) -> np.ndarray:
        """D^H b, the right-hand side of M^H for (z - tA)^{-H} b."""
        b = b.copy()
        b[:-1] -= b[1:]
        return b

    @staticmethod
    def solve_m(factors: tuple, b: np.ndarray, trans: int = 0):
        """M^{-1} b (trans 0) or M^{-H} b (trans 2); b is not overwritten."""
        return _lapack().zgbtrs(factors[0], _KL, _KU, b, factors[1],
                                trans=trans)[0]


def _node_count(half: float) -> int:
    """Nodes of the contour rule around a spectrum of imaginary half-width
    half, fitted to the rule's measured convergence with a margin of at
    least 21 nodes (see transient_amplification)."""
    return 48 + 16 * int(np.ceil(half))


def _contour_nodes(m: float, half: float, n_nodes: int) -> tuple:
    """The nodes z_j and weights w_j of _ContourExp's rule."""
    c = 10.0 + half
    u = -np.pi + (np.arange(n_nodes) + 0.5) * (2 * np.pi / n_nodes)
    z = _CONTOUR_A - _CONTOUR_B * u * u + 1j * (c * u + m)
    dz = -2 * _CONTOUR_B * u + 1j * c
    return z, np.exp(z) * dz / (1j * n_nodes)


def _rule_sum(terms) -> np.ndarray:
    """sum_j w_j x_j over the (w_j, x_j) of terms, in their order: each
    node's solve x_j is scaled in place, scalar first (w_j x_j as the
    products w * x would round them), and added to the first."""
    total = None
    for w, x in terms:
        np.multiply(w, x, out=x)
        if total is None:
            total = x
        else:
            total += x
    return total


class _ContourExp:
    """e^{tA} by the trapezoid rule at n_nodes midpoints of a parabolic
    contour around the spectrum of tA (Weideman & Trefethen, Math. Comp.
    76, 2007):

        e^{tA} v = sum_j w_j (z_j - tA)^{-1} v,
        z(u) = a - b u^2 + i(c u + m),   w_j = e^{z_j} z'(u_j) / (i n_nodes),

    m the centre of the spectrum's imaginary range and c = 10 + half, half
    its half-width.  Each node is factored once; matvec and rmatvec apply
    the rule and its exact adjoint, one band solve per node, summed by
    _rule_sum.  rmatvec forms D^H u once per product and solves M^H at each
    node against it.
    """

    def __init__(self, band: _ShiftedBand, m: float, half: float,
                 n_nodes: int):
        z, self.weights = _contour_nodes(m, half, n_nodes)
        self.band = band
        self.factors = [band.factor(zj) for zj in z]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return _rule_sum((w, self.band.solve(f, v))
                         for w, f in zip(self.weights, self.factors))

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        du = self.band.difference_h(u)
        return _rule_sum((np.conj(w), self.band.solve_m(f, du, trans=2))
                         for w, f in zip(self.weights, self.factors))


def _streamed_matvec(band: _ShiftedBand, m: float, half: float,
                     n_nodes: int, v: np.ndarray) -> np.ndarray:
    """_ContourExp(band, m, half, n_nodes).matvec(v), bit for bit, with each
    node factored, solved, added by _rule_sum and dropped in turn: one
    factorisation is held at a time instead of n_nodes."""
    z, weights = _contour_nodes(m, half, n_nodes)
    return _rule_sum((w, band.solve(band.factor(zj), v))
                     for w, zj in zip(weights, z))


def _orthogonalize(r: np.ndarray, Q: list) -> np.ndarray:
    """r with its components along the orthonormal rows of Q removed, by
    two passes of classical Gram-Schmidt."""
    Q = np.array(Q)
    for _ in range(2):
        r = r - (Q.conj() @ r) @ Q
    return r


def _largest_singular(op: _ContourExp, start: np.ndarray) -> tuple:
    """sigma_max of op, its right singular vector v and op v, by Golub-Kahan
    bidiagonalisation (Golub & Kahan, SIAM J. Numer. Anal. B 2, 1965) with
    full reorthogonalisation, from the direction of start, until sigma
    moves by at most _SIGMA_RTOL relative or V spans the whole space.  op V
    = U B with B upper bidiagonal, so sigma_max(B) rises to sigma_max(op),
    which it equals once B is n by n; v = V y and op v = sigma U x for the
    top singular pair (x, y) of B."""
    n = start.size
    V = [start / np.linalg.norm(start)]
    p = op.matvec(V[0])
    alpha = [np.linalg.norm(p)]
    U = [p / alpha[0]]
    beta = []
    sigma = alpha[0]
    for _ in range(n - 1):
        r = _orthogonalize(op.rmatvec(U[-1]) - alpha[-1] * V[-1], V)
        beta.append(np.linalg.norm(r))
        V.append(r / beta[-1])
        p = _orthogonalize(op.matvec(V[-1]) - beta[-1] * U[-1], U)
        alpha.append(np.linalg.norm(p))
        U.append(p / alpha[-1])
        B = np.diag(alpha) + np.diag(beta, 1)
        x, s, yh = np.linalg.svd(B)
        converged = (abs(s[0] - sigma) <= _SIGMA_RTOL * s[0]
                     or len(V) == n)
        sigma = s[0]
        if converged:
            return (float(sigma), yh[0].conj() @ np.array(V),
                    sigma * (x[:, 0] @ np.array(U)))
    return float(sigma), V[0], p    # n = 1: V[0] spans the space


def transient_amplification(profile, k: int, t: float, *,
                            ny: int = 900) -> float:
    """sup over initial data of the frozen-problem amplification at time t:
    the 2-norm of e^{tA}, A the mode operator on ny points of [0, 20].

    The frozen operator here is spectrally stable at desk-scale k; the
    high-frequency growth is a transient (pseudospectral) amplification.
    Its rate log(sigma)/t is not the dispersion rate |Im tau| kappa(0)
    sqrt(k), nor does it approach it from one side: at t = 0.05 it is 0.58,
    0.89 and 0.94 times that rate for gaussian-bump at k = 64, 128 and 256,
    and 4.14, 4.56 and 4.39 times it for algebraic-bump at A = 4.  This is
    the ground-truth certificate for the evolved-dynamics tests.

    No matrix is formed.  e^{tA} is the trapezoid rule on a parabolic
    contour (_ContourExp) at N = 48 + 16 ceil(half) nodes, half the imaginary
    half-width tk (max U - min U)/2 of the spectrum of tA; each node is one
    O(n) band factorisation of z - tA (_ShiftedBand).  N is fitted to the
    rule's measured convergence.  The fewest nodes at which sigma met the
    2-norm of scipy's dense expm to 1e-13 (gaussian and algebraic A = 4
    profiles):

                            ny = 300               ny = 900
        profile   k   t     half  fewest    N      half  fewest    N
        gauss    64 1e-4   0.003      43   64     0.003      43   64
        gauss    64 0.05    1.55      55   80      1.63      56   80
        gauss   128 0.05    3.11      70  112      3.26      70  112
        alg4     64 0.05    3.67      77  112      3.96      82  112
        gauss   256 0.05    6.22      99  160      6.52     104  160
        alg4    128 0.05    7.33     114  176      7.91     123  176
        gauss   256 0.1     12.4     163  256      13.0     170  272
        alg4    256 0.05    14.7     211  288      15.8     216  304
        alg4    512 0.05    29.3     481  528      31.6     522  560
        alg4    256 0.1     29.3     464  528      31.6     521  560

    so N is at least 21 nodes above the fewest at every half, and at least
    38 at half 29-32 (the tests run the rule at N - 16).

    sigma_max comes from Golub-Kahan bidiagonalisation in two stages, each
    stopped when sigma moves by at most 1e-14 relative (at 1e-13 it stops
    early at t = 1e-4, where the top singular values cluster at 1.00046 and
    1.00003).  The first runs on the rule at N // 2 nodes, from the all-ones
    vector so that the value is reproducible; it is too coarse for sigma,
    but its right singular vector is close to the full rule's.  That rule
    is dropped, and the second stage starts the full rule from the vector,
    where one step (op v, op^H u, op v) meets the stop.  The rule then
    checks itself: its product with the converged right singular vector at
    N + 32 nodes must agree to 1e-10 relative, else NotConverged.  The
    check's nodes are factored, solved and dropped one at a time
    (_streamed_matvec).  So a call factors N // 2 + 2N + 32 nodes, 232 at
    k = 64 and t = 0.05, and holds at most the rule's N factorisations at
    once: 80 of 0.09 MB each at ny = 900.

    Against the dense oracle, on 40 cases (both profiles; k = 64, 128 and
    256 at t = 0.05 and 1e-4 and ny = 300, 700 and 900; and the four widest
    rows above) the largest relative gap was 1.4e-13, at gauss k = 128, t =
    0.05 and ny = 900 (9.7e-14 with one stage on the full rule), and 8.1e-14
    in every other case.  That gap is the rounding of the band solves, not
    truncation or an early stop: there the second stage's sigma holds to
    the last digit over six more steps, yet moves by 1.1e-13 when it starts
    from the first stage's vector after 25 steps instead of the 19 at its
    stop.  The clustered values cost steps: at k = 64 the first stage's
    bidiagonal grows to 19 columns at t = 0.05 and ny = 900, 92 at t = 1e-4
    and ny = 300 and 198 at t = 1e-4 and ny = 900, and the second stage's
    to 2 in each.  On one CPU of a 2-core host with BLAS at 1 thread, the
    three calls took 0.10-0.11 s, 0.18-0.21 s and 1.5-2.2 s, against
    0.17-0.20 s, 0.30-0.43 s and 2.1-3.1 s with one stage on the full rule.
    """
    if t < 0:
        raise ValueError(f"transient_amplification needs t >= 0, got {t}")
    y = np.linspace(0.0, 20.0, ny)
    band = _ShiftedBand(y, profile.derivs(y)[:2], k, t)
    # the spectrum of tA lies about the imaginary range -tk [min U, max U]
    lo, hi = float(band.U.min()), float(band.U.max())
    m, half = -t * k * (hi + lo) / 2, t * k * (hi - lo) / 2
    n_nodes = _node_count(half)
    # converge on the half-node rule, then finish on the full one from its
    # right singular vector; the half rule is dropped before the full one
    # is factored, so at most n_nodes factorisations are held
    _, v, _ = _largest_singular(_ContourExp(band, m, half, n_nodes // 2),
                                np.ones(ny - 2, dtype=complex))
    sigma, v, ev = _largest_singular(_ContourExp(band, m, half, n_nodes), v)
    ev_check = _streamed_matvec(band, m, half, n_nodes + _CHECK_NODES, v)
    gap = float(np.linalg.norm(ev - ev_check) / np.linalg.norm(ev_check))
    if gap > _CHECK_RTOL:
        raise NotConverged(f"contour rule at {n_nodes} and "
                           f"{n_nodes + _CHECK_NODES} nodes differs by "
                           f"{gap:.1e} relative (bound {_CHECK_RTOL:g})")
    return sigma


def operator_growth_probe(field: HeatFlowField, ks, u0s, *, min_steps: int,
                          t: float, m: int, alpha: float, sigmas,
                          mu: float) -> list[dict]:
    """Evolve the initial data u0s[i] of wavenumber ks[i], given on
    field.y_grid, from 0 to t, all ks as one evolve batch of at least
    min_steps steps (more where the largest k's CFL bound needs them), and
    report amplification ratios, one row per (sigma, k), sigma-major.  sigma enters only the damping, so each
    k is evolved once for all sigmas.

    rho:      e^{-sigma sqrt(k) t} ||u(t)||_{W0} / ((1+k^2)^{m/2} ||u(0)||_{W_alpha})
              (the literal mode-Sobolev ratio, an H^m_alpha -> W_0 ratio
              that loses m derivatives: its prefactor is
              (1+k^2)^{-m/2} ~ k^{-m}, since the eps of the data cancels
              between numerator and denominator).
    rho_cert: k^{-mu} e^{-sigma sqrt(k) t} ||u(t)||_{W0} / ||u(0)||_{W_alpha}
              (the certificate form, the quantity the sigma < rate verdict
              reads: bounded under the hypothetical well-posedness estimate
              with loss mu < 1/2, divergent in k when sigma is below the
              true rate).
    """
    log_final = _log_row_sup(evolve(field, tuple(ks),
                                    np.stack(u0s).astype(complex), t,
                                    min_steps=min_steps))
    evolved = [(k, weighted_sup(u0, field.y_grid, alpha), log_nt)
               for k, u0, log_nt in zip(ks, u0s, log_final)]
    rows = []
    for sigma in sigmas:
        for k, n0_alpha, log_nt in evolved:
            damp = -sigma * np.sqrt(k) * t
            rows.append({
                "k": int(k), "t": float(t), "m": int(m), "alpha": float(alpha),
                "mu": float(mu), "sigma": float(sigma),
                "rho": float(np.exp(log_nt + damp)
                             / ((1 + k * k) ** (m / 2.0) * n0_alpha)),
                "rho_cert": float(k ** (-mu) * np.exp(log_nt + damp)
                                  / n0_alpha),
                "amplification": float(np.exp(log_nt) / n0_alpha),
                "log_final_norm": float(log_nt),
            })
    return rows
