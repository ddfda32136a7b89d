"""Experiment orchestration: config, pipelines, deterministic artifacts.

Subcommands: eigen | heat | mode | residual-scan | growth-scan |
illposedness-probe | all.  Exit codes: 0 success, 2 config error,
3 numerical failure, 4 acceptance FAIL.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, eigen, evolve, heat, modes, norms, svg
from . import path as critical_path
from .errors import ShearmodesError
from .profiles import build_family, family_names, make_profile

DEFAULT_CONFIG = {
    "profile": {"family": "gaussian-bump", "params": {"U0": 1.0, "A": 1.0}},
    "grid": {"y_max": 30.0, "ny": 601, "t0": 0.15, "nt": 16},
    "growth": {
        # the algebraic family runs with a deeper jet (A=4) so its curvature
        # scale matches the gaussian one and the window bias stays small
        "families": [
            {"family": "gaussian-bump", "params": {"U0": 1.0, "A": 1.0}},
            {"family": "algebraic-bump", "params": {"U0": 1.0, "A": 4.0}},
        ],
        "transient_ks": [64, 128, 256],
    },
    "residual_scan": {
        # near-uniform plateau needs an O(1) advection factor on the
        # corrector support; the deep algebraic jet provides it
        "profile": {"family": "algebraic-bump", "params": {"U0": 1.0, "A": 4.0}},
    },
}

# the verdicts' constants, fixed so that no config can widen a band to pass
# or move what a verdict reads
SIGMA0_SAFETY = 1.1         # sigma0 over sup_t |Im tau_phys(t)|
P_BAND = (0.45, 0.55)       # growth-scan: p of sigma(k) ~ k^p
SIGMA_REL_TOL = 0.15        # growth-scan: sigma(k)/sqrt(k) vs |Im tau_phys(0)|
GROWTH_KS = (32, 64, 128, 256)      # growth-scan: the fit's k, four distinct
GROWTH_T_FINAL = 0.03               # growth-scan: end of the fit's series
PLATEAU_RATIO = 1.5         # residual-scan: max/min of the damped norm over n
RESIDUAL_KS = (64, 128, 256, 512)   # residual-scan: the n of each plateau
RESIDUAL_TS = (0.02, 0.05, 0.08)    # residual-scan: past grid.t0 skipped
RESIDUAL_ALPHAS = (0.0, 1.0, 2.0)   # residual-scan: one verdict per weight
PROBE_M, PROBE_ALPHA, PROBE_MU = 2, 1.0, 0.25   # of rho and rho_cert
PROBE_KS = (32, 64, 128, 256, 512)  # increasing: the verdicts read k in order
PROBE_T = 0.1
PROBE_SIGMA_FACTORS = (0.5, 2.0)    # of the rate: one verdict below, one above
# the probe's least step count: evolve steps in the free-stream frame, and at
# 240 steps log_final_norm at k = 512 reads 3.2e-6 below a run of 4 800 steps
# (1.2e-5 at 120 steps); without the frame it read 0.050 above at 240 steps
# and 3.1e-4 at 1 200
PROBE_MIN_STEPS = 240
MODE_N, MODE_T = 64, 0.05           # mode: the wavenumber and the snapshot time
TRANSIENT_T = 0.05                  # growth-scan: the transient block's time


def deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def load_config(path: str | None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ValueError("config root must be a JSON object")
        unread = _unread_keys(user, DEFAULT_CONFIG)
        cfg = deep_merge(cfg, user)
        if unread:
            print(f"config: keys that nothing reads: {', '.join(unread)}",
                  file=sys.stderr)
    _validate(cfg)
    return cfg


def _unread_keys(user: dict, base: dict, prefix: str = "") -> list[str]:
    """Remove from user the keys absent from base and return their dotted
    names, walking only the dict levels base defines; a profile's
    family-specific params are not checked."""
    out = []
    for k, v in list(user.items()):
        if k not in base:
            del user[k]
            out.append(prefix + k)
        elif (k != "params" and isinstance(v, dict)
              and isinstance(base[k], dict)):
            out += _unread_keys(v, base[k], f"{prefix}{k}.")
    return out


def _check_types(value, default, name: str):
    """Raise ValueError where value's type differs from default's: objects
    and lists as in the defaults (list entries against the first default
    entry), integers where the default is one, numbers where it is a float,
    strings where it is a string; a bool is not a number, and a number must
    be finite (json reads NaN and Infinity).  A profile's params must be an
    object of numbers, whatever their names; other keys absent from the
    defaults are not checked."""
    if isinstance(default, (dict, list, str)):
        ok = isinstance(value, type(default))
    elif isinstance(value, bool):
        ok = False
    elif isinstance(default, int):
        ok = isinstance(value, int)
    else:
        ok = isinstance(value, (int, float))
    if not ok:
        raise ValueError(f"config {name} must be of type "
                         f"{type(default).__name__}, got {value!r}")
    if isinstance(value, float) and not np.isfinite(value):
        raise ValueError(f"config {name} must be finite, got {value!r}")
    if isinstance(default, dict):
        for k, v in value.items():
            key = f"{name}.{k}" if name else k
            if k == "params":
                _check_types(v, {}, key)
                for p, x in v.items():
                    _check_types(x, 0.0, f"{key}.{p}")
            elif k in default:
                _check_types(v, default[k], key)
    elif isinstance(default, list) and default:
        for i, v in enumerate(value):
            _check_types(v, default[0], f"{name}[{i}]")


def _validate(cfg: dict):
    _check_types(cfg, DEFAULT_CONFIG, "")
    grid, g = cfg["grid"], cfg["growth"]
    for name, value in (("grid.y_max", grid["y_max"]), ("grid.t0", grid["t0"])):
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
    # the Crank-Nicolson solve needs three interior points, and the stepper
    # interpolates u_s cubically in t between field slices
    for name, value, least in (("grid.ny", grid["ny"], 5),
                               ("grid.nt", grid["nt"], 4)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    for prof in ([cfg["profile"]] + g["families"]
                 + [cfg["residual_scan"]["profile"]]):
        if prof["family"] not in family_names():
            raise ValueError(f"unknown profile family {prof['family']!r}")
    for n in g["transient_ks"]:
        if n < 1:
            raise ValueError(f"wavenumbers must be positive integers, got {n}")
    if not g["families"]:
        raise ValueError("growth.families must not be empty")
    # each family writes its series under its own name
    names = [fam["family"] for fam in g["families"]]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"growth.families names {name!r} twice")
    if grid["t0"] < RESIDUAL_TS[0]:
        # residual-scan skips the times past the critical path's horizon
        raise ValueError(f"grid.t0 must be at least {RESIDUAL_TS[0]}, "
                         f"residual-scan's first time, got {grid['t0']}")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_csv(path: Path, header: str, fmt: str, columns):
    """A CSV of the header line and one row per index of the columns, each
    row printf's fmt of the columns' entries there."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    write_text(path, "\n".join([header] + [fmt % r for r in rows]) + "\n")


def write_manifest(out: Path, cfg: dict, command: str):
    write_json(out / "manifest.json", {
        "command": command,
        "config": cfg,
        "config_sha256": hashlib.sha256(_canonical(cfg).encode()).hexdigest(),
        "package_version": __version__,
    })


class Pipeline:
    """Shared profile -> heat -> path -> eigen context; the path, the pair
    and the mode family take their functions' default settings.  It holds
    one heat flow: the field, the path and every kernel row read it."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        g = cfg["grid"]
        self.y = np.linspace(0.0, g["y_max"], g["ny"])
        self.t_grid = np.linspace(0.0, g["t0"], g["nt"])

    @functools.cached_property
    def profile(self):
        """The config's profile with its critical point located, on first
        read: make_profile's NoCriticalPoint or DegenerateCritical is
        raised there, not when the pipeline is built."""
        return make_profile(self.cfg["profile"]["family"],
                            self.cfg["profile"]["params"])

    @functools.cached_property
    def flow(self) -> heat.HeatFlow:
        """The profile's heat flow, its quadrature checked once by
        check_quadrature on the pipeline's (t, y) grid.  The flow reads the
        profile's values alone, so it is built by build_family and needs no
        critical point."""
        prof = self.cfg["profile"]
        flow = heat.HeatFlow(build_family(prof["family"], prof["params"]))
        heat.check_quadrature(flow, self.y, self.t_grid)
        return flow

    @functools.cached_property
    def field(self):
        """The stepper's coefficient field: the flow's u_s and d_y u_s on
        the grid."""
        return heat.solve_heat(self.flow, self.y, self.t_grid, max_order=1)

    @functools.cached_property
    def path(self):
        return critical_path.track_critical_point(
            self.flow, self.profile.a0, self.cfg["grid"]["t0"])

    @functools.cached_property
    def pair(self) -> eigen.Eigenpair:
        return eigen.find_tau(eigen.DispersionProblem())

    def sigma0(self) -> float:
        """Measured growth constant: safety * sup_t |Im tau_phys(t)|, with
        tau_phys(t) = kappa(t) tau, over 101 times in [0, t0]."""
        ts = np.linspace(0.0, self.path.t0, 101)
        return SIGMA0_SAFETY * (
            abs(self.pair.tau.imag) * float(np.max(self.path.kappa(ts))))

    def mode_initial(self, n: int) -> np.ndarray:
        params = modes.default_params(self.profile, n)
        return params.eps * params.bump().f(self.y)


# ---------------------------------------------------------------------------
# subcommands


def cmd_eigen(cfg: dict, out: Path) -> int:
    """The closed-form eigenpair, sampled and checked; it reads no config."""
    prob = eigen.DispersionProblem()
    pair = eigen.find_tau(prob)
    samples = eigen.sample_profile(pair, prob)
    # the one shot: Newton on the refined problem, seeded at the closed form
    refined, tails = eigen.find_root(
        dataclasses.replace(prob, Z=1.5 * prob.Z, rtol=prob.rtol / 100),
        seed_tau=pair.tau)
    drift = abs(refined - pair.tau)
    oracle_gap = abs(eigen.matrix_eigenvalues(prob, pair.tau) - pair.tau)
    artifact = samples.to_jsonable()
    artifact["match_defect"] = float(
        np.max(np.abs(eigen.tails_defect(*tails))))
    artifact["refinement_drift"] = drift
    artifact["matrix_oracle_gap"] = oracle_gap
    write_json(out / "eigenpair.json", artifact)
    V, W = samples.V[::10], samples.W[::10]
    write_csv(out / "V_profile.csv", "z,V_re,V_im,W_re,W_im",
              "%.9g" + ",%.12g" * 4,
              (samples.z_grid[::10], V.real, V.imag, W.real, W.imag))
    print(f"eigen: tau = {pair.tau:.12f}  "
          f"residual = {samples.residual_norm:.2e}  "
          f"oracle gap = {oracle_gap:.2e}  drift = {drift:.2e}")
    return 0


def cmd_heat(cfg: dict, out: Path) -> int:
    pipe = Pipeline(cfg)
    # the CSV's rows: u_s and its first two y-derivatives
    field = heat.solve_heat(pipe.flow, pipe.y, pipe.t_grid, max_order=2)
    t_probe = float(pipe.t_grid[len(pipe.t_grid) // 2])
    resid = heat.heat_residual_probe(pipe.flow,
                                     max(t_probe, pipe.t_grid[1]),
                                     pipe.y[:: max(1, pipe.y.size // 48)])
    nt, ny = field.us.shape
    write_csv(out / "heat_field.csv", "t,y,u_s,dy_u_s,d2y_u_s",
              ",".join(["%.12g"] * 5),
              (np.repeat(pipe.t_grid, ny), np.tile(pipe.y, nt),
               field.us.ravel(), field.dy_us.ravel(), field.d2y_us.ravel()))
    write_json(out / "heat_report.json", {
        "heat_residual_probe": resid,
        "max_principle_gap": field.max_principle_gap(),
        "wall_max": float(np.max(np.abs(field.us[:, 0]))),
        "far_field_gap": float(np.max(np.abs(field.us[:, -1] - field.U0))),
    })
    print(f"heat: residual probe = {resid:.2e}")
    return 0


def cmd_mode(cfg: dict, out: Path) -> int:
    pipe = Pipeline(cfg)
    t = min(MODE_T, pipe.path.t0)
    params = modes.default_params(pipe.profile, MODE_N)
    # one kernel row set, at t, from the path's flow
    mode = modes.assemble_mode(params, pipe.path, pipe.pair, t, pipe.y)
    res = modes.residual(mode)
    jumps = mode.jump_report(pipe.pair)
    c = mode.components
    write_csv(out / "mode_field.csv",
              "y,U_re,U_im,V_re,V_im,vreg_re,vreg_im,vsl_re,vsl_im,corrector",
              ",".join(["%.12g"] * 10),
              (mode.y, mode.U.real, mode.U.imag, mode.V.real, mode.V.imag,
               np.real(c["v_reg"]), np.imag(c["v_reg"]), np.real(c["v_sl"]),
               np.imag(c["v_sl"]), c["vtilde"]))
    write_csv(out / "residual_field.csv",
              "y,R_re,R_im,Rbar_re,Rbar_im,Rtilde_re,Rtilde_im",
              ",".join(["%.12g"] * 7),
              (mode.y, res.R.real, res.R.imag, res.Rbar.real, res.Rbar.imag,
               res.Rtilde.real, res.Rtilde.imag))
    write_json(out / "mode_report.json", {
        "n": MODE_N, "t": t,
        "w_eps": [mode.w_eps.real, mode.w_eps.imag],
        "jump_cancellation": {k: float(v) for k, v in jumps.items()},
        "residual_sup": float(np.max(np.abs(res.R))),
        "initial_norm_over_eps": {
            str(a): (modes.initial_tangential_norm(params, pipe.y, a)
                     / params.eps)
            for a in (0.0, 1.0, 2.0)},
    })
    print(f"mode: n={MODE_N} t={t} jumpV={jumps['V']:.2e} "
          f"dyV={jumps['dyV']:.2e}")
    return 0


def cmd_residual_scan(cfg: dict, out: Path) -> int:
    pipe = Pipeline(deep_merge(cfg,
                               {"profile": cfg["residual_scan"]["profile"]}))
    sigma0 = pipe.sigma0()
    times = [t for t in RESIDUAL_TS if t <= pipe.path.t0]
    # one kernel row set per scan time, read for every n
    us_rows = {t: pipe.flow.derivs(t, pipe.y, orders=(0, 1, 2, 3))
               for t in times}
    rows = []
    for n in RESIDUAL_KS:
        params = modes.default_params(pipe.profile, n)
        for t in times:
            mode = modes.assemble_mode(params, pipe.path, pipe.pair, t,
                                       pipe.y, us_rows[t])
            res = modes.residual(mode)
            for alpha in RESIDUAL_ALPHAS:
                nrm = norms.weighted_sup(res.R, pipe.y, alpha)
                damp = float(np.exp(-sigma0 * t * np.sqrt(n)))
                rows.append({"n": int(n), "t": float(t), "alpha": float(alpha),
                             "norm": float(nrm), "damped": float(nrm * damp)})
    verdicts = {}
    ok = True
    for alpha in RESIDUAL_ALPHAS:
        per_eps = {}
        for r in rows:
            if r["alpha"] == alpha:
                per_eps[r["n"]] = max(per_eps.get(r["n"], 0.0), r["damped"])
        vals = list(per_eps.values())
        ratio = max(vals) / min(vals) if min(vals) > 0 else float("inf")
        passed = ratio <= PLATEAU_RATIO
        verdicts[str(alpha)] = {"sup_per_eps": {str(k): v for k, v in per_eps.items()},
                                "ratio": ratio, "pass": passed}
        ok &= passed

    # decay-obstruction comparison: old ansatz diverges in weighted norm on
    # an algebraically decaying profile, the corrector ansatz stays finite
    alg = make_profile("algebraic-bump", {"U0": 1.0, "A": 1.0})
    old_norms, new_norms = {}, {}
    n_ref = RESIDUAL_KS[0]
    pa = modes.default_params(alg, n_ref)
    for ymax in (15.0, 30.0, 60.0):
        yg = np.linspace(0.0, ymax, int(20 * ymax) + 1)
        old = modes.old_frozen_tangential(alg, pipe.pair, 1.0 / n_ref, yg)
        old_norms[str(ymax)] = norms.weighted_sup(old, yg, 1.0)
        new_norms[str(ymax)] = modes.initial_tangential_norm(pa, yg, 1.0)
    report = {"sigma0": sigma0, "rows": rows, "verdicts": verdicts,
              "old_ansatz_weighted_norm": old_norms,
              "corrector_ansatz_weighted_norm": new_norms,
              "pass": bool(ok)}
    write_json(out / "residual_scan.json", report)
    print(f"residual-scan: pass={ok} "
          + " ".join(f"a={a}:{v['ratio']:.3f}" for a, v in verdicts.items()))
    return 0 if ok else 4


def cmd_growth_scan(cfg: dict, out: Path) -> int:
    """Fit sigma(k) from the assembled mode-family amplitudes, write each
    k's log amplitude series (t, log_mode_sl), and record the frozen-operator
    transient amplification alongside.

    The evolved solution of the actual stepper does not reproduce the
    sqrt(k)-rate at small k: the frozen mode operator is spectrally stable
    at desk scale, and its growth is a transient amplification.  The
    transient block reports, for each k of growth.transient_ks, the 2-norm
    of the frozen e^{tA} at t = TRANSIENT_T, its rate log(.)/t and
    that rate over the dispersion prediction |Im tau| kappa(0) sqrt(k); no
    verdict reads it.  The ratio need not be near 1: at the defaults it is
    0.58-0.94 for gaussian-bump and 4.1-4.6 for algebraic-bump at A = 4.
    The sigma(k) fit therefore targets the mode family itself, whose
    envelope integrates the heat solve, the critical path, the eigenvalue,
    and the phase quadrature.  Nothing is stepped: illposedness-probe runs
    the stepper.

    The series runs to t_final = min(GROWTH_T_FINAL, grid.t0), and each
    family's critical path is tracked to t_final alone, not to grid.t0 as
    the pipeline's path is: a family whose curvature vanishes past t_final
    is fitted, and CurvatureVanished (exit 3) fires only inside the series.
    """
    g = cfg["growth"]
    report = {"families": [], "p_band": list(P_BAND),
              "sigma_rel_tol": SIGMA_REL_TOL}
    series = []
    ok = True
    t_final = min(GROWTH_T_FINAL, cfg["grid"]["t0"])
    ts = np.linspace(t_final / 24, t_final, 24)
    for fam in g["families"]:
        # the entry's missing params take its family's defaults
        pipe = Pipeline({**cfg, "profile": {"params": {}, **fam}})
        path = critical_path.track_critical_point(pipe.flow, pipe.profile.a0,
                                                  t_final)
        amps = modes.mode_amplitude_series(pipe.profile, GROWTH_KS, path,
                                           pipe.pair, ts)
        fits = []
        for n, amp in zip(GROWTH_KS, amps):
            fits.append(evolve.growth_row(n, amp["t"], amp["log_sl"], path))
            series.append((amp["t"], np.exp(amp["log_sl"]),
                           f"{fam['family']} k={n}"))
            write_csv(out / f"trajectory_{fam['family']}_k{n}.csv",
                      "t,log_mode_sl", "%.9g,%.12g", (amp["t"], amp["log_sl"]))
        ks = [r["k"] for r in fits]
        sigmas = [r["sigma"] for r in fits]
        try:
            p, p_res = norms.fit_power_law(ks, sigmas)
        except ShearmodesError:
            p, p_res = None, None
        target = abs(pipe.pair.tau.imag) * float(path.kappa(0.0))
        rel_errs = [abs(r["sigma_over_sqrt_k"] - target) / target for r in fits]
        transient = []
        for k in g["transient_ks"]:
            amp_tr = evolve.transient_amplification(pipe.profile, int(k),
                                                    TRANSIENT_T)
            rate = float(np.log(amp_tr) / TRANSIENT_T)
            transient.append({"k": int(k), "t": TRANSIENT_T,
                              "amplification": amp_tr, "rate": rate,
                              "rate_over_prediction":
                                  rate / (target * np.sqrt(k))})
        fam_ok = (p is not None and P_BAND[0] <= p <= P_BAND[1]
                  and all(e <= SIGMA_REL_TOL for e in rel_errs))
        ok &= fam_ok
        report["families"].append({
            "profile": fam, "rows": fits, "power_law_exponent": p,
            "power_law_residual": p_res, "im_tau_phys_0": target,
            "sigma_over_sqrt_k_rel_err": rel_errs,
            "transient_amplification": transient, "pass": bool(fam_ok),
        })
    report["pass"] = bool(ok)
    write_json(out / "growth_report.json", report)
    write_text(out / "growth_curves.svg",
               svg.svg_plot(series, title="mode growing-component amplitude",
                            xlabel="t", ylabel="amplitude"))
    ps = [f["power_law_exponent"] for f in report["families"]]
    print(f"growth-scan: p={ps} pass={ok}")
    return 0 if ok else 4


def cmd_illposedness_probe(cfg: dict, out: Path) -> int:
    pipe = Pipeline(cfg)
    t = min(PROBE_T, pipe.path.t0)
    rate = pipe.sigma0()
    ks = PROBE_KS
    all_rows = evolve.operator_growth_probe(
        pipe.field, ks, [pipe.mode_initial(k) for k in ks],
        min_steps=PROBE_MIN_STEPS, t=t, m=PROBE_M, alpha=PROBE_ALPHA,
        sigmas=[f * rate for f in PROBE_SIGMA_FACTORS], mu=PROBE_MU)
    verdicts = {}
    series = []
    kx = np.array(ks, float)
    for i, f in enumerate(PROBE_SIGMA_FACTORS):
        rows = all_rows[i * len(ks):(i + 1) * len(ks)]
        for r in rows:
            r["sigma_factor"] = f
        cert = [r["rho_cert"] for r in rows]
        spec_rho = [r["rho"] for r in rows]
        series.append((kx, np.array(cert), f"rho_cert sigma={f}r"))
        series.append((kx, np.array(spec_rho), f"rho sigma={f}r"))
        if f < 1.0:
            increasing = all(b > a for a, b in zip(cert, cert[1:]))
            gain = cert[-1] / cert[0]
            needed = float(np.exp(0.25 * rate * t
                                  * (np.sqrt(ks[-1]) - np.sqrt(ks[0]))))
            verdicts[f"sigma={f}*rate"] = {
                "quantity": "rho_cert", "increasing": increasing,
                "gain": gain, "needed_gain": needed,
                "pass": bool(increasing and gain >= needed)}
        else:
            nonincreasing = all(b <= a * (1 + 1e-9)
                                for a, b in zip(spec_rho, spec_rho[1:]))
            verdicts[f"sigma={f}*rate"] = {
                "quantity": "rho", "nonincreasing": nonincreasing,
                "pass": bool(nonincreasing)}
    ok = all(v["pass"] for v in verdicts.values())
    write_json(out / "probe_report.json", {
        "rate": rate, "t": t, "rows": all_rows, "verdicts": verdicts,
        "pass": bool(ok)})
    write_text(out / "probe_rho.svg",
               svg.svg_plot(series, title="ill-posedness probe", xlabel="k",
                            ylabel="rho"))
    print("illposedness-probe: "
          + " ".join(f"{k}:{'PASS' if v['pass'] else 'FAIL'}"
                     for k, v in verdicts.items()))
    return 0 if ok else 4


def cmd_all(cfg: dict, out: Path) -> int:
    """Every other command, in _COMMANDS' order, each into its own
    directory under out and each run as main runs it, so a numerical
    failure ends that command alone; the one manifest is out's.  The
    largest exit code is returned."""
    return max(_run(name, cfg, out / name) for name in _COMMANDS
               if name != "all")


_COMMANDS = {
    "eigen": cmd_eigen,
    "heat": cmd_heat,
    "mode": cmd_mode,
    "residual-scan": cmd_residual_scan,
    "growth-scan": cmd_growth_scan,
    "illposedness-probe": cmd_illposedness_probe,
    "all": cmd_all,
}


def _run(command: str, cfg: dict, out: Path) -> int:
    """command's exit code; a numerical failure is written to
    out/error.json, printed as one JSON line, and exits 3."""
    try:
        return _COMMANDS[command](cfg, out)
    except ShearmodesError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        write_json(out / "error.json", error)
        print(json.dumps(error))
        return 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="shearmodes",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", default=None, help="JSON config file")
    ap.add_argument("--out", default="artifacts", help="output directory")
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2

    out = Path(args.out) / args.command
    write_manifest(out, cfg, args.command)
    return _run(args.command, cfg, out)


if __name__ == "__main__":
    sys.exit(main())
