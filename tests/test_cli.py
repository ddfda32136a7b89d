import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shearmodes
from shearmodes import eigen, evolve, heat
from shearmodes.cli import (DEFAULT_CONFIG, Pipeline, deep_merge,
                            load_config, main)
from shearmodes.errors import QuadratureFailure
from shearmodes.heat import HeatFlow

FAST = {
    "grid": {"y_max": 30.0, "ny": 201, "t0": 0.06, "nt": 4},
}


def _write_cfg(tmp_path, extra):
    cfg = deep_merge(FAST, extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_unread_config_keys_are_reported(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "eigen": {"scan_n": [11, 8]}, "bogus": 1,
        "profile": {"params": {"U0": 1.0, "A": 1.0, "B": 3.0}},
        "growth": {"families": [{"family": "gaussian-bump",
                                 "params": {"U0": 1.0}, "extra": 1}]}})
    rc = main(["heat", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    # params and list entries are not walked, so B and extra pass unnamed
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config: keys that nothing reads: eigen, bogus"]
    load_config(_write_cfg(tmp_path, {}))
    assert capsys.readouterr().err == ""


# the keys that are constants now, with the value each had, and the name the
# stderr line gives them: a section with no key left is named whole
REMOVED_KEYS = [
    ("eigen.Z", 12.0, "eigen"), ("eigen.dz", 1e-3, "eigen"),
    ("eigen.rtol", 1e-10, "eigen"), ("path.dt", 2e-3, "path"),
    ("path.floor_frac", 0.1, "path"), ("mode.f_width", 2.0, None),
    ("solver.scheme", "imex-cn", None), ("solver.c_cfl", 0.5, None),
    ("growth.window", [0.2, 0.9], None),
    ("growth.p_band", [0.45, 0.55], None),
    ("growth.sigma_rel_tol", 0.15, None),
    ("residual_scan.plateau_ratio", 1.5, None), ("probe.m", 2, None),
    ("probe.alpha", 1.0, None), ("probe.mu", 0.25, None),
    ("sigma0_safety", 1.1, None)]


@pytest.mark.parametrize("key, value, named", REMOVED_KEYS,
                         ids=[k for k, _, _ in REMOVED_KEYS])
def test_removed_config_key_is_named_and_dropped(tmp_path, capsys, key,
                                                 value, named):
    *sections, leaf = key.split(".")
    extra = {leaf: value}
    for section in reversed(sections):
        extra = {section: extra}
    cfg = load_config(_write_cfg(tmp_path, extra))
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config: keys that nothing reads: {named or key}"]
    for section in sections:
        cfg = cfg.get(section, {})
    assert leaf not in cfg


def _leaves(cfg, prefix=""):
    """Dotted names of cfg's settable values; a profile's params is one."""
    for k, v in cfg.items():
        if isinstance(v, dict) and k != "params":
            yield from _leaves(v, f"{prefix}{k}.")
        else:
            yield prefix + k


def test_config_surface_is_pinned():
    # a new key is added on purpose: here, and in the README's config
    # paragraph
    assert sorted(_leaves(DEFAULT_CONFIG)) == [
        "grid.nt", "grid.ny", "grid.t0", "grid.y_max",
        "growth.families", "growth.n_list", "growth.t_final",
        "growth.transient_ks", "growth.transient_t",
        "mode.n", "mode.t_snapshot",
        "probe.ks", "probe.sigma_factors", "probe.t",
        "profile.family", "profile.params",
        "residual_scan.alphas", "residual_scan.n_list",
        "residual_scan.profile.family", "residual_scan.profile.params",
        "residual_scan.t_list", "solver.min_steps"]


def _fresh_run(code, tmp_path):
    """The scipy modules in sys.modules after code runs in a fresh
    interpreter, and the modules of the package whose code ran.  The package
    registers its submodules unloaded, so sys.modules names every one of
    them; an exec audit hook sees which of them ran."""
    script = ("import json, os, sys\nran = []\n"
              "sys.addaudithook(lambda event, args: event == 'exec' and "
              "ran.append(getattr(args[0], 'co_filename', '')))\n"
              f"{code}\n"
              "import shearmodes\n"
              "pkg = os.path.dirname(shearmodes.__file__)\n"
              "print(json.dumps([sorted(m for m in sys.modules "
              "if m.startswith('scipy')), sorted(os.path.basename(f)[:-3] "
              "for f in ran if os.path.dirname(f) == pkg)]))")
    src = str(Path(shearmodes.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _scipy_loaded(code, tmp_path):
    return _fresh_run(code, tmp_path)[0]


def _package_run(code, tmp_path):
    return _fresh_run(code, tmp_path)[1]


def _command_code(tmp_path, command, extra=None, codes=(0,)):
    cfg = _write_cfg(tmp_path, extra or {})
    return ("from shearmodes.cli import main\n"
            f"assert main([{command!r}, '--config', {cfg!r}, '--out', 'o']) "
            f"in {codes!r}")


def _command_scipy_loaded(tmp_path, command, extra=None, codes=(0,)):
    return _scipy_loaded(_command_code(tmp_path, command, extra, codes),
                         tmp_path)


# what load_config needs, and all that start-up runs of the package
START_UP = ["__init__", "cli", "errors", "profiles", "special"]


def test_import_and_config_load_run_only_the_config_layers(tmp_path):
    code = "import shearmodes.cli\nshearmodes.cli.load_config(None)"
    assert _package_run(code, tmp_path) == START_UP


@pytest.mark.parametrize("command, own, skipped", [
    ("eigen", "eigen", {"heat", "path", "modes", "evolve", "norms", "svg"}),
    ("heat", "heat", {"eigen", "path", "modes", "evolve", "norms", "svg"}),
    ("mode", "modes", {"evolve", "svg"})])
def test_command_runs_only_its_layers(tmp_path, command, own, skipped):
    ran = _package_run(_command_code(tmp_path, command), tmp_path)
    assert own in ran
    assert not skipped & set(ran)


def test_import_and_config_load_no_heavy_scipy(tmp_path):
    # erf and erfc are the package's own: start-up loads no scipy at all
    code = "import shearmodes.cli\nshearmodes.cli.load_config(None)"
    assert _scipy_loaded(code, tmp_path) == []


def test_heat_command_loads_neither_integrate_nor_optimize(tmp_path):
    assert _command_scipy_loaded(tmp_path, "heat") == []


def test_mode_command_loads_no_heavy_scipy(tmp_path):
    # the production eigenpair is the closed form: no shot, no oracle
    assert _command_scipy_loaded(tmp_path, "mode") == []


def test_residual_scan_loads_no_scipy(tmp_path):
    assert _command_scipy_loaded(tmp_path, "residual-scan") == []


def _lapack_alone(loaded):
    """Whether loaded holds scipy's LAPACK extension and nothing else of the
    scipy.linalg package, the package's own __init__ included."""
    return [m for m in loaded if m.startswith("scipy.linalg")] == [
        "scipy.linalg._flapack"]


def test_probe_command_loads_neither_integrate_nor_optimize(tmp_path):
    # the stepper's tridiagonal solves need LAPACK and nothing else of scipy
    loaded = _command_scipy_loaded(tmp_path, "illposedness-probe",
                                   {"probe": {"ks": [32, 64]}}, codes=(0, 4))
    assert _lapack_alone(loaded)
    for name in ("scipy.special", "scipy.integrate", "scipy.optimize"):
        assert name not in loaded


def test_eigen_loads_no_scipy(tmp_path):
    # the shot is a Taylor series and the collocation oracle numpy's inverse
    assert _command_scipy_loaded(tmp_path, "eigen") == []


def test_growth_scan_loads_neither_special_integrate_nor_optimize(tmp_path):
    # the scan needs only LAPACK, for the band solves of the transient
    # amplification
    loaded = _command_scipy_loaded(
        tmp_path, "growth-scan",
        {"growth": {"n_list": [16, 32], "transient_ks": [16]}}, codes=(0, 4))
    assert _lapack_alone(loaded)
    for name in ("scipy.special", "scipy.integrate", "scipy.optimize",
                 "scipy.sparse"):
        assert name not in loaded


@pytest.mark.parametrize("first", ["loader", "scipy.linalg"])
def test_lapack_loader_and_scipy_linalg_share_one_extension(tmp_path, first):
    # the tests' scipy oracles and the package must call the same LAPACK
    # functions whichever of them loads the extension first
    loader = "lapack = _lapack()\n"
    package = "import scipy.linalg.lapack as sl\n"
    code = ("import sys\nfrom shearmodes.evolve import _lapack\n"
            + (loader + package if first == "loader" else package + loader)
            + "ext = sys.modules['scipy.linalg._flapack']\n"
            "for name in ('zgttrf', 'zgttrs', 'zgbtrf', 'zgbtrs'):\n"
            "    assert getattr(lapack, name) is getattr(sl, name)\n"
            "    assert getattr(lapack, name) is getattr(ext, name)\n"
            "assert _lapack() is lapack is ext")
    assert "scipy.linalg" in _scipy_loaded(code, tmp_path)


def test_lapack_loader_names_the_paths_it_searched(tmp_path):
    # a scipy without the extension is an ImportError, not a fall-back to
    # the scipy.linalg package
    code = ("import scipy\n"
            f"scipy.__path__ = [{str(tmp_path)!r}]\n"
            "from shearmodes.evolve import _lapack\n"
            "try:\n"
            "    _lapack()\n"
            "except ImportError as exc:\n"
            "    message = str(exc)\n"
            "expected = "
            f"{str(tmp_path / 'linalg')!r}\n"
            "assert message == ('no scipy.linalg._flapack extension in '\n"
            "                   + repr([expected])), message")
    assert "scipy.linalg._flapack" not in _scipy_loaded(code, tmp_path)


def _probe_rows(tmp_path, name, extra):
    cfg = _write_cfg(tmp_path, extra)
    rc = main(["illposedness-probe", "--config", cfg,
               "--out", str(tmp_path / name)])
    assert rc in (0, 4)
    path = tmp_path / name / "illposedness-probe" / "probe_report.json"
    return json.loads(path.read_text())["rows"]


ORACLES = ("inviscid_exact", "dirichlet_heat_kernel", "frozen_field",
           "frozen_mode_operator", "dense_collocation_eigenvalues")


def test_src_holds_no_oracle():
    # the oracles check src, so src must not define them
    src = Path(shearmodes.__file__).resolve().parent
    defined = {node.name for p in src.glob("*.py")
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert [n for n in ORACLES if n in defined] == []


def test_probe_honours_solver_c_cfl(tmp_path):
    # at these k the step is CFL-limited, so the stepper must check it
    # against the same C_CFL that chose it
    rows = _probe_rows(tmp_path, "o", {
        "probe": {"ks": [4096, 8192], "sigma_factors": [2.0]}})
    assert [r["k"] for r in rows] == [4096, 8192]


def test_probe_steps_one_batch_at_the_largest_k_dt(monkeypatch, tmp_path):
    # the probe evolves all its ks in one call, at the largest k's step: on
    # this grid the CFL bound makes it smaller than the other k's
    calls = []
    evolve_orig = evolve.evolve

    def counted(state0, field, dt, *args, **kwargs):
        calls.append((state0.k, dt))
        return evolve_orig(state0, field, dt, *args, **kwargs)

    monkeypatch.setattr(evolve, "evolve", counted)
    extra = {"probe": {"ks": [4096, 8192], "sigma_factors": [2.0]}}
    _probe_rows(tmp_path, "o", extra)
    cfg = load_config(_write_cfg(tmp_path, extra))
    pipe = Pipeline(cfg)
    t = min(cfg["probe"]["t"], pipe.path.t0)
    dt = {k: evolve.auto_dt(k, pipe.field, t,
                            min_steps=cfg["solver"]["min_steps"])
          for k in (4096, 8192)}
    assert dt[8192] < dt[4096]
    assert calls == [((4096, 8192), dt[8192])]


def test_only_eigen_samples_the_eigenprofile(monkeypatch, tmp_path):
    # mode and residual-scan read the closed-form pair and never its samples
    sample = eigen.sample_profile
    calls = []

    def refuse(pair, problem):
        raise AssertionError("the eigenprofile was sampled")

    def counted(pair, problem):
        calls.append(problem)
        return sample(pair, problem)

    monkeypatch.setattr(eigen, "sample_profile", refuse)
    cfg = _write_cfg(tmp_path, {})
    out = str(tmp_path / "o")
    assert main(["mode", "--config", cfg, "--out", out]) == 0
    assert main(["residual-scan", "--config", cfg, "--out", out]) in (0, 4)
    monkeypatch.setattr(eigen, "sample_profile", counted)
    assert main(["eigen", "--config", cfg, "--out", out]) == 0
    assert len(calls) == 1


def test_default_config_is_valid():
    cfg = load_config(None)
    assert cfg["profile"]["family"] == "gaussian-bump"


def test_unknown_family_is_config_error(tmp_path):
    cfg = _write_cfg(tmp_path, {"profile": {"family": "bogus"}})
    rc = main(["heat", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("extra", [
    {"grid": {"ny": "x"}}, {"probe": {"ks": 5}}, {"probe": {"ks": [32, True]}},
    # a profile param of "x" made heat exit 1 with UFuncNoLoopError, and
    # null with TypeError, and neither wrote error.json
    {"profile": {"params": {"A": "x"}}}, {"profile": {"params": {"A": None}}},
    {"growth": {"families": [{"family": "gaussian-bump",
                              "params": {"A": None}}]}},
    {"residual_scan": {"profile": {"params": {"A": "x"}}}}],
    ids=["ny-str", "ks-int", "ks-bool", "param-str", "param-null",
         "family-param-null", "residual-scan-param-str"])
def test_wrong_value_type_is_config_error(tmp_path, capsys, extra):
    cfg = _write_cfg(tmp_path, extra)
    rc = main(["heat", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert not (tmp_path / "o").exists()


def test_fewer_than_four_field_times_is_config_error(tmp_path, capsys):
    # the stepper interpolates u_s cubically in t between the field's slices
    cfg = _write_cfg(tmp_path, {"grid": {"nt": 3}})
    rc = main(["heat", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ValueError",
                   "message": "grid.nt must be at least 4, got 3"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, extra, message", [
    ("illposedness-probe", {"probe": {"t": 0}},
     "probe.t must be positive, got 0"),
    ("illposedness-probe", {"probe": {"t": -0.05}},
     "probe.t must be positive, got -0.05"),
    ("illposedness-probe", {"solver": {"min_steps": 0}},
     "solver.min_steps must be at least 1, got 0"),
    ("illposedness-probe", {"solver": {"min_steps": -5}},
     "solver.min_steps must be at least 1, got -5"),
    ("heat", {"grid": {"t0": 0}, "residual_scan": {"t_list": [0.0]}},
     "grid.t0 must be positive, got 0"),
    ("heat", {"grid": {"y_max": 0}}, "grid.y_max must be positive, got 0"),
    ("illposedness-probe", {"grid": {"ny": 4}},
     "grid.ny must be at least 5, got 4"),
    ("mode", {"grid": {"ny": 1}}, "grid.ny must be at least 5, got 1"),
    ("residual-scan", {"residual_scan": {"n_list": [0, 64]}},
     "wavenumbers must be positive integers, got 0")],
    ids=["probe-t-zero", "probe-t-negative", "min-steps-zero",
         "min-steps-negative", "t0-zero", "y-max-zero", "ny-4", "ny-1",
         "residual-n-zero"])
def test_value_no_run_can_use_is_config_error(tmp_path, capsys, command,
                                              extra, message):
    # each of these crashed with a traceback, or ran on degenerate data and
    # wrote verdicts on it
    cfg = _write_cfg(tmp_path, extra)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": message}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("growth, message", [
    ({"transient_t": 0}, "growth.transient_t must be positive, got 0"),
    ({"transient_t": -0.01}, "growth.transient_t must be positive, got -0.01"),
    ({"transient_ks": [-256]},
     "wavenumbers must be positive integers, got -256")],
    ids=["transient-t-zero", "transient-t-negative", "transient-k-negative"])
def test_bad_transient_input_is_config_error(tmp_path, capsys, growth,
                                             message):
    # t = 0 would write rate = log(amplification) / 0; the contour has no
    # rule for t < 0 or k < 1
    cfg = _write_cfg(tmp_path, {"growth": growth})
    rc = main(["growth-scan", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": message}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("probe, message", [
    ({"ks": [512, 32]}, "probe.ks must be two or more strictly increasing "
                        "wavenumbers, got [512, 32]"),
    ({"ks": [64]}, "probe.ks must be two or more strictly increasing "
                   "wavenumbers, got [64]"),
    ({"ks": [32, 32]}, "probe.ks must be two or more strictly increasing "
                       "wavenumbers, got [32, 32]")],
    ids=["decreasing", "single", "repeated"])
def test_probe_ks_not_increasing_is_config_error(tmp_path, capsys, probe,
                                                 message):
    # the sigma = 0.5 rate verdict reads "increasing" and the gain in list
    # order: [512, 32] passed it with a gain of 3.33 against 0.78, and [64]
    # passed both verdicts with a gain of 1
    cfg = _write_cfg(tmp_path, {"probe": probe})
    rc = main(["illposedness-probe", "--config", cfg,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": message}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, extra, name", [
    ("illposedness-probe", {"probe": {"sigma_factors": []}},
     "probe.sigma_factors"),
    ("residual-scan", {"residual_scan": {"alphas": []}},
     "residual_scan.alphas"),
    ("residual-scan", {"residual_scan": {"n_list": []}},
     "residual_scan.n_list")],
    ids=["sigma-factors", "alphas", "n-list"])
def test_empty_verdict_list_is_config_error(tmp_path, capsys, command, extra,
                                            name):
    # with no verdicts the probe exited 0 and residual-scan wrote
    # "pass": true; an empty n_list crashed with a ValueError
    cfg = _write_cfg(tmp_path, extra)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": f"{name} must not be empty"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n_list", [[64], [64, 64]], ids=["one", "repeated"])
def test_residual_scan_one_wavenumber_is_config_error(tmp_path, capsys,
                                                      n_list):
    # each plateau verdict compared the one n's damped norm with itself, so
    # it wrote "pass": true and exited 0 whatever the residual was
    cfg = _write_cfg(tmp_path, {"residual_scan": {"n_list": n_list}})
    rc = main(["residual-scan", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ValueError",
                   "message": "residual_scan.n_list must have two or more "
                              f"distinct entries, got {n_list}"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, extra, message", [
    ("residual-scan", {"residual_scan": {"t_list": [-0.01, 0.02]}},
     "residual_scan.t_list must not be negative, got -0.01"),
    ("mode", {"mode": {"t_snapshot": -0.01}},
     "mode.t_snapshot must not be negative, got -0.01"),
    ("growth-scan", {"growth": {"t_final": -0.01}},
     "growth.t_final must be positive, got -0.01"),
    ("growth-scan", {"growth": {"t_final": 0}},
     "growth.t_final must be positive, got 0")],
    ids=["t-list-negative", "t-snapshot-negative", "t-final-negative",
         "t-final-zero"])
def test_time_before_the_start_is_config_error(tmp_path, capsys, command,
                                               extra, message):
    # each of these ran to a numerical failure (exit 3) instead
    cfg = _write_cfg(tmp_path, extra)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": message}
    assert not (tmp_path / "o").exists()


def test_residual_scan_times_all_past_horizon_is_config_error(tmp_path,
                                                               capsys):
    # each t beyond grid.t0 is skipped; with none left the verdicts took the
    # max of an empty list
    cfg = _write_cfg(tmp_path, {"residual_scan": {"t_list": [0.5]}})
    rc = main(["residual-scan", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ValueError",
                   "message": "residual_scan.t_list has no t <= grid.t0: [0.5]"}
    assert not (tmp_path / "o").exists()


def test_bad_json_is_config_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    rc = main(["heat", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_heat_command_writes_deterministic_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, {})
    outs = []
    for sub in ("a", "b"):
        rc = main(["heat", "--config", cfg, "--out", str(tmp_path / sub)])
        assert rc == 0
        outs.append((tmp_path / sub / "heat").joinpath)
    for name in ("heat_field.csv", "heat_report.json", "manifest.json"):
        b1 = outs[0](name).read_bytes()
        b2 = outs[1](name).read_bytes()
        assert b1 == b2, name


def test_heat_report_contents(tmp_path):
    cfg = _write_cfg(tmp_path, {})
    rc = main(["heat", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    rep = json.loads((tmp_path / "o" / "heat" / "heat_report.json").read_text())
    assert rep["heat_residual_probe"] < 1e-6
    assert rep["wall_max"] == 0.0
    man = json.loads((tmp_path / "o" / "heat" / "manifest.json").read_text())
    assert "config_sha256" in man and "package_version" in man


def test_mode_command_on_a_vanishing_curvature_exits_3(tmp_path):
    # the shallow bump's curvature falls below the floor at t = 0.046, inside
    # the grid's t0 = 0.06
    cfg = _write_cfg(tmp_path, {"profile": {"family": "gaussian-bump",
                                            "params": {"U0": 1.0, "A": 0.62}}})
    rc = main(["mode", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    err = json.loads((tmp_path / "o" / "mode" / "error.json").read_text())
    assert err["error"] == "CurvatureVanished"
    assert "at t=0.0460" in err["message"]


@pytest.mark.slow
def test_eigen_command_default_artifact(tmp_path):
    cfg = _write_cfg(tmp_path, {})
    rc = main(["eigen", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    out = tmp_path / "o" / "eigen"
    art = json.loads((out / "eigenpair.json").read_text())
    assert art["tau_im"] < 0
    assert art["residual_norm"] < 1e-8
    assert art["matrix_oracle_gap"] < 1e-4
    assert art["refinement_drift"] < 1e-6
    # eigenpair.json holds the scalars; the samples live in V_profile.csv
    assert not [k for k, v in art.items() if isinstance(v, list)]
    lines = (out / "V_profile.csv").read_text().splitlines()
    assert lines[0] == "z,V_re,V_im,W_re,W_im"
    prob = eigen.DispersionProblem()
    W = eigen.sample_profile(eigen.find_tau(prob), prob).W[::10]
    assert len(lines) == 1 + W.size
    assert [line.split(",")[3:] for line in lines[1:]] == [
        [f"{w.real:.12g}", f"{w.imag:.12g}"] for w in W]


def test_growth_scan_steps_nothing(monkeypatch, tmp_path):
    # the fit reads the assembled mode family; no trajectory is evolved
    def refuse(*args, **kwargs):
        raise AssertionError("growth-scan called the stepper")

    monkeypatch.setattr(evolve, "step", refuse)
    cfg = _write_cfg(tmp_path, {})
    assert main(["growth-scan", "--config", cfg,
                 "--out", str(tmp_path / "o")]) in (0, 4)
    csvs = sorted((tmp_path / "o" / "growth-scan").glob("trajectory_*.csv"))
    assert len(csvs) == 8
    for path in csvs:
        assert path.read_text().splitlines()[0] == "t,log_mode_sl"
    # the verdict's band and tolerance are constants, and the report
    # records them
    rep = json.loads(
        (tmp_path / "o" / "growth-scan" / "growth_report.json").read_text())
    assert rep["p_band"] == [0.45, 0.55]
    assert rep["sigma_rel_tol"] == 0.15


def test_growth_scan_checks_the_quadrature_without_sampling_a_field(
        monkeypatch, tmp_path):
    # the path is all growth-scan reads of the heat flow, and it gets
    # solve_heat's panel-doubling check at solve_heat's (t, y) points
    def refuse(*args, **kwargs):
        raise AssertionError("growth-scan sampled a heat field")

    probes = []

    def wide_gap(self, t, y):
        probes.append((t, np.asarray(y).tolist()))
        return 1.0

    solve_heat = heat.solve_heat
    monkeypatch.setattr(heat, "solve_heat", refuse)
    monkeypatch.setattr(HeatFlow, "quadrature_gap", wide_gap)
    cfg = _write_cfg(tmp_path, {})
    out = tmp_path / "o"
    assert main(["growth-scan", "--config", cfg, "--out", str(out)]) == 3
    err = json.loads((out / "growth-scan" / "error.json").read_text())
    assert err == {"error": "QuadratureFailure",
                   "message": "panel-doubling disagreement 1.00e+00 > 1.00e-08"}
    pipe = Pipeline(load_config(cfg))
    with pytest.raises(QuadratureFailure):
        solve_heat(pipe.profile, pipe.y, pipe.t_grid)
    assert len(probes) == 2 and probes[0] == probes[1]


def test_profile_with_only_a_minimum_exits_3_where_the_path_is_tracked(
        tmp_path):
    # the algebraic bump with A = -1 has one critical point, a minimum at
    # y = 0.414 with U'' = +2.06; heat and eigen never track the path
    cfg = _write_cfg(tmp_path, {"profile": {"family": "algebraic-bump",
                                            "params": {"U0": 1.0, "A": -1.0}}})
    out = tmp_path / "o"
    for command in ("mode", "illposedness-probe"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        err = json.loads((out / command / "error.json").read_text())
        assert err["error"] == "NoCriticalPoint"
    for command in ("heat", "eigen"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0


def test_pipeline_shares_field_and_path():
    cfg = load_config(None)
    cfg = deep_merge(cfg, FAST)
    pipe = Pipeline(cfg)
    assert pipe.field is pipe.field
    assert pipe.path is pipe.path


def test_mode_initial_data_is_eps_linear():
    cfg = deep_merge(load_config(None), FAST)
    pipe = Pipeline(cfg)
    u64 = pipe.mode_initial(64)
    u128 = pipe.mode_initial(128)
    assert np.max(np.abs(2.0 * u128 - u64)) < 1e-15
