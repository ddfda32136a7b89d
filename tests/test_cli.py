import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shearmodes
from shearmodes import cli, eigen, evolve, heat
from shearmodes.cli import (DEFAULT_CONFIG, GROWTH_T_FINAL, PROBE_KS,
                            PROBE_MIN_STEPS, PROBE_SIGMA_FACTORS, PROBE_T,
                            Pipeline, deep_merge, load_config, main)
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
    ("path.floor_frac", 0.1, "path"), ("mode.f_width", 2.0, "mode"),
    ("solver.scheme", "imex-cn", "solver"), ("solver.c_cfl", 0.5, "solver"),
    ("growth.window", [0.2, 0.9], None),
    ("growth.p_band", [0.45, 0.55], None),
    ("growth.sigma_rel_tol", 0.15, None),
    ("residual_scan.plateau_ratio", 1.5, None), ("probe.m", 2, "probe"),
    ("probe.alpha", 1.0, "probe"), ("probe.mu", 0.25, "probe"),
    ("sigma0_safety", 1.1, None),
    ("probe.ks", [32, 64, 128, 256, 512], "probe"), ("probe.t", 0.1, "probe"),
    ("probe.sigma_factors", [0.5, 2.0], "probe"),
    ("growth.n_list", [32, 64, 128, 256], None),
    ("growth.t_final", 0.03, None),
    ("residual_scan.n_list", [64, 128, 256, 512], None),
    ("residual_scan.t_list", [0.02, 0.05, 0.08], None),
    ("residual_scan.alphas", [0.0, 1.0, 2.0], None),
    ("solver.min_steps", 240, "solver"), ("mode.n", 64, "mode"),
    ("mode.t_snapshot", 0.05, "mode"), ("growth.transient_t", 0.05, None)]


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
        "growth.families", "growth.transient_ks", "profile.family",
        "profile.params", "residual_scan.profile.family",
        "residual_scan.profile.params"]


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
                                   codes=(0, 4))
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
        tmp_path, "growth-scan", {"growth": {"transient_ks": [16]}},
        codes=(0, 4))
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
            "for name in ('zpttrf', 'zpttrs', 'zgbtrf', 'zgbtrs'):\n"
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
           "frozen_mode_operator", "dense_collocation_eigenvalues",
           "advective_phase")


def test_src_holds_no_oracle():
    # the oracles check src, so src must not define them
    src = Path(shearmodes.__file__).resolve().parent
    defined = {node.name for p in src.glob("*.py")
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert [n for n in ORACLES if n in defined] == []


def test_src_names_nothing_in_src_reads():
    # public module-level functions and classes, and public methods, that no
    # Name, Attribute or import in src refers to; a name that only the tests
    # read belongs to the tests
    src = Path(shearmodes.__file__).resolve().parent
    defined, read = [], set()
    for p in sorted(src.glob("*.py")):
        tree = ast.parse(p.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                defined.append((f"{p.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{p.stem}.{node.name}.{m.name}", m.name)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.update((node.name, node.asname))
    assert [q for q, name in defined if name not in read] == []


def test_src_raises_every_error_it_defines():
    # a ShearmodesError subclass with no raise site in src is a failure no
    # run can meet; the names pin above counts an import as a read, so it
    # does not see one
    src = Path(shearmodes.__file__).resolve().parent
    tree = ast.parse((src / "errors.py").read_text())
    errors = [node.name for node in tree.body
              if isinstance(node, ast.ClassDef)
              and any(getattr(b, "id", None) == "ShearmodesError"
                      for b in node.bases)]
    raised = set()
    for p in src.glob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert len(errors) > 10
    assert [e for e in errors if e not in raised] == []


def test_src_reads_every_field_it_stores_but_six():
    # class-body annotations (dataclass fields) and self.X = assignments in
    # __init__ whose attribute src never loads; these six are kept because
    # the tests read them: the eigenprofile's W' and W'' against the shot,
    # the dense tail's z where the tests join the two tails, and the mode's
    # y-derivatives in its equation, divergence identity and W^{2,inf} norm
    src = Path(shearmodes.__file__).resolve().parent
    stored, loaded = [], set()
    for p in sorted(src.glob("*.py")):
        tree = ast.parse(p.read_text())
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    stored.append((p.stem, cls.name, node.target.id))
                elif (isinstance(node, ast.FunctionDef)
                        and node.name == "__init__"):
                    stored += [(p.stem, cls.name, t.attr)
                               for a in ast.walk(node)
                               if isinstance(a, ast.Assign)
                               for t in a.targets
                               if isinstance(t, ast.Attribute)
                               and getattr(t.value, "id", None) == "self"]
        loaded.update(n.attr for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute)
                      and isinstance(n.ctx, ast.Load))
    assert [".".join(f) for f in stored if f[2] not in loaded] == [
        "eigen.TailSolution.z", "eigen.ProfileSamples.W1",
        "eigen.ProfileSamples.W2", "modes.ModeField.dyU",
        "modes.ModeField.d2yU", "modes.ModeField.dyV"]


def _defaulted_parameters(tree, stack):
    """(qualified name, name, parameter, positional index or None, whether
    a method) of each defaulted parameter of each function under tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in m.decorator_list)
                    yield from _defaults_of(m, stack + [node.name],
                                            not static)
        elif isinstance(node, ast.FunctionDef):
            yield from _defaults_of(node, stack, False)


def _defaults_of(fn, stack, method):
    args = fn.args.posonlyargs + fn.args.args
    first = len(args) - len(fn.args.defaults)
    q = ".".join(stack + [fn.name])
    for i, a in enumerate(args[first:], first):
        yield q, fn.name, a.arg, i, method
    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if d is not None:
            yield q, fn.name, a.arg, None, method
    yield from _defaulted_parameters(fn, stack + [fn.name])


def _overrides(call, name, param, index, method):
    """Whether call, matched to the function by its bare name, passes param
    by keyword, by position or through * or **."""
    f = call.func
    if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) != name:
        return False
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    # a method called on an object gets self without a positional argument
    shift = int(method and isinstance(f, ast.Attribute))
    return index is not None and (
        any(isinstance(a, ast.Starred) for a in call.args)
        or index - shift < len(call.args))


def test_src_overrides_every_default_it_defines():
    # a default that no call in src overrides is a setting one value reaches;
    # these four are kept because the tests set them: main's argv runs the
    # CLI in process, shoot_tails' dense gives the tail on the grid that the
    # DOP853 oracle is compared on, evolve's inviscid steps the inviscid
    # exact solution's problem, and transient_amplification's ny gives the
    # grid that the dense matrix exponential can reach
    src = Path(shearmodes.__file__).resolve().parent
    defaults, calls = [], []
    for p in sorted(src.glob("*.py")):
        tree = ast.parse(p.read_text())
        defaults += _defaulted_parameters(tree, [p.stem])
        calls += [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert [f"{q}.{param}" for q, name, param, index, method in defaults
            if not any(_overrides(c, name, param, index, method)
                       for c in calls)] == [
        "cli.main.argv", "eigen.shoot_tails.dense", "evolve.evolve.inviscid",
        "evolve.transient_amplification.ny"]


def test_tracer_targets_resolve():
    # the benchmark's tracer wraps each target by module and name, so a
    # renamed function would fail every traced run; the file is loaded by
    # path and nothing of it is installed
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def resolves(modname, attr):
        mod = importlib.import_module(modname)
        owner, _, name = attr.rpartition(".")
        if owner:
            cls = getattr(mod, owner, None)
            return isinstance(cls, type) and callable(vars(cls).get(name))
        return callable(getattr(mod, name, None))

    assert tracer.TARGETS
    assert [t for t in tracer.TARGETS if not resolves(*t[1:])] == []


def _cfl_limited(monkeypatch):
    # one step may span the probe's whole t (0.06 on the FAST grid), far
    # above the CFL step at its largest k (9.8e-4 at k = 512, where the
    # stepper advects at sup|u_s - c| = 1.0 in the free-stream frame): every
    # k's step is CFL-limited
    monkeypatch.setattr(cli, "PROBE_MIN_STEPS", 1)


def test_probe_honours_solver_c_cfl(monkeypatch, tmp_path):
    # the step is CFL-limited, so evolve's own count, from C_CFL, sets it:
    # the probe runs and writes every row
    _cfl_limited(monkeypatch)
    rows = _probe_rows(tmp_path, "o", {})
    assert [r["k"] for r in rows] == list(PROBE_KS) * len(PROBE_SIGMA_FACTORS)


def test_probe_steps_one_batch_at_the_largest_k_dt(monkeypatch, tmp_path):
    # the probe evolves all its ks in one call and passes only its floor;
    # evolve takes the largest k's count, since with the CFL bound the count
    # rises with k
    calls = []
    evolve_orig = evolve.evolve

    def counted(field, k, u0, t_final, **kwargs):
        calls.append((k, kwargs["min_steps"]))
        return evolve_orig(field, k, u0, t_final, **kwargs)

    monkeypatch.setattr(evolve, "evolve", counted)
    _cfl_limited(monkeypatch)
    _probe_rows(tmp_path, "o", {})
    pipe = Pipeline(load_config(_write_cfg(tmp_path, {})))
    t = min(PROBE_T, pipe.path.t0)
    speed = float(np.max(np.abs(pipe.field.us - pipe.field.us[0, -1])))
    n = [evolve._step_count(k, speed, t, 1) for k in PROBE_KS]
    assert all(b > a for a, b in zip(n, n[1:]))
    assert calls == [(PROBE_KS, 1)]


def test_probe_takes_the_cfl_count_below_its_floor(monkeypatch, tmp_path):
    # with a floor of one step the CFL bound at k = 512 sets the count: 103
    # steps at the defaults, each within 512 sup|u_s - c| dt <= C_CFL
    dts, step = [], evolve.step

    def counted_step(u, dt, **kwargs):
        dts.append(dt)
        return step(u, dt, **kwargs)

    monkeypatch.setattr(evolve, "step", counted_step)
    monkeypatch.setattr(cli, "PROBE_MIN_STEPS", 1)
    assert main(["illposedness-probe", "--out", str(tmp_path)]) == 4
    us = Pipeline(load_config(None)).field.us
    speed = float(np.max(np.abs(us - us[0, -1])))
    assert len(dts) == 103
    assert all(512 * dt * speed <= evolve.C_CFL for dt in dts)


def test_probe_takes_the_step_floor_at_defaults(monkeypatch, tmp_path):
    # at defaults the step floor binds, not the CFL step: the probe's one
    # batch takes PROBE_MIN_STEPS steps and reads PROBE_MIN_STEPS + 1
    # coefficient rows, the benchmark's evolve.step.calls and
    # heat.slice_interp.calls
    steps, rows = [], []
    step, slice_interp = evolve.step, heat.HeatFlowField.slice_interp

    def counted_step(u, dt, **kwargs):
        steps.append(kwargs["k"])
        return step(u, dt, **kwargs)

    def counted_rows(self, t):
        rows.append(t)
        return slice_interp(self, t)

    monkeypatch.setattr(evolve, "step", counted_step)
    monkeypatch.setattr(heat.HeatFlowField, "slice_interp", counted_rows)
    assert main(["illposedness-probe", "--out", str(tmp_path)]) == 4
    assert steps == [PROBE_KS] * PROBE_MIN_STEPS
    assert len(rows) == PROBE_MIN_STEPS + 1
    assert PROBE_MIN_STEPS == 240


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
    {"grid": {"ny": "x"}}, {"growth": {"transient_ks": 5}},
    {"growth": {"transient_ks": [32, True]}},
    # a profile param of "x" made heat exit 1 with UFuncNoLoopError, and
    # null with TypeError, and neither wrote error.json
    {"profile": {"params": {"A": "x"}}}, {"profile": {"params": {"A": None}}},
    {"growth": {"families": [{"family": "gaussian-bump",
                              "params": {"A": None}}]}},
    {"residual_scan": {"profile": {"params": {"A": "x"}}}},
    # json reads NaN and Infinity: y_max NaN made heat exit 1 with
    # "cannot convert float NaN to integer", and A NaN made it exit 0 with
    # NaN in heat_report.json
    {"grid": {"y_max": float("nan")}}, {"grid": {"t0": float("inf")}},
    {"profile": {"params": {"A": float("nan")}}},
    {"growth": {"families": [{"family": "gaussian-bump",
                              "params": {"A": -float("inf")}}]}}],
    ids=["ny-str", "ks-int", "ks-bool", "param-str", "param-null",
         "family-param-null", "residual-scan-param-str", "y-max-nan",
         "t0-inf", "param-nan", "family-param-minus-inf"])
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


# Settings that were config errors where their value was unusable or could
# bend a verdict are constants now: each such setting is named on stderr as
# unread and leaves the run as it is at the constants.  A case of that kind
# gives, in place of an error message, the name the stderr line gives its key.
class Unread(str):
    pass


UNREAD_BASE = {"growth": {
    "families": DEFAULT_CONFIG["growth"]["families"][:1],
    "transient_ks": [64]}}
REPORTS = {"illposedness-probe": "probe_report.json",
           "residual-scan": "residual_scan.json",
           "growth-scan": "growth_report.json", "mode": "mode_report.json"}


@pytest.fixture(scope="module")
def constant_runs(tmp_path_factory):
    """The exit code and report of mode and each verdict command on the FAST
    grid."""
    out = tmp_path_factory.mktemp("constants")
    cfg = _write_cfg(out, UNREAD_BASE)
    runs = {}
    for command, report in REPORTS.items():
        rc = main([command, "--config", cfg, "--out", str(out)])
        runs[command] = (rc, (out / command / report).read_text())
    return runs


def _runs_as_at_the_constants(tmp_path, capsys, constant_runs, command,
                              extra, named):
    cfg = _write_cfg(tmp_path, deep_merge(UNREAD_BASE, extra))
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config: keys that nothing reads: {named}"]
    report = tmp_path / "o" / command / REPORTS[command]
    assert (rc, report.read_text()) == constant_runs[command]


@pytest.mark.parametrize("command, extra, message", [
    ("illposedness-probe", {"probe": {"t": 0}}, Unread("probe")),
    ("illposedness-probe", {"probe": {"t": -0.05}}, Unread("probe")),
    ("illposedness-probe", {"solver": {"min_steps": 0}}, Unread("solver")),
    ("illposedness-probe", {"solver": {"min_steps": -5}}, Unread("solver")),
    ("heat", {"grid": {"t0": 0}}, "grid.t0 must be positive, got 0"),
    ("heat", {"grid": {"y_max": 0}}, "grid.y_max must be positive, got 0"),
    ("illposedness-probe", {"grid": {"ny": 4}},
     "grid.ny must be at least 5, got 4"),
    ("mode", {"grid": {"ny": 1}}, "grid.ny must be at least 5, got 1"),
    ("residual-scan", {"residual_scan": {"n_list": [0, 64]}},
     Unread("residual_scan.n_list")),
    # both entries wrote trajectory_gaussian-bump_k*.csv, the second over
    # the first, and exited 0
    ("growth-scan", {"growth": {"families": [
        {"family": "gaussian-bump", "params": {"U0": 1.0, "A": 1.0}},
        {"family": "gaussian-bump", "params": {"U0": 1.0, "A": 2.0}}]}},
     "growth.families names 'gaussian-bump' twice")],
    ids=["probe-t-zero", "probe-t-negative", "min-steps-zero",
         "min-steps-negative", "t0-zero", "y-max-zero", "ny-4", "ny-1",
         "residual-n-zero", "families-twice"])
def test_value_no_run_can_use_is_config_error(tmp_path, capsys,
                                              constant_runs, command, extra,
                                              message):
    # each of these crashed with a traceback, or ran on degenerate data and
    # wrote verdicts on it
    if isinstance(message, Unread):
        _runs_as_at_the_constants(tmp_path, capsys, constant_runs, command,
                                  extra, message)
        return
    cfg = _write_cfg(tmp_path, extra)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": message}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("growth, message", [
    ({"transient_t": 0}, Unread("growth.transient_t")),
    ({"transient_t": -0.01}, Unread("growth.transient_t")),
    ({"transient_ks": [-256]},
     "wavenumbers must be positive integers, got -256")],
    ids=["transient-t-zero", "transient-t-negative", "transient-k-negative"])
def test_bad_transient_input_is_config_error(tmp_path, capsys, constant_runs,
                                             growth, message):
    # t = 0 would write rate = log(amplification) / 0; the contour has no
    # rule for t < 0 or k < 1
    if isinstance(message, Unread):
        _runs_as_at_the_constants(tmp_path, capsys, constant_runs,
                                  "growth-scan", {"growth": growth}, message)
        return
    cfg = _write_cfg(tmp_path, {"growth": growth})
    rc = main(["growth-scan", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": message}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, extra, name", [
    ("residual-scan", {"residual_scan": {"n_list": []}},
     Unread("residual_scan.n_list")),
    ("growth-scan", {"growth": {"families": []}}, "growth.families")],
    ids=["n-list", "families"])
def test_empty_verdict_list_is_config_error(tmp_path, capsys, constant_runs,
                                            command, extra, name):
    # an empty n_list crashed with a ValueError; growth-scan with no families
    # ran the main profile, while its manifest recorded []
    if isinstance(name, Unread):
        _runs_as_at_the_constants(tmp_path, capsys, constant_runs, command,
                                  extra, name)
        return
    cfg = _write_cfg(tmp_path, extra)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": f"{name} must not be empty"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("probe", [{"ks": [512, 32]}, {"ks": [64]},
                                   {"ks": [32, 32]}],
                         ids=["decreasing", "single", "repeated"])
def test_probe_ks_not_increasing_is_config_error(tmp_path, capsys,
                                                 constant_runs, probe):
    # the sigma = 0.5 rate verdict reads "increasing" and the gain in k
    # order: [512, 32] passed it with a gain of 3.33 against 0.78, and [64]
    # passed both verdicts with a gain of 1
    _runs_as_at_the_constants(tmp_path, capsys, constant_runs,
                              "illposedness-probe", {"probe": probe}, "probe")


@pytest.mark.parametrize("n_list", [[64], [64, 64]], ids=["one", "repeated"])
def test_residual_scan_one_wavenumber_is_config_error(tmp_path, capsys,
                                                      constant_runs, n_list):
    # each plateau verdict compared the one n's damped norm with itself, so
    # it wrote "pass": true and exited 0 whatever the residual was
    _runs_as_at_the_constants(tmp_path, capsys, constant_runs,
                              "residual-scan",
                              {"residual_scan": {"n_list": n_list}},
                              "residual_scan.n_list")


@pytest.mark.parametrize("n_list", [[64], [64, 64], [], [16, 32, 64, 64]],
                         ids=["one", "repeated", "empty", "three-distinct"])
def test_growth_scan_fewer_than_four_wavenumbers_is_config_error(
        tmp_path, capsys, constant_runs, n_list):
    # the power-law fit needs four distinct k: the scan ran to its end and
    # exited 4 with p = None
    _runs_as_at_the_constants(tmp_path, capsys, constant_runs, "growth-scan",
                              {"growth": {"n_list": n_list}}, "growth.n_list")


@pytest.mark.parametrize("command, extra, named", [
    ("mode", {"mode": {"t_snapshot": -0.01}}, "mode"),
    ("growth-scan", {"growth": {"t_final": -0.01}}, "growth.t_final"),
    ("growth-scan", {"growth": {"t_final": 0}}, "growth.t_final")],
    ids=["t-snapshot-negative", "t-final-negative", "t-final-zero"])
def test_time_before_the_start_is_config_error(tmp_path, capsys,
                                               constant_runs, command, extra,
                                               named):
    # each of these ran to a numerical failure (exit 3), and was then a
    # config error until its key became a constant
    _runs_as_at_the_constants(tmp_path, capsys, constant_runs, command,
                              extra, named)


def test_residual_scan_times_all_past_horizon_is_config_error(tmp_path,
                                                               capsys):
    # each scan time beyond grid.t0 is skipped; with none left the verdicts
    # took the max of an empty list
    cfg = _write_cfg(tmp_path, {"grid": {"t0": 0.01}})
    rc = main(["residual-scan", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ValueError",
                   "message": "grid.t0 must be at least 0.02, residual-scan's "
                              "first time, got 0.01"}
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


def test_heat_field_csv_holds_every_grid_point(tmp_path):
    # one row per (t, y) of the grid, t outermost: t, y and the kernel's
    # u_s, d_y u_s and d_y^2 u_s there, each to 12 significant digits
    cfg = _write_cfg(tmp_path, {})
    assert main(["heat", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    csv = tmp_path / "o" / "heat" / "heat_field.csv"
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,y,u_s,dy_u_s,d2y_u_s"
    table = np.array([[float(v) for v in line.split(",")]
                      for line in lines[1:]])
    pipe = Pipeline(load_config(cfg))
    assert table.shape == (pipe.t_grid.size * pipe.y.size, 5)
    ref = heat.solve_heat(HeatFlow(pipe.profile), pipe.y, pipe.t_grid,
                          max_order=2)
    t, y = np.meshgrid(pipe.t_grid, pipe.y, indexing="ij")
    for column, grid in zip(table.T, (t, y, *ref.rows)):
        assert np.array_equal(column, [float(f"{v:.12g}")
                                       for v in grid.ravel()])


def test_heat_report_contents(tmp_path):
    cfg = _write_cfg(tmp_path, {})
    rc = main(["heat", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    rep = json.loads((tmp_path / "o" / "heat" / "heat_report.json").read_text())
    assert rep["heat_residual_probe"] < 1e-6
    assert rep["wall_max"] == 0.0
    man = json.loads((tmp_path / "o" / "heat" / "manifest.json").read_text())
    assert "config_sha256" in man and "package_version" in man


def test_heat_runs_on_a_profile_without_a_critical_point(tmp_path):
    # the heat flow reads the profile's values alone: heat used to locate a
    # critical point first and exit 3 (NoCriticalPoint) on the monotone one
    cfg = _write_cfg(tmp_path, {"profile": {"family": "monotone",
                                            "params": {"U0": 1.0}}})
    assert main(["heat", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    out = tmp_path / "o" / "heat"
    assert not (out / "error.json").exists()
    rep = json.loads((out / "heat_report.json").read_text())
    assert rep["heat_residual_probe"] < 1e-6
    assert rep["wall_max"] == 0.0


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


def test_eigen_reads_no_config(tmp_path):
    # the dispersion problem is the same whatever the profile: eigen used to
    # build a pipeline and exit 3 (NoCriticalPoint) on the monotone profile
    outs = []
    for name, extra in (("empty", {}), ("monotone", {"profile": {
            "family": "monotone", "params": {"U0": 1.0}}})):
        cfg = _write_cfg(tmp_path, extra)
        assert main(["eigen", "--config", cfg,
                     "--out", str(tmp_path / name)]) == 0
        outs.append(tmp_path / name / "eigen")
    for f in ("eigenpair.json", "V_profile.csv"):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f


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
    # the path is all growth-scan reads of the heat flow, and the flow gets
    # the pipeline's panel-doubling check (check_quadrature on its grid)
    def refuse(*args, **kwargs):
        raise AssertionError("growth-scan sampled a heat field")

    probes = []

    def wide_gap(self, t, y):
        probes.append((t, np.asarray(y).tolist()))
        return 1.0

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
        heat.check_quadrature(HeatFlow(pipe.profile), pipe.y, pipe.t_grid)
    assert len(probes) == 2 and probes[0] == probes[1]


ONE_FAMILY = {"families": DEFAULT_CONFIG["growth"]["families"][:1],
              "transient_ks": [64]}


def test_growth_scan_tracks_the_path_to_its_last_time(monkeypatch, tmp_path):
    # the series ends at GROWTH_T_FINAL = 0.03, inside the FAST grid's
    # t0 = 0.06: every single-point kernel call (the path's Newton steps and
    # the series' path points) falls at or before it, and the path's nodes
    # are 2e-3 apart
    times = []
    derivs = HeatFlow.derivs

    def counted(self, t, y, orders=(0, 1, 2, 3, 4)):
        if np.size(y) == 1:
            times.append(t)
        return derivs(self, t, y, orders)

    monkeypatch.setattr(HeatFlow, "derivs", counted)
    cfg = _write_cfg(tmp_path, {"growth": ONE_FAMILY})
    assert main(["growth-scan", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    assert max(times) == GROWTH_T_FINAL
    nodes = np.linspace(0.0, GROWTH_T_FINAL, 16)
    assert set(times) == set(nodes) | set(np.linspace(GROWTH_T_FINAL / 24,
                                                      GROWTH_T_FINAL, 24))


def test_growth_scan_fits_where_the_curvature_vanishes_past_its_series(
        tmp_path):
    # the shallow bump's curvature falls below the floor at t = 0.046 (mode
    # exits 3 on it), past growth-scan's last time 0.03: its path stops
    # there, so the fit runs, and its sigma/sqrt(k) misses the dispersion
    # rate by 18 %, beyond the verdict's 15 %
    fam = {"family": "gaussian-bump", "params": {"U0": 1.0, "A": 0.62}}
    cfg = _write_cfg(tmp_path, {"growth": dict(ONE_FAMILY, families=[fam])})
    out = tmp_path / "o" / "growth-scan"
    assert main(["growth-scan", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 4
    assert not (out / "error.json").exists()
    rep = json.loads((out / "growth_report.json").read_text())["families"][0]
    assert abs(rep["power_law_exponent"] - 0.5) <= 1e-12
    errs = rep["sigma_over_sqrt_k_rel_err"]
    assert [round(e, 3) for e in errs] == [0.183] * 4
    assert rep["pass"] is False


def test_growth_scan_family_params_default_to_the_family(tmp_path):
    # an entry's missing A is the family's own default 1, not the main
    # profile's A = 2 (which gave im_tau_phys_0 0.8289 in place of 0.5297)
    fam = {"family": "gaussian-bump", "params": {"U0": 1.0}}
    growth = dict(ONE_FAMILY, families=[fam])
    reports = []
    for name, profile in (("a2", {"params": {"U0": 1.0, "A": 2.0}}),
                          ("default", {})):
        cfg = _write_cfg(tmp_path, {"profile": profile, "growth": growth})
        out = tmp_path / name
        assert main(["growth-scan", "--config", cfg, "--out", str(out)]) == 0
        reports.append(json.loads(
            (out / "growth-scan" / "growth_report.json").read_text()))
    assert reports[0]["families"] == reports[1]["families"]
    assert reports[0]["families"][0]["profile"] == fam


def _record_kernel_rows(monkeypatch, command):
    """Make solve_heat refuse, and record the (t, orders) of each kernel
    call on the whole y grid and the points of each panel-doubling check."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} sampled a heat field")

    probes, rows = [], []
    gap, derivs = HeatFlow.quadrature_gap, HeatFlow.derivs

    def recorded_gap(self, t, y):
        probes.append((t, np.asarray(y).tolist()))
        return gap(self, t, y)

    def recorded_derivs(self, t, y, orders=(0, 1, 2, 3, 4)):
        if np.size(y) == FAST["grid"]["ny"]:
            rows.append((t, tuple(orders)))
        return derivs(self, t, y, orders)

    monkeypatch.setattr(heat, "solve_heat", refuse)
    monkeypatch.setattr(HeatFlow, "quadrature_gap", recorded_gap)
    monkeypatch.setattr(HeatFlow, "derivs", recorded_derivs)
    return probes, rows


def _checked_once_on_the_grid(probes, cfg):
    """probes are the points of one check_quadrature on the config's grid."""
    pipe = Pipeline(load_config(cfg))
    heat.check_quadrature(HeatFlow(pipe.profile), pipe.y, pipe.t_grid)
    return len(probes) == 2 and probes[0] == probes[1]


def test_mode_evaluates_one_kernel_row_and_samples_no_field(monkeypatch,
                                                          tmp_path):
    # mode reads u_s at t_snapshot alone: one kernel row on the y grid, no
    # field; the pipeline's flow still gets its panel-doubling check
    probes, rows = _record_kernel_rows(monkeypatch, "mode")
    cfg = _write_cfg(tmp_path, {})
    assert main(["mode", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert rows == [(0.05, (0, 1, 2, 3))]
    assert _checked_once_on_the_grid(probes, cfg)


def test_residual_scan_evaluates_one_kernel_row_set_per_time(monkeypatch,
                                                            tmp_path):
    # residual-scan reads u_s at its own times alone: one (0, 1, 2, 3) row
    # set on the y grid per scan time, read for every n, and no field; the
    # pipeline's flow gets its panel-doubling check once
    probes, rows = _record_kernel_rows(monkeypatch, "residual-scan")
    cfg = _write_cfg(tmp_path, {})
    assert main(["residual-scan", "--config", cfg,
                 "--out", str(tmp_path / "o")]) in (0, 4)
    # 0.08 is past the FAST grid's horizon t0 = 0.06, so it is skipped
    assert rows == [(0.02, (0, 1, 2, 3)), (0.05, (0, 1, 2, 3))]
    assert _checked_once_on_the_grid(probes, cfg)


def test_probe_field_holds_the_full_fields_stepper_rows():
    # the stepper reads u_s and d_y u_s, so the probe samples those alone
    pipe = Pipeline(deep_merge(load_config(None), FAST))
    full = heat.solve_heat(HeatFlow(pipe.profile), pipe.y, pipe.t_grid,
                           max_order=3)
    assert len(pipe.field.rows) == 2
    assert np.array_equal(pipe.field.us, full.us)
    assert np.array_equal(pipe.field.dy_us, full.dy_us)


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


COMMANDS = ("eigen", "heat", "mode", "residual-scan", "growth-scan",
            "illposedness-probe")


def test_all_runs_each_command_as_it_runs_alone(tmp_path, capsys):
    # all runs the six commands in order, each into its own directory and
    # byte for byte as a run of that command alone, writes one manifest
    # above them and exits with the largest of their codes: 4, the probe's
    # sigma = 0.5 rate verdict
    cfg = _write_cfg(tmp_path, {"growth": {
        "families": DEFAULT_CONFIG["growth"]["families"][:1],
        "transient_ks": [64]}})
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "a")]) == 4
    printed = [line.split(":")[0]
               for line in capsys.readouterr().out.splitlines()]
    assert printed == list(COMMANDS)
    top = tmp_path / "a" / "all"
    assert sorted(p.relative_to(top) for p in top.rglob("manifest.json")) \
        == [Path("manifest.json")]
    assert sorted(p.name for p in top.iterdir() if p.is_dir()) \
        == sorted(COMMANDS)
    codes = []
    for command in COMMANDS:
        codes.append(main([command, "--config", cfg,
                           "--out", str(tmp_path / "one")]))
        alone, within = tmp_path / "one" / command, top / command
        files = sorted(p.relative_to(within) for p in within.rglob("*")
                       if p.is_file())
        assert files == sorted(p.relative_to(alone) for p in alone.rglob("*")
                               if p.is_file() and p.name != "manifest.json")
        for f in files:
            assert (within / f).read_bytes() == (alone / f).read_bytes(), f
    assert max(codes) == 4


def test_all_runs_every_command_past_a_numerical_failure(tmp_path, capsys):
    # the algebraic bump with A = -1 has only a minimum, so mode and the
    # probe raise NoCriticalPoint; eigen and heat never track the path, and
    # residual-scan and growth-scan read their own profiles.  Each command
    # runs, a failure goes to its own error.json, and all exits 3
    cfg = _write_cfg(tmp_path, {
        "profile": {"family": "algebraic-bump",
                    "params": {"U0": 1.0, "A": -1.0}},
        "growth": {"families": DEFAULT_CONFIG["growth"]["families"][:1],
                   "transient_ks": [64]}})
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "a")]) == 3
    printed = capsys.readouterr().out.splitlines()
    top = tmp_path / "a" / "all"
    assert not (top / "error.json").exists()
    failed = {"mode", "illposedness-probe"}
    for command, line in zip(COMMANDS, printed, strict=True):
        names = [p.name for p in (top / command).iterdir()]
        if command in failed:
            assert names == ["error.json"]
            err = json.loads((top / command / "error.json").read_text())
            assert err["error"] == "NoCriticalPoint"
            assert json.loads(line) == err
        else:
            assert line.startswith(f"{command}:")
            assert "error.json" not in names and names


@pytest.mark.parametrize("command, base, extra, named, report", [
    ("illposedness-probe", {}, {"probe": {"sigma_factors": [-3.0]}}, "probe",
     "probe_report.json"),
    ("residual-scan",
     {"residual_scan": {"profile": DEFAULT_CONFIG["profile"]}},
     {"residual_scan": {"n_list": [64, 65]}}, "residual_scan.n_list",
     "residual_scan.json"),
    ("illposedness-probe", {}, {"solver": {"min_steps": 1}}, "solver",
     "probe_report.json")],
    ids=["probe-sigma-factors", "residual-n-list", "probe-min-steps"])
def test_config_cannot_move_a_verdict(tmp_path, capsys, command, base, extra,
                                      named, report):
    # each key once moved a verdict's input: sigma_factors [-3.0] left the
    # probe one verdict, sigma = -3 rate, which passed; n_list [64, 65] made
    # each plateau compare two nearly equal n (ratio 1.012 against 2.14);
    # min_steps 1 made the probe's step CFL-limited, and its sigma = 0.5 rate
    # gain read 0.521 on this grid against 0.364 at the constant step floor
    reports = []
    for name, cfg in (("with", deep_merge(base, extra)), ("without", base)):
        rc = main([command, "--config", _write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / name)])
        assert rc == 4
        reports.append((tmp_path / name / command / report).read_text())
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config: keys that nothing reads: {named}"]
    assert reports[0] == reports[1]
    verdicts = json.loads(reports[0])["verdicts"]
    if command == "illposedness-probe":
        assert {k: v["pass"] for k, v in verdicts.items()} == {
            "sigma=0.5*rate": False, "sigma=2.0*rate": True}


def test_pipeline_shares_field_and_path():
    cfg = load_config(None)
    cfg = deep_merge(cfg, FAST)
    pipe = Pipeline(cfg)
    assert pipe.field is pipe.field
    assert pipe.path is pipe.path
    assert pipe.field.flow is pipe.flow is pipe.path.flow


def test_mode_initial_data_is_eps_linear():
    cfg = deep_merge(load_config(None), FAST)
    pipe = Pipeline(cfg)
    u64 = pipe.mode_initial(64)
    u128 = pipe.mode_initial(128)
    assert np.max(np.abs(2.0 * u128 - u64)) < 1e-15
