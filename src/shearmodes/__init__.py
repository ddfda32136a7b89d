"""Growing-mode laboratory for boundary-layer shear flows.

Pipeline: shear profile -> heat-flow background -> critical path ->
dispersion eigenpair -> assembled growing mode -> residual bounds ->
high-frequency evolution and the operator-growth certificate.

Each submodule but cli is registered here unloaded (importlib's LazyLoader)
and runs its code on the first access to one of its attributes, so a
command loads only the layers it reads.  The public names below resolve to
their modules on first access (PEP 562).
"""

import importlib.util
import sys

__version__ = "0.1.0"

# every submodule but cli, which `python -m shearmodes.cli` runs as __main__
_SUBMODULES = ("errors", "special", "profiles", "heat", "path", "eigen",
               "modes", "evolve", "norms", "svg")

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("CflViolation", "CurvatureVanished", "DegenerateCritical",
         "HorizonExceeded", "InsufficientData", "NoCriticalPoint",
         "NonFiniteState", "NoRootFound", "NotConverged", "QuadratureFailure",
         "ShearmodesError", "TailBlowup", "WindowTooShort"), "errors"),
    **dict.fromkeys(
        ("DecayClass", "ShearProfile", "build_family", "critical_points",
         "family_names", "make_profile"), "profiles"),
    **dict.fromkeys(
        ("HeatFlow", "HeatFlowField", "heat_residual_probe", "solve_heat"),
        "heat"),
    **dict.fromkeys(("CriticalPath", "track_critical_point"), "path"),
    **dict.fromkeys(
        ("DispersionProblem", "Eigenpair", "find_root", "find_tau",
         "matrix_eigenvalues", "sample_profile", "shoot_tails"), "eigen"),
    **dict.fromkeys(
        ("BumpCorrector", "ModeField", "ModeParams", "ResidualField",
         "Smoothstep", "assemble_mode", "default_params",
         "initial_tangential_norm", "old_frozen_tangential", "residual"),
        "modes"),
    # the function evolve is not re-exported: the name is the submodule's
    **dict.fromkeys(
        ("FourierModeState", "SolverConfig", "Trajectory", "auto_dt",
         "growth_row", "operator_growth_probe", "step"), "evolve"),
    **dict.fromkeys(
        ("FitResult", "TailClass", "fit_power_law", "fit_rate",
         "weighted_sup"), "norms"),
}


def _register(name: str):
    """The submodule name, in sys.modules and on the package, with its code
    run on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _register(name) for name in _SUBMODULES})


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)
