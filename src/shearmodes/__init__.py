"""Growing-mode laboratory for boundary-layer shear flows.

Pipeline: shear profile -> heat-flow background -> critical path ->
dispersion eigenpair -> assembled growing mode -> residual bounds ->
high-frequency evolution and the operator-growth certificate.

Each submodule but cli is registered here unloaded (importlib's LazyLoader)
and runs its code on the first access to one of its attributes, so a
command loads only the layers it reads.  Import names from their submodule.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# every submodule but cli, which `python -m shearmodes.cli` runs as __main__
_SUBMODULES = ("errors", "special", "profiles", "heat", "path", "eigen",
               "modes", "evolve", "norms", "svg")


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
