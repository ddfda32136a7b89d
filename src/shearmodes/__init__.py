"""Growing-mode laboratory for boundary-layer shear flows.

Pipeline: shear profile -> heat-flow background -> critical path ->
dispersion eigenpair -> assembled growing mode -> residual bounds ->
high-frequency evolution and the operator-growth certificate.
"""

__version__ = "0.1.0"

from .errors import (CflViolation, CurvatureVanished, DegenerateCritical,
                     HorizonExceeded, InsufficientData, NoCriticalPoint,
                     NonFiniteState, NoRootFound, NotConverged,
                     QuadratureFailure, ShearmodesError, TailBlowup,
                     WindowTooShort)
from .profiles import (DecayClass, ShearProfile, build_family,
                       critical_points, family_names, make_profile)
from .heat import HeatFlow, HeatFlowField, heat_residual_probe, solve_heat
from .path import CriticalPath, track_critical_point
from .eigen import (DispersionProblem, Eigenpair, find_root, find_tau,
                    matrix_eigenvalues, sample_profile, shoot_tails)
from .modes import (BumpCorrector, ModeField, ModeParams, ResidualField,
                    Smoothstep, assemble_mode, default_params,
                    initial_tangential_norm, old_frozen_tangential, residual)
from .evolve import (FourierModeState, SolverConfig, Trajectory, auto_dt,
                     evolve, growth_row, operator_growth_probe, step)
from .norms import FitResult, TailClass, fit_power_law, fit_rate, weighted_sup
