"""Exception types shared across the package."""


class ShearmodesError(Exception):
    """Base class for all package-specific failures."""


class NoCriticalPoint(ShearmodesError):
    """Profile has no interior critical point, so the instability hypothesis fails."""


class DegenerateCritical(ShearmodesError):
    """Critical point found but |U''| is below tolerance."""


class QuadratureFailure(ShearmodesError):
    """Heat-kernel quadrature did not converge at the requested tolerance."""


class CurvatureVanished(ShearmodesError):
    """Curvature along the critical path fell below the configured floor."""


class TailBlowup(ShearmodesError):
    """Tail integration left the decaying branch and exceeded the magnitude guard."""


class NoRootFound(ShearmodesError):
    """Newton from the given seed found no eigenvalue with Im tau < 0."""


class NotConverged(ShearmodesError):
    """An iterative solve did not reach its stated residual bound."""


class HorizonExceeded(ShearmodesError):
    """Requested time is beyond the validity horizon of the critical path."""


class CflViolation(ShearmodesError):
    """Time step violates the advective stability guard."""


class NonFiniteState(ShearmodesError):
    """Evolved state left the floating-point range; renormalize or shorten the run."""


class WindowTooShort(ShearmodesError):
    """Not enough trajectory samples inside the fitting window."""


class InsufficientData(ShearmodesError):
    """Too few points for the requested fit."""
