"""Exception types shared across the package."""

__all__ = [
    "SheetModelError",
    "ToleranceNotMet",
    "IterationLimitError",
    "BracketError",
    "OnLightConeError",
    "DegenerateMomentumError",
    "PathDisagreementError",
]


class SheetModelError(Exception):
    """Base class for numerics and physics failures raised by this package."""


class ToleranceNotMet(SheetModelError):
    """Quadrature refinement exhausted without reaching the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class IterationLimitError(SheetModelError):
    """A bracketed root breaks its residual bound."""


class BracketError(SheetModelError):
    """Root bracket does not straddle a sign change."""


class OnLightConeError(SheetModelError):
    """Momentum sits on the light cone where a 1/Gamma pole makes the value undefined."""


class DegenerateMomentumError(SheetModelError):
    """Momentum configuration where the requested quantity is not defined.

    Raised at kpar = 0 (scalar reflection, polarization basis), at
    kpar <= 0 (TM plasmon frequencies, TE plasmon scan), at a vanishing
    Euclidean radius gamma = 0, on the light cone (polarization basis), at
    k0 = 0 (scalar and TM jump coefficients of matching_residual) and at
    k0 = 0 on a spherical shell (Jost functions, radial propagator, TM flat
    limit).
    """


class PathDisagreementError(SheetModelError):
    """Two supposedly equivalent evaluation routes disagree beyond tolerance."""
