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
    """Root refinement hit its iteration budget before meeting the residual bound."""


class BracketError(SheetModelError):
    """Root bracket does not straddle a sign change."""


class OnLightConeError(SheetModelError):
    """Momentum sits on the light cone where a 1/Gamma pole makes the value undefined."""


class DegenerateMomentumError(SheetModelError):
    """Momentum configuration where the requested quantity is not defined.

    Raised for vanishing parallel momentum, vanishing Euclidean radius, and
    the coincident mirror point of the image potential.
    """


class PathDisagreementError(SheetModelError):
    """Two supposedly equivalent evaluation routes disagree beyond tolerance."""
