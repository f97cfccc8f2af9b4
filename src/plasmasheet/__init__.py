"""Electromagnetic response of infinitely thin plasma sheets.

A single parameter Omega (charge density times e^2/m) controls the sheet;
Omega -> infinity recovers the ideal conductor. Units: hbar = c = 1,
Heaviside-Lorentz charges.

The package root re-exports the ``__all__`` of each physics module;
``numerics`` and ``cli`` stay in their submodules.
"""

from . import casimir, errors, polder, sheet, sphere
from .casimir import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .polder import *  # noqa: F401,F403
from .sheet import *  # noqa: F401,F403
from .sphere import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *sheet.__all__, *casimir.__all__,
           *polder.__all__, *sphere.__all__]
