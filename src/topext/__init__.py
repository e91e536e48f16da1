"""Self-adjoint extensions with the Friedrichs lower bound.

Numerical classification of "top extensions" (extensions of a lower
semi-bounded symmetric operator that keep the Friedrichs bottom) via the
parametrization by operators on the deficiency space, instantiated on
three worked examples and cross-validated by a finite-element oracle.
"""

from . import coulomb, interval, kvb, numerics, point  # noqa: F401

__all__ = ["coulomb", "interval", "kvb", "numerics", "point"]
__version__ = "0.1.0"
