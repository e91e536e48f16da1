"""Three-dimensional Laplacian with a point interaction at the origin.

Unit deficiency index: after the shift S = -Delta + 1 on functions
vanishing near the origin, ker S* = span{G_1} with G_1 the Green function
of p^2 + 1, and V = span{G_1}.  The scalar form level is t_q = 2, the
physical coupling is alpha = (t - 2)/(8 pi), and the point-interaction
Hamiltonians have a single negative eigenvalue -(4 pi alpha)^2 exactly
when alpha < 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .numerics import DomainError, QuadratureRule, integrate, reject_nonfinite
from .kvb import Classification, DeficiencyModel, ExtensionParameter

SHIFT = 1.0  # the spectra below are reported for the unshifted operator

_RADIAL_RULE = QuadratureRule.gauss(panels=80, nodes=12)


def radial_integral(f: Callable[[float], float],
                    rule: QuadratureRule | None = None) -> float:
    """4 pi * int_0^inf f(r) dr via the compactifying substitution r = tan(theta)."""
    rule = rule or _RADIAL_RULE

    def g(theta: float) -> float:
        r = math.tan(theta)
        return f(r) * (1.0 + r * r)

    return 4.0 * math.pi * integrate(g, 0.0, 0.5 * math.pi, rule)


@lru_cache(maxsize=4)
def deficiency_model_point() -> DeficiencyModel:
    """Fourier-space model on the basis {G_1}: all entries are radial
    integrals of rational functions of r = |p|."""
    gram = radial_integral(lambda r: r * r / (1.0 + r * r) ** 2)
    regularized = radial_integral(lambda r: 1.0 / (1.0 + r * r) ** 2)

    def weighted_gram(mu: float) -> np.ndarray:
        if mu > SHIFT + 1e-12:
            raise DomainError(f"weighted_gram needs mu <= m(S) = {SHIFT}")
        if abs(mu - SHIFT) <= 1e-12:
            value = regularized
        else:
            value = radial_integral(
                lambda r: r * r / ((1.0 + r * r) ** 2 * (r * r + 1.0 - mu)))
        return np.array([[value]])

    return DeficiencyModel(
        m_S=SHIFT,
        dim=1,
        gram=np.array([[gram]]),
        V_basis=np.array([[1.0]]),
        weighted_gram=weighted_gram,
    )


@dataclass(frozen=True)
class PointSpectrum:
    eigenvalue: Optional[float]
    essential: tuple = (0.0, math.inf)

    @property
    def bottom(self) -> float:
        return self.eigenvalue if self.eigenvalue is not None else 0.0


def alpha_to_t(alpha: float) -> float:
    reject_nonfinite(alpha=alpha)  # alpha = +inf is Friedrichs: no level t
    t = 8.0 * math.pi * alpha + 2.0
    if not math.isfinite(t):
        raise DomainError(f"alpha = {alpha!r}: t = 8 pi alpha + 2 overflows a float")
    return t


def extension_parameter(alpha: float) -> ExtensionParameter:
    """kvb parameter for the coupling alpha (Friedrichs marker for inf)."""
    if math.isinf(alpha) and alpha > 0:
        return ExtensionParameter.friedrichs()
    model = deficiency_model_point()
    return ExtensionParameter.scalar(alpha_to_t(alpha), model.V_basis, model.gram)


def point_spectrum(alpha: float) -> PointSpectrum:
    """Negative eigenvalue -(4 pi alpha)^2 iff alpha < 0; essential
    spectrum [0, inf) always."""
    if alpha >= 0:  # alpha = inf included: the Friedrichs extension
        return PointSpectrum(eigenvalue=None)
    reject_nonfinite(alpha=alpha)
    x = 4.0 * math.pi * alpha
    if not math.isfinite(x * x):
        raise DomainError(f"alpha = {alpha!r}: the eigenvalue -(4 pi alpha)^2 "
                          "overflows a float")
    return PointSpectrum(eigenvalue=-x ** 2)


def classify_point(alpha: float) -> Classification:
    """Top iff alpha >= 0 (Friedrichs, alpha = inf, included): those
    extensions keep the unshifted bottom 0."""
    return Classification.of(top=alpha >= 0.0, bottom=point_spectrum(alpha).bottom,
                             friedrichs=alpha == math.inf)
