"""Radial Schroedinger operator -d^2/dx^2 + nu/x on the half line, nu > 0.

The extensions are labelled by alpha (alpha = inf is Friedrichs).  A
single negative eigenvalue exists exactly for alpha below the threshold

    alpha_nu = nu/(4 pi) (ln nu + 2 gamma - 1),

and it is the unique negative root of the eigenvalue function
F_nu(E) = alpha built from the digamma function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import Bracket, DomainError, SearchError, bisect, digamma, reject_nonfinite

EULER_GAMMA = 0.57721566490153286061

# geometric scan grid in s = sqrt(|E|): E spans [-1e8, -1e-12]
_S_MIN = 1e-6
_S_MAX = 1e4
_POINTS_PER_DECADE = 200


def alpha_threshold(nu: float) -> float:
    """alpha_nu = nu/(4 pi) (ln nu + 2 gamma - 1)."""
    reject_nonfinite(nu=nu)
    if not nu > 0:
        raise DomainError("nu must be positive")
    threshold = nu / (4.0 * math.pi) * (math.log(nu) + 2.0 * EULER_GAMMA - 1.0)
    if not math.isfinite(threshold):
        raise DomainError(f"nu = {nu!r}: alpha_nu overflows a float")
    return threshold


def script_F(nu: float, E: float) -> float:
    """Eigenvalue function F_nu(E) for E < 0."""
    if not nu > 0:
        raise DomainError("nu must be positive")
    if E >= 0:
        raise DomainError("script_F is defined for E < 0 only")
    s = math.sqrt(-E)
    return nu / (4.0 * math.pi) * (
        digamma(1.0 + nu / (2.0 * s))
        + math.log(2.0 * s)
        + 2.0 * EULER_GAMMA
        - 1.0
        - s / nu
    )


def _scan_grid() -> np.ndarray:
    decades = math.log10(_S_MAX / _S_MIN)
    count = int(round(decades * _POINTS_PER_DECADE)) + 1
    return np.geomspace(_S_MIN, _S_MAX, count)


def count_sign_changes(nu: float, alpha: float) -> int:
    """Sign changes of F_nu(-s^2) - alpha along the standard scan grid."""
    grid = _scan_grid()
    values = np.array([script_F(nu, -s * s) - alpha for s in grid])
    signs = np.sign(values)
    nonzero = signs[signs != 0]
    return int(np.sum(nonzero[1:] * nonzero[:-1] < 0))


def coulomb_eigenvalue(nu: float, alpha: float) -> Optional[float]:
    """The unique negative root E of F_nu(E) = alpha when alpha < alpha_nu,
    None otherwise.  Root residual |F_nu(E) - alpha| <= 1e-10."""
    if alpha >= alpha_threshold(nu):  # alpha = inf included: Friedrichs
        return None
    reject_nonfinite(alpha=alpha)
    grid = _scan_grid()
    prev_s = grid[0]
    prev_val = script_F(nu, -prev_s * prev_s) - alpha
    for s in grid[1:]:
        val = script_F(nu, -s * s) - alpha
        if prev_val == 0.0:
            return -prev_s * prev_s
        if prev_val * val < 0.0:
            f = lambda x: script_F(nu, -x * x) - alpha
            root_s = bisect(f, Bracket(prev_s, s, prev_val, val),
                            tol=1e-15 * max(1.0, s))
            E = -root_s * root_s
            if abs(script_F(nu, E) - alpha) > 1e-10:
                raise SearchError("root residual above tolerance")
            return E
        prev_s, prev_val = s, val
    raise SearchError(
        "no bracket found on the scan grid (alpha may sit at the threshold)")


@dataclass(frozen=True)
class Classification:
    top: bool
    bottom: float
    threshold: float


def classify_coulomb(nu: float, alpha: float) -> Classification:
    """Top iff alpha >= alpha_nu (boundary inclusive; alpha = inf is the
    Friedrichs extension and always Top)."""
    threshold = alpha_threshold(nu)
    if alpha >= threshold:
        return Classification(top=True, bottom=0.0, threshold=threshold)
    E = coulomb_eigenvalue(nu, alpha)
    return Classification(top=False, bottom=E, threshold=threshold)
