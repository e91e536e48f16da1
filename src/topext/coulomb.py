"""Radial Schroedinger operator -d^2/dx^2 + nu/x on the half line, nu > 0.

The extensions are labelled by alpha (alpha = inf is Friedrichs).  A
single negative eigenvalue exists exactly for alpha below the threshold

    alpha_nu = nu/(4 pi) (ln nu + 2 gamma - 1),

and it is the unique negative root of the eigenvalue function
F_nu(E) = alpha built from the digamma function.
"""
from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

import numpy as np

from .numerics import Bracket, DomainError, SearchError, bisect, digamma, reject_nonfinite
from .kvb import Classification

EULER_GAMMA = 0.57721566490153286061


def alpha_threshold(nu: float) -> float:
    """alpha_nu = nu/(4 pi) (ln nu + 2 gamma - 1)."""
    reject_nonfinite(nu=nu)
    if not nu > 0:
        raise DomainError("nu must be positive")
    threshold = nu / (4.0 * math.pi) * (math.log(nu) + 2.0 * EULER_GAMMA - 1.0)
    if not math.isfinite(threshold):
        raise DomainError(f"nu = {nu!r}: alpha_nu overflows a float")
    return threshold


def script_F(nu: float, E: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Eigenvalue function F_nu(E) for finite nu > 0 and E < 0.

    E is a float, or an ndarray for which F_nu is taken entrywise in one
    pass.  An E that is not finite and negative, or one where F_nu is not
    finite (it overflows a float for huge nu), is a DomainError naming nu
    and the first such E."""
    if not 0.0 < nu < math.inf:
        raise DomainError(f"nu is {nu}; a finite positive number is required")
    if isinstance(E, np.ndarray):
        bad = ~((-math.inf < E) & (E < 0.0))
        if bad.any():
            E = float(E.flat[bad.argmax()])
            raise DomainError(f"E is {E}; script_F is defined for finite E < 0 only")
        with np.errstate(over="ignore"):  # an overflow is the DomainError below
            F = _F(nu, np.sqrt(-E), np.log)
        bad = ~np.isfinite(F)
        if bad.any():
            E = float(E.flat[bad.argmax()])
            raise DomainError(f"nu = {nu!r}, E = {E!r}: F_nu(E) overflows a float")
        return F
    if not -math.inf < E < 0.0:
        raise DomainError(f"E is {E}; script_F is defined for finite E < 0 only")
    F = _F(nu, math.sqrt(-E), math.log)
    if not math.isfinite(F):
        raise DomainError(f"nu = {nu!r}, E = {E!r}: F_nu(E) overflows a float")
    return F


def _F(nu, s, log):
    """F_nu(-s^2), with log the float or the array logarithm."""
    # s/(4 pi) stays outside the nu/(4 pi) factor: s/nu overflows for tiny nu
    return nu / (4.0 * math.pi) * (
        digamma(1.0 + nu / (2.0 * s))
        + log(2.0 * s)
        + 2.0 * EULER_GAMMA
        - 1.0
    ) - s / (4.0 * math.pi)


def count_sign_changes(nu: float, alphas: Sequence[float]) -> List[int]:
    """Sign changes of F_nu(-s^2) - alpha, for each alpha, on a geometric grid
    of 200 points per decade in s = sqrt(-E) over [1e-6, 1e4], i.e. E in
    [-1e8, -1e-12].  F_nu is evaluated on the grid in one call for all alphas."""
    grid = np.geomspace(1e-6, 1e4, 2001)
    F = script_F(nu, -grid * grid)
    counts = []
    for alpha in alphas:
        signs = np.sign(F - alpha)
        nonzero = signs[signs != 0]
        counts.append(int(np.sum(nonzero[1:] * nonzero[:-1] < 0)))
    return counts


def coulomb_eigenvalue(nu: float, alpha: float) -> Optional[float]:
    """The unique negative root E of F_nu(E) = alpha when alpha < alpha_nu,
    None otherwise.  Root residual |F_nu(E) - alpha| <= 1e-10."""
    if alpha >= alpha_threshold(nu):  # alpha = inf included: Friedrichs
        return None
    reject_nonfinite(alpha=alpha)
    # F_nu(-s^2) falls strictly from alpha_nu (s -> 0) to -inf, so doubling
    # and halving s from 1 brackets the one sign change of f
    f = lambda s: script_F(nu, -s * s) - alpha
    lo = hi = 1.0
    f_lo = f_hi = f(1.0)
    while f_hi >= 0.0:
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        if math.isinf(hi * hi):
            raise DomainError(f"alpha = {alpha!r}: the eigenvalue E = -s^2 overflows a float")
        f_hi = f(hi)
    while f_lo < 0.0:
        hi, f_hi, lo = lo, f_lo, 0.5 * lo
        if lo * lo == 0.0:
            raise DomainError(f"alpha = {alpha!r}: the eigenvalue E = -s^2 underflows a float")
        f_lo = f(lo)
    s = lo if f_lo == 0.0 else bisect(f, Bracket(lo, hi, f_lo, f_hi), tol=1e-15 * hi)
    E = -s * s
    residual = abs(script_F(nu, E) - alpha)
    if residual > 1e-10:
        raise SearchError(f"nu = {nu!r}, alpha = {alpha!r}: root E = {E!r} has "
                          f"residual |F_nu(E) - alpha| = {residual:.3g} above 1e-10")
    return E


def classify_coulomb(nu: float, alpha: float) -> Classification:
    """Top iff alpha >= alpha_nu (boundary inclusive; alpha = inf is the
    Friedrichs extension and always top)."""
    top = alpha >= alpha_threshold(nu)
    bottom = 0.0 if top else coulomb_eigenvalue(nu, alpha)
    return Classification.of(top=top, bottom=bottom, friedrichs=alpha == math.inf)
