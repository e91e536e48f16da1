"""Minimal Laplacian -d^2/dx^2 on (0,1): the deficiency-index-2 example.

The minimally defined operator has m(S) = pi^2, ker S* = span{1, x}, and
V = span{1 - 2x}.  The extensions that keep the Friedrichs bottom are the
operators with boundary condition

    g(0) + g(1) = 0,    g'(0) + g'(1) = b g(0),    b >= 0,

with the dictionary t = 3 b + 12 to the scalar extension parameter.  The
non-common eigenvalues of the b-family are the roots of the secular
function F(lambda) = t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List

import numpy as np

# SearchError stays importable from here for callers that catch it by module
from .numerics import Bracket, DomainError, SearchError, bisect, reject_nonfinite
from .kvb import Classification, DeficiencyModel

M_S = math.pi ** 2

# spectrum refuses a cutoff with more eigenvalues than this in either family
_MAX_LEVELS = 100_000

# deficiency_model refuses more series terms: its cache keeps two arrays of them
_MAX_TERMS = 1_000_000

# weighted_gram refuses a truncated series whose tail bound exceeds this
_TAIL_TOL = 1e-8


class PoleError(ArithmeticError):
    """Evaluation too close to a genuine singularity of F."""


class ConvergenceError(ArithmeticError):
    """Eigenfunction-series truncation misses the tail tolerance."""


@dataclass(frozen=True)
class BoundaryCondition:
    """The two self-adjointness classes for H^2(0,1) restrictions that the
    program uses.

    one-dim-a: g'(0) = b1 g(0) + c g'(1),  g(1) = c g(0),  c real
    dirichlet: g(0) = 0 = g(1)
    """

    variant: str
    b1: float = 0.0
    c: float = 0.0

    @classmethod
    def one_dim_a(cls, b1: float, c: float) -> "BoundaryCondition":
        return cls("one-dim-a", b1=b1, c=c)

    @classmethod
    def dirichlet(cls) -> "BoundaryCondition":
        return cls("dirichlet")


@dataclass(frozen=True)
class IntervalSpectrum:
    """Eigenvalues below the cutoff, split into the common sin family and
    the t-dependent secular roots."""

    sin_family: List[float]
    secular_roots: List[float]
    bottom: float


def resolvent_at_bottom() -> Callable[[np.ndarray], np.ndarray]:
    """(S_F - pi^2)^{-1} applied to 1 - 2x; the minimal-norm solution."""
    return lambda x: (np.cos(math.pi * x) - 1.0 + 2.0 * x) / M_S


@lru_cache(maxsize=8)
def deficiency_model(terms: int = 10_000) -> DeficiencyModel:
    """Model with basis {1, x}, V spanned by 1 - 2x, and the weighted Gram
    entry evaluated by the even-mode eigenfunction series."""
    if terms < 1:
        raise DomainError(f"terms = {terms!r}; at least one series term is required")
    if terms > _MAX_TERMS:
        raise DomainError(f"terms = {terms!r}; at most {_MAX_TERMS} series terms are allowed")
    n = np.arange(2, 2 * terms + 1, 2, dtype=float)
    c2 = 8.0 / (n * n * math.pi ** 2)  # squared series coefficients
    n_max = n[-1]
    # terms decay like 8/(pi^4 n^4); integral comparison bound for the tail
    tail_bound = 8.0 / (3.0 * math.pi ** 4 * (n_max - 1) ** 3)

    def weighted_gram(mu: float) -> np.ndarray:
        if mu > M_S + 1e-12:
            raise DomainError(f"weighted_gram needs mu <= m(S) = {M_S}")
        if tail_bound > _TAIL_TOL:
            raise ConvergenceError(f"terms = {terms!r}: series tail bound "
                                   f"{tail_bound:.3e} exceeds {_TAIL_TOL:.3e}")
        value = float(np.sum(c2 / (n * n * math.pi ** 2 - mu)))
        return np.array([[value]])

    return DeficiencyModel(
        m_S=M_S,
        gram=np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]]),  # <x^i, x^j> on L^2(0, 1)
        V_basis=np.array([[1.0], [-2.0]]),
        weighted_gram=weighted_gram,
    )


def b_to_t(b: float) -> float:
    return 3.0 * b + 12.0


def secular_F(lam: float) -> float:
    """F(lambda) in the cot form 12 - 6 sqrt(l) cot(sqrt(l)/2).

    Genuine singularities sit at 4 n^2 pi^2, n >= 1; the removable ones of
    the (1 + cos)/sin form are absent.  Hyperbolic branch for lambda < 0,
    continuous limit F(0) = 0.  For |lambda| < 1e-2 both forms cancel
    12 - 12 (1 + O(lambda)), and F is its Taylor series instead.
    A non-finite lambda is a DomainError.
    """
    if not -math.inf < lam < math.inf:
        raise DomainError(f"lam is {lam}; a finite number is required")
    if lam > 0.0:
        if lam < _SERIES_BELOW:
            return _secular_series(lam)
        s = math.sqrt(lam)
        k = round(s / (2.0 * math.pi))
        if k >= 1 and abs(lam - _singularity(k)) <= 1e-13 * _singularity(k):
            raise PoleError(f"lambda = {lam} is within 1e-13 relative of a singularity")
        # reduce x about the nearest multiple of pi/2: 1/tan(x - m pi) keeps F
        # accurate near 0, -tan(x - (m + 1/2) pi) the zeros at odd squares exact
        x = 0.5 * s
        m, odd = divmod(round(s / math.pi), 2)
        cot = -math.tan(x - (m + 0.5) * math.pi) if odd else 1.0 / math.tan(x - m * math.pi)
        return 12.0 - 6.0 * s * cot
    if lam == 0.0:
        return 0.0
    if lam > -_SERIES_BELOW:
        return _secular_series(lam)
    kappa = math.sqrt(-lam)
    return 12.0 - 6.0 * kappa / math.tanh(0.5 * kappa)


# below this |lambda| the series is used: its first omitted term is 6.3e-9
# lambda^6, under 1e-18 relative, while the closed forms lose 2.7e-13
_SERIES_BELOW = 1e-2


def _secular_series(lam: float) -> float:
    """F(lambda) = lambda (1 + lambda/60 + lambda^2/2520 + lambda^3/100800 +
    lambda^4/3991680 + O(lambda^5)), from x cot x = 1 - x^2/3 - x^4/45 - ..."""
    return lam * (1.0 + lam * (1.0 / 60.0 + lam * (1.0 / 2520.0 + lam * (
        1.0 / 100800.0 + lam / 3991680.0))))


def _singularity(k: int) -> float:
    return (2.0 * k * math.pi) ** 2


def _secular_root(k: int, t: float) -> float:
    """The one root of the increasing F = t on branch k: lambda < 4 pi^2 for
    k = 0, 4 k^2 pi^2 < lambda < 4 (k+1)^2 pi^2 for k >= 1.

    For lambda = s^2 > 0 it is the zero of the pole-free
    g(s) = sin(s/2) (F(s^2) - t)/s = (12 - t) sin(s/2)/s - 6 cos(s/2) on
    (2 k pi, 2 (k+1) pi), which runs from -6 cos(k pi) (-t/2 for k = 0, same
    sign) to 6 cos(k pi).  The end signs are analytic: sin(fl(k pi)) != 0.
    Branch 0 is a Brent search on that bracket (on F itself for t <= 0).

    For k >= 1, with x = s/2 and beta = 1 - t/12, g = -(6/x) h(x) where
    h(x) = x cos x - beta sin x, so the root solves x cot x = beta, that is
    the phase equation r(x) = x - m + arctan(beta/x) = 0 with
    m = (k + 1/2) pi.  Its slope r'(x) = 1 - beta/(x^2 + beta^2) lies within
    1/(2x) <= 1/(2 pi) of 1, so Newton on r converges from the start
    x0 = m - arctan(beta/m) without a bracket; for |beta| above about 1e154
    beta^2 is inf and r' is 1, its limit.  One Newton step on h itself,
    h'(x) = (1 - beta) cos x - x sin x = -sin x (x^2 + beta^2 - beta)/x != 0
    at the root, restores the last bits that arctan's rounding costs.  The
    certificate is the bracket search's contract: g changes sign within
    1e-15 2 (k+1) pi of the returned s, or the root is a SearchError.
    """
    if k == 0 and t <= 0.0:
        if t == 0.0:
            return 0.0
        # F decreases to -inf as lambda -> -inf, so the scan ends for every finite t
        lo = -1.0
        while secular_F(lo) >= t:
            lo *= 4.0
            if lo == -math.inf:
                raise DomainError(f"t = {t!r}: the bottom -(t/6 - 2)^2 overflows a float")
        f = lambda lam: secular_F(lam) - t
        # the root is about t for small |t|: stop relative to it there
        tol = max(1e-12 * min(1.0, -t), math.ulp(0.0))
        return bisect(f, Bracket(lo, 0.0, f(lo), -t), tol=tol)
    g = lambda s: (12.0 - t) * math.sin(0.5 * s) / s - 6.0 * math.cos(0.5 * s)
    s_hi = 2.0 * (k + 1) * math.pi
    tol = 1e-15 * s_hi
    if k == 0:
        s = bisect(g, Bracket(0.0, s_hi, -6.0, 6.0), tol=tol)
        return s * s
    m = (k + 0.5) * math.pi
    beta = 1.0 - t / 12.0
    x = m - math.atan(beta / m)
    for _ in range(_PHASE_STEPS):
        dx = (x - m + math.atan(beta / x)) / (1.0 - beta / (x * x + beta * beta))
        x -= dx
        if abs(dx) <= 4e-16 * x:
            break
    s = 2.0 * _polish(x, beta)
    cos_k_pi = 1.0 if k % 2 == 0 else -1.0
    if not cos_k_pi * g(s - tol) < 0.0 < cos_k_pi * g(s + tol):
        raise SearchError(f"t = {t!r}, branch k = {k}: g(s) has no sign change "
                          f"within {tol:.3g} of s = {s!r}")
    return s * s


# Newton steps on the phase function; at most 4 were needed over 1.1e6 (t, k)
# pairs with k <= 320 and |t| up to 1.8e308, and the certificate judges the
# result whatever the count
_PHASE_STEPS = 8


def _polish(x: float, beta: float) -> float:
    """One Newton step on h(x) = x cos x - beta sin x."""
    cos, sin = math.cos(x), math.sin(x)
    return x - (x * cos - beta * sin) / ((1.0 - beta) * cos - x * sin)


def spectrum(t: float, cutoff: float = 200.0) -> IntervalSpectrum:
    """Eigenvalues of the extension at level t up to the cutoff."""
    reject_nonfinite(t=t, cutoff=cutoff)
    if not cutoff > 0:
        raise DomainError("cutoff must be positive")
    # each family holds about sqrt(cutoff)/(2 pi) eigenvalues below the cutoff
    if math.sqrt(cutoff) / (2.0 * math.pi) > _MAX_LEVELS:
        raise DomainError(f"cutoff = {cutoff!r} gives more than {_MAX_LEVELS} "
                          "eigenvalues per family")
    sin_family = []
    n = 0
    while (2 * n + 1) ** 2 * math.pi ** 2 <= cutoff:
        sin_family.append((2 * n + 1) ** 2 * math.pi ** 2)
        n += 1
    first_root = _lowest_root(t)
    roots = [first_root] if first_root <= cutoff else []
    k = 1
    while _singularity(k) < cutoff:
        root = _secular_root(k, t)
        if root <= cutoff:
            roots.append(root)
        k += 1
    return IntervalSpectrum(sin_family=sin_family, secular_roots=roots, bottom=_bottom(t))


@lru_cache(maxsize=1)
def _lowest_root(t: float) -> float:
    """The secular root on branch 0, kept for the last t: classify(b) and
    then spectrum(t) at its level solve for it once."""
    return _secular_root(0, t)


def _bottom(t: float) -> float:
    """The bottom at level t: the lowest secular root or pi^2, the bottom of
    the sin family, whichever is lower."""
    return min(M_S, _lowest_root(t))


def classify(b: float) -> Classification:
    """Top iff b >= 0, i.e. t = 3b + 12 >= t_q = 12."""
    reject_nonfinite(b=b)
    t = b_to_t(b)
    if not math.isfinite(t):
        raise DomainError(f"b = {b!r}: t = 3b + 12 overflows a float")
    try:
        bottom = _bottom(t)
    except DomainError as exc:
        raise DomainError(f"b = {b!r}: {exc}") from exc
    return Classification.of(top=b >= 0.0, bottom=bottom, t=t)
