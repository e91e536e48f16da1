"""Self-contained numerical kernels.

Bracketed bisection, composite quadrature, the digamma function, and a
positive-semidefiniteness test.
Everything here is a pure function of its inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class BracketError(ValueError):
    """Endpoints do not bracket a sign change."""


class EvaluationError(ArithmeticError):
    """A sampled function value came back non-finite."""


class FactorizationError(ArithmeticError):
    """A matrix factorization failed (e.g. Cholesky of a non-PD matrix)."""


class SearchError(RuntimeError):
    """A root search exhausted its budget or missed its residual tolerance."""


def reject_nonfinite(**args: float) -> None:
    """Raise DomainError naming the first keyword argument that is NaN or infinite."""
    for name, value in args.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} is {value}; a finite number is required")


@dataclass(frozen=True)
class Bracket:
    """An interval [lo, hi] with opposite function signs at the ends."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise BracketError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not (math.isfinite(self.f_lo) and math.isfinite(self.f_hi)):
            raise EvaluationError("non-finite function value at bracket endpoint")
        if self.f_lo * self.f_hi >= 0.0:
            raise BracketError(
                f"no sign change: f({self.lo})={self.f_lo}, f({self.hi})={self.f_hi}"
            )


def bisect(f: Callable[[float], float], b: Bracket, tol: float = 1e-12) -> float:
    """Root of f inside the bracket, located to an interval of width <= tol."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    lo, hi, f_lo = b.lo, b.hi, b.f_lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval no longer resolvable in floats
            break
        f_mid = f(mid)
        if not math.isfinite(f_mid):
            raise EvaluationError(f"f({mid}) is not finite")
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule: `nodes` points on each of `panels` panels."""

    panels: int
    nodes: int

    def __post_init__(self):
        if self.panels < 1:
            raise DomainError("panels must be >= 1")
        if not 2 <= self.nodes <= 16:
            raise DomainError("gauss-legendre needs 2..16 nodes per panel")

    @classmethod
    def gauss(cls, panels: int = 64, nodes: int = 10) -> "QuadratureRule":
        return cls(panels, nodes)


@lru_cache(maxsize=32)
def _leggauss(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


def integrate(f: Callable[[float], float], a: float, b: float,
              rule: Optional[QuadratureRule] = None) -> float:
    """Composite Gauss-Legendre quadrature of f over [a, b]."""
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    rule = rule or QuadratureRule.gauss()
    edges = np.linspace(a, b, rule.panels + 1)
    total = 0.0
    x, w = _leggauss(rule.nodes)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        for xi, wi in zip(x, w):
            val = f(mid + half * xi)
            if not math.isfinite(val):
                raise EvaluationError(f"integrand not finite at x={mid + half * xi}")
            total += half * wi * val
    return total


# Asymptotic tail of psi(z): ln z - 1/(2z) + sum c_k z^(-2k), c_k = -B_{2k}/(2k).
_PSI_ASYMP = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
    3617.0 / 8160.0,
)

_PSI_SHIFT = 10.0


def digamma(z: float) -> float:
    """psi(z) for z > 0 via upward recurrence plus an asymptotic series."""
    if not z > 0:
        raise DomainError(f"digamma needs z > 0, got {z}")
    acc = 0.0
    while z < _PSI_SHIFT:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    tail = 0.0
    power = inv2
    for c in _PSI_ASYMP:
        tail += c * power
        power *= inv2
    return acc + math.log(z) - 0.5 / z + tail


def _as_symmetric(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise DomainError("matrix has a non-finite entry")
    atol = 1e-12 * (1.0 + np.abs(A).max(initial=0.0))
    if np.abs(A - A.T).max(initial=0.0) > atol:
        raise DomainError("matrix is not symmetric")
    return 0.5 * (A + A.T)


def is_psd(A: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff the minimal eigenvalue of A is >= -tol * ||A||_2.

    A must be finite and symmetric to within 1e-12 (1 + max |A_ij|)
    entrywise; otherwise DomainError.  An empty matrix is PSD."""
    if tol < 0:
        raise DomainError("tol must be >= 0")
    A = _as_symmetric(A)
    if A.size == 0:
        return True
    w = np.linalg.eigvalsh(A)
    norm = float(np.abs(w).max())
    return bool(w[0] >= -tol * norm)
