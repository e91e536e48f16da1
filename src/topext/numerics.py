"""Self-contained numerical kernels.

A bracketed root finder (Brent's method, safeguarded by bisection),
composite quadrature, the digamma function, and a
positive-semidefiniteness test.
Everything here is a pure function of its inputs.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class BracketError(ValueError):
    """Endpoints do not bracket a sign change."""


class EvaluationError(ArithmeticError):
    """A sampled function value came back non-finite."""


class SearchError(RuntimeError):
    """A root search exhausted its budget or missed its residual tolerance."""


def reject_nonfinite(**args: float) -> None:
    """Raise DomainError naming the first keyword argument that is NaN or infinite."""
    for name, value in args.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} is {value}; a finite number is required")


def reject_noninteger(**args: int) -> None:
    """Raise DomainError naming the first keyword argument that is not an integer."""
    for name, value in args.items():
        if not isinstance(value, (int, np.integer)):
            raise DomainError(f"{name} = {value}: need an integer")


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
        # signs, not the product, which underflows to 0 for tiny values
        if not (self.f_lo < 0.0 < self.f_hi or self.f_hi < 0.0 < self.f_lo):
            raise BracketError(
                f"no sign change: f({self.lo})={self.f_lo}, f({self.hi})={self.f_hi}"
            )


def bisect(f: Callable[[float], float], b: Bracket, tol: float = 1e-12) -> float:
    """Root of f inside the bracket by Brent's method, safeguarded by bisection.

    Each step is an inverse quadratic or secant step inside the bracket, or
    a bisection step when those fail to shrink it (Brent 1973, ch. 4; the
    `zeroin` of Forsythe, Malcolm and Moler).  The search stops once the
    bracket is at most tol wide, or holds no float between its ends, and
    returns the secant point of that bracket: a sign change of f lies within
    tol of it, or within one float spacing when tol is below that spacing.
    """
    if not tol > 0:
        raise DomainError(f"tol = {tol}: tol must be positive")
    # x is the estimate and c the other end of the bracket, with |f(x)| <=
    # |f(c)|; a is the previous x.  Sides are chosen by signs, not by f_x *
    # f_c, which underflows to 0 once both values are below about 1e-154
    a, f_a = b.lo, b.f_lo
    x, f_x = b.hi, b.f_hi
    c, f_c = a, f_a
    step = last_step = x - a
    while True:
        if abs(f_c) < abs(f_x):
            a, f_a = x, f_x
            x, f_x, c, f_c = c, f_c, x, f_x
        half = 0.5 * (c - x)
        if abs(c - x) <= tol or x + half in (x, c):  # no float left between x and c
            # the secant point of the final bracket; f_x and f_c differ in sign
            return x + f_x / (f_x - f_c) * (c - x)
        if abs(last_step) >= 0.5 * tol and abs(f_a) > abs(f_x):
            # the step p/q: secant through a and x, or inverse quadratic
            # interpolation through a, x and c
            s = f_x / f_a
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = f_a / f_c, f_x / f_c
                p = s * (2.0 * half * q * (q - r) - (x - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            # taken only inside the bracket and shorter than half the step
            # before last; NaN or infinite p and q fail the test and bisect
            if 2.0 * p < min(3.0 * half * q - abs(0.5 * tol * q), abs(last_step * q)):
                last_step, step = step, p / q
            else:
                last_step = step = half
        else:
            last_step = step = half
        a, f_a = x, f_x
        x += step if abs(step) > 0.5 * tol else math.copysign(0.5 * tol, half)
        if x == a:  # a step below the float spacing
            x = math.nextafter(a, c)
        f_x = f(x)
        if not math.isfinite(f_x):
            raise EvaluationError(f"f({x}) is not finite")
        if f_x == 0.0:
            return x
        if (f_x < 0.0) == (f_c < 0.0):
            c, f_c = a, f_a
            step = last_step = x - a


@lru_cache(maxsize=32)
def _leggauss(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, panels: int,
              nodes: int) -> float:
    """Composite Gauss-Legendre quadrature of f over [a, b]: `nodes` points
    on each of `panels` equal panels.

    f is called once, on the (panels, nodes) array of all nodes, and returns
    the values there: an array of that shape, or a scalar for a constant.
    The weighted values are summed in order, panel by panel and node by node,
    not pairwise; a non-finite value is an EvaluationError naming the first
    such node in that order."""
    reject_nonfinite(a=a, b=b)
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    if panels < 1:
        raise DomainError("panels must be >= 1")
    if not 2 <= nodes <= 16:
        raise DomainError("gauss-legendre needs 2..16 nodes per panel")
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    x, w = _leggauss(nodes)
    points = mid + half * x
    values = np.broadcast_to(f(points), points.shape)
    bad = ~np.isfinite(values)
    if bad.any():
        raise EvaluationError(f"integrand not finite at x={points.flat[bad.argmax()]}")
    return float(np.cumsum(half * w * values)[-1])


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

# 1/z overflows at and below this z, where psi(z) ~ -1/z - gamma is no float
_PSI_TINY = 1.0 / sys.float_info.max


def digamma(z: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """psi(z) for z > 0 via upward recurrence plus an asymptotic series.

    z is a float, or an ndarray for which psi is taken entrywise: each entry
    goes through the float path's steps, with numpy's log for math.log, and
    the first entry outside the domain is named in the DomainError.  The
    domain is z > 1/DBL_MAX (about 5.6e-309): below it 1/z overflows."""
    if isinstance(z, np.ndarray):
        return _digamma_array(z)
    if not z > _PSI_TINY:
        raise DomainError(_domain_message(z))
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


def _domain_message(z: float) -> str:
    if z > 0:
        return f"digamma(z) ~ -1/z overflows a float, got z = {z}"
    return f"digamma needs z > 0, got {z}"


def _digamma_array(z: np.ndarray) -> np.ndarray:
    z = np.array(z, dtype=float)  # a copy: the recurrence shifts it in place
    bad = ~(z > _PSI_TINY)
    if bad.any():
        raise DomainError(_domain_message(float(z.flat[bad.argmax()])))
    acc = np.zeros_like(z)
    low = z < _PSI_SHIFT
    while low.any():  # the recurrence, masked to the entries still below the shift
        acc[low] -= 1.0 / z[low]
        z[low] += 1.0
        low = z < _PSI_SHIFT
    with np.errstate(over="ignore"):  # z*z is inf above 1.3e154, as for floats
        inv2 = 1.0 / (z * z)
    tail = np.zeros_like(z)
    power = inv2
    for c in _PSI_ASYMP:
        tail += c * power
        power = power * inv2
    return acc + np.log(z) - 0.5 / z + tail


def _as_symmetric(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise DomainError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise DomainError("matrix has a non-finite entry")
    At = A.swapaxes(-1, -2)
    atol = 1e-12 * (1.0 + np.abs(A).max(axis=(-2, -1), initial=0.0))
    if (np.abs(A - At).max(axis=(-2, -1), initial=0.0) > atol).any():
        raise DomainError("matrix is not symmetric")
    return 0.5 * (A + At)


def is_psd(A: np.ndarray) -> Union[bool, np.ndarray]:
    """True iff the least eigenvalue of A is >= 0.

    A is one matrix, or a stack of shape (..., k, k), for which the result
    is a bool array of shape (...) with one verdict per member.  Each member
    must be finite and symmetric to within 1e-12 (1 + its max |A_ij|)
    entrywise; otherwise DomainError.  An empty matrix is PSD."""
    A = _as_symmetric(A)
    if A.shape[-1] == 0:
        top = np.ones(A.shape[:-2], dtype=bool)
    else:
        top = np.linalg.eigvalsh(A)[..., 0] >= 0.0
    return bool(top) if np.ndim(top) == 0 else top
