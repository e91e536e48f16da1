"""Finite-element oracle for the interval example.

Conforming piecewise-linear elements on a uniform grid discretize the
quadratic form of -d^2/dx^2 under each boundary-condition class; boundary
terms enter the stiffness matrix as form perturbations obtained by
integration by parts.  Discrete bottoms over-estimate the analytic ones
(variational one-sided error), which makes the comparison honest.

The pencil (K, M) is symmetric tridiagonal plus, after the fold
u_n = c u_0, the corner pair (0, dim-1); it is held once, as bands.  Its
lowest eigenvalues come from one sparse shift-invert Lanczos solve on CSC
copies built for that call, and each is certified by inertia counts on the
bands: by Sylvester's law the number of eigenvalues below sigma is the
number of negative eigenvalues of K - sigma M, which LAPACK's Sturm count
(dstebz) and one pivoted tridiagonal solve (gtsv) give.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg.lapack import dgtsv, dstebz

from .numerics import DomainError, FactorizationError, SearchError, reject_nonfinite
from .interval import BoundaryCondition


class UnsupportedBCError(ValueError):
    """No real quadratic form exists for this parameter combination."""


def Periodic() -> BoundaryCondition:
    """g(1) = g(0), g'(0) = g'(1): the one-dim-a condition with c = 1, b1 = 0."""
    return BoundaryCondition.one_dim_a(0.0, 1.0)


def AntiPeriodicRobin(b: float = 0.0) -> BoundaryCondition:
    """g(1) = -g(0), g'(0) + g'(1) = b g(0): one-dim-a with c = -1, b1 = b."""
    return BoundaryCondition.one_dim_a(b, -1.0)


class Bands(NamedTuple):
    """A symmetric matrix of order diag.size: diagonal `diag`, first
    off-diagonal `off`, and the fold's entry `corner` at (0, dim-1) and
    (dim-1, 0); `corner` is None where no fold couples the ends (Dirichlet)."""

    diag: np.ndarray
    off: np.ndarray
    corner: Optional[float]

    def csc(self) -> scipy.sparse.csc_matrix:
        d, e, dim = self.diag, self.off, self.diag.size
        if self.corner is None:
            return scipy.sparse.diags([e, d, e], [-1, 0, 1], format="csc")
        corner = [self.corner]
        return scipy.sparse.diags([corner, e, d, e, corner], [1 - dim, -1, 0, 1, dim - 1],
                                  format="csc")


@dataclass(frozen=True)
class DiscreteOperator:
    """Stiffness K and mass M of order dim, as bands."""

    n: int
    bc: BoundaryCondition
    K: Bands
    M: Bands

    @property
    def dim(self) -> int:
        return self.K.diag.size


def _constrained(n: int, bc: BoundaryCondition, c: float, diag: float, off: float,
                 b1: float) -> Bands:
    """The matrix whose element matrices are [[diag, off], [off, diag]], on
    the nodes the constraint keeps: 1..n-1 for Dirichlet, 0..n-1 after the
    fold u_n = c u_0, which is P^T A P for P = [I; c e_0^T] and so changes
    only row and column 0."""
    d = np.full(n + 1, diag + diag)
    d[0] = d[-1] = diag  # the end nodes belong to one element
    e = np.full(n, off)
    if bc.variant == "dirichlet":
        return Bands(d[1:-1], e[1:-1], None)
    d, e = d[:-1], e[:-1]
    d[0] += c * (c * diag)
    d[0] += b1
    return Bands(d, e, c * off)


def assemble(n: int, bc: BoundaryCondition) -> DiscreteOperator:
    """Stiffness/mass pair with the boundary constraint folded in."""
    if n < 8:
        raise DomainError(f"n = {n}: grid too coarse, need n >= 8")
    if not isinstance(bc, BoundaryCondition):
        raise UnsupportedBCError(f"unsupported constraint {bc!r}")
    if bc.variant not in ("dirichlet", "one-dim-a"):
        raise UnsupportedBCError(f"unknown boundary condition {bc.variant!r}")
    if complex(bc.c).imag != 0:
        raise UnsupportedBCError(f"complex coupling c = {bc.c!r} has no real symmetric form")
    reject_nonfinite(b1=bc.b1)
    c = complex(bc.c).real
    h = 1.0 / n
    # element matrices [[1, -1], [-1, 1]] / h and [[2, 1], [1, 2]] h / 6
    K = _constrained(n, bc, c, 1.0 / h, -1.0 / h, bc.b1)
    M = _constrained(n, bc, c, 2.0 * h / 6.0, h / 6.0, 0.0)
    return DiscreteOperator(n=n, bc=bc, K=K, M=M)


def count_below(op: DiscreteOperator, sigma: float) -> int:
    """Number of eigenvalues of (K, M) below sigma.

    That is the negative inertia of A = K - sigma M, formed band by band.
    Node 0 is split off: the rest T of A is tridiagonal, so In(A) = In(T) +
    In(a - r^T T^-1 r) (Haynsworth), with LAPACK's Sturm count (dstebz: the
    eigenvalues of T in (-inf, 0], its pivots guarded by pivmin) for In(T)
    and its partially pivoted tridiagonal solve (gtsv) for T^-1 r; row 0 =
    [a, r^T] carries the fold's corner entry."""
    K, M = op.K, op.M
    with np.errstate(over="ignore", invalid="ignore"):
        d = K.diag - sigma * M.diag
        e = K.off - sigma * M.off
        finite = np.isfinite(d).all() and np.isfinite(e * e).all()
    corner = None if K.corner is None else K.corner - sigma * M.corner
    if not (finite and (corner is None or math.isfinite(corner))):
        raise DomainError(f"n = {op.n}, bc = {op.bc}, sigma = {sigma!r}: K - sigma M has "
                          "an entry or a squared off-diagonal entry that is not finite")
    r = np.zeros(op.dim - 1)
    r[0] = e[0]
    if corner is not None:
        r[-1] = corner
    T_off = e[1:]
    y, info = dgtsv(T_off, d[1:], T_off, r)[3:]
    if info > 0:
        raise FactorizationError(f"n = {op.n}, sigma = {sigma!r}: singular matrix")
    m, _, _, _, info = dstebz(d[1:], T_off, 1, -math.inf, 0.0, 0, 0, 1e300, "B")
    if info != 0:
        raise FactorizationError(f"n = {op.n}, sigma = {sigma!r}: dstebz info = {info}")
    return m + int(d[0] - r @ y < 0.0)


def lowest_eigenvalues(op: DiscreteOperator, k: int) -> np.ndarray:
    """k smallest generalized eigenvalues of (K, M), ascending.

    One shift-invert Lanczos solve below the spectrum, from a fixed start
    vector so that equal calls give equal results; the shift is stepped
    down until no eigenvalue lies below it.  Each eigenvalue lambda_j is
    then enclosed by inertia counts: at most j - 1 eigenvalues lie below
    lambda_j - delta and at least j below lambda_j + delta."""
    if not 1 <= k < op.dim:
        raise DomainError(f"k = {k}: need 1 <= k < dim = {op.dim}")
    sigma = -1.0
    # ends at a finite shift: the square of sigma M's off-diagonal leaves the
    # float range long before sigma does, and count_below raises there
    while count_below(op, sigma) > 0:
        sigma *= 4.0
    v0 = np.random.default_rng(0).standard_normal(op.dim)
    w = np.sort(scipy.sparse.linalg.eigsh(op.K.csc(), k, M=op.M.csc(), sigma=sigma,
                                          v0=v0, return_eigenvectors=False))
    for j, lam in enumerate(w.tolist(), start=1):
        delta = 1e-9 * max(1.0, abs(lam))
        below, above = count_below(op, lam - delta), count_below(op, lam + delta)
        if below > j - 1 or above < j:
            raise SearchError(
                f"n = {op.n}, bc = {op.bc}: eigenvalue {j} = {lam!r} is not certified: "
                f"{below} eigenvalues below lambda - delta (want <= {j - 1}), "
                f"{above} below lambda + delta (want >= {j})")
    return w


def discrete_bottom(n: int, bc: BoundaryCondition) -> float:
    return float(lowest_eigenvalues(assemble(n, bc), 1)[0])
