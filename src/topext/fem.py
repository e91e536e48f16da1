"""Finite-element oracle for the interval example.

Conforming piecewise-linear elements on a uniform grid discretize the
quadratic form of -d^2/dx^2 under each boundary-condition class; boundary
terms enter the stiffness matrix as form perturbations obtained by
integration by parts.  Discrete bottoms over-estimate the analytic ones
(variational one-sided error), which makes the comparison honest.

The pencil (K, M) is symmetric tridiagonal plus, after the fold
u_n = c u_0, the corner pair (0, dim-1).  Its lowest eigenvalues come from
one sparse shift-invert Lanczos solve, and each is certified by inertia
counts: by Sylvester's law the number of eigenvalues below sigma is the
number of negative eigenvalues of K - sigma M.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

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


@dataclass(frozen=True)
class DiscreteOperator:
    """Stiffness and mass as scipy.sparse CSC matrices of order dim."""

    n: int
    bc: BoundaryCondition
    stiffness: scipy.sparse.csc_matrix
    mass: scipy.sparse.csc_matrix

    @property
    def dim(self) -> int:
        return self.stiffness.shape[0]


def _constrained(n: int, bc: BoundaryCondition, c: float, diag: float, off: float,
                 b1: float) -> scipy.sparse.csc_matrix:
    """The matrix whose element matrices are [[diag, off], [off, diag]], on
    the nodes the constraint keeps: 1..n-1 for Dirichlet, 0..n-1 after the
    fold u_n = c u_0, which is P^T A P for P = [I; c e_0^T] and so changes
    only row and column 0."""
    d = np.full(n + 1, diag + diag)
    d[0] = d[-1] = diag  # the end nodes belong to one element
    e = np.full(n, off)
    if bc.variant == "dirichlet":
        d, e = d[1:-1], e[1:-1]
    else:
        d, e = d[:-1], e[:-1]
        d[0] += c * (c * diag)
        d[0] += b1
    i = np.arange(d.size)
    rows, cols, data = [i, i[:-1], i[1:]], [i, i[1:], i[:-1]], [d, e, e]
    if bc.variant != "dirichlet":
        rows.append([0, d.size - 1])
        cols.append([d.size - 1, 0])
        data.append([c * off, c * off])
    return scipy.sparse.csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(d.size, d.size))


def assemble(n: int, bc: BoundaryCondition) -> DiscreteOperator:
    """Stiffness/mass pair with the boundary constraint folded in."""
    if n < 8:
        raise DomainError("grid too coarse: need n >= 8")
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
    return DiscreteOperator(n=n, bc=bc, stiffness=K, mass=M)


def _sturm_count(d: np.ndarray, e: np.ndarray) -> int:
    """Negative eigenvalues of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e: the negative pivots of its LDL^T.  A
    pivot in [0, pivmin) is replaced by -pivmin, LAPACK's guard (dlaneg)
    against division by zero."""
    e2 = (e * e).tolist()
    pivmin = sys.float_info.min * max(1.0, max(e2, default=0.0))
    count, q = 0, 1.0
    for di, e2i in zip(d.tolist(), [0.0] + e2):
        q = di - e2i / q
        if q < 0.0:
            count += 1
        elif q < pivmin:
            q = -pivmin
            count += 1
    return count


def count_below(op: DiscreteOperator, sigma: float) -> int:
    """Number of eigenvalues of (stiffness, mass) below sigma.

    That is the negative inertia of A = K - sigma M.  Node 0 is split off:
    the rest T of A is tridiagonal, so In(A) = In(T) + In(a - r^T T^-1 r)
    (Haynsworth), with the Sturm count for In(T) and a pivoted banded solve
    for T^-1 r; row 0 = [a, r^T] carries the fold's corner entry."""
    A = op.stiffness - sigma * op.mass
    d, e = A.diagonal(), A.diagonal(1)
    r = A[:, 0].toarray().ravel()[1:]
    T = np.zeros((3, op.dim - 1))
    T[0, 1:], T[1], T[2, :-1] = e[1:], d[1:], e[1:]
    try:
        y = scipy.linalg.solve_banded((1, 1), T, r, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"n = {op.n}, sigma = {sigma!r}: {exc}") from exc
    return _sturm_count(d[1:], e[1:]) + int(d[0] - r @ y < 0.0)


def lowest_eigenvalues(op: DiscreteOperator, k: int) -> np.ndarray:
    """k smallest generalized eigenvalues of (stiffness, mass), ascending.

    One shift-invert Lanczos solve below the spectrum, from a fixed start
    vector so that equal calls give equal results; the shift is stepped
    down until no eigenvalue lies below it.  Each eigenvalue lambda_j is
    then enclosed by inertia counts: at most j - 1 eigenvalues lie below
    lambda_j - delta and at least j below lambda_j + delta."""
    if not 1 <= k < op.dim:
        raise DomainError(f"k = {k}: need 1 <= k < dim = {op.dim}")
    sigma = -1.0
    while count_below(op, sigma) > 0:
        sigma *= 4.0
        if not math.isfinite(sigma):
            raise DomainError(f"n = {op.n}, bc = {op.bc}: the shift fell to {sigma} "
                              "with eigenvalues still counted below it")
    v0 = np.random.default_rng(0).standard_normal(op.dim)
    w = np.sort(scipy.sparse.linalg.eigsh(op.stiffness, k, M=op.mass, sigma=sigma,
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
