"""Finite-element oracle for the interval example.

Conforming piecewise-linear elements on a uniform grid discretize the
quadratic form of -d^2/dx^2 under each boundary-condition class; boundary
terms enter the stiffness matrix as form perturbations obtained by
integration by parts.  Discrete bottoms over-estimate the analytic ones
(variational one-sided error), which makes the comparison honest.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, eig_sym
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
    n: int
    bc: BoundaryCondition
    stiffness: np.ndarray
    mass: np.ndarray

    @property
    def dim(self) -> int:
        return self.stiffness.shape[0]


def _free_matrices(n: int):
    """Unconstrained stiffness/mass on the n+1 grid nodes."""
    h = 1.0 / n
    K = np.zeros((n + 1, n + 1))
    M = np.zeros((n + 1, n + 1))
    for e in range(n):
        K[e:e + 2, e:e + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
        M[e:e + 2, e:e + 2] += np.array([[2.0, 1.0], [1.0, 2.0]]) * h / 6.0
    return K, M


def _fold_last_node(A: np.ndarray, factor: float) -> np.ndarray:
    """Impose u_n = factor * u_0 and drop the last degree of freedom: P^T A P
    for P = [I; factor e_0^T], done in place, as it changes only row and column 0."""
    A[0, :] += factor * A[-1, :]
    A[:, 0] += factor * A[:, -1]
    return A[:-1, :-1]


def assemble(n: int, bc: BoundaryCondition) -> DiscreteOperator:
    """Stiffness/mass pair with the boundary constraint folded in."""
    if n < 8:
        raise DomainError("grid too coarse: need n >= 8")
    if not isinstance(bc, BoundaryCondition):
        raise UnsupportedBCError(f"unsupported constraint {bc!r}")
    if complex(bc.c).imag != 0:
        raise UnsupportedBCError(f"complex coupling c = {bc.c!r} has no real symmetric form")
    c = complex(bc.c).real
    K, M = _free_matrices(n)
    if bc.variant == "dirichlet":
        K, M = K[1:-1, 1:-1], M[1:-1, 1:-1]
    elif bc.variant == "one-dim-a":
        K, M = _fold_last_node(K, c), _fold_last_node(M, c)
        K[0, 0] += bc.b1
    else:
        raise UnsupportedBCError(f"unknown boundary condition {bc.variant!r}")
    return DiscreteOperator(n=n, bc=bc, stiffness=K, mass=M)


def lowest_eigenvalues(op: DiscreteOperator, k: int) -> np.ndarray:
    """k smallest generalized eigenvalues of (stiffness, mass), ascending."""
    return eig_sym(op.stiffness, op.mass, k)


def discrete_bottom(n: int, bc: BoundaryCondition) -> float:
    return float(lowest_eigenvalues(assemble(n, bc), 1)[0])
