"""Finite-element oracle for the interval example.

Conforming piecewise-linear elements on a uniform grid discretize the
quadratic form of -d^2/dx^2 under each boundary-condition class; boundary
terms enter the stiffness matrix as form perturbations obtained by
integration by parts.  Discrete bottoms over-estimate the analytic ones
(variational one-sided error), which makes the comparison honest.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .numerics import DomainError, eig_sym
from .interval import BoundaryCondition


class UnsupportedBCError(ValueError):
    """No real quadratic form exists for this parameter combination."""


@dataclass(frozen=True)
class Periodic:
    """Named constraint g(1) = g(0) (derivative matching is natural)."""


@dataclass(frozen=True)
class AntiPeriodicRobin:
    """g(1) = -g(0) plus the Robin form term b |g(0)|^2."""

    b: float = 0.0


BCSpec = Union[BoundaryCondition, Periodic, AntiPeriodicRobin]


@dataclass(frozen=True)
class DiscreteOperator:
    n: int
    bc: BCSpec
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


def _fold_last_node(K: np.ndarray, M: np.ndarray, factor: float):
    """Impose u_n = factor * u_0 and drop the last degree of freedom."""
    n = K.shape[0] - 1
    P = np.zeros((n + 1, n))
    P[:n, :n] = np.eye(n)
    P[n, 0] = factor
    return P.T @ K @ P, P.T @ M @ P


def assemble(n: int, bc: BCSpec) -> DiscreteOperator:
    """Stiffness/mass pair with the boundary constraint folded in."""
    if n < 8:
        raise DomainError("grid too coarse: need n >= 8")
    K, M = _free_matrices(n)
    if isinstance(bc, Periodic):
        K, M = _fold_last_node(K, M, 1.0)
    elif isinstance(bc, AntiPeriodicRobin):
        K, M = _fold_last_node(K, M, -1.0)
        K[0, 0] += bc.b
    elif isinstance(bc, BoundaryCondition):
        if bc.variant == "dirichlet":
            K, M = K[1:-1, 1:-1], M[1:-1, 1:-1]
        elif bc.variant == "two-dim":
            if abs(complex(bc.c).imag) > 0:
                raise UnsupportedBCError("complex coupling c is not assembled "
                                         "as a real symmetric form")
            c = complex(bc.c).real
            K[0, 0] += bc.b1
            K[-1, -1] += bc.b2
            K[0, -1] += c
            K[-1, 0] += c
        elif bc.variant == "one-dim-a":
            if abs(complex(bc.c).imag) > 0:
                raise UnsupportedBCError("complex coupling c is not assembled "
                                         "as a real symmetric form")
            K, M = _fold_last_node(K, M, complex(bc.c).real)
            K[0, 0] += bc.b1
        elif bc.variant == "one-dim-b":
            K, M = K[1:, 1:], M[1:, 1:]
            K[-1, -1] += bc.b1
        else:
            raise UnsupportedBCError(f"unknown boundary condition {bc.variant!r}")
    else:
        raise UnsupportedBCError(f"unsupported constraint {bc!r}")
    return DiscreteOperator(n=n, bc=bc, stiffness=0.5 * (K + K.T), mass=0.5 * (M + M.T))


def lowest_eigenvalues(op: DiscreteOperator, k: int) -> np.ndarray:
    """k smallest generalized eigenvalues of (stiffness, mass), ascending."""
    if k > op.dim:
        raise DomainError(f"k = {k} exceeds the operator dimension {op.dim}")
    return eig_sym(op.stiffness, op.mass, k)


def discrete_bottom(n: int, bc: BCSpec) -> float:
    return float(lowest_eigenvalues(assemble(n, bc), 1)[0])
