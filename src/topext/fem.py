"""Finite-element oracle for the interval example.

Conforming piecewise-linear elements on a uniform grid discretize the
quadratic form of -d^2/dx^2 under each boundary-condition class; boundary
terms enter the stiffness matrix as form perturbations obtained by
integration by parts.  Discrete bottoms over-estimate the analytic ones
(variational one-sided error), which makes the comparison honest.

Every constraint is the fold u_n = c u_0, with b1 added at node 0, on the
nodes first..n-1: 0..n-1, or 1..n-1 for Dirichlet, which is c = b1 = 0.
The pencil (K, M) is held once, as bands (tridiagonal plus the fold's
corner pair), and every solve and count reads only the bands.
Each shift sigma is factored once (`_Shift`), for both its inertia count by
Sylvester's law and its solves.  `lowest_eigenvalues` takes the bottom of
the spectrum from a restarted block Krylov iteration (`_ritz`) and certifies
each eigenvalue by inertia counts; `resolvent_form` gives b^T (K - sigma M)^-1 b
for a sigma below the spectrum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqp3, dgttrf, dgttrs, dorgqr, dstebz

from .numerics import (DomainError, FactorizationError, SearchError, reject_nonfinite,
                       reject_noninteger)
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
    (dim-1, 0), which is 0 under Dirichlet."""

    diag: np.ndarray
    off: np.ndarray
    corner: float

    def dot(self, X: np.ndarray) -> np.ndarray:
        """The product with a vector or a block X of dim rows."""
        d, e = (self.diag, self.off) if X.ndim == 1 else (self.diag[:, None], self.off[:, None])
        Y = d * X
        Y[:-1] += e * X[1:]
        Y[1:] += e * X[:-1]
        Y[0] += self.corner * X[-1]
        Y[-1] += self.corner * X[0]
        return Y


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

    @property
    def first(self) -> int:
        """The first node kept: the constraint keeps nodes first..n-1."""
        return self.n - self.dim


def _constrained(n: int, first: int, c: float, diag: float, off: float, b1: float) -> Bands:
    """The matrix whose element matrices are [[diag, off], [off, diag]]
    after the fold u_n = c u_0, which is P^T A P for P = [I; c e_0^T] and so
    changes only row and column 0, on the nodes first..n-1."""
    d = np.full(n, diag + diag)
    d[0] = diag + c * (c * diag) + b1  # nodes 0 and n belong to one element each
    return Bands(d[first:], np.full(n - 1, off)[first:], c * off)


def assemble(n: int, bc: BoundaryCondition) -> DiscreteOperator:
    """Stiffness/mass pair with the boundary constraint folded in."""
    reject_noninteger(n=n)
    if n < 8:
        raise DomainError(f"n = {n}: grid too coarse, need n >= 8")
    if not isinstance(bc, BoundaryCondition):
        raise UnsupportedBCError(f"unsupported constraint {bc!r}")
    if bc.variant not in ("dirichlet", "one-dim-a"):
        raise UnsupportedBCError(f"unknown boundary condition {bc.variant!r}")
    if isinstance(bc.c, complex):
        raise UnsupportedBCError(f"complex coupling c = {bc.c!r} has no real symmetric form")
    reject_nonfinite(b1=bc.b1, c=bc.c)
    first = int(bc.variant == "dirichlet")  # Dirichlet drops node 0, where u_0 = 0
    if first and (bc.b1, bc.c) != (0.0, 0.0):
        raise UnsupportedBCError(f"{bc}: Dirichlet is the fold with b1 = c = 0")
    h = 1.0 / n
    # element matrices [[1, -1], [-1, 1]] / h and [[2, 1], [1, 2]] h / 6
    K = _constrained(n, first, bc.c, 1.0 / h, -1.0 / h, bc.b1)
    M = _constrained(n, first, bc.c, 2.0 * h / 6.0, h / 6.0, 0.0)
    return DiscreteOperator(n=n, bc=bc, K=K, M=M)


class _Shift:
    """A = K - sigma M, formed band by band, split and factored once.

    Node 0 is split off: the rest T of A is tridiagonal, factored by LAPACK's
    pivoted dgttrf, and r is node 0's coupling to it (which carries the
    fold's corner entry).  The Schur complement of T is a - r^T T^-1 s, with
    T^-1 r = T^-1 s - w.  After a fold, w is the linear vector
    w_i = 1 + (c - 1) i/n, which satisfies the fold, and (a, s) are the row
    sums A w: exactly, K w = (b1 + (c - 1)^2) e_0, so A w = that minus
    sigma M w, a sum in which nothing cancels; the Schur complement is then
    exact to rounding, however close sigma is to an eigenvalue."""

    def __init__(self, op: DiscreteOperator, sigma: float):
        K, M = op.K, op.M
        with np.errstate(over="ignore", invalid="ignore"):
            d = K.diag - sigma * M.diag
            e = K.off - sigma * M.off
            finite = np.isfinite(d).all() and np.isfinite(e * e).all()
        corner = K.corner - sigma * M.corner
        if not (finite and math.isfinite(corner)):
            raise DomainError(f"n = {op.n}, bc = {op.bc}, sigma = {sigma!r}: K - sigma M has "
                              "an entry or a squared off-diagonal entry that is not finite")
        self.n, self.sigma, self.T = op.n, sigma, (d[1:], e[1:])
        r = np.zeros(op.dim - 1)
        r[0], r[-1] = e[0], corner
        if op.first:  # Dirichlet: the only linear w with w_0 = w_n = 0 is 0
            a, s, w = d[0], r, 0.0
        else:
            c, b1 = op.bc.c, op.bc.b1
            w = 1.0 + (c - 1.0) * np.arange(op.dim) / op.n
            s = -sigma * M.dot(w)
            s[0] += b1 + (c - 1.0) ** 2
            a, s, w = s[0], s[1:], w[1:]
        *self.factors, info = dgttrf(e[1:], d[1:], e[1:])
        if info > 0:
            raise FactorizationError(f"n = {op.n}, sigma = {sigma!r}: singular matrix")
        y = dgttrs(*self.factors, s)[0]
        self.schur = a - r @ y
        self.z = y - w  # T^-1 r
        self.r0, self.r1 = r[0], r[-1]

    def count(self) -> int:
        """The negative inertia of A: In(A) = In(T) + In(schur) (Haynsworth),
        with LAPACK's Sturm count (dstebz: the eigenvalues of T in (-inf, 0],
        its pivots guarded by pivmin) for In(T)."""
        m, _, _, _, info = dstebz(*self.T, 1, -math.inf, 0.0, 0, 0, 1e300, "B")
        if info != 0:
            raise FactorizationError(f"n = {self.n}, sigma = {self.sigma!r}: dstebz info = {info}")
        return m + int(self.schur < 0.0)

    def solve(self, B: np.ndarray) -> np.ndarray:
        """A^-1 B for a block B: one dgttrs call, and node 0 from the Schur
        complement."""
        U = dgttrs(*self.factors, B[1:])[0]
        X = np.empty_like(B)
        X[0] = (B[0] - self.r0 * U[0] - self.r1 * U[-1]) / self.schur
        X[1:] = U - self.z[:, None] * X[0]
        return X


def count_below(op: DiscreteOperator, sigma: float) -> int:
    """Number of eigenvalues of (K, M) below sigma: by Sylvester's law, the
    negative inertia of K - sigma M."""
    return _Shift(op, sigma).count()


def resolvent_form(op: DiscreteOperator, sigma: float, b: np.ndarray) -> float:
    """b^T (K - sigma M)^-1 b from one factored shift, whose inertia count
    certifies K - sigma M positive definite; otherwise a DomainError naming sigma."""
    b = np.asarray(b, dtype=float)
    if b.shape != (op.dim,):
        raise DomainError(f"b has shape {b.shape}; need ({op.dim},), one entry per node")
    shift = _Shift(op, sigma)
    below = shift.count()
    if below > 0 or not shift.schur > 0.0:
        raise DomainError(f"n = {op.n}, bc = {op.bc}, sigma = {sigma!r}: K - sigma M is not "
                          f"positive definite ({below} eigenvalues of (K, M) lie below sigma)")
    return float(b @ shift.solve(b[:, None])[:, 0])


def _slopes(op: DiscreteOperator, X: np.ndarray) -> tuple:
    """x_0 and the slopes n (x_{i+1} - x_i) of every column x of X on nodes
    first..n-1, with x_0 = 0 where node 0 is not kept, and x_n = c x_0."""
    U = np.zeros((op.n + 1, X.shape[1]))
    U[op.first:-1] = X
    U[-1] = op.bc.c * U[0]
    return U[0], op.n * np.diff(U, axis=0)


def _stiffness(op: DiscreteOperator, X: np.ndarray) -> np.ndarray:
    """K X in difference form: each row is a difference of two slopes (plus
    b1 x_0 at node 0), so a smooth x loses nothing to the cancellation that
    the bands' K x suffers.  The block keeps X's layout, on which the
    rounding of V^T K V depends."""
    x0, D = _slopes(op, X)
    KX = np.empty_like(X, shape=(op.n, X.shape[1]))
    KX[1:] = D[:-1] - D[1:]
    KX[0] = op.bc.c * D[-1] - D[0] + op.bc.b1 * x0
    return KX[op.first:]


def _quotients(op: DiscreteOperator, X: np.ndarray) -> np.ndarray:
    """Rayleigh quotient of each column of X, with the energy in difference
    form, n sum (x_{i+1} - x_i)^2 + b1 x_0^2, over x^T M x."""
    x0, D = _slopes(op, X)
    energy = (D * D).sum(axis=0) / op.n + op.bc.b1 * x0 ** 2
    return energy / (X * op.M.dot(X)).sum(axis=0)


def _start(op: DiscreteOperator, p: int) -> np.ndarray:
    """The first p Chebyshev polynomials on [0, 1], at the nodes."""
    x = (np.arange(op.dim) + op.first) / op.n
    return np.cos(np.outer(np.arccos(2.0 * x - 1.0), np.arange(p)))


def _ritz(op: DiscreteOperator, k: int, poles: tuple) -> np.ndarray:
    """k Ritz vectors of (K, M) for its k lowest eigenvalues.

    `poles` is a pair of factored `_Shift`s, which may be one shift twice.
    Restarted block Krylov on p = k + 2 vectors X: a cycle extends X by
    blocks Op X, Op^2 X, ... up to 4p columns, where Op = (K - pole M)^-1 M
    takes the two poles in turn.  Each new block is orthogonalized against
    the basis (classical Gram-Schmidt, twice) and orthonormalized by
    column-pivoted QR, which drops directions below 1e-12 of the block's
    size, so a block shrinks as its directions converge.  A Rayleigh-Ritz
    step on (K, M) then gives the next X.  The quotient error of a Ritz
    vector x with residual r = K x - rho M x is about
    r^T (K - poles[0] M)^-1 r, and the cycles stop when that is below
    eps max(1, |rho|) for each of the k, when the basis spans an invariant
    subspace or the space, or when a cycle no longer halves the largest
    error."""
    dim, M = op.dim, op.M
    p = min(k + 2, dim)
    width = min(dim, 4 * p)
    X = _start(op, p)
    last = math.inf
    while True:
        V = np.empty((dim, width), order="F")
        MV = np.empty_like(V)
        V[:, :p] = np.linalg.qr(X)[0]
        MV[:, :p] = M.dot(V[:, :p])
        lo = b = step = 0
        m = p
        while m < width:
            W = poles[step % 2].solve(MV[:, lo:m])
            step += 1
            scale = np.abs(W).max()
            for _ in range(2):
                W -= V[:, :m] @ (V[:, :m].T @ W)
            qr, _, tau, _, _ = dgeqp3(W)
            b = min(int(np.count_nonzero(np.abs(np.diagonal(qr)) > 1e-12 * scale)), width - m)
            if b == 0:
                break
            V[:, m:m + b] = dorgqr(qr[:, :b], tau[:b])[0]
            MV[:, m:m + b] = M.dot(V[:, m:m + b])
            lo, m = m, m + b
        V, MV = V[:, :m], MV[:, :m]
        KV = _stiffness(op, V)
        try:
            theta, S = scipy.linalg.eigh(V.T @ KV, V.T @ MV, subset_by_index=[0, p - 1],
                                         check_finite=False)
        except np.linalg.LinAlgError as error:
            raise FactorizationError(f"n = {op.n}, bc = {op.bc}: the Krylov basis lost its "
                                     f"rank ({error})") from None
        X = V @ S
        R = KV @ S[:, :k] - (MV @ S[:, :k]) * theta[:k]
        err = (R * poles[0].solve(R)).sum(axis=0) / np.maximum(1.0, np.abs(theta[:k]))
        if err.max() <= np.finfo(float).eps or b == 0 or m == dim or err.max() > 0.5 * last:
            return X[:, :k]
        last = err.max()


def lowest_eigenvalues(op: DiscreteOperator, k: int) -> np.ndarray:
    """k smallest generalized eigenvalues of (K, M), ascending.

    The shift sigma is stepped down from -1 until no eigenvalue lies below
    it, each shift factored once for its count; `_ritz` then gives k Ritz
    vectors from a fixed start, so that equal calls give equal results, with
    the last shift and the one at -1 as poles (one shift twice if sigma
    never moved).
    Each eigenvalue is the Rayleigh quotient of its vector with the energy
    in difference form, and each, lambda_j, is enclosed by inertia counts:
    at most j - 1 eigenvalues lie below lambda_j - delta and at least j
    below lambda_j + delta."""
    reject_noninteger(k=k)
    if not 1 <= k < op.dim:
        raise DomainError(f"k = {k}: need 1 <= k < dim = {op.dim}")
    first = shift = _Shift(op, -1.0)
    # ends at a finite shift: the square of sigma M's off-diagonal leaves the
    # float range long before sigma does, and _Shift raises there
    while shift.count() > 0:
        shift = _Shift(op, 4.0 * shift.sigma)
    w = np.sort(_quotients(op, _ritz(op, k, (shift, first))))
    for j, lam in enumerate(w.tolist(), start=1):
        delta = 1e-9 * max(1.0, abs(lam))
        below, above = count_below(op, lam - delta), count_below(op, lam + delta)
        if below > j - 1 or above < j:
            raise SearchError(
                f"n = {op.n}, bc = {op.bc}: eigenvalue {j} = {lam!r} is not certified: "
                f"{below} eigenvalues below lambda - delta (want <= {j - 1}), "
                f"{above} below lambda + delta (want >= {j})")
    return w


def discrete_bottom(op: DiscreteOperator) -> float:
    """The lowest eigenvalue of (K, M), certified."""
    return float(lowest_eigenvalues(op, 1)[0])
