"""Finite-element oracle for the interval example.

Conforming piecewise-linear elements on a uniform grid discretize the
quadratic form of -d^2/dx^2 under each boundary-condition class; boundary
terms enter the stiffness matrix as form perturbations obtained by
integration by parts.  Discrete bottoms over-estimate the analytic ones
(variational one-sided error), which makes the comparison honest.

Every constraint is the fold u_n = c u_0, with b1 added at node 0, on the
nodes first..n-1: 0..n-1, or 1..n-1 for Dirichlet, which is c = b1 = 0.

The solver reads the pencil's structure.  On nodes 1..n-1, K - lambda M is
the same symmetric Toeplitz tridiagonal block T(lambda) under every
constraint.  Its eigenvectors are the DST-I vectors
v_j = sqrt(2/n) sin(i theta_j), theta_j = j pi / n, with eigenvalues
k_j - lambda m_j, where k_j = 4n sin^2(theta_j / 2) and
m_j = (2 + cos theta_j) / (3n).  Under Dirichlet the eigenvalues of (K, M)
are the poles p_j = k_j / m_j.  The fold borders T at node 0.  Node 0's Schur
complement g(lambda) is the P1 analogue of the interval's secular equation
F(lambda) = t: it falls strictly between the poles at which node 0 has
weight (the live poles), and the eigenvalues are its zeros plus the poles
at which node 0 has no weight (half of them when c = +-1).  By Sylvester's
law the number of eigenvalues below sigma is the number of poles below sigma
plus [g(sigma) < 0] (`count_below`).  So `lowest_eigenvalues` finds each zero of g
by one Brent search between consecutive live poles, and the signs of g at
the search's ends, with the pole count, certify it.  `resolvent_form` sums
b^T (K - sigma M)^-1 b over the DST modes of b.

Errors: `lowest_eigenvalues` raises a `SearchError` when the signs of g at a
bracket's ends do not certify its zero, and a `DomainError` when an
eigenvalue it needs lies outside the float range, or when b1 and c overflow
node 0's Schur complement.  Each message names n and the constraint.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .numerics import Bracket, DomainError, SearchError, bisect, reject_nonfinite, reject_noninteger
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
    """The P1 pencil (K, M) on n elements under the constraint bc, of order
    dim on the nodes first..n-1: n and bc are all that the solvers read."""

    n: int
    bc: BoundaryCondition

    @property
    def first(self) -> int:
        return int(self.bc.variant == "dirichlet")  # Dirichlet drops node 0, where u_0 = 0

    @property
    def dim(self) -> int:
        return self.n - self.first


def assemble(n: int, bc: BoundaryCondition) -> DiscreteOperator:
    """The P1 pencil on n elements under bc, after checking that bc has a real symmetric form."""
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
    if bc.variant == "dirichlet" and (bc.b1, bc.c) != (0.0, 0.0):
        raise UnsupportedBCError(f"{bc}: Dirichlet is the fold with b1 = c = 0")
    return DiscreteOperator(n, bc)


class _Spectrum:
    """The block's modes and, after a fold, node 0's Schur complement g.

    theta_j = j pi / n for j = 1..n-1, and `poles` the block's eigenvalues
    p_j = k_j / m_j = 12 n^2 sin^2(theta_j / 2) / (2 + cos theta_j), ascending.
    Node 0 couples to the block by r = beta (e_1 + c e_{n-1}), with
    beta(lambda) = -n - lambda / (6n), so its weight on mode j is beta w_j,
    w_j = sqrt(2/n) sin theta_j (1 - c (-1)^j).  g is taken in row-sum form:
    the linear u_i = 1 + (c - 1) i / n satisfies the fold and
    K u = (b1 + (c - 1)^2) e_0 exactly, so g(lambda) = b0 - lambda h(lambda),
    b0 = b1 + (c - 1)^2, with
    h(lambda) = (M u)_0 + (n + lambda / (6n)) sum_j a_j / (p_j - lambda),
    a_j = w_j^2 / (k_j m_j).  Nothing in b0 cancels, so a zero near 0 keeps
    its relative accuracy.  The live poles, a_j > 0, are g's poles; the
    dead ones are eigenvalues."""

    def __init__(self, op: DiscreteOperator):
        n, c = op.n, op.bc.c
        self.op = op
        half = np.arange(1, n) * (0.5 * math.pi / n)  # theta_j / 2
        self.sin, self.cos = np.sin(half), np.cos(half)
        self.den = 1.0 + 2.0 * self.cos ** 2  # 2 + cos theta_j = 3n m_j
        self.poles = 12.0 * n * n * self.sin ** 2 / self.den
        if op.first:
            return
        self.odd = np.arange(1, n) % 2 * 2.0 - 1.0  # -(-1)^j
        with np.errstate(over="ignore", invalid="ignore"):
            a = 6.0 / n * (1.0 + c * self.odd) ** 2 * self.cos ** 2 / self.den
        # products, not powers, of Python floats overflow to inf without raising
        self.b0 = op.bc.b1 + (c - 1.0) * (c - 1.0)
        self.mu0 = (3.0 * (1.0 + c * c) - (c - 1.0) * (c - 1.0) / n) / (6.0 * n)  # (M u)_0
        if not (np.isfinite(a).all() and math.isfinite(self.b0) and math.isfinite(self.mu0)):
            raise DomainError(f"n = {n}, bc = {op.bc}: node 0's Schur complement overflows")
        live = a > 0.0
        self.live, self.a, self.dead = self.poles[live], a[live], self.poles[~live]

    def g(self, lam: float) -> float:
        n = self.op.n
        s = float((self.a / (self.live - lam)).sum())
        return self.b0 - lam * (self.mu0 + (n + lam / (6.0 * n)) * s)

    def count_below(self, sigma: float) -> int:
        below = int(np.searchsorted(self.poles, sigma))
        if self.op.first:
            return below
        if sigma in self.live:  # g passes from -inf to +inf
            return below + 1
        return below + int(self.g(sigma) < 0.0)

    def zero(self, lo: float, hi: float) -> float:
        """The zero of g in (lo, hi).  An end is 0, a bound on the spectrum or
        a live pole, for which its float neighbour inside stands in; g changes
        sign between a pole and that neighbour only when its zero lies
        there, and the neighbour is then the zero."""
        lo_pole, hi_pole = lo in self.live, hi in self.live
        lo = math.nextafter(lo, math.inf) if lo_pole else lo
        hi = math.nextafter(hi, -math.inf) if hi_pole else hi
        f_lo, f_hi = self.g(lo), self.g(hi)
        where = f"n = {self.op.n}, bc = {self.op.bc}: g({lo!r}) = {f_lo!r}, g({hi!r}) = {f_hi!r}"
        if math.isfinite(f_lo) and math.isfinite(f_hi):
            if f_lo > 0.0 > f_hi:
                # down to adjacent floats, so that a zero near 0 keeps its relative accuracy
                return bisect(self.g, Bracket(lo, hi, f_lo, f_hi), tol=math.ulp(0.0))
            if lo_pole and f_hi < 0.0:  # and f_lo <= 0
                return lo
            if hi_pole and f_lo > 0.0:  # and f_hi >= 0
                return hi
            if max(abs(lo), abs(hi)) < sys.float_info.max:
                raise SearchError(f"{where}: the zero of g between them is not certified")
        raise DomainError(f"{where}: an eigenvalue lies outside the float range")


def _dst(x: np.ndarray) -> np.ndarray:
    """sum_i x_i sin(i theta_j) for j = 1..n-1, with x on nodes 1..n-1: the
    DST-I, read off numpy's rfft of the odd extension (0, x, 0, -x reversed)."""
    y = np.concatenate(([0.0], x, [0.0], -x[::-1]))
    return -0.5 * np.fft.rfft(y)[1:-1].imag


def count_below(op: DiscreteOperator, sigma: float) -> int:
    """Number of eigenvalues of (K, M) below sigma, by Sylvester's law: the
    poles below sigma, plus [g(sigma) < 0] after a fold, or 1 at a live pole,
    where g passes from -inf to +inf."""
    reject_nonfinite(sigma=sigma)
    return _Spectrum(op).count_below(sigma)


def resolvent_form(op: DiscreteOperator, sigma: float, b: np.ndarray) -> float:
    """b^T (K - sigma M)^-1 b = sum_j (v_j^T b)^2 / (k_j - sigma m_j) over the
    block's modes, plus node 0's share (b_0 - r^T T^-1 b)^2 / g(sigma) after a
    fold.  A DomainError names sigma where K - sigma M is not positive
    definite, the first non-finite entry of b, or n and bc on an overflow."""
    b = np.asarray(b, dtype=float)
    if b.shape != (op.dim,):
        raise DomainError(f"b has shape {b.shape}; need ({op.dim},), one entry per node")
    bad = ~np.isfinite(b)
    if bad.any():
        i = int(bad.argmax())
        raise DomainError(f"b[{i}] is {b[i]}; a finite number is required")
    reject_nonfinite(sigma=sigma)
    spec = _Spectrum(op)
    g = math.inf if op.first else spec.g(sigma)
    if not (sigma < spec.poles[0] and g > 0.0):
        raise DomainError(f"n = {op.n}, bc = {op.bc}, sigma = {sigma!r}: K - sigma M is not "
                          f"positive definite ({spec.count_below(sigma)} eigenvalues of (K, M) "
                          "lie below sigma)")
    n = op.n
    scale = math.sqrt(2.0 / n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        mu = 4.0 * n * spec.sin ** 2 - sigma * spec.den / (3.0 * n)  # k_j - sigma m_j
        vb = scale * _dst(b if op.first else b[1:])
        form = float(np.sum(vb * vb / mu))
        if not op.first:
            w = 2.0 * scale * spec.sin * spec.cos * (1.0 + op.bc.c * spec.odd)
            rb = (-n - sigma / (6.0 * n)) * float(np.sum(w * vb / mu))  # r^T T^-1 b
            form += (b[0] - rb) ** 2 / g
    if not math.isfinite(form):
        raise DomainError(f"n = {n}, bc = {op.bc}, sigma = {sigma!r}: the form overflows")
    return form


def lowest_eigenvalues(op: DiscreteOperator, k: int) -> np.ndarray:
    """k smallest generalized eigenvalues of (K, M), ascending.

    Under Dirichlet they are the k lowest poles.  After a fold they are the
    k lowest of the dead poles and the zeros of g, one between each pair of
    consecutive live poles, one above the last, and the bottom below the
    first: in (0, first live pole) when g(0) = b0 > 0, exactly 0 when
    b0 = 0, and otherwise above the bound below, in (L, 0).  By
    u^T K u >= b1 u_0^2 and u^T M u >= u_0^2 / (6n) the spectrum lies in
    [6n min(b1, 0), 12 n^2 + 6n max(b1, 0)]; L and the top's upper end take
    twice that, within the float range."""
    reject_noninteger(k=k)
    if not 1 <= k < op.dim:
        raise DomainError(f"k = {k}: need 1 <= k < dim = {op.dim}")
    spec = _Spectrum(op)
    if op.first:
        return spec.poles[:k].copy()
    n, b1, top = op.n, op.bc.b1, sys.float_info.max
    if spec.b0 == 0.0:
        zeros = [0.0]
    else:
        zeros = [spec.zero(0.0, spec.live[0]) if spec.b0 > 0.0
                 else spec.zero(max(12.0 * n * b1, -top), 0.0)]
    ends = spec.live.tolist() + [min(24.0 * n * n + 12.0 * n * max(b1, 0.0), top)]
    for lo, hi in zip(ends, ends[1:]):
        if np.count_nonzero(spec.dead < lo) + len(zeros) >= k:  # all those below lo are known
            break
        zeros.append(spec.zero(lo, hi))
    return np.sort(np.concatenate((zeros, spec.dead)))[:k]


def discrete_bottom(op: DiscreteOperator) -> float:
    """The lowest eigenvalue of (K, M), certified."""
    return float(lowest_eigenvalues(op, 1)[0])
