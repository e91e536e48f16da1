"""Abstract layer: extension parameters on the deficiency space.

A lower semi-bounded symmetric operator S with bound m(S) > 0 has its
self-adjoint extensions labelled by self-adjoint operators T on subspaces
of ker S*.  This module works with finite-dimensional snapshots of that
data and decides which parameters T give extensions whose bottom equals
the Friedrichs bound ("top extensions"): exactly those with T >= T_q,
where T_q is the operator of the strictly positive form

    q[v] = m(S) ||v||^2 + m(S)^2 ||(S_F - m(S))^{-1/2} v||^2

on V = ran(S_F - m(S))^{1/2} \\cap ker S*.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .numerics import DomainError, is_psd, reject_nonfinite

TOL = 1e-10  # D(T) in V and T >= q hold to within TOL relative to their size


class CriterionViolatedError(Exception):
    """The non-trivial-intersection criterion fails: only the Friedrichs
    extension keeps the lower bound (or a parameter domain escapes V)."""


class ModelError(ValueError):
    """Inconsistent dimensions or non-finite entries in a parameter or a model."""


class HypothesisViolatedError(ValueError):
    """m(T) <= -m(S): the lower-bound formula does not apply."""


def _reject_nonfinite(**arrays: np.ndarray) -> None:
    for name, A in arrays.items():
        if not np.isfinite(A).all():
            raise ModelError(f"{name} has a non-finite entry")


@dataclass(frozen=True)
class DeficiencyModel:
    """Finite-dimensional snapshot of one example operator.

    gram holds <u_i, u_j> for a fixed basis {u_i} of ker S*, so its order
    is the dimension of ker S*.  V_basis expresses a basis of V in the
    {u_i} coordinates (one column per V vector).  weighted_gram(mu)
    returns <v_i, (S_F - mu)^{-1} v_j> on the V basis for mu < m_S, and
    the regularized entries <(S_F - m_S)^{-1/2} v_i, (S_F - m_S)^{-1/2} v_j>
    at mu = m_S.
    """

    m_S: float
    gram: np.ndarray
    V_basis: np.ndarray
    weighted_gram: Callable[[float], np.ndarray] = field(compare=False)

    def __post_init__(self):
        if not self.m_S > 0:
            raise ModelError("construction requires m(S) > 0 (shift the operator first)")
        gram = np.asarray(self.gram, dtype=float)
        Vb = np.atleast_2d(np.asarray(self.V_basis, dtype=float))
        _reject_nonfinite(gram=gram, V_basis=Vb)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ModelError(f"gram must be a square matrix, got shape {gram.shape}")
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise ModelError("gram matrix must be positive definite") from exc
        if Vb.shape[0] != gram.shape[0]:
            raise ModelError("V_basis rows must match the ker S* dimension")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "V_basis", Vb)

    @property
    def gram_V(self) -> np.ndarray:
        """Gram matrix of the V basis vectors."""
        return self.V_basis.T @ self.gram @ self.V_basis

    @cached_property
    def V_pinv(self) -> np.ndarray:
        """Pseudo-inverse of V_basis, computed once per model."""
        pinv = np.linalg.pinv(self.V_basis)
        pinv.flags.writeable = False
        return pinv

    @cached_property
    def T_q(self) -> "TqResult":
        """q at mu = m(S), built once per model with read-only arrays."""
        return _assemble_q(self, np.array(self.m_S, dtype=float))


@dataclass(frozen=True)
class ExtensionParameter:
    """A self-adjoint T on a subspace of ker S*, or the Friedrichs marker.

    domain_basis has one column per basis vector of D(T), in the ambient
    ker S* coordinates; T_matrix holds <v_i, T v_j> on that basis.  The
    Friedrichs extension carries an empty domain (formally "T = infinity").
    """

    domain_basis: Optional[np.ndarray] = None
    T_matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.domain_basis is None:
            if self.T_matrix is not None:
                raise ModelError("Friedrichs marker carries no matrix")
            return
        D = np.atleast_2d(np.asarray(self.domain_basis, dtype=float))
        T = np.atleast_2d(np.asarray(self.T_matrix, dtype=float))
        _reject_nonfinite(domain_basis=D, T_matrix=T)
        # np.linalg.matrix_rank(D) < k on one SVD: k > m, or the least
        # singular value is at most matrix_rank's tolerance S_max max(m, k) eps
        m, k = D.shape
        s = np.linalg.svd(D, compute_uv=False)
        if k > m or (k and s[-1] <= s[0] * (max(m, k) * np.finfo(float).eps)):
            raise ModelError("domain_basis columns must be linearly independent")
        if T.shape != (k, k):
            raise ModelError("T_matrix size must match the domain basis")
        object.__setattr__(self, "domain_basis", D)
        object.__setattr__(self, "T_matrix", 0.5 * (T + T.T))

    @classmethod
    def friedrichs(cls) -> "ExtensionParameter":
        return cls()

    @classmethod
    def scalar(cls, t: float, domain_basis: np.ndarray, gram: np.ndarray) -> "ExtensionParameter":
        """Multiplication by t on the span of one or more basis columns."""
        D = np.atleast_2d(np.asarray(domain_basis, dtype=float))
        return cls(D, t * (D.T @ np.asarray(gram, dtype=float) @ D))

    @property
    def is_friedrichs(self) -> bool:
        return self.domain_basis is None


@dataclass(frozen=True)
class Classification:
    """One example's verdict on one extension: top (keeps the Friedrichs
    bottom m(S)) or not, its spectral bottom, its label, and for the
    interval the level t.  Build it with `of`."""

    top: bool
    bottom: float
    label: str
    t: Optional[float] = None

    @classmethod
    def of(cls, top: bool, bottom: float, friedrichs: bool = False,
           t: Optional[float] = None) -> "Classification":
        """The one label rule: the Friedrichs extension (alpha = +inf, or
        Dirichlet conditions) is "Friedrichs", any other "Top" or "NotTop"."""
        label = "Friedrichs" if friedrichs else ("Top" if top else "NotTop")
        return cls(top, bottom, label, t)


@dataclass(frozen=True)
class TqResult:
    """The form q_mu on its domain V: q_matrix is (k, k) for one level and
    (m, k, k) for a family of m levels.  t_q_scalar is the scalar level when
    dim V = 1 and one level was asked for; mu is that level when it lies below
    m(S) (None for T_q = q_{m(S)}), or the array of the m levels of a family.
    V_pinv is the pseudo-inverse of domain_basis."""

    domain_basis: np.ndarray
    q_matrix: np.ndarray
    m_S: float
    V_pinv: np.ndarray
    t_q_scalar: Optional[float] = None
    mu: Union[None, float, np.ndarray] = None


def build_q(model: DeficiencyModel, mu: Union[None, float, np.ndarray] = None) -> TqResult:
    """Assemble q_mu[v] = mu ||v||^2 + mu^2 <v, (S_F - mu)^{-1} v> on the V
    basis, for one level mu or for each level of a 1-D array (a family of m
    forms, one weighted_gram call per level).  mu defaults to m(S), where
    q_mu is T_q, built once per model; errors out when V is trivial, or a
    level is non-finite, above m(S) or so low that q_mu overflows (a
    DomainError naming the first such level)."""
    levels = np.array(model.m_S if mu is None else mu, dtype=float)
    if levels.ndim > 1:
        raise DomainError(f"mu has shape {levels.shape}; a level or a 1-D array "
                          "of levels is required")
    for level in levels.ravel().tolist():
        reject_nonfinite(mu=level)
        if level > model.m_S:
            raise DomainError(f"mu = {level!r} exceeds m(S) = {model.m_S}")
        # below about -1.3e154 mu^2 overflows, and q_mu with it: refused before
        # weighted_gram is asked for the level
        if level * level == math.inf:
            raise DomainError(f"mu = {level!r}: q_mu = mu ||v||^2 + "
                              "mu^2 <v, (S_F - mu)^-1 v> overflows a float")
    if levels.ndim == 0 and levels == model.m_S:
        return model.T_q
    return _assemble_q(model, levels)


def _assemble_q(model: DeficiencyModel, levels: np.ndarray) -> TqResult:
    Vb = model.V_basis
    if Vb.shape[1] == 0 or not Vb.any():
        raise CriterionViolatedError(
            "V is trivial: the Friedrichs extension is the only top extension")
    gram_V = model.gram_V
    W = np.empty(levels.shape + gram_V.shape)
    for i, level in np.ndenumerate(levels):
        W[i] = model.weighted_gram(float(level))
    mu = levels[..., None, None]
    q = mu * gram_V + mu ** 2 * W
    q = 0.5 * (q + q.swapaxes(-1, -2))
    basis = Vb.view()
    for array in (levels, q, basis):
        array.flags.writeable = False
    t_q = float(q[0, 0] / gram_V[0, 0]) if q.ndim == 2 and Vb.shape[1] == 1 else None
    level = levels if levels.ndim else (None if levels == model.m_S else float(levels))
    return TqResult(basis, q, model.m_S, model.V_pinv, t_q, level)


def _decided(top: np.ndarray) -> Union[bool, np.ndarray]:
    """A Python bool for one form, the bool array for a family."""
    return bool(top) if np.ndim(top) == 0 else top


def is_top_extension(T: ExtensionParameter, tq: TqResult) -> Union[bool, np.ndarray]:
    """T >= q on D(T): T is Friedrichs, or D(T) lies in V and T - q is PSD
    there (boundary included), to within TOL times the largest |entry| of T
    and of q on D(T).  For a family of m forms it decides each member alone
    and returns a bool array of shape (m,).  D(T) outside V gives False when
    every level is m(S), and a CriterionViolatedError when one is below m(S):
    q_mu is undefined off V."""
    q = tq.q_matrix
    if T.is_friedrichs:
        return _decided(np.ones(q.shape[:-2], dtype=bool))
    D = T.domain_basis
    if D.shape[0] != tq.domain_basis.shape[0]:
        raise ModelError("parameter and q-form use different ambient bases")
    C = tq.V_pinv @ D  # least-squares coefficients of D(T) in the V basis
    if np.linalg.norm(tq.domain_basis @ C - D) > TOL * max(1.0, np.linalg.norm(D)):
        levels = tq.m_S if tq.mu is None else tq.mu
        if np.all(levels == tq.m_S):
            return _decided(np.zeros(q.shape[:-2], dtype=bool))
        raise CriterionViolatedError("D(T) is not in V; weighted_gram is undefined on it")
    q_D = C.T @ q @ C
    # largest |entries|, not Frobenius norms, which square them and overflow
    scale = np.maximum(np.abs(T.T_matrix).max(initial=0.0),
                       np.abs(q_D).max(axis=(-2, -1), initial=0.0))
    return is_psd(T.T_matrix - q_D + (TOL * scale)[..., None, None] * np.eye(D.shape[1]))


def krein_bound(m_S: float, m_T: float) -> float:
    """Certified lower bound m(S) m(T) / (m(S) + m(T)) for m(S_T).

    It is taken as small / (1 + small / big), where big is whichever of
    m(S), m(T) has the larger magnitude: the ratio lies in (-1, 1], so
    neither it nor a product of the two overflows."""
    if not (-math.inf < m_S < math.inf and -math.inf < m_T < math.inf):
        raise DomainError(f"m_S = {m_S!r}, m_T = {m_T!r}: finite numbers are required")
    if m_T <= -m_S:
        raise HypothesisViolatedError(f"need m(T) > -m(S), got {m_T} <= {-m_S}")
    small, big = sorted((m_S, m_T), key=abs)
    return small / (1.0 + small / big)
