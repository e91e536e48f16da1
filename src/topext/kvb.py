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

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .numerics import DomainError, FactorizationError, is_psd, reject_nonfinite

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

    gram holds <u_i, u_j> for a fixed basis {u_i} of ker S*.  V_basis
    expresses a basis of V in the {u_i} coordinates (one column per V
    vector).  weighted_gram(mu) returns <v_i, (S_F - mu)^{-1} v_j> on the
    V basis for mu < m_S, and the regularized entries
    <(S_F - m_S)^{-1/2} v_i, (S_F - m_S)^{-1/2} v_j> at mu = m_S.
    """

    m_S: float
    dim: int
    gram: np.ndarray
    V_basis: np.ndarray
    weighted_gram: Callable[[float], np.ndarray] = field(compare=False)

    def __post_init__(self):
        if not self.m_S > 0:
            raise ModelError("construction requires m(S) > 0 (shift the operator first)")
        gram = np.asarray(self.gram, dtype=float)
        Vb = np.atleast_2d(np.asarray(self.V_basis, dtype=float))
        _reject_nonfinite(gram=gram, V_basis=Vb)
        if gram.shape != (self.dim, self.dim):
            raise ModelError(f"gram must be {self.dim}x{self.dim}")
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise ModelError("gram matrix must be positive definite") from exc
        if Vb.shape[0] != self.dim:
            raise ModelError("V_basis rows must match the ker S* dimension")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "V_basis", Vb)

    @property
    def gram_V(self) -> np.ndarray:
        """Gram matrix of the V basis vectors."""
        return self.V_basis.T @ self.gram @ self.V_basis


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
        k = D.shape[1]
        if np.linalg.matrix_rank(D) < k:
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
    """The form q_mu on its domain V, the scalar level when dim V = 1, and
    mu when it lies below m(S) (None for T_q = q_{m(S)})."""

    domain_basis: np.ndarray
    q_matrix: np.ndarray
    t_q_scalar: Optional[float] = None
    mu: Optional[float] = None


def _express(target: np.ndarray, basis: np.ndarray):
    """Least-squares coefficients of target columns in the basis columns,
    plus whether the span inclusion holds within TOL."""
    C, *_ = np.linalg.lstsq(basis, target, rcond=None)
    residual = np.linalg.norm(basis @ C - target)
    return C, residual <= TOL * max(1.0, np.linalg.norm(target))


def build_q(model: DeficiencyModel, mu: Optional[float] = None) -> TqResult:
    """Assemble q_mu[v] = mu ||v||^2 + mu^2 <v, (S_F - mu)^{-1} v> on the V
    basis.  mu defaults to m(S), where q_mu is T_q; errors out when V is
    trivial or mu > m(S)."""
    level = model.m_S if mu is None else mu
    reject_nonfinite(mu=level)
    if level > model.m_S:
        raise DomainError(f"mu = {mu!r} exceeds m(S) = {model.m_S}")
    Vb = model.V_basis
    if Vb.shape[1] == 0 or not Vb.any():
        raise CriterionViolatedError(
            "V is trivial: the Friedrichs extension is the only top extension")
    gram_V = model.gram_V
    W = np.atleast_2d(np.asarray(model.weighted_gram(level), dtype=float))
    q = level * gram_V + level ** 2 * W
    q = 0.5 * (q + q.T)
    t_q = float(q[0, 0] / gram_V[0, 0]) if Vb.shape[1] == 1 else None
    return TqResult(Vb, q, t_q, None if level == model.m_S else level)


def is_top_extension(T: ExtensionParameter, tq: TqResult) -> bool:
    """T >= q on D(T): T is Friedrichs, or D(T) lies in V and T - q is PSD
    there (boundary included).  D(T) outside V gives False for T_q, and a
    CriterionViolatedError for q_mu, mu < m(S), undefined off V."""
    if T.is_friedrichs:
        return True
    if T.domain_basis.shape[0] != tq.domain_basis.shape[0]:
        raise ModelError("parameter and q-form use different ambient bases")
    C, included = _express(T.domain_basis, tq.domain_basis)
    if not included:
        if tq.mu is None:
            return False
        raise CriterionViolatedError("D(T) is not in V; weighted_gram is undefined on it")
    q_D = C.T @ tq.q_matrix @ C
    scale = max(np.linalg.norm(T.T_matrix), np.linalg.norm(q_D))
    return is_psd(T.T_matrix - q_D + TOL * scale * np.eye(len(q_D)), 0.0)


def mu_criterion(T: ExtensionParameter, model: DeficiencyModel, mu: float) -> bool:
    """True iff m(S_T) >= mu < m(S), read off the parameter as T >= q_mu."""
    if mu >= model.m_S:
        raise DomainError(f"mu must be below m(S) = {model.m_S}")
    return is_top_extension(T, build_q(model, mu))


def krein_bound(m_S: float, m_T: float) -> float:
    """Certified lower bound m(S) m(T) / (m(S) + m(T)) for m(S_T)."""
    if m_T <= -m_S:
        raise HypothesisViolatedError(f"need m(T) > -m(S), got {m_T} <= {-m_S}")
    return m_S * m_T / (m_S + m_T)


def variational_sup_check(A: np.ndarray, h: np.ndarray, samples: int = 1000,
                          seed: int = 0):
    """Numerically probe sup_f |<f,h>|^2 / <f,Af> against <h, A^{-1} h>.

    Returns (sup_estimate, closed_form).  The sup estimate maximizes over
    `samples` random directions plus the analytic maximizer f = A^{-1} h,
    which attains the closed form exactly.
    """
    A = np.asarray(A, dtype=float)
    h = np.asarray(h, dtype=float)
    try:
        L = np.linalg.cholesky(0.5 * (A + A.T))
    except np.linalg.LinAlgError as exc:
        raise FactorizationError("A must be positive definite") from exc
    y = np.linalg.solve(L, h)
    x = np.linalg.solve(L.T, y)          # x = A^{-1} h
    closed_form = float(h @ x)
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((samples, h.size))
    num = (F @ h) ** 2
    den = np.einsum("ij,jk,ik->i", F, A, F)
    ratios = num / den
    sup_estimate = float(max(ratios.max(initial=0.0), closed_form))
    return sup_estimate, closed_form
