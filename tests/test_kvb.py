import dataclasses

import numpy as np
import pytest

from topext import interval, point, verify
from topext.kvb import (
    CriterionViolatedError,
    DeficiencyModel,
    ExtensionParameter,
    HypothesisViolatedError,
    ModelError,
    build_q,
    is_top_extension,
    krein_bound,
    mu_criterion,
    variational_sup_check,
)
from topext.numerics import DomainError


def toy_model(m_S=1.0, w0=2.0):
    """dim-1 model with weighted_gram interpolating linearly up to w0."""

    def weighted(mu):
        return np.array([[w0 * (1.0 + mu / m_S)]])

    return DeficiencyModel(m_S=m_S, dim=1, gram=np.eye(1),
                           V_basis=np.eye(1), weighted_gram=weighted)


class TestDeficiencyModel:
    def test_validation(self):
        with pytest.raises(ModelError):
            DeficiencyModel(m_S=0.0, dim=1, gram=np.eye(1),
                            V_basis=np.eye(1), weighted_gram=lambda mu: np.eye(1))
        with pytest.raises(ModelError):
            DeficiencyModel(m_S=1.0, dim=2, gram=np.array([[1.0, 2.0], [2.0, 1.0]]),
                            V_basis=np.eye(2), weighted_gram=lambda mu: np.eye(2))
        with pytest.raises(ModelError):
            DeficiencyModel(m_S=1.0, dim=2, gram=np.eye(1),
                            V_basis=np.eye(2), weighted_gram=lambda mu: np.eye(2))

    def test_gram_V(self):
        g = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
        model = DeficiencyModel(m_S=1.0, dim=2, gram=g,
                                V_basis=np.array([[1.0], [-2.0]]),
                                weighted_gram=lambda mu: np.eye(1))
        # <1-2x, 1-2x> with the {1, x} gram of L^2(0,1)
        assert abs(model.gram_V[0, 0] - 1.0 / 3.0) < 1e-14


class TestExtensionParameter:
    def test_friedrichs(self):
        T = ExtensionParameter.friedrichs()
        assert T.is_friedrichs
        with pytest.raises(ModelError):
            ExtensionParameter(None, np.eye(1))

    def test_scalar(self):
        T = ExtensionParameter.scalar(3.0, np.eye(1), 2.0 * np.eye(1))
        assert np.allclose(T.T_matrix, [[6.0]])

    def test_symmetrized(self):
        T = ExtensionParameter(np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert np.allclose(T.T_matrix, T.T_matrix.T)

    def test_rank_deficient_domain(self):
        with pytest.raises(ModelError):
            ExtensionParameter(np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name, make", [
    ("gram", lambda: DeficiencyModel(m_S=1.0, dim=1, gram=[[NAN]], V_basis=np.eye(1),
                                     weighted_gram=lambda mu: np.eye(1))),
    ("V_basis", lambda: DeficiencyModel(m_S=1.0, dim=1, gram=np.eye(1), V_basis=[[INF]],
                                        weighted_gram=lambda mu: np.eye(1))),
    ("V_basis", lambda: DeficiencyModel(m_S=1.0, dim=1, gram=np.eye(1), V_basis=[[NAN]],
                                        weighted_gram=lambda mu: np.eye(1))),
    ("domain_basis", lambda: ExtensionParameter([[NAN]], np.eye(1))),
    ("T_matrix", lambda: ExtensionParameter(np.eye(1), [[INF]])),
    ("T_matrix", lambda: ExtensionParameter.scalar(NAN, np.eye(1), np.eye(1))),
])
def test_nonfinite_entries_name_the_field(name, make):
    with pytest.raises(ModelError, match=f"^{name} has a non-finite entry"):
        make()


class TestBuildQ:
    def test_scalar_level(self):
        model = toy_model(m_S=1.0, w0=2.0)
        tq = build_q(model)
        # q = m_S * 1 + m_S^2 * weighted(m_S) = 1 + 4 = 5 on a unit vector
        assert abs(tq.q_matrix[0, 0] - 5.0) < 1e-14
        assert abs(tq.t_q_scalar - 5.0) < 1e-14

    def test_trivial_V(self):
        model = DeficiencyModel(m_S=1.0, dim=1, gram=np.eye(1),
                                V_basis=np.zeros((1, 0)),
                                weighted_gram=lambda mu: np.zeros((0, 0)))
        with pytest.raises(CriterionViolatedError):
            build_q(model)


class TestIsTopExtension:
    def test_threshold(self):
        model = toy_model()
        tq = build_q(model)
        basis, gram = model.V_basis, model.gram
        assert is_top_extension(ExtensionParameter.friedrichs(), tq)
        assert is_top_extension(ExtensionParameter.scalar(tq.t_q_scalar, basis, gram), tq)
        assert is_top_extension(ExtensionParameter.scalar(tq.t_q_scalar + 1.0, basis, gram), tq)
        assert not is_top_extension(
            ExtensionParameter.scalar(tq.t_q_scalar - 1e-6, basis, gram), tq)

    def test_domain_outside_V(self):
        g = np.eye(2)
        model = DeficiencyModel(m_S=1.0, dim=2, gram=g,
                                V_basis=np.array([[1.0], [0.0]]),
                                weighted_gram=lambda mu: np.eye(1))
        tq = build_q(model)
        T = ExtensionParameter.scalar(100.0, np.array([[0.0], [1.0]]), g)
        assert not is_top_extension(T, tq)

    def test_matrix_parameter(self):
        g = np.eye(2)
        model = DeficiencyModel(m_S=1.0, dim=2, gram=g, V_basis=np.eye(2),
                                weighted_gram=lambda mu: (1.0 + mu) * np.eye(2))
        tq = build_q(model)
        # q = I + 2 I = 3 I on the ambient basis
        assert np.allclose(tq.q_matrix, 3.0 * np.eye(2))
        ok = ExtensionParameter(np.eye(2), np.diag([3.0, 4.0]))
        bad = ExtensionParameter(np.eye(2), np.diag([3.0, 2.9]))
        assert is_top_extension(ok, tq)
        assert not is_top_extension(bad, tq)


class TestMuCriterion:
    def test_friedrichs_always(self):
        model = toy_model()
        assert mu_criterion(ExtensionParameter.friedrichs(), model, 0.5)

    def test_matches_closed_form(self):
        model = toy_model(m_S=1.0, w0=2.0)
        basis, gram = model.V_basis, model.gram
        for mu in (0.1, 0.5, 0.9):
            # threshold t(mu) = mu + mu^2 w(mu)
            t_star = mu + mu ** 2 * float(model.weighted_gram(mu)[0, 0])
            assert mu_criterion(ExtensionParameter.scalar(t_star + 1e-8, basis, gram),
                                model, mu)
            assert not mu_criterion(ExtensionParameter.scalar(t_star - 1e-6, basis, gram),
                                    model, mu)

    def test_monotone_in_mu(self):
        model = toy_model()
        T = ExtensionParameter.scalar(1.5, model.V_basis, model.gram)
        results = [mu_criterion(T, model, float(mu))
                   for mu in np.linspace(0.05, 0.95, 19)]
        # once it fails it stays failed as mu increases
        assert results == sorted(results, reverse=True)

    def test_domain_errors(self):
        model = toy_model()
        T = ExtensionParameter.scalar(1.0, model.V_basis, model.gram)
        with pytest.raises(DomainError):
            mu_criterion(T, model, 1.0)
        g = np.eye(2)
        model2 = DeficiencyModel(m_S=1.0, dim=2, gram=g,
                                 V_basis=np.array([[1.0], [0.0]]),
                                 weighted_gram=lambda mu: np.eye(1))
        T2 = ExtensionParameter.scalar(1.0, np.array([[0.0], [1.0]]), g)
        with pytest.raises(CriterionViolatedError):
            mu_criterion(T2, model2, 0.5)


MODELS = [interval.deficiency_model, point.deficiency_model_point]


class TestOneForm:
    """build_q(model, mu) builds every q_mu; is_top_extension tests T >= q_mu."""

    @pytest.mark.parametrize("make, q, t_q", [
        (interval.deficiency_model, 3.9999999999998304, 11.9999999999995),
        (point.deficiency_model_point, 19.739208802178705, 2.0),
    ])
    def test_default_mu_is_t_q_bit_for_bit(self, make, q, t_q):
        tq = build_q(make())
        assert tq.q_matrix.tolist() == [[q]]
        assert tq.t_q_scalar == t_q
        assert tq.mu is None

    @pytest.mark.parametrize("make", MODELS)
    def test_t_q_itself_is_top(self, make):
        model = make()
        tq = build_q(model)
        at = ExtensionParameter.scalar(tq.t_q_scalar, model.V_basis, model.gram)
        below = ExtensionParameter.scalar(tq.t_q_scalar * (1.0 - 1e-6), model.V_basis, model.gram)
        assert is_top_extension(at, tq)
        assert not is_top_extension(below, tq)

    @pytest.mark.parametrize("make", MODELS)
    def test_q_mu_matrix(self, make):
        model = make()
        for mu in (-3.0, 0.0, 0.5):
            q = build_q(model, mu)
            expected = mu * model.gram_V + mu ** 2 * model.weighted_gram(mu)
            assert q.q_matrix.tolist() == expected.tolist()
            assert q.mu == mu

    def test_mu_above_m_S_or_nonfinite(self):
        model = toy_model(m_S=1.0)
        for mu in (1.0 + 1e-9, NAN, -INF):
            with pytest.raises(DomainError, match="mu"):
                build_q(model, mu)

    def test_domain_outside_V(self):
        g = np.eye(2)
        model = DeficiencyModel(m_S=1.0, dim=2, gram=g, V_basis=np.array([[1.0], [0.0]]),
                                weighted_gram=lambda mu: np.eye(1))
        T = ExtensionParameter.scalar(100.0, np.array([[0.0], [1.0]]), g)
        assert not is_top_extension(T, build_q(model))
        with pytest.raises(CriterionViolatedError):
            is_top_extension(T, build_q(model, 0.5))

    def test_krein_case_builds_each_q_mu_once(self, monkeypatch):
        model = interval.deficiency_model()
        mus = []

        def counted(mu):
            mus.append(mu)
            return model.weighted_gram(mu)

        wrapped = dataclasses.replace(model, weighted_gram=counted)
        monkeypatch.setattr(interval, "deficiency_model", lambda terms=10_000: wrapped)
        assert verify.case_krein().passed
        assert len(mus) == len(set(mus)) == 40


class TestKreinBound:
    def test_values(self):
        assert abs(krein_bound(1.0, 1.0) - 0.5) < 1e-15
        assert krein_bound(2.0, 1e12) < 2.0  # saturates at m_S from below

    def test_limits(self):
        assert krein_bound(3.0, 0.0) == 0.0
        assert krein_bound(3.0, -1.0) < 0.0
        with pytest.raises(HypothesisViolatedError):
            krein_bound(3.0, -3.0)

    def test_below_min(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m_S, m_T = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)
            assert krein_bound(m_S, m_T) <= min(m_S, m_T) + 1e-12


class TestVariationalSup:
    def test_never_exceeds_closed_form(self):
        rng = np.random.default_rng(0)
        for i in range(20):
            B = rng.standard_normal((5, 5))
            A = B @ B.T + 5.0 * np.eye(5)
            h = rng.standard_normal(5)
            sup, closed = variational_sup_check(A, h, samples=1000, seed=i)
            assert sup <= closed * (1.0 + 1e-12)
            assert sup >= closed * (1.0 - 1e-12)  # the maximizer is sampled

    def test_closed_form_identity(self):
        A = np.diag([1.0, 2.0, 4.0])
        h = np.array([1.0, 1.0, 1.0])
        _, closed = variational_sup_check(A, h, samples=10, seed=0)
        assert abs(closed - (1.0 + 0.5 + 0.25)) < 1e-14

    def test_not_pd(self):
        from topext.numerics import FactorizationError
        with pytest.raises(FactorizationError):
            variational_sup_check(-np.eye(3), np.ones(3))
