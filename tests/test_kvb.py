import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
)
from topext.numerics import DomainError


def toy_model(m_S=1.0, w0=2.0):
    """dim-1 model with weighted_gram interpolating linearly up to w0."""

    def weighted(mu):
        return np.array([[w0 * (1.0 + mu / m_S)]])

    return DeficiencyModel(m_S=m_S, gram=np.eye(1),
                           V_basis=np.eye(1), weighted_gram=weighted)


class TestDeficiencyModel:
    def test_validation(self):
        with pytest.raises(ModelError):
            DeficiencyModel(m_S=0.0, gram=np.eye(1),
                            V_basis=np.eye(1), weighted_gram=lambda mu: np.eye(1))
        with pytest.raises(ModelError):
            DeficiencyModel(m_S=1.0, gram=np.array([[1.0, 2.0], [2.0, 1.0]]),
                            V_basis=np.eye(2), weighted_gram=lambda mu: np.eye(2))
        for gram in (np.ones((2, 3)), np.ones(2), np.ones((1, 1, 1))):
            with pytest.raises(ModelError, match="square"):
                DeficiencyModel(m_S=1.0, gram=gram,
                                V_basis=np.eye(2), weighted_gram=lambda mu: np.eye(2))
        for V_basis in (np.eye(1), np.ones((3, 1))):
            with pytest.raises(ModelError, match="V_basis rows"):
                DeficiencyModel(m_S=1.0, gram=np.eye(2),
                                V_basis=V_basis, weighted_gram=lambda mu: np.eye(1))

    def test_gram_V(self):
        g = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
        model = DeficiencyModel(m_S=1.0, gram=g,
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

    def test_independence_is_matrix_rank_below_k(self):
        # random, rank-deficient, near-deficient and wide (k > m) bases, at
        # scales from 1e-100 to 1e100
        rng = np.random.default_rng(11)
        bases = []
        for m in range(1, 5):
            for k in range(1, 6):
                A = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-100.0, 100.0)
                bases.append(A)
                if k > 1:
                    B = A.copy()
                    B[:, -1] = B[:, :-1] @ rng.standard_normal(k - 1)
                    bases += [B, np.hstack([A[:, :-1], A[:, :1]])]
                    for rel in (1e-17, 1e-16, 1e-15, 1e-14, 1e-12):
                        bases.append(B + rel * np.abs(B).max() * rng.standard_normal((m, k)))
        decisions = set()
        for D in bases:
            deficient = bool(np.linalg.matrix_rank(D) < D.shape[1])
            try:
                ExtensionParameter(D, np.eye(D.shape[1]))
                rejected = False
            except ModelError:
                rejected = True
            assert rejected == deficient, D
            decisions.add((D.shape[1] > D.shape[0], deficient))
        assert decisions == {(False, False), (False, True), (True, True)}


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name, make", [
    ("gram", lambda: DeficiencyModel(m_S=1.0, gram=[[NAN]], V_basis=np.eye(1),
                                     weighted_gram=lambda mu: np.eye(1))),
    ("V_basis", lambda: DeficiencyModel(m_S=1.0, gram=np.eye(1), V_basis=[[INF]],
                                        weighted_gram=lambda mu: np.eye(1))),
    ("V_basis", lambda: DeficiencyModel(m_S=1.0, gram=np.eye(1), V_basis=[[NAN]],
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
        model = DeficiencyModel(m_S=1.0, gram=np.eye(1),
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
        model = DeficiencyModel(m_S=1.0, gram=g,
                                V_basis=np.array([[1.0], [0.0]]),
                                weighted_gram=lambda mu: np.eye(1))
        tq = build_q(model)
        T = ExtensionParameter.scalar(100.0, np.array([[0.0], [1.0]]), g)
        assert not is_top_extension(T, tq)

    @pytest.mark.parametrize("t", [1e155, 1e300])
    def test_huge_interval_level_is_top(self, t):
        # the scale is the largest |entry|: a norm squares t and overflows
        model = interval.deficiency_model()
        assert is_top_extension(ExtensionParameter.scalar(t, model.V_basis, model.gram),
                                build_q(model))

    def test_matrix_parameter(self):
        g = np.eye(2)
        model = DeficiencyModel(m_S=1.0, gram=g, V_basis=np.eye(2),
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
        assert is_top_extension(ExtensionParameter.friedrichs(), build_q(model, 0.5))

    def test_matches_closed_form(self):
        model = toy_model(m_S=1.0, w0=2.0)
        basis, gram = model.V_basis, model.gram
        for mu in (0.1, 0.5, 0.9):
            # threshold t(mu) = mu + mu^2 w(mu)
            t_star = mu + mu ** 2 * float(model.weighted_gram(mu)[0, 0])
            assert is_top_extension(ExtensionParameter.scalar(t_star + 1e-8, basis, gram),
                                    build_q(model, mu))
            assert not is_top_extension(ExtensionParameter.scalar(t_star - 1e-6, basis, gram),
                                        build_q(model, mu))

    def test_monotone_in_mu(self):
        model = toy_model()
        T = ExtensionParameter.scalar(1.5, model.V_basis, model.gram)
        results = [is_top_extension(T, build_q(model, float(mu)))
                   for mu in np.linspace(0.05, 0.95, 19)]
        # once it fails it stays failed as mu increases
        assert results == sorted(results, reverse=True)

    def test_domain_errors(self):
        g = np.eye(2)
        model2 = DeficiencyModel(m_S=1.0, gram=g,
                                 V_basis=np.array([[1.0], [0.0]]),
                                 weighted_gram=lambda mu: np.eye(1))
        T2 = ExtensionParameter.scalar(1.0, np.array([[0.0], [1.0]]), g)
        with pytest.raises(CriterionViolatedError):
            is_top_extension(T2, build_q(model2, 0.5))


MODELS = [interval.deficiency_model, point.deficiency_model_point]


class TestOneForm:
    """build_q(model, mu) builds every q_mu; is_top_extension tests T >= q_mu."""

    @pytest.mark.parametrize("make, q, t_q", [
        (interval.deficiency_model, 3.9999999999998326, 11.9999999999995),
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
            for levels in (mu, [0.5, mu], np.array([mu, 1.0])):
                with pytest.raises(DomainError, match="mu"):
                    build_q(model, levels)
        with pytest.raises(DomainError, match="mu"):
            build_q(model, [[0.5]])

    @pytest.mark.parametrize("make", MODELS)
    @pytest.mark.parametrize("mu", [-1e160, -1e200])
    def test_q_mu_overflow_names_its_level(self, make, mu):
        # mu^2 overflows: a DomainError naming mu, not [[inf]] and a raw warning
        model = make()
        match = f"^{re.escape(f'mu = {mu!r}:')} q_mu .* overflows a float$"
        with pytest.raises(DomainError, match=match):
            build_q(model, mu)
        with pytest.raises(DomainError, match=match):
            build_q(model, np.array([-3.0, mu, -1e300, 0.5]))

    def test_t_q_is_built_once_per_model(self):
        levels = []
        model = DeficiencyModel(m_S=1.0, gram=np.eye(1), V_basis=np.eye(1),
                                weighted_gram=lambda mu: levels.append(mu) or np.eye(1))
        tq = build_q(model)
        assert build_q(model) is tq is build_q(model, 1.0)
        assert levels == [1.0]
        for array in (tq.q_matrix, tq.domain_basis, tq.V_pinv):
            assert not array.flags.writeable

    def test_family_is_its_levels(self):
        model = interval.deficiency_model()
        mus = [-3.0, 0.0, 0.5, model.m_S]
        family = build_q(model, np.array(mus))
        assert family.q_matrix.shape == (4, 1, 1)
        assert family.mu.tolist() == mus
        assert family.t_q_scalar is None
        for mu, q in zip(mus, family.q_matrix):
            assert q.tolist() == build_q(model, mu).q_matrix.tolist()

    def test_domain_outside_V(self):
        g = np.eye(2)
        model = DeficiencyModel(m_S=1.0, gram=g, V_basis=np.array([[1.0], [0.0]]),
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
        assert verify.case_krein(verify.interval_t_grid_bottoms).passed
        assert len(mus) == len(set(mus)) == 40


CRITERION = settings(derandomize=True, deadline=None, max_examples=150)
FAMILY_MODELS = {"interval": interval.deficiency_model,
                 "point": point.deficiency_model_point, "toy": toy_model}


@st.composite
def criterion_families(draw):
    """(model, T, mus): a model, 1-D levels that may repeat m(S), and a
    scalar parameter T = t on V, sometimes with t within 1e-8 of one
    level's threshold t_q(mu), sometimes (interval) on the constants,
    which are not in V, and sometimes Friedrichs."""
    model = FAMILY_MODELS[draw(st.sampled_from(sorted(FAMILY_MODELS)))]()
    m_S = model.m_S
    mus = draw(st.lists(st.one_of(st.just(m_S), st.floats(-1e3, m_S, exclude_max=True)),
                        max_size=5))
    t = draw(st.floats(-1e3, 1e3))
    if mus and draw(st.booleans()):
        t = build_q(model, mus[draw(st.integers(0, len(mus) - 1))]).t_q_scalar
        t += draw(st.sampled_from((-1e-8, 0.0, 1e-8)))
    domain = model.V_basis
    if model is interval.deficiency_model() and draw(st.booleans()):
        domain = np.array([[1.0], [0.0]])  # the constants: not in V
    if draw(st.integers(0, 9)) == 9:
        return model, ExtensionParameter.friedrichs(), mus
    return model, ExtensionParameter.scalar(t, domain, model.gram), mus


@CRITERION
@given(family=criterion_families())
def test_stacked_criterion_is_the_scalar_one_per_level(family):
    model, T, mus = family
    stacked = build_q(model, np.array(mus, dtype=float))
    scalars = [build_q(model, mu) for mu in mus]
    try:
        expected = [is_top_extension(T, q) for q in scalars]
    except CriterionViolatedError:
        # D(T) is not in V and some level is below m(S)
        assert any(mu < model.m_S for mu in mus)
        with pytest.raises(CriterionViolatedError):
            is_top_extension(T, stacked)
        return
    top = is_top_extension(T, stacked)
    assert top.dtype == bool and top.shape == (len(mus),)
    assert top.tolist() == expected
    assert all(type(x) is bool for x in expected)


class TestKreinBound:
    def test_values(self):
        assert abs(krein_bound(1.0, 1.0) - 0.5) < 1e-15
        assert krein_bound(2.0, 1e12) < 2.0  # saturates at m_S from below
        assert krein_bound(3.0, 0.0) == 0.0
        assert krein_bound(3.0, -1.0) < 0.0

    @pytest.mark.parametrize("m_S, m_T, error, match", [
        (3.0, -3.0, HypothesisViolatedError, "^need m"),
        (NAN, 1.0, DomainError, "^m_S = nan, m_T = 1.0: finite"),
        (INF, 1.0, DomainError, "^m_S = inf, m_T = 1.0: finite"),
        (3.0, NAN, DomainError, "^m_S = 3.0, m_T = nan: finite"),
        (3.0, -INF, DomainError, "^m_S = 3.0, m_T = -inf: finite"),
    ])
    def test_limits(self, m_S, m_T, error, match):
        with pytest.raises(error, match=match):
            krein_bound(m_S, m_T)

    @pytest.mark.parametrize("m_S, m_T", [(12.0, 1.797e308), (1e300, 1e300), (1e300, 1e-300),
                                          (3.0, -1.0), (-1.0, 2.0), (5.0, -4.999999999)])
    def test_exact_where_the_product_overflows(self, m_S, m_T):
        # the bound lies below m_S (or is negative for m_T in (-m_S, 0)), even
        # where m_S m_T leaves the float range
        exact = Fraction(m_S) * Fraction(m_T) / (Fraction(m_S) + Fraction(m_T))
        bound = krein_bound(m_S, m_T)
        assert math.isfinite(bound) and (bound < 0.0) == (exact < 0)
        assert abs(Fraction(bound) - exact) <= 2 * Fraction(math.ulp(float(exact)))

    def test_below_min(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m_S, m_T = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)
            assert krein_bound(m_S, m_T) <= min(m_S, m_T) + 1e-12
