import math
import re

import numpy as np
import pytest

from topext import kvb, numerics, point
from topext.numerics import DomainError, QuadratureRule

PI2 = math.pi ** 2


class TestRadialIntegral:
    def test_gaussian(self):
        # 4 pi int_0^inf e^{-r^2} dr = 4 pi sqrt(pi)/2
        val = point.radial_integral(lambda r: math.exp(-r * r))
        assert abs(val - 2.0 * math.pi ** 1.5) < 1e-10

    def test_lorentzian(self):
        # 4 pi int_0^inf dr/(1+r^2) = 2 pi^2
        val = point.radial_integral(lambda r: 1.0 / (1.0 + r * r))
        assert abs(val - 2.0 * PI2) < 1e-10

    def test_custom_rule(self):
        rule = QuadratureRule.gauss(panels=40, nodes=10)
        val = point.radial_integral(lambda r: 1.0 / (1.0 + r * r) ** 2, rule)
        assert abs(val - PI2) < 1e-9


class TestDeficiencyModel:
    def test_gram_is_pi_squared(self):
        model = point.deficiency_model_point()
        assert abs(float(model.gram[0, 0]) - PI2) < 1e-10

    def test_regularized_entry(self):
        model = point.deficiency_model_point()
        assert abs(float(model.weighted_gram(1.0)[0, 0]) - PI2) < 1e-10

    def test_regularized_entry_is_the_radial_integral_bit_for_bit(self):
        model = point.deficiency_model_point()
        value = point.radial_integral(lambda r: 1.0 / (1.0 + r * r) ** 2)
        assert model.weighted_gram(1.0)[0, 0] == value
        assert model.weighted_gram(1.0 - 5e-13)[0, 0] == value

    def test_regularized_entry_is_a_fresh_array(self):
        model = point.deficiency_model_point()
        first = model.weighted_gram(1.0)
        first[0, 0] = -1.0
        assert model.weighted_gram(1.0)[0, 0] > 0.0

    def test_build_q_runs_no_quadrature_once_the_model_exists(self, monkeypatch):
        model = point.deficiency_model_point()
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return numerics.integrate(*args, **kwargs)

        monkeypatch.setattr(point, "integrate", counting)
        tq = kvb.build_q(point.deficiency_model_point())
        assert calls == []
        assert tq.t_q_scalar == kvb.build_q(model).t_q_scalar
        model.weighted_gram(0.5)  # the counter sees the mu < m(S) branch
        assert len(calls) == 1

    def test_weighted_at_zero(self):
        # 4 pi int r^2 / (1+r^2)^3 dr = pi^2 / 4
        model = point.deficiency_model_point()
        assert abs(float(model.weighted_gram(0.0)[0, 0]) - PI2 / 4.0) < 1e-10

    def test_monotone_in_mu(self):
        model = point.deficiency_model_point()
        vals = [float(model.weighted_gram(float(mu))[0, 0])
                for mu in np.linspace(0.0, 1.0, 21)]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            point.deficiency_model_point().weighted_gram(1.5)

    def test_tq(self):
        tq = kvb.build_q(point.deficiency_model_point())
        assert abs(tq.t_q_scalar - 2.0) < 1e-6


class TestAlphaDictionary:
    def test_threshold_pairing(self):
        # t_q = 2 corresponds to alpha = 0
        assert point.alpha_to_t(0.0) == 2.0
        assert point.alpha_to_t(-1.0 / (8.0 * math.pi)) == 1.0

    def test_friedrichs_marker(self):
        assert point.extension_parameter(math.inf).is_friedrichs
        with pytest.raises(DomainError):
            point.alpha_to_t(math.inf)

    def test_minus_inf_is_rejected(self):
        with pytest.raises(DomainError, match="^alpha is -inf"):
            point.extension_parameter(-math.inf)

    @pytest.mark.parametrize("alpha", [1e307, -1e307])
    def test_overflowing_level_is_a_domain_error(self, alpha):
        with pytest.raises(DomainError, match=re.escape(f"alpha = {alpha!r}: t = 8 pi alpha")):
            point.extension_parameter(alpha)
        # the largest alpha whose level is finite still maps
        assert math.isfinite(point.alpha_to_t(math.copysign(7e306, alpha)))


class TestSpectrum:
    def test_negative_coupling(self):
        for alpha in (-1.0, -1.0 / (4.0 * math.pi), -1e-3):
            spec = point.point_spectrum(alpha)
            assert spec.eigenvalue == -(4.0 * math.pi * alpha) ** 2
            assert spec.bottom < 0.0

    def test_nonnegative_coupling(self):
        for alpha in (0.0, 1.0):
            spec = point.point_spectrum(alpha)
            assert spec.eigenvalue is None
            assert spec.bottom == 0.0
            assert spec.essential == (0.0, math.inf)


class TestClassify:
    def test_boundary(self):
        assert point.classify_point(0.0).top
        assert point.classify_point(2.0).top
        assert point.classify_point(math.inf).top
        assert not point.classify_point(-1e-9).top

    def test_agrees_with_abstract_criterion(self):
        tq = kvb.build_q(point.deficiency_model_point())
        for alpha in np.linspace(-1.0, 1.0, 21):
            T = point.extension_parameter(float(alpha))
            assert kvb.is_top_extension(T, tq) == point.classify_point(float(alpha)).top

    def test_mu_criterion_on_negative_branch(self):
        # for alpha < 0 the shifted bottom is 1 - (4 pi alpha)^2; the
        # mu-criterion must hold just below it and fail just above it
        model = point.deficiency_model_point()
        alpha = -0.05
        T = point.extension_parameter(alpha)
        bottom_shifted = 1.0 - (4.0 * math.pi * alpha) ** 2
        assert kvb.mu_criterion(T, model, bottom_shifted - 1e-4)
        assert not kvb.mu_criterion(T, model, bottom_shifted + 1e-4)
