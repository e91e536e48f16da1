import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topext import interval, kvb
from topext.interval import ConvergenceError, PoleError
from topext.numerics import DomainError, SearchError, integrate

PI2 = math.pi ** 2


class TestResolventAtBottom:
    def test_ode_residual(self):
        # w = (S_F - pi^2)^{-1}(1-2x): -w'' - pi^2 w = 1 - 2x, w(0) = w(1) = 0
        res = interval.resolvent_at_bottom()
        assert abs(res(0.0)) < 1e-15 and abs(res(1.0)) < 1e-15
        for x in np.linspace(0.05, 0.95, 19):
            second = -math.cos(math.pi * x)  # res'' in closed form
            assert abs(-second - PI2 * res(x) - (1.0 - 2.0 * x)) < 1e-12

    def test_minimal_norm(self):
        # orthogonal to the ground mode sin(pi x)
        res = interval.resolvent_at_bottom()
        val = integrate(lambda x: res(x) * np.sin(math.pi * x), 0.0, 1.0, 64, 10)
        assert abs(val) < 1e-13


class TestDeficiencyModel:
    def test_gram(self):
        model = interval.deficiency_model()
        assert np.allclose(model.gram, [[1.0, 0.5], [0.5, 1.0 / 3.0]], atol=1e-13)
        assert abs(model.gram_V[0, 0] - 1.0 / 3.0) < 1e-13

    def test_weighted_gram_closed_value(self):
        # sum over even n of (8/(n^2 pi^2)) / (n^2 pi^2 - pi^2) telescopes
        # to (4 - pi^2/3)/pi^4
        model = interval.deficiency_model()
        w = float(model.weighted_gram(PI2)[0, 0])
        assert abs(w - (4.0 - PI2 / 3.0) / PI2 ** 2) < 1e-10

    def test_weighted_gram_at_zero(self):
        # <v, S_F^{-1} v> with v = 1 - 2x: quadrature route
        # S_F^{-1}(1 - 2x) = x/6 - x^2/2 + x^3/3 (-u'' = 1 - 2x, u(0) = u(1) = 0)
        model = interval.deficiency_model()
        direct = integrate(
            lambda x: (1.0 - 2.0 * x) * (x / 6.0 - x * x / 2.0 + x ** 3 / 3.0),
            0.0, 1.0, 64, 10)
        assert abs(float(model.weighted_gram(0.0)[0, 0]) - direct) < 1e-10

    def test_domain_guard(self):
        model = interval.deficiency_model()
        with pytest.raises(DomainError):
            model.weighted_gram(PI2 + 1.0)

    def test_tail_budget(self):
        with pytest.raises(ConvergenceError):
            interval.deficiency_model(terms=10).weighted_gram(0.0)

    def test_terms_bound(self):
        # the cache would keep two float arrays of `terms` entries
        build = interval.deficiency_model.__wrapped__
        assert build(interval._MAX_TERMS).m_S == PI2
        for terms in (interval._MAX_TERMS + 1, 10 ** 9):
            with pytest.raises(DomainError, match=f"^terms = {terms}; at most"):
                interval.deficiency_model(terms)

    def test_tq(self):
        tq = kvb.build_q(interval.deficiency_model())
        assert abs(tq.t_q_scalar - 12.0) < 1e-6
        assert abs(float(tq.q_matrix[0, 0]) - 4.0) < 1e-6


class TestSecularFunction:
    def test_exact_values(self):
        assert interval.secular_F(PI2) == 12.0
        assert interval.secular_F(9.0 * PI2) == 12.0
        assert interval.secular_F(0.0) == 0.0

    def test_known_points(self):
        # F(pi^2/4) = 12 - 3 pi cot(pi/4) = 12 - 3 pi
        assert abs(interval.secular_F(PI2 / 4.0) - (12.0 - 3.0 * math.pi)) < 1e-12

    def test_hyperbolic_branch(self):
        kappa = 2.0
        expected = 12.0 - 6.0 * kappa / math.tanh(1.0)
        assert abs(interval.secular_F(-4.0) - expected) < 1e-12

    def test_small_lambda_series(self):
        # F = lambda + lambda^2/60 + lambda^3/2520 + ...: no cancellation error near 0
        for lam in (1e-10, 1e-8, 1e-6, 1e-4):
            assert abs(interval.secular_F(lam) - (lam + lam * lam / 60.0)) <= 1e-14

    def test_relative_accuracy_near_zero(self):
        # the cot and coth forms cancel 12 - 12(1 + O(lambda)) here: they gave
        # F(1e-16) = -1.78e-15 and F(-1e-12) 8.9e-5 off
        for lam in (1e-16, -1e-12, -5.78e-167):
            series = lam * (1.0 + lam / 60.0 + lam * lam / 2520.0)
            assert abs(interval.secular_F(lam) - series) <= 1e-12 * abs(series), lam

    def test_continuity_at_zero(self):
        assert abs(interval.secular_F(1e-8) - interval.secular_F(-1e-8)) < 1e-6

    @pytest.mark.parametrize("lam, error, match", [
        (4.0 * PI2, PoleError, "within 1e-13"),
        (16.0 * PI2 + 1e-12, PoleError, "within 1e-13"),
        (math.nan, DomainError, "^lam is nan"),
        (math.inf, DomainError, "^lam is inf"),
        (-math.inf, DomainError, "^lam is -inf"),
    ])
    def test_pole_guard(self, lam, error, match):
        with pytest.raises(error, match=match):
            interval.secular_F(lam)

    def test_increasing_between_poles(self):
        lams = np.linspace(4.0 * PI2 + 0.5, 16.0 * PI2 - 0.5, 200)
        vals = [interval.secular_F(float(l)) for l in lams]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


class TestSpectrum:
    def test_t12_bottom(self):
        spec = interval.spectrum(12.0, cutoff=200.0)
        assert abs(spec.bottom - PI2) < 1e-10
        assert spec.sin_family[0] == PI2

    def test_t0(self):
        spec = interval.spectrum(0.0, cutoff=50.0)
        assert abs(spec.bottom) < 1e-9

    def test_roots_solve_secular(self):
        for t in (-20.0, 3.0, 12.0, 40.0, 250.0):
            spec = interval.spectrum(t, cutoff=400.0)
            for root in spec.secular_roots:
                assert abs(interval.secular_F(root) - t) < 1e-7 * max(1.0, abs(t))

    @pytest.mark.parametrize("t", [12.0, 9.0, 0.0, -50.0, 200.0, -288.0])
    def test_roots_within_4_ulps_of_50_digit_roots(self, t):
        mpmath = pytest.importorskip("mpmath")

        def F(lam):  # 12 - 6 sqrt(lambda) cot(sqrt(lambda)/2), analytic at 0
            if lam > 0:
                s = mpmath.sqrt(lam)
                return 12 - 6 * s * mpmath.cot(s / 2)
            kappa = mpmath.sqrt(-lam)
            return 12 - 6 * kappa * mpmath.coth(kappa / 2) if lam < 0 else mpmath.mpf(0)

        roots = interval.spectrum(t, cutoff=1000.0).secular_roots
        assert len(roots) == 5
        with mpmath.workdps(50):
            for root in roots:
                exact = mpmath.findroot(lambda lam: F(lam) - t, mpmath.mpf(root))
                if exact == 0:
                    assert root == 0.0
                else:
                    assert abs(root - exact) <= 4 * math.ulp(float(exact)), (root, exact)

    def test_roots_at_tq_are_the_sin_family(self):
        # at t = t_q = 12, F = t reads cot(sqrt(lambda)/2) = 0
        spec = interval.spectrum(12.0, cutoff=1000.0)
        assert len(spec.secular_roots) == len(spec.sin_family) == 5
        for root, value in zip(spec.secular_roots, spec.sin_family):
            assert abs(root - value) <= math.ulp(value), (root, value)

    def test_bottom_relative_accuracy_near_zero(self):
        # F(lambda) = t inverts to lambda = t - t^2/60 + O(t^3); the root
        # search stops at 1e-12 |t| below |t| = 1 (it was 1e-12 absolute)
        for t in (-1e-12, -5.78e-167):
            expected = t - t * t / 60.0
            assert abs(interval.spectrum(t).bottom - expected) <= 1e-12 * abs(expected), t

    def test_negative_bottom_for_large_negative_t(self):
        spec = interval.spectrum(-50.0, cutoff=50.0)
        assert spec.bottom < 0.0
        assert abs(interval.secular_F(spec.bottom) + 50.0) < 1e-8

    def test_monotone_bottom(self):
        bottoms = [interval.spectrum(t, cutoff=50.0).bottom
                   for t in np.linspace(-30.0, 100.0, 27)]
        assert all(b2 >= b1 - 1e-10 for b1, b2 in zip(bottoms, bottoms[1:]))

    def test_bottom_capped_at_pi2(self):
        for t in (12.0, 50.0, 1e6):
            assert interval.spectrum(t, cutoff=50.0).bottom <= PI2 + 1e-12

    def test_cutoff_validation(self):
        with pytest.raises(DomainError):
            interval.spectrum(12.0, cutoff=-1.0)

    def test_cutoff_with_too_many_levels(self):
        # about 1.6e9 eigenvalues per family: refused before any list is built
        with pytest.raises(DomainError, match="^cutoff"):
            interval.spectrum(12.0, cutoff=1e20)


class TestClassify:
    def test_boundary(self):
        assert interval.classify(0.0).top
        assert interval.classify(5.0).top
        assert not interval.classify(-1e-12).top

    def test_t_dictionary(self):
        assert interval.classify(0.0).t == 12.0
        assert interval.classify(-4.0).t == 0.0
        assert interval.b_to_t(8.0) == 36.0

    def test_agrees_with_abstract_criterion(self):
        model = interval.deficiency_model()
        tq = kvb.build_q(model)
        for b in np.linspace(-3.0, 3.0, 13):
            T = kvb.ExtensionParameter.scalar(
                interval.b_to_t(float(b)), model.V_basis, model.gram)
            assert kvb.is_top_extension(T, tq) == interval.classify(float(b)).top


class TestSearchBudgets:
    def test_extreme_t_still_roots(self):
        # very negative t pushes the first root far down the hyperbolic branch
        root = interval.spectrum(-1e4, cutoff=50.0).bottom
        assert root < -1e6
        assert abs(interval.secular_F(root) + 1e4) < 1e-4

    def test_deep_negative_bottom_follows_asymptote(self):
        # no fixed floor on the negative-branch scan: for t -> -inf the
        # bottom is -(t/6 - 2)^2 = -b^2/4, far below lambda = -1e12
        for b in (-1e7, -1e10):
            bottom = interval.spectrum(interval.b_to_t(b), cutoff=50.0).bottom
            assert abs(bottom + b * b / 4.0) <= 1e-12 * b * b / 4.0

    def test_extreme_t_one_root_per_branch(self):
        # next to the poles 4 k^2 pi^2 the roots sit only ~96 k^2 pi^2/|t| away
        for t, count in ((1e13, 22), (-1e13, 23)):
            roots = interval.spectrum(t, cutoff=20000.0).secular_roots
            # branches k = 0..22 start below the cutoff; at t = 1e13 the root
            # of k = 22 sits just below 4 * 23^2 pi^2, above the cutoff
            branches = [math.floor(math.sqrt(max(r, 0.0)) / (2.0 * math.pi)) for r in roots]
            assert branches == list(range(count))
            for r in roots:
                width = 1e-12 * abs(r)
                assert interval.secular_F(r - width) <= t <= interval.secular_F(r + width)


def phase_root(t, k, mpmath):
    """The branch-k root lambda = (2x)^2 of x cot x = 1 - t/12 at 40 digits:
    Newton on r(x) = x - (k + 1/2) pi + arctan(beta/x), whose slope lies
    within 1/(2 pi) of 1 for x >= pi."""
    with mpmath.workdps(40):
        m = (k + mpmath.mpf(1) / 2) * mpmath.pi
        beta = 1 - mpmath.mpf(t) / 12
        x = m - mpmath.atan(beta / m)
        for _ in range(12):
            dx = (x - m + mpmath.atan(beta / x)) / (1 - beta / (x * x + beta * beta))
            x -= dx
        assert abs(dx) <= mpmath.mpf(10) ** -36 * x
        return (2 * x) ** 2


class TestBranchRoots:
    @pytest.mark.parametrize("t, count", [(5e3, 22), (-50.0, 23)])
    def test_one_brent_search_per_spectrum(self, t, count, monkeypatch):
        # branches k >= 1 take the Newton steps; only the bottom is searched
        brent = interval.bisect
        calls = []

        def counted(f, bracket, tol):
            calls.append(bracket)
            return brent(f, bracket, tol=tol)
        monkeypatch.setattr(interval, "bisect", counted)
        interval._lowest_root.cache_clear()
        roots = interval.spectrum(t, 20000.0).secular_roots
        assert len(roots) == count and len(calls) == 1

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(t=st.one_of(st.floats(min_value=-1e13, max_value=1e13),
                       st.floats(allow_nan=False, allow_infinity=False)),
           k=st.integers(min_value=1, max_value=22))
    def test_within_4_ulps_of_40_digit_roots(self, t, k):
        mpmath = pytest.importorskip("mpmath")
        root = interval._secular_root(k, t)
        exact = phase_root(t, k, mpmath)
        assert abs(mpmath.mpf(root) - exact) <= 4 * math.ulp(float(exact)), (t, k, root)

    def test_failed_certificate_names_t_and_k(self, monkeypatch):
        polish = interval._polish
        monkeypatch.setattr(interval, "_polish", lambda x, beta: polish(x, beta) + 1e-9)
        with pytest.raises(SearchError, match=r"^t = 5000\.0, branch k = 3: "):
            interval._secular_root(3, 5e3)
