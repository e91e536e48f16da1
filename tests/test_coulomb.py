import math
import re

import numpy as np
import pytest

from topext import coulomb, interval, numerics
from topext.coulomb import (
    SearchError,
    alpha_threshold,
    classify_coulomb,
    coulomb_eigenvalue,
    count_sign_changes,
    script_F,
)
from topext.numerics import DomainError

NUS = (0.5, 1.0, 2.0, 5.0)


class TestThreshold:
    def test_closed_form(self):
        for nu in NUS:
            expected = nu / (4.0 * math.pi) * (
                math.log(nu) + 2.0 * coulomb.EULER_GAMMA - 1.0)
            assert alpha_threshold(nu) == expected

    def test_nu_one(self):
        # (2 gamma - 1)/(4 pi)
        assert abs(alpha_threshold(1.0) - 0.012289254753206306) < 1e-15

    def test_sign_structure(self):
        # threshold is negative for small nu (ln nu dominates), positive for large
        assert alpha_threshold(0.1) < 0.0
        assert alpha_threshold(10.0) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_threshold(0.0)
        with pytest.raises(DomainError):
            alpha_threshold(-1.0)


class TestScriptF:
    def test_limit_at_zero_energy(self):
        for nu in NUS:
            assert abs(script_F(nu, -1e-10) - alpha_threshold(nu)) < 1e-4

    def test_decreasing_in_s(self):
        # F_nu(-s^2) falls strictly from the threshold as s grows
        for nu in NUS:
            s = np.geomspace(1e-4, 1e3, 100)
            vals = [script_F(nu, -x * x) for x in s]
            assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
            assert all(v < alpha_threshold(nu) for v in vals)

    def test_large_energy_divergence(self):
        assert script_F(1.0, -1e8) < -100.0

    @pytest.mark.parametrize("nu, E, match", [
        (1.0, 0.0, "^E is 0.0"),
        (1.0, 1.0, "^E is 1.0"),
        (1.0, -math.inf, "^E is -inf"),
        (1.0, math.nan, "^E is nan"),
        (-1.0, -1.0, "^nu is -1.0"),
        (math.inf, -1.0, "^nu is inf"),
        (math.nan, -1.0, "^nu is nan"),
    ])
    def test_domain(self, nu, E, match):
        with pytest.raises(DomainError, match=match):
            script_F(nu, E)
        with pytest.raises(DomainError, match=match):
            script_F(nu, np.array([-2.0, E, 1.0]))

    @pytest.mark.parametrize("nu, finite, E", [(1e200, [-1e-100], -1e-300),
                                               (1.7e308, [], -1.0)])
    def test_overflow_is_a_domain_error(self, nu, finite, E):
        # nu/(2 s), or the nu/(4 pi) product, overflows; F is never returned inf.
        # An array names its first such E
        match = "^" + re.escape(f"nu = {nu!r}, E = {E!r}: F_nu(E) overflows a float") + "$"
        with pytest.raises(DomainError, match=match):
            script_F(nu, E)
        if finite:
            assert math.isfinite(script_F(nu, finite[0]))
        with pytest.raises(DomainError, match=match):
            script_F(nu, np.array(finite + [E, -1e-300]))


class TestEigenvalue:
    def test_root_residual(self):
        for nu in NUS:
            for d in (0.1, 1.0):
                alpha = alpha_threshold(nu) - d
                E = coulomb_eigenvalue(nu, alpha)
                assert E is not None and E < 0.0
                assert abs(script_F(nu, E) - alpha) <= 1e-10

    def test_unique_sign_change(self):
        for nu in NUS:
            assert count_sign_changes(nu, [alpha_threshold(nu) - d for d in (0.1, 1.0)]) == [1, 1]

    def test_probe_at_huge_nu_is_a_domain_error(self):
        # F_nu overflows at the small-s end of the grid: no count of inf signs
        with pytest.raises(DomainError, match="^nu = 1.7e\\+308, E = -1e-12: F_nu"):
            count_sign_changes(1.7e308, [0.0, 1.0])

    def test_none_at_or_above_threshold(self):
        for nu in NUS:
            thr = alpha_threshold(nu)
            assert coulomb_eigenvalue(nu, thr) is None
            assert coulomb_eigenvalue(nu, thr + 0.5) is None
            assert count_sign_changes(nu, [thr + 0.5]) == [0]

    def test_monotone_in_alpha(self):
        # the eigenvalue rises towards 0 as alpha approaches the threshold
        nu = 1.0
        alphas = alpha_threshold(nu) - np.geomspace(2.0, 1e-3, 12)
        energies = [coulomb_eigenvalue(nu, float(a)) for a in alphas]
        assert all(e2 > e1 for e1, e2 in zip(energies, energies[1:]))

    def test_search_error_is_shared(self):
        # one class: callers may catch it through any of the three modules
        assert SearchError is interval.SearchError is numerics.SearchError

    def test_deep_coupling(self):
        nu = 1.0
        E = coulomb_eigenvalue(nu, alpha_threshold(nu) - 50.0)
        assert E < -1e4
        assert abs(script_F(nu, E) - (alpha_threshold(nu) - 50.0)) <= 1e-10

    def test_brackets_near_threshold_and_deep(self):
        # the root sits at s ~ 6e-7 and s ~ 1.3e6, outside a fixed scan range
        nu = 1.0
        for alpha in (alpha_threshold(nu) - 1e-14, -1e5):
            E = coulomb_eigenvalue(nu, alpha)
            assert E < 0.0
            assert abs(script_F(nu, E) - alpha) <= 1e-10

    @pytest.mark.parametrize("nu, alpha", [(1e-300, -1e10),
                                           (902579.1307596485, 996028.6076256447)])
    def test_roots_at_extreme_nu(self, nu, alpha):
        # s/nu in F_nu overflowed for the tiny nu, and rounded F past the
        # residual bound for the large one
        E = coulomb_eigenvalue(nu, alpha)
        assert E < 0.0
        assert abs(script_F(nu, E) - alpha) <= 1e-10

    def test_overflowing_eigenvalue_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^alpha = -1e\\+200"):
            coulomb_eigenvalue(1.0, -1e200)

    def test_residual_error_names_its_inputs(self):
        # the terms of F_nu are ~4e8 here, so its values are multiples of about
        # 6e-8: none lies within 1e-10 of alpha = 0.1
        with pytest.raises(SearchError, match="nu = 100000000.0, alpha = 0.1"):
            coulomb_eigenvalue(1e8, 0.1)


class TestClassify:
    def test_boundary(self):
        for nu in NUS:
            thr = alpha_threshold(nu)
            assert classify_coulomb(nu, thr).top
            assert classify_coulomb(nu, thr + 1.0).top
            assert classify_coulomb(nu, math.inf).top
            cls = classify_coulomb(nu, thr - 0.5)
            assert not cls.top
            assert cls.bottom < 0.0

    def test_bottom_matches_eigenvalue(self):
        nu, alpha = 2.0, alpha_threshold(2.0) - 0.3
        cls = classify_coulomb(nu, alpha)
        assert cls.bottom == coulomb_eigenvalue(nu, alpha)
