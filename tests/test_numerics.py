import math
from fractions import Fraction

import numpy as np
import pytest

from topext.numerics import (
    Bracket,
    BracketError,
    DomainError,
    EvaluationError,
    QuadratureRule,
    bisect,
    digamma,
    integrate,
    is_psd,
)

EULER_GAMMA = 0.57721566490153286061


class TestBisect:
    def test_sqrt2(self):
        f = lambda x: x * x - 2.0
        root = bisect(f, Bracket(1.0, 2.0, f(1.0), f(2.0)), tol=1e-12)
        assert abs(root - math.sqrt(2.0)) < 1e-12

    def test_odd_function(self):
        f = lambda x: x
        root = bisect(f, Bracket(-1.0, 1.0, f(-1.0), f(1.0)), tol=1e-12)
        assert abs(root) < 1e-12

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            Bracket(1.0, 2.0, 1.0, 1.0)
        with pytest.raises(BracketError):
            Bracket(2.0, 1.0, -1.0, 1.0)

    def test_nonfinite_value(self):
        with pytest.raises(EvaluationError):
            Bracket(0.0, 1.0, math.nan, 1.0)
        f = lambda x: math.inf if 0.4 < x < 0.6 else x - 0.5
        with pytest.raises(EvaluationError):
            bisect(f, Bracket(0.0, 1.0, -0.5, 0.5), tol=1e-12)

    def test_sign_change_property(self):
        # endpoints of the final interval around the root have opposite signs
        f = lambda x: math.cos(x)
        root = bisect(f, Bracket(1.0, 2.0, f(1.0), f(2.0)), tol=1e-10)
        assert f(root - 1e-10) * f(root + 1e-10) < 0


class TestIntegrate:
    def test_paper_norm(self):
        val = integrate(lambda x: (1.0 - 2.0 * x) ** 2, 0.0, 1.0)
        assert abs(val - 1.0 / 3.0) < 1e-14

    def test_constant(self):
        assert abs(integrate(lambda x: 1.0, 0.0, 1.0) - 1.0) < 1e-14

    def test_orthogonality(self):
        # symbolic oracle: int_0^1 sin(pi x)(1-2x) dx = 0
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        exact = float(sympy.integrate(sympy.sin(sympy.pi * x) * (1 - 2 * x), (x, 0, 1)))
        assert exact == 0.0
        val = integrate(lambda x: math.sin(math.pi * x) * (1.0 - 2.0 * x), 0.0, 1.0)
        assert abs(val - exact) < 1e-13

    def test_gauss_convergence_order(self):
        # 5-node Gauss-Legendre on smooth f: observed order >= 8 as panels double
        f = lambda x: math.exp(math.sin(3.0 * x))
        exact = integrate(f, 0.0, 2.0, QuadratureRule.gauss(panels=256, nodes=16))
        e1 = abs(integrate(f, 0.0, 2.0, QuadratureRule.gauss(panels=2, nodes=5)) - exact)
        e2 = abs(integrate(f, 0.0, 2.0, QuadratureRule.gauss(panels=4, nodes=5)) - exact)
        assert math.log2(e1 / e2) >= 8.0

    def test_bad_rules(self):
        with pytest.raises(DomainError):
            QuadratureRule.gauss(panels=4, nodes=20)
        with pytest.raises(DomainError):
            QuadratureRule.gauss(panels=4, nodes=1)
        with pytest.raises(DomainError):
            QuadratureRule.gauss(panels=0, nodes=5)

    def test_nonfinite_integrand(self):
        with pytest.raises(EvaluationError):
            integrate(lambda x: math.inf if x < 0.5 else 1.0, 0.0, 1.0,
                      QuadratureRule.gauss(panels=4, nodes=2))


class TestDigamma:
    def test_psi_one(self):
        assert abs(digamma(1.0) + EULER_GAMMA) < 1e-13

    def test_psi_two(self):
        assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) < 1e-13

    def test_psi_ten_exact_rational_oracle(self):
        # psi(10) = -gamma + H_9, harmonic number from exact rationals
        h9 = float(sum(Fraction(1, k) for k in range(1, 10)))
        expected = h9 - EULER_GAMMA
        assert abs(expected - 2.2517525890667214) < 1e-13
        assert abs(digamma(10.0) - expected) < 1e-13

    def test_recurrence(self):
        for z in np.geomspace(0.1, 100.0, 60):
            assert abs(digamma(z + 1.0) - digamma(z) - 1.0 / z) <= 1e-12 * max(
                1.0, abs(digamma(z)))

    def test_wide_range_against_scipy(self):
        from scipy.special import psi
        for z in np.geomspace(1e-3, 1e6, 40):
            assert abs(digamma(float(z)) - psi(z)) <= 1e-12 * max(1.0, abs(psi(z)))

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-1.5)


class TestIsPsd:
    def test_examples(self):
        assert is_psd(np.eye(3), 0.0)
        assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-10)
        assert is_psd(np.zeros((4, 4)), 0.0)

    def test_agrees_with_min_eigenvalue(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            A = rng.standard_normal((6, 6))
            A = 0.5 * (A + A.T)
            assert is_psd(A, 0.0) == (np.linalg.eigvalsh(A)[0] >= 0.0)

    def test_agrees_with_scipy_reference(self):
        import scipy.linalg
        rng = np.random.default_rng(8)
        for n in range(1, 7):
            for _ in range(40):
                A = rng.standard_normal((n, n))
                A = 0.5 * (A + A.T) + rng.uniform(-1.0, 3.0) * np.eye(n)
                w = scipy.linalg.eigvalsh(A)
                for tol in (0.0, 1e-10, 0.3):
                    want = bool(w[0] >= -tol * float(np.abs(w).max()))
                    assert is_psd(A, tol) == want, (n, tol, w)

    def test_empty_matrix(self):
        assert is_psd(np.zeros((0, 0)))
        assert is_psd(np.zeros((0, 0)), 0.0)

    def test_symmetry_rule(self):
        # |A - A^T| <= 1e-12 (1 + max |A|) entrywise, as np.allclose(A, A.T,
        # rtol=0, atol=...) had it
        for scale in (1.0, 3.0, 1e6):
            atol = 1e-12 * (1.0 + scale)
            A = np.array([[scale, 0.0], [atol, scale]])
            assert abs(A[1, 0] - A[0, 1]) == atol
            assert is_psd(A)
            A[1, 0] = np.nextafter(atol, 1.0)
            with pytest.raises(DomainError, match="not symmetric"):
                is_psd(A)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_entry_is_a_domain_error(self, bad):
        for A in (np.array([[bad]]), np.array([[1.0, 0.0], [0.0, bad]]),
                  np.array([[1.0, bad], [bad, 1.0]])):
            with pytest.raises(DomainError, match="non-finite"):
                is_psd(A)

    def test_not_square(self):
        with pytest.raises(DomainError, match="square"):
            is_psd(np.zeros((2, 3)))
