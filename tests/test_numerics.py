import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from topext.numerics import (
    Bracket,
    BracketError,
    DomainError,
    EvaluationError,
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

    def test_tiny_function_values(self):
        # f_lo * f_mid underflows to 0 at |f| ~ 1e-200: the side is decided by
        # signs, for the bracket and for each step
        f = lambda x: 1e-200 * (x - 0.3)
        root = bisect(f, Bracket(0.0, 1.0, f(0.0), f(1.0)), tol=1e-12)
        assert abs(root - 0.3) < 1e-12

    def test_sign_change_property(self):
        # endpoints of the final interval around the root have opposite signs
        f = lambda x: math.cos(x)
        root = bisect(f, Bracket(1.0, 2.0, f(1.0), f(2.0)), tol=1e-10)
        assert f(root - 1e-10) * f(root + 1e-10) < 0

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_tol_that_is_not_positive_is_a_domain_error(self, tol):
        f = lambda x: x - 0.5
        with pytest.raises(DomainError, match=f"^tol = {tol}: tol must be positive"):
            bisect(f, Bracket(0.0, 1.0, -0.5, 0.5), tol=tol)


def root_of(f, lo, hi, tol):
    """The root bisect returns on [lo, hi], and the evaluations of f it made."""
    evaluations = 0

    def counted(x):
        nonlocal evaluations
        evaluations += 1
        return f(x)
    return bisect(counted, Bracket(lo, hi, f(lo), f(hi)), tol=tol), evaluations


def assert_sign_change_near(f, x, tol):
    # f (increasing or decreasing) changes sign within tol of x, or within
    # one float spacing of x when tol is below it
    w = max(tol, math.ulp(x))
    assert f(x) == 0.0 or (f(x - w) < 0.0) != (f(x + w) < 0.0), (x, tol)


class TestBrent:
    def test_step_function(self):
        # no interpolation step helps: the safeguard bisects
        f = lambda x: -1.0 if x < 0.3 else 1.0
        root, _ = root_of(f, 0.0, 1.0, 1e-12)
        assert_sign_change_near(f, root, 1e-12)

    def test_high_order_root(self):
        # Brent's slow case: interpolation creeps toward a root of order 9
        f = lambda x: (x - 0.3) ** 9
        root, _ = root_of(f, 0.0, 1.0, 1e-12)
        assert_sign_change_near(f, root, 1e-12)

    def test_tiny_values_of_both_signs(self):
        for scale in (1e-200, -1e-200):
            f = lambda x: scale * math.sin(3.0 * x - 1.0)
            root, _ = root_of(f, 0.0, 1.0, 1e-12)
            assert_sign_change_near(f, root, 1e-12)
            assert abs(root - 1.0 / 3.0) < 1e-12

    def test_tol_below_float_spacing_terminates(self):
        for f in (lambda x: x - 0.3, lambda x: -1.0 if x < 0.3 else 1.0,
                  lambda x: (x - 0.3) ** 9):
            root, _ = root_of(f, 0.0, 1.0, 1e-300)
            assert_sign_change_near(f, root, 1e-300)

    def test_simple_roots_in_few_evaluations(self):
        for f, expected in ((lambda x: x * x - 2.0, math.sqrt(2.0)),
                            (math.cos, 0.5 * math.pi)):
            root, evaluations = root_of(f, 1.0, 2.0, 1e-12)
            assert_sign_change_near(f, root, 1e-12)
            assert abs(root - expected) < 1e-12
            assert evaluations <= 10


def loop_nodes(a, b, panels, nodes):
    """(half panel width, weight, node) of each node, panel by panel and node by node."""
    edges = np.linspace(a, b, panels + 1)
    x, w = np.polynomial.legendre.leggauss(nodes)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        for xi, wi in zip(x, w):
            yield half, wi, mid + half * xi


def scalar_loop(f, a, b, panels, nodes):
    """The reference quadrature: one scalar call of f per node, summed in loop order."""
    total = 0.0
    for half, wi, point in loop_nodes(a, b, panels, nodes):
        total += half * wi * f(point)
    return total


# rational integrands: the array and the scalar calls round alike; the
# last three are the point model's, in r
RATIONAL = [
    lambda x: (1.0 - 2.0 * x) ** 2,
    lambda x: x * x / (1.0 + x * x) ** 2,
    lambda x: 1.0 / (1.0 + x * x) ** 2,
    lambda x: x * x / ((1.0 + x * x) ** 2 * (x * x + 1.0 - 0.3)),
]


class TestIntegrate:
    @pytest.mark.parametrize("f", RATIONAL)
    @pytest.mark.parametrize("a, b, panels, nodes", [
        (0.0, 1.0, 1, 2), (0.0, 1.0, 8, 10), (-0.3, 2.0, 64, 10),
        (0.0, 0.5 * math.pi, 80, 12), (1.0, 7.0, 5, 16)])
    def test_bit_equal_to_the_scalar_loop(self, f, a, b, panels, nodes):
        assert integrate(f, a, b, panels, nodes) == scalar_loop(f, a, b, panels, nodes)

    def test_one_call_on_the_node_grid(self):
        shapes = []

        def f(x):
            shapes.append(np.shape(x))
            return x * x
        integrate(f, 0.0, 1.0, 8, 10)
        assert shapes == [(8, 10)]

    def test_scalar_constant(self):
        # a scalar stands for the constant on every node
        assert integrate(lambda x: 2.5, -1.0, 3.0, 3, 4) == pytest.approx(10.0, rel=1e-15)

    def test_paper_norm(self):
        val = integrate(lambda x: (1.0 - 2.0 * x) ** 2, 0.0, 1.0, 64, 10)
        assert abs(val - 1.0 / 3.0) < 1e-14

    def test_constant(self):
        assert abs(integrate(lambda x: 1.0, 0.0, 1.0, 64, 10) - 1.0) < 1e-14

    def test_orthogonality(self):
        # symbolic oracle: int_0^1 sin(pi x)(1-2x) dx = 0
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        exact = float(sympy.integrate(sympy.sin(sympy.pi * x) * (1 - 2 * x), (x, 0, 1)))
        assert exact == 0.0
        val = integrate(lambda x: np.sin(math.pi * x) * (1.0 - 2.0 * x), 0.0, 1.0, 64, 10)
        assert abs(val - exact) < 1e-13

    def test_gauss_convergence_order(self):
        # 5-node Gauss-Legendre on smooth f: observed order >= 8 as panels double
        f = lambda x: np.exp(np.sin(3.0 * x))
        exact = integrate(f, 0.0, 2.0, 256, 16)
        e1 = abs(integrate(f, 0.0, 2.0, 2, 5) - exact)
        e2 = abs(integrate(f, 0.0, 2.0, 4, 5) - exact)
        assert math.log2(e1 / e2) >= 8.0

    def test_bad_rules(self):
        f = lambda x: 1.0
        with pytest.raises(DomainError, match="2..16 nodes"):
            integrate(f, 0.0, 1.0, 4, 20)
        with pytest.raises(DomainError, match="2..16 nodes"):
            integrate(f, 0.0, 1.0, 4, 1)
        with pytest.raises(DomainError, match="panels must be >= 1"):
            integrate(f, 0.0, 1.0, 0, 5)

    @pytest.mark.parametrize("a, b, named", [(-math.inf, 1.0, "a is -inf"),
                                             (0.0, math.inf, "b is inf"),
                                             (math.nan, 1.0, "a is nan"),
                                             (0.0, math.nan, "b is nan")])
    def test_nonfinite_end_is_a_domain_error(self, a, b, named):
        # named before linspace spreads it over the nodes with raw warnings
        with pytest.raises(DomainError, match=f"^{named}; a finite number is required"):
            integrate(lambda x: x, a, b, 2, 2)

    def test_nonfinite_integrand(self):
        with pytest.raises(EvaluationError):
            integrate(lambda x: np.where(x < 0.5, math.inf, 1.0), 0.0, 1.0, 4, 2)

    def test_nonfinite_names_the_first_node_in_loop_order(self):
        # NaN on two panels: the message names the node the loop meets first
        f = lambda x: np.where((x > 0.3) & (x < 0.4) | (x > 0.8), math.nan, x)
        first = next(point for _, _, point in loop_nodes(0.0, 1.0, 7, 3)
                     if not math.isfinite(f(point)))
        with pytest.raises(EvaluationError, match=re.escape(f"not finite at x={first}") + "$"):
            integrate(f, 0.0, 1.0, 7, 3)


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

    @pytest.mark.parametrize("z", [5e-324, 1e-310, 1.0 / sys.float_info.max])
    def test_subnormal_z_where_one_over_z_overflows(self, z):
        # psi(z) ~ -1/z - gamma is below -DBL_MAX there: an error naming z,
        # not -inf, on the float path and the array path alike
        message = "^" + re.escape(f"digamma(z) ~ -1/z overflows a float, got z = {z}") + "$"
        with pytest.raises(DomainError, match=message):
            digamma(z)
        with pytest.raises(DomainError, match=message):
            digamma(np.array([2.0, 1e-300, z, 5e-324]))

    def test_smallest_z_with_a_float_psi(self):
        z = math.nextafter(1.0 / sys.float_info.max, 1.0)
        assert -sys.float_info.max <= digamma(z) < -1.79e308
        assert digamma(1e-300) == -9.999999999999999e+299
        assert digamma(np.array([1e-300, z])).tolist() == [digamma(1e-300), digamma(z)]

    def test_array_is_the_float_call_per_entry(self):
        # the recurrence (z < 10), the tail alone, and z*z overflowing (1e200):
        # only np.log and math.log may differ, by an ulp of the summed terms
        z = np.concatenate([np.linspace(1e-3, 9.999, 500), np.geomspace(10.0, 1e300, 300),
                            [1e-300, 1e200, 1e155, 1.3e154]])
        values = digamma(z)
        assert values.shape == z.shape
        for x, value in zip(z.tolist(), values.tolist()):
            shifted, terms = x, 0.0
            while shifted < 10.0:
                terms += 1.0 / shifted
                shifted += 1.0
            terms += abs(math.log(shifted)) + 0.5 / shifted + 1.0 / (12.0 * shifted * shifted)
            assert abs(value - digamma(x)) <= 4.0 * math.ulp(terms)

    def test_array_leaves_its_argument(self):
        z = np.array([0.5, 20.0])
        digamma(z)
        assert z.tolist() == [0.5, 20.0]

    @pytest.mark.parametrize("z, first", [([1.0, 0.0, -1.0], "0.0"),
                                          ([2.0, math.nan], "nan"),
                                          ([-math.inf, 3.0], "-inf")])
    def test_array_domain_names_the_first_entry(self, z, first):
        with pytest.raises(DomainError, match=f"^digamma needs z > 0, got {first}$"):
            digamma(np.array(z))


class TestIsPsd:
    def test_examples(self):
        assert is_psd(np.eye(3))
        assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert is_psd(np.zeros((4, 4)))

    def test_agrees_with_min_eigenvalue(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            A = rng.standard_normal((6, 6))
            A = 0.5 * (A + A.T)
            assert is_psd(A) == (np.linalg.eigvalsh(A)[0] >= 0.0)

    def test_agrees_with_scipy_reference(self):
        import scipy.linalg
        rng = np.random.default_rng(8)
        for n in range(1, 7):
            for _ in range(40):
                A = rng.standard_normal((n, n))
                A = 0.5 * (A + A.T) + rng.uniform(-1.0, 3.0) * np.eye(n)
                w = scipy.linalg.eigvalsh(A)
                assert is_psd(A) == bool(w[0] >= 0.0), (n, w)

    def test_empty_matrix(self):
        assert is_psd(np.zeros((0, 0)))

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
        for shape in ((2, 3), (4, 2, 3), (3,), ()):
            with pytest.raises(DomainError, match="square"):
                is_psd(np.zeros(shape))

    def test_stack_is_each_member(self):
        rng = np.random.default_rng(21)
        for k in (1, 2, 5):
            A = rng.standard_normal((40, k, k))
            A = 0.5 * (A + A.swapaxes(-1, -2)) + rng.uniform(-1.0, 3.0, (40, 1, 1)) * np.eye(k)
            top = is_psd(A)
            assert top.dtype == bool and top.shape == (40,)
            assert top.tolist() == [is_psd(member) for member in A]
            assert 0 < top.sum() < 40
            assert is_psd(A.reshape(4, 10, k, k)).tolist() == top.reshape(4, 10).tolist()

    def test_symmetry_rule_per_member(self):
        # each member is held to its own max |A_ij|: a small member beside a
        # large one gets no looser tolerance
        big = 1e6 * np.eye(2)
        small = np.array([[1.0, 0.0], [2e-12, 1.0]])  # 2e-12 = 1e-12 (1 + 1): the edge
        assert is_psd(np.stack([big, small])).tolist() == [True, True]
        small[1, 0] = np.nextafter(2e-12, 1.0)
        with pytest.raises(DomainError, match="not symmetric"):
            is_psd(np.stack([big, small]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_one_nonfinite_member_is_a_domain_error(self, bad):
        A = np.stack([np.eye(2)] * 5)
        A[3, 1, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            is_psd(A)

    def test_empty_stacks(self):
        for shape in ((0, 3, 3), (0, 0, 0), (3, 0, 0)):
            top = is_psd(np.zeros(shape))
            assert top.dtype == bool and top.tolist() == [True] * shape[0]
