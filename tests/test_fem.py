import math

import numpy as np
import pytest
import scipy.linalg

from topext import fem, interval
from topext.fem import AntiPeriodicRobin, Periodic, UnsupportedBCError
from topext.interval import BoundaryCondition
from topext.numerics import DomainError, QuadratureRule, SearchError, integrate

PI2 = math.pi ** 2

BCS = (BoundaryCondition.dirichlet(), Periodic(), AntiPeriodicRobin(-4.0),
       AntiPeriodicRobin(50.0), BoundaryCondition.one_dim_a(0.5, 0.3))


def free_matrices(n):
    """Dense reference: unconstrained P1 stiffness/mass on the n+1 grid
    nodes, summed element by element."""
    h = 1.0 / n
    K = np.zeros((n + 1, n + 1))
    M = np.zeros((n + 1, n + 1))
    for e in range(n):
        K[e:e + 2, e:e + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
        M[e:e + 2, e:e + 2] += np.array([[2.0, 1.0], [1.0, 2.0]]) * h / 6.0
    return K, M


def dense(op):
    return op.stiffness.toarray(), op.mass.toarray()


class TestAssembly:
    def test_shapes(self):
        assert fem.assemble(16, BoundaryCondition.dirichlet()).dim == 15
        assert fem.assemble(16, Periodic()).dim == 16
        assert fem.assemble(16, AntiPeriodicRobin(1.0)).dim == 16

    def test_too_coarse(self):
        with pytest.raises(DomainError):
            fem.assemble(4, Periodic())

    def test_complex_coupling_rejected(self):
        with pytest.raises(UnsupportedBCError):
            fem.assemble(16, BoundaryCondition.one_dim_a(0.0, 1j))

    def test_not_a_boundary_condition(self):
        with pytest.raises(UnsupportedBCError):
            fem.assemble(16, "periodic")

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_nonfinite_b1_is_a_domain_error(self, b):
        with pytest.raises(DomainError, match=f"^b1 is {b}"):
            fem.assemble(100, AntiPeriodicRobin(b))
        with pytest.raises(DomainError, match=f"^b1 is {b}"):
            fem.discrete_bottom(100, AntiPeriodicRobin(b))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_shift_overflow_is_a_domain_error(self):
        # the shift is stepped down by factors of 4 until nothing is counted
        # below it; at b1 = -1e300 that never happens at a finite shift
        with pytest.raises(DomainError, match=r"^n = 100, bc = .*b1=-1e\+300.*"
                           r"shift fell to -inf"):
            fem.discrete_bottom(100, AntiPeriodicRobin(-1e300))

    def test_named_conditions_are_one_dim_a(self):
        assert Periodic() == BoundaryCondition.one_dim_a(0.0, 1.0)
        for b in (0.0, -4.0, 1.5):
            assert AntiPeriodicRobin(b) == BoundaryCondition.one_dim_a(b, -1.0)

    @pytest.mark.parametrize("c", [1.0, -1.0, 0.3])
    def test_fold_equals_dense_projection(self, c):
        # reference: u_n = c u_0 imposed by P = [I; c e_0^T] as P^T A P
        n, b1 = 200, -2.5
        K, M = free_matrices(n)
        P = np.zeros((n + 1, n))
        P[:n, :n] = np.eye(n)
        P[n, 0] = c
        K_ref, M_ref = P.T @ K @ P, P.T @ M @ P
        K_ref[0, 0] += b1
        op = fem.assemble(n, BoundaryCondition.one_dim_a(b1, c))
        assert np.array_equal(op.stiffness.toarray(), K_ref)
        assert np.array_equal(op.mass.toarray(), M_ref)

    def test_dirichlet_equals_dense_restriction(self):
        K, M = free_matrices(100)
        op = fem.assemble(100, BoundaryCondition.dirichlet())
        assert np.array_equal(op.stiffness.toarray(), K[1:-1, 1:-1])
        assert np.array_equal(op.mass.toarray(), M[1:-1, 1:-1])

    def test_sparse_csc(self):
        for bc in BCS:
            op = fem.assemble(64, bc)
            assert op.stiffness.format == op.mass.format == "csc", bc
            # tridiagonal, plus the corner pair after a fold
            corner = 0 if bc.variant == "dirichlet" else 2
            assert op.stiffness.nnz == op.mass.nnz == 3 * op.dim - 2 + corner, bc

    def test_exactly_symmetric(self):
        for bc in (BoundaryCondition.dirichlet(), BoundaryCondition.one_dim_a(0.5, 0.3),
                   Periodic(), AntiPeriodicRobin(-3.0)):
            K, M = dense(fem.assemble(64, bc))
            assert np.array_equal(K, K.T), bc
            assert np.array_equal(M, M.T), bc

    def test_mass_positive_definite(self):
        for bc in (Periodic(), AntiPeriodicRobin(-3.0),
                   BoundaryCondition.dirichlet()):
            K, M = dense(fem.assemble(32, bc))
            assert np.all(np.linalg.eigvalsh(M) > 0)
            assert np.allclose(K, K.T)

    def test_row_sums_free_part(self):
        # interior stiffness rows sum to zero (constants are flat)
        K, _ = dense(fem.assemble(32, Periodic()))
        assert np.allclose(K.sum(axis=1), 0.0, atol=1e-12)


class TestFormConsistency:
    def test_matches_quadrature(self):
        # u^T K u for the interpolant of a smooth anti-periodic g equals
        # int |g'|^2 + b |g(0)|^2 up to the interpolation error
        n, b = 400, 1.5
        op = fem.assemble(n, AntiPeriodicRobin(b))
        x = np.linspace(0.0, 1.0, n + 1)
        g = lambda t: math.cos(math.pi * t) + 0.3 * math.sin(3.0 * math.pi * t)
        gp = lambda t: (-math.pi * math.sin(math.pi * t)
                        + 0.9 * math.pi * math.cos(3.0 * math.pi * t))
        u = np.array([g(t) for t in x[:-1]])  # folded: last node = -first
        discrete = u @ (op.stiffness @ u)
        rule = QuadratureRule.gauss(panels=n, nodes=2)  # panels align with elements
        exact = integrate(lambda t: gp(t) ** 2, 0.0, 1.0, rule) + b * g(0.0) ** 2
        assert abs(discrete - exact) < 1e-3 * max(1.0, abs(exact))

    def test_ground_state_vector_exact(self):
        # 1 - 2x is piecewise linear: represented exactly, form value 4 + b
        n, b = 100, -4.0
        op = fem.assemble(n, AntiPeriodicRobin(b))
        x = np.linspace(0.0, 1.0, n + 1)
        u = 1.0 - 2.0 * x[:-1]
        assert abs(u @ (op.stiffness @ u) - (4.0 + b)) < 1e-10


class TestDiscreteBottoms:
    def test_dirichlet(self):
        d = fem.discrete_bottom(200, BoundaryCondition.dirichlet())
        assert 0.0 < d - PI2 < 1e-2  # variational over-estimate

    def test_periodic(self):
        assert abs(fem.discrete_bottom(200, Periodic())) < 1e-8

    def test_antiperiodic(self):
        d = fem.discrete_bottom(200, AntiPeriodicRobin(0.0))
        assert 0.0 < d - PI2 < 1e-2

    def test_negative_robin_below_pi2(self):
        for b in (-4.0, -1.0, -0.25):
            d = fem.discrete_bottom(200, AntiPeriodicRobin(b))
            analytic = interval.spectrum(interval.b_to_t(b), cutoff=50.0).bottom
            assert d < PI2
            assert abs(d - analytic) < 5e-3 * max(1.0, abs(analytic))

    def test_one_sided_error(self):
        # discrete >= analytic for the conforming discretization
        for b in (-1.0, 0.5, 5.0):
            analytic = interval.spectrum(interval.b_to_t(b), cutoff=50.0).bottom
            assert fem.discrete_bottom(300, AntiPeriodicRobin(b)) >= analytic - 1e-10

    def test_excited_dirichlet_levels(self):
        w = fem.lowest_eigenvalues(fem.assemble(500, BoundaryCondition.dirichlet()), 4)
        for k, val in enumerate(w, start=1):
            assert abs(val - k * k * PI2) < 5e-3 * k ** 4

    def test_k_outside_the_dimension(self):
        op = fem.assemble(16, BoundaryCondition.dirichlet())
        for k in (0, op.dim + 1):
            with pytest.raises(DomainError):
                fem.lowest_eigenvalues(op, k)

    def test_k_equal_to_the_dimension(self):
        # the Lanczos solve needs k < dim
        op = fem.assemble(16, Periodic())
        with pytest.raises(DomainError, match=f"k = {op.dim}: need 1 <= k < dim = {op.dim}"):
            fem.lowest_eigenvalues(op, op.dim)
        assert len(fem.lowest_eigenvalues(op, op.dim - 1)) == op.dim - 1


class TestSparseSolver:
    @pytest.mark.parametrize("n", [9, 64, 200])
    @pytest.mark.parametrize("bc", BCS, ids=str)
    def test_equals_dense_eigh(self, bc, n):
        op = fem.assemble(n, bc)
        ref = scipy.linalg.eigh(*dense(op), eigvals_only=True)
        for k in range(1, 7):
            w = fem.lowest_eigenvalues(op, k)
            assert np.all(np.diff(w) >= 0.0)
            assert np.allclose(w, ref[:k], rtol=1e-9, atol=1e-9), (k, w - ref[:k])

    @pytest.mark.parametrize("bc", BCS, ids=str)
    def test_count_equals_dense_count(self, bc):
        op = fem.assemble(50, bc)
        ref = scipy.linalg.eigh(*dense(op), eigvals_only=True)
        for sigma in np.linspace(ref[0] - 10.0, ref[8] + 10.0, 101):
            assert fem.count_below(op, sigma) == np.sum(ref < sigma), sigma

    @pytest.mark.parametrize("n", [64, 504])
    def test_count_around_double_periodic_eigenvalues(self, n):
        # the discrete periodic operator is circulant: its eigenvalues
        # 6 n^2 (1 - cos(2 pi m / n)) / (2 + cos(2 pi m / n)) are double for
        # 0 < m < n/2, and at even n the block on nodes 1..n-1 shares them
        op = fem.assemble(n, Periodic())
        ref = scipy.linalg.eigh(*dense(op), eigvals_only=True)
        for m in (1, 2, 3):
            cm = math.cos(2.0 * math.pi * m / n)
            lam = 6.0 * n * n * (1.0 - cm) / (2.0 + cm)
            assert abs(ref[2 * m] - ref[2 * m - 1]) <= 1e-9 * lam
            counts = []
            for rel in (-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6):
                sigma = lam * (1.0 + rel)
                counts.append(fem.count_below(op, sigma))
                if min(abs(ref - sigma)) > 1e-10 * lam:  # dense count is resolved
                    assert counts[-1] == np.sum(ref < sigma), (m, rel)
            assert counts == sorted(counts), (m, counts)  # monotone in sigma
            assert fem.count_below(op, lam * (1.0 - 1e-9)) == 2 * m - 1
            assert fem.count_below(op, lam * (1.0 + 1e-9)) == 2 * m + 1

    def test_double_periodic_eigenvalues_certified(self):
        w = fem.lowest_eigenvalues(fem.assemble(504, Periodic()), 6)
        assert abs(w[0]) < 1e-9
        for m in (1, 2):
            assert abs(w[2 * m] - w[2 * m - 1]) <= 1e-9 * w[2 * m]
            assert abs(w[2 * m] - (2.0 * math.pi * m) ** 2) < 5e-3 * w[2 * m]

    def test_bit_identical_whatever_ran_before(self):
        bc = AntiPeriodicRobin(-1.0)
        first = fem.discrete_bottom(2000, bc)
        fem.lowest_eigenvalues(fem.assemble(300, Periodic()), 5)
        np.random.seed(12345)
        np.random.standard_normal(1000)
        fem.discrete_bottom(700, BoundaryCondition.dirichlet())
        assert fem.discrete_bottom(2000, bc) == first
        assert fem.discrete_bottom(2000, bc) == first

    def test_certificate_failure_names_the_solve(self, monkeypatch):
        op = fem.assemble(100, AntiPeriodicRobin(0.5))
        true_count = fem.count_below
        # a count that misses the lowest eigenvalue
        monkeypatch.setattr(fem, "count_below",
                            lambda op, sigma: max(0, true_count(op, sigma) - 1))
        with pytest.raises(SearchError, match=r"n = 100, .*b1=0\.5.*eigenvalue 1 = "):
            fem.lowest_eigenvalues(op, 2)


class TestVerifyInterval:
    def test_convergence_order(self):
        # one-sided O(h^2) error of the P1 bottom for the b-family at b = 0.5
        analytic = interval.spectrum(interval.b_to_t(0.5), cutoff=200.0).bottom
        e_200 = abs(fem.discrete_bottom(200, AntiPeriodicRobin(0.5)) - analytic)
        e_400 = abs(fem.discrete_bottom(400, AntiPeriodicRobin(0.5)) - analytic)
        assert abs(math.log2(e_200 / e_400) - 2.0) < 0.3

    def test_exact_eigenvector_case(self):
        # b = -4: the bottom eigenfunction 1 - 2x is piecewise linear, so it
        # lies in the FEM space and the discrete bottom is exact
        analytic = interval.spectrum(interval.b_to_t(-4.0), cutoff=200.0).bottom
        assert abs(fem.discrete_bottom(100, AntiPeriodicRobin(-4.0)) - analytic) < 1e-8
