import math

import numpy as np
import pytest

from topext import fem, interval
from topext.fem import AntiPeriodicRobin, Periodic, UnsupportedBCError
from topext.interval import BoundaryCondition
from topext.numerics import DomainError, QuadratureRule, integrate

PI2 = math.pi ** 2


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

    def test_named_conditions_are_one_dim_a(self):
        assert Periodic() == BoundaryCondition.one_dim_a(0.0, 1.0)
        for b in (0.0, -4.0, 1.5):
            assert AntiPeriodicRobin(b) == BoundaryCondition.one_dim_a(b, -1.0)

    @pytest.mark.parametrize("c", [1.0, -1.0, 0.3])
    def test_fold_equals_dense_projection(self, c):
        # reference: u_n = c u_0 imposed by P = [I; c e_0^T] as P^T A P
        n, b1 = 200, -2.5
        K, M = fem._free_matrices(n)
        P = np.zeros((n + 1, n))
        P[:n, :n] = np.eye(n)
        P[n, 0] = c
        K_ref, M_ref = P.T @ K @ P, P.T @ M @ P
        K_ref[0, 0] += b1
        op = fem.assemble(n, BoundaryCondition.one_dim_a(b1, c))
        assert np.array_equal(op.stiffness, K_ref)
        assert np.array_equal(op.mass, M_ref)

    def test_exactly_symmetric(self):
        for bc in (BoundaryCondition.dirichlet(), BoundaryCondition.one_dim_a(0.5, 0.3),
                   Periodic(), AntiPeriodicRobin(-3.0)):
            op = fem.assemble(64, bc)
            assert np.array_equal(op.stiffness, op.stiffness.T), bc
            assert np.array_equal(op.mass, op.mass.T), bc

    def test_mass_positive_definite(self):
        for bc in (Periodic(), AntiPeriodicRobin(-3.0),
                   BoundaryCondition.dirichlet()):
            op = fem.assemble(32, bc)
            assert np.all(np.linalg.eigvalsh(op.mass) > 0)
            assert np.allclose(op.stiffness, op.stiffness.T)

    def test_row_sums_free_part(self):
        # interior stiffness rows sum to zero (constants are flat)
        op = fem.assemble(32, Periodic())
        assert np.allclose(op.stiffness.sum(axis=1), 0.0, atol=1e-12)


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
        discrete = u @ op.stiffness @ u
        rule = QuadratureRule.gauss(panels=n, nodes=2)  # panels align with elements
        exact = integrate(lambda t: gp(t) ** 2, 0.0, 1.0, rule) + b * g(0.0) ** 2
        assert abs(discrete - exact) < 1e-3 * max(1.0, abs(exact))

    def test_ground_state_vector_exact(self):
        # 1 - 2x is piecewise linear: represented exactly, form value 4 + b
        n, b = 100, -4.0
        op = fem.assemble(n, AntiPeriodicRobin(b))
        x = np.linspace(0.0, 1.0, n + 1)
        u = 1.0 - 2.0 * x[:-1]
        assert abs(u @ op.stiffness @ u - (4.0 + b)) < 1e-10


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
