import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq
from hypothesis import assume, given, settings, strategies as st

from topext import fem, interval, numerics
from topext.fem import AntiPeriodicRobin, Periodic, UnsupportedBCError
from topext.interval import BoundaryCondition
from topext.numerics import DomainError, SearchError, integrate

PI2 = math.pi ** 2
SRC = str(Path(fem.__file__).resolve().parents[1])

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
    """The reference pencil (K, M) of op, built from the element matrices and
    not from fem: the restriction to nodes 1..n-1 under Dirichlet, and
    otherwise the fold u_n = c u_0 as P^T A P for P = [I; c e_0^T], with b1
    added to K at node 0."""
    n, bc = op.n, op.bc
    K, M = free_matrices(n)
    if bc.variant == "dirichlet":
        return K[1:-1, 1:-1], M[1:-1, 1:-1]
    P = np.zeros((n + 1, n))
    P[:n, :n] = np.eye(n)
    P[n, 0] = bc.c
    K, M = P.T @ K @ P, P.T @ M @ P
    K[0, 0] += bc.b1
    return K, M


def sturm_count(d, e):
    """Negative eigenvalues of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e: the negative pivots of its LDL^T.  A
    pivot in [0, pivmin) is replaced by -pivmin, LAPACK's guard (dlaneg)
    against division by zero."""
    e2 = (e * e).tolist()
    pivmin = sys.float_info.min * max(1.0, max(e2, default=0.0))
    count, q = 0, 1.0
    for di, e2i in zip(d.tolist(), [0.0] + e2):
        q = di - e2i / q
        if q < 0.0:
            count += 1
        elif q < pivmin:
            q = -pivmin
            count += 1
    return count


def banded_count_below(K, M, sigma):
    """Reference count on the dense pencil: A = K - sigma M, node 0 split
    off, T^-1 r from a pivoted banded solve, and the Sturm count above for
    T."""
    A = K - sigma * M
    d, e = A.diagonal(), A.diagonal(1)
    r = A[1:, 0]
    T = np.zeros((3, A.shape[0] - 1))
    T[0, 1:], T[1], T[2, :-1] = e[1:], d[1:], e[1:]
    y = scipy.linalg.solve_banded((1, 1), T, r, check_finite=False)
    return sturm_count(d[1:], e[1:]) + int(d[0] - r @ y < 0.0)


CONDITIONS = st.one_of(
    st.just(BoundaryCondition.dirichlet()), st.just(Periodic()),
    st.builds(AntiPeriodicRobin, st.floats(-100.0, 100.0)),
    st.builds(BoundaryCondition.one_dim_a, st.floats(-100.0, 100.0), st.floats(-2.0, 2.0)))


class TestAssembly:
    def test_shapes(self):
        assert fem.assemble(16, BoundaryCondition.dirichlet()).dim == 15
        assert fem.assemble(16, Periodic()).dim == 16
        assert fem.assemble(16, AntiPeriodicRobin(1.0)).dim == 16
        assert fem.assemble(np.int64(16), Periodic()).dim == 16
        # the operator is its grid and constraint; the solvers read the pencil's closed forms
        assert fem.assemble(16, Periodic()) == fem.DiscreteOperator(16, Periodic())

    @pytest.mark.parametrize("n", [4, 100.5, 100.0, math.nan])
    def test_too_coarse(self, n):
        # a grid size that is not an integer is named, not a raw numpy TypeError
        reason = "grid too coarse, need n >= 8" if isinstance(n, int) else "need an integer"
        with pytest.raises(DomainError, match=f"^n = {n}: {reason}"):
            fem.assemble(n, Periodic())

    def test_complex_coupling_rejected(self):
        # c is a real float; a complex one is named, not cast by numpy
        for c in (1j, 1.0 + 0j):
            message = f"^complex coupling c = {re.escape(repr(c))} "
            with pytest.raises(UnsupportedBCError, match=message):
                fem.assemble(16, BoundaryCondition.one_dim_a(0.0, c))

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coupling_is_a_domain_error(self, c):
        with pytest.raises(DomainError, match=f"^c is {c}"):
            fem.assemble(100, BoundaryCondition.one_dim_a(0.0, c))

    def test_not_a_boundary_condition(self):
        with pytest.raises(UnsupportedBCError):
            fem.assemble(16, "periodic")
        # Dirichlet is the fold with b1 = c = 0: other values are named, not ignored
        for bc in (BoundaryCondition("dirichlet", 5.0), BoundaryCondition("dirichlet", 0.0, 0.3)):
            with pytest.raises(UnsupportedBCError, match=f"^{re.escape(str(bc))}: Dirichlet"):
                fem.assemble(16, bc)

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_nonfinite_b1_is_a_domain_error(self, b):
        with pytest.raises(DomainError, match=f"^b1 is {b}"):
            fem.assemble(100, AntiPeriodicRobin(b))

    def test_large_negative_robin_parameter_is_solved(self):
        # the bottom's eigenvector sits on node 0, where b1 enters the
        # stiffness: the bottom is b1 (M^-1)_00 = b1 sqrt(3) n to leading order
        assert fem.discrete_bottom(fem.assemble(100, AntiPeriodicRobin(-1e150))) == pytest.approx(
            -1.732050807568877e152, rel=1e-12)
        for b1 in (-2.1e154, -1e300):
            bottom = fem.discrete_bottom(fem.assemble(100, AntiPeriodicRobin(b1)))
            assert bottom == pytest.approx(math.sqrt(3.0) * 100 * b1, rel=1e-12)

    def test_bottom_beyond_the_float_range_is_a_domain_error(self):
        # sqrt(3) n b1 is below -1.8e308: the bound the bottom's search starts
        # from is the largest finite float, and g is already negative there
        message = r"^n = 100, bc = .*b1=-1\.797e\+308.*outside the float range"
        with pytest.raises(DomainError, match=message):
            fem.discrete_bottom(fem.assemble(100, AntiPeriodicRobin(-1.797e308)))

    def test_overflowing_coupling_is_a_domain_error(self):
        # c^2 leaves the float range in node 0's Schur complement
        bc = BoundaryCondition.one_dim_a(0.0, 1e160)
        message = rf"^n = 100, bc = {re.escape(str(bc))}: node 0's Schur complement overflows"
        with pytest.raises(DomainError, match=message):
            fem.lowest_eigenvalues(fem.assemble(100, bc), 1)

    def test_named_conditions_are_one_dim_a(self):
        assert Periodic() == BoundaryCondition.one_dim_a(0.0, 1.0)
        for b in (0.0, -4.0, 1.5):
            assert AntiPeriodicRobin(b) == BoundaryCondition.one_dim_a(b, -1.0)

    def test_import_loads_no_scipy(self):
        # the oracle and the verification matrix run on numpy alone
        code = ("import sys; import topext.verify; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "[]"


class TestFormConsistency:
    def test_matches_quadrature(self):
        # u^T K u for the interpolant of a smooth anti-periodic g equals
        # int |g'|^2 + b |g(0)|^2 up to the interpolation error
        n, b = 400, 1.5
        op = fem.assemble(n, AntiPeriodicRobin(b))
        x = np.linspace(0.0, 1.0, n + 1)
        g = lambda t: np.cos(math.pi * t) + 0.3 * np.sin(3.0 * math.pi * t)
        gp = lambda t: (-math.pi * np.sin(math.pi * t)
                        + 0.9 * math.pi * np.cos(3.0 * math.pi * t))
        u = g(x[:-1])  # folded: last node = -first
        discrete = u @ dense(op)[0] @ u
        # n panels of 2 nodes: the panels align with the elements
        exact = integrate(lambda t: gp(t) ** 2, 0.0, 1.0, n, 2) + b * g(0.0) ** 2
        assert abs(discrete - exact) < 1e-3 * max(1.0, abs(exact))

    def test_ground_state_vector_exact(self):
        # 1 - 2x is piecewise linear: represented exactly, form value 4 + b
        n, b = 100, -4.0
        op = fem.assemble(n, AntiPeriodicRobin(b))
        x = np.linspace(0.0, 1.0, n + 1)
        u = 1.0 - 2.0 * x[:-1]
        assert abs(u @ dense(op)[0] @ u - (4.0 + b)) < 1e-10


class TestDiscreteBottoms:
    def test_dirichlet(self):
        d = fem.discrete_bottom(fem.assemble(200, BoundaryCondition.dirichlet()))
        assert 0.0 < d - PI2 < 1e-2  # variational over-estimate

    def test_periodic(self):
        assert abs(fem.discrete_bottom(fem.assemble(200, Periodic()))) < 1e-8

    def test_antiperiodic(self):
        d = fem.discrete_bottom(fem.assemble(200, AntiPeriodicRobin(0.0)))
        assert 0.0 < d - PI2 < 1e-2

    def test_negative_robin_below_pi2(self):
        for b in (-4.0, -1.0, -0.25):
            d = fem.discrete_bottom(fem.assemble(200, AntiPeriodicRobin(b)))
            analytic = interval.spectrum(interval.b_to_t(b), cutoff=50.0).bottom
            assert d < PI2
            assert abs(d - analytic) < 5e-3 * max(1.0, abs(analytic))

    def test_one_sided_error(self):
        # discrete >= analytic for the conforming discretization
        for b in (-1.0, 0.5, 5.0):
            analytic = interval.spectrum(interval.b_to_t(b), cutoff=50.0).bottom
            assert fem.discrete_bottom(fem.assemble(300, AntiPeriodicRobin(b))) >= analytic - 1e-10

    @pytest.mark.parametrize("b1", [5.0, 0.0, -0.5, -3.0])
    def test_robin_dirichlet_against_its_closed_form(self, b1):
        # g'(0) = b1 g(0), g(1) = 0: the one-dim-a condition with c = 0, whose
        # eigenfunctions sin(k (1 - x)) satisfy b1 sin k + k cos k = 0, and
        # for b1 < -1 the bottom is -kappa^2 with b1 sinh kappa + kappa cosh kappa = 0
        if b1 < -1.0:
            kappa = brentq(lambda s: b1 * math.sinh(s) + s * math.cosh(s), 1e-3, 10.0, xtol=1e-15)
            exact = -kappa ** 2
        else:
            exact = brentq(lambda s: b1 * math.sin(s) + s * math.cos(s), 1e-3, math.pi,
                           xtol=1e-15) ** 2
        bc = BoundaryCondition.one_dim_a(b1, 0.0)
        fine, coarse = (fem.discrete_bottom(fem.assemble(n, bc)) for n in (2000, 1000))
        assert fine >= exact  # variational over-estimate
        assert abs((4.0 * fine - coarse) / 3.0 - exact) <= 1e-10 * max(1.0, abs(exact))

    def test_excited_dirichlet_levels(self):
        w = fem.lowest_eigenvalues(fem.assemble(500, BoundaryCondition.dirichlet()), 4)
        for k, val in enumerate(w, start=1):
            assert abs(val - k * k * PI2) < 5e-3 * k ** 4

    def test_k_outside_the_dimension(self):
        op = fem.assemble(16, BoundaryCondition.dirichlet())
        for k in (0, op.dim + 1, 1.5):
            with pytest.raises(DomainError, match=f"^k = {k}: need "):
                fem.lowest_eigenvalues(op, k)
        assert len(fem.lowest_eigenvalues(op, np.int64(2))) == 2

    def test_k_equal_to_the_dimension(self):
        # the API asks for k < dim
        op = fem.assemble(16, Periodic())
        with pytest.raises(DomainError, match=f"k = {op.dim}: need 1 <= k < dim = {op.dim}"):
            fem.lowest_eigenvalues(op, op.dim)
        assert len(fem.lowest_eigenvalues(op, op.dim - 1)) == op.dim - 1


class TestSecularSolver:
    @pytest.mark.parametrize("n", [9, 64, 200])
    @pytest.mark.parametrize("bc", BCS, ids=str)
    def test_equals_dense_eigh(self, bc, n):
        op = fem.assemble(n, bc)
        ref = scipy.linalg.eigh(*dense(op), eigvals_only=True)
        for k in range(1, 7):
            w = fem.lowest_eigenvalues(op, k)
            assert np.all(np.diff(w) >= 0.0)
            assert np.allclose(w, ref[:k], rtol=1e-9, atol=1e-9), (k, w - ref[:k])

    @pytest.mark.parametrize("n", [64, 512])
    def test_strongly_negative_robin_excited_levels(self, n):
        # the bottom, below -1e5, lies far below the other eigenvalues, which
        # lie between the poles of g
        op = fem.assemble(n, BoundaryCondition.one_dim_a(-1000.0, -0.5))
        ref = scipy.linalg.eigh(*dense(op), eigvals_only=True)
        w = fem.lowest_eigenvalues(op, 4)
        assert ref[0] < -1e5 and 0.0 < ref[1]
        assert np.allclose(w, ref[:4], rtol=1e-9, atol=1e-9), w - ref[:4]

    def test_extreme_robin_parameter_is_solved(self):
        # at b1 = -1e12 node 0's stiffness is 1e12 against 2n elsewhere; the
        # 40-digit references below check the values at n = 64
        op = fem.assemble(512, BoundaryCondition.one_dim_a(-1e12, -1.0))
        w = fem.lowest_eigenvalues(op, 4)
        for j, lam in enumerate(w, start=1):
            delta = 1e-9 * max(1.0, abs(lam))
            assert fem.count_below(op, lam - delta) <= j - 1
            assert fem.count_below(op, lam + delta) >= j

    @pytest.mark.parametrize("bc", BCS, ids=str)
    def test_count_equals_dense_count(self, bc):
        op = fem.assemble(50, bc)
        ref = scipy.linalg.eigh(*dense(op), eigvals_only=True)
        for sigma in np.linspace(ref[0] - 10.0, ref[8] + 10.0, 101):
            assert fem.count_below(op, sigma) == np.sum(ref < sigma), sigma

    @pytest.mark.parametrize("n", [9, 64, 200])
    @pytest.mark.parametrize("bc", BCS, ids=str)
    def test_count_at_split_and_near_eigenvalue_shifts(self, bc, n):
        # at sigma = -6 n^2 the off-diagonal -n - sigma / (6 n) of K - sigma M
        # vanishes, and with it node 0's coupling to the block; at
        # lambda_j (1 -+ 1e-10) the count must still separate lambda_j
        op = fem.assemble(n, bc)
        K, M = dense(op)
        ref = scipy.linalg.eigh(K, M, eigvals_only=True)
        split = [-6.0 * n * n * (1.0 + r)
                 for r in (-1e-8, -1e-12, -1e-16, 0.0, 1e-16, 1e-12, 1e-8)]
        near = [lam * (1.0 + s) for lam in ref[:5] if abs(lam) > 1e-6 for s in (-1e-10, 1e-10)]
        assert len(near) >= 8
        for sigma in split + near:
            count = fem.count_below(op, sigma)
            assert count == banded_count_below(K, M, sigma) == np.sum(ref < sigma), sigma

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(bc=CONDITIONS, n=st.integers(8, 300), data=st.data())
    def test_count_equals_banded_and_dense_counts(self, bc, n, data):
        # sigma lies between eigenvalues j - 1 and j (or outside the spectrum)
        op = fem.assemble(n, bc)
        K, M = dense(op)
        ref = scipy.linalg.eigh(K, M, eigvals_only=True)
        j = data.draw(st.integers(0, op.dim), label="j")
        lo = ref[j - 1] if j > 0 else ref[0] - 10.0 - abs(ref[0])
        hi = ref[j] if j < op.dim else 1.5 * ref[-1] + 10.0
        u = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), label="u")
        sigma = lo + u * (hi - lo)
        assume(np.min(np.abs(ref - sigma)) > 1e-9 * max(1.0, abs(sigma)))
        count = fem.count_below(op, sigma)
        assert count == banded_count_below(K, M, sigma) == np.sum(ref < sigma)

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
        first = fem.discrete_bottom(fem.assemble(2000, bc))
        fem.lowest_eigenvalues(fem.assemble(300, Periodic()), 5)
        np.random.seed(12345)
        np.random.standard_normal(1000)
        fem.discrete_bottom(fem.assemble(700, BoundaryCondition.dirichlet()))
        assert fem.discrete_bottom(fem.assemble(2000, bc)) == first
        assert fem.discrete_bottom(fem.assemble(2000, bc)) == first

    @pytest.mark.parametrize("n, bc, k, searches", [
        (2000, AntiPeriodicRobin(-1.0), 1, 1),
        (400, AntiPeriodicRobin(-10.0), 3, 2),
        (500, Periodic(), 6, 3),
        (500, BoundaryCondition.one_dim_a(0.5, 0.3), 6, 6),
    ], ids=["bottom", "robin", "periodic", "no-dead-pole"])
    def test_one_search_per_zero(self, monkeypatch, n, bc, k, searches):
        # one Brent search per zero of g that the k lowest need: the dead
        # poles (odd j for c = -1, even j for c = 1) and Periodic's bottom,
        # g(0) = 0, take none
        calls = []

        def counted(f, bracket, tol):
            calls.append(bracket)
            return numerics.bisect(f, bracket, tol)

        monkeypatch.setattr(fem, "bisect", counted)
        fem.lowest_eigenvalues(fem.assemble(n, bc), k)
        assert len(calls) == searches

    def test_certificate_failure_names_the_solve(self, monkeypatch):
        # a g that never changes sign: the bottom's bracket [0, first pole)
        # is not certified
        monkeypatch.setattr(fem._Spectrum, "g", lambda self, lam: -1.0)
        op = fem.assemble(100, AntiPeriodicRobin(0.5))
        with pytest.raises(SearchError, match=r"^n = 100, .*b1=0\.5.*: g\(0\.0\) = -1\.0, .*"
                                              r"the zero of g between them is not certified"):
            fem.lowest_eigenvalues(op, 2)


class TestResolventForm:
    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(),
                                    BoundaryCondition.one_dim_a(5.0, -1.0)])
    @pytest.mark.parametrize("sigma", [-150.0, 0.0, 9.0])
    def test_equals_dense_solve(self, bc, sigma):
        op = fem.assemble(40, bc)
        K, M = dense(op)
        b = np.cos(np.arange(op.dim) + 0.5)
        expected = b @ np.linalg.solve(K - sigma * M, b)
        assert fem.resolvent_form(op, sigma, b) == pytest.approx(expected, rel=1e-12)

    def test_sigma_above_the_bottom_is_a_domain_error(self):
        op = fem.assemble(40, BoundaryCondition.dirichlet())
        with pytest.raises(DomainError, match=r"^n = 40, .*, sigma = 20\.0: K - sigma M is "
                                              r"not positive definite \(1 eigenvalues"):
            fem.resolvent_form(op, 20.0, np.ones(op.dim))
        with pytest.raises(DomainError, match=r"^b has shape \(40,\); need \(39,\)"):
            fem.resolvent_form(op, 0.0, np.ones(40))

    def test_nonfinite_load_is_a_domain_error(self):
        op = fem.assemble(16, BoundaryCondition.dirichlet())
        b = np.ones(op.dim)
        b[3] = math.nan
        with pytest.raises(DomainError, match=r"^b\[3\] is nan; a finite number is required"):
            fem.resolvent_form(op, 0.0, b)
        with pytest.raises(DomainError, match=r"^b\[0\] is nan"):
            fem.resolvent_form(op, 0.0, np.full(op.dim, math.nan))

    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), AntiPeriodicRobin(1.0)], ids=str)
    def test_overflowing_form_is_a_domain_error(self, bc):
        # each entry is finite, but their DST and the form leave the float
        # range: named, not a nan under numpy's raw RuntimeWarnings
        op = fem.assemble(16, bc)
        message = rf"^n = 16, bc = {re.escape(str(bc))}, sigma = 0\.0: the form overflows$"
        with pytest.raises(DomainError, match=message):
            fem.resolvent_form(op, 0.0, np.full(op.dim, 1e308))


def exact_pencil(n, bc):
    """The folded pencil (K, M) on nodes 0..n-1 as mpmath matrices, its
    entries exact at mpmath's precision (K: 2n, -n; M: 2/(3n), 1/(6n))."""
    c, b1 = mpmath.mpf(bc.c), mpmath.mpf(bc.b1)
    K, M = mpmath.zeros(n), mpmath.zeros(n)
    for i in range(n):
        K[i, i], M[i, i] = 2 * n, mpmath.mpf(2) / (3 * n)
        if i:
            K[i, i - 1] = K[i - 1, i] = -n
            M[i, i - 1] = M[i - 1, i] = mpmath.mpf(1) / (6 * n)
    K[0, 0], M[0, 0] = n + c * c * n + b1, (1 + c * c) / (3 * n)
    K[0, n - 1] = K[n - 1, 0] = -c * n
    M[0, n - 1] = M[n - 1, 0] = c / (6 * n)
    return K, M


def exact_eigenvalues(K, M):
    """The eigenvalues of the pencil (K, M), ascending: M = L L^T and
    mpmath.eigsy of L^-1 K L^-T.  Each triangular solve reads only L's
    nonzeros, listed once per row (M is tridiagonal plus a corner)."""
    N = K.rows
    L = mpmath.cholesky(M)
    nonzero = [[j for j in range(i) if L[i, j] != 0] for i in range(N)]

    def solve(b):
        x = []
        for i in range(N):
            x.append((b[i] - mpmath.fsum(L[i, j] * x[j] for j in nonzero[i])) / L[i, i])
        return x

    Y = [solve([K[i, j] for i in range(N)]) for j in range(N)]  # Y[j]: column j of L^-1 K
    C = mpmath.matrix([solve([Y[j][i] for j in range(N)]) for i in range(N)])
    return sorted(mpmath.eigsy(C, eigvals_only=True))


class TestFortyDigitReferences:
    """The secular solve against 40-digit references on the exact pencil,
    computed without its closed forms."""

    @pytest.mark.parametrize("bc", [
        BoundaryCondition.one_dim_a(-1e12, 1.0), BoundaryCondition.one_dim_a(-1e9, 0.3),
        BoundaryCondition.one_dim_a(-1e4, -1.0), Periodic()], ids=str)
    def test_lowest_eigenvalues(self, bc):
        with mpmath.workdps(40):
            ref = exact_eigenvalues(*exact_pencil(64, bc))[:3]
        w = fem.lowest_eigenvalues(fem.assemble(64, bc), 3)
        for lam, exact in zip(w.tolist(), ref):
            if bc == Periodic() and exact is ref[0]:
                # K 1 = 0: the exact bottom is 0, which the solve returns
                assert lam == 0.0 and abs(exact) < 1e-30
            else:
                assert abs(lam - exact) <= 1e-14 * abs(exact), (lam, exact)

    @pytest.mark.parametrize("mu", [-150.0, 9.0, PI2])
    def test_resolvent_form(self, mu):
        # variational-sup's load v(x_i) / n, v = 1 - 2x, on the Dirichlet
        # pencil at n = 500; T = K - mu M is solved by elimination at 40 digits
        n = 500
        b = (1.0 - 2.0 * np.arange(1, n) / n) / n
        with mpmath.workdps(40):
            m = mpmath.mpf(mu)
            diag, off = 2 * n - m * 2 / (3 * n), -n - m / (6 * n)
            pivots, y = [diag], [mpmath.mpf(b[0])]
            for i in range(1, n - 1):
                ratio = off / pivots[-1]
                pivots.append(diag - ratio * off)
                y.append(b[i] - ratio * y[-1])
            x = [y[-1] / pivots[-1]]
            for i in range(n - 3, -1, -1):
                x.append((y[i] - off * x[-1]) / pivots[i])
            exact = mpmath.fsum(bi * xi for bi, xi in zip(b.tolist(), reversed(x)))
        form = fem.resolvent_form(fem.assemble(n, BoundaryCondition.dirichlet()), mu, b)
        assert abs(form - exact) <= 1e-14 * exact, (form, exact)


# every n in 16..40, and the large grids where the parent solver's
# certificate failed for Periodic() or AntiPeriodicRobin(-4)
SAMPLED_GRIDS = list(range(16, 41)) + [1024, 1500, 1555, 1800, 1950, 2000, 2050, 2100, 2400,
                                       3000, 4000, 4096]


def closed_form_p1_bottom(n):
    """Lowest P1 eigenvalue of -u'' under Dirichlet (and anti-periodic b = 0)."""
    return 6.0 * n * n * 2.0 * math.sin(math.pi / (2 * n)) ** 2 / (2.0 + math.cos(math.pi / n))


class TestExactBottoms:
    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), Periodic(),
                                    AntiPeriodicRobin(0.0), AntiPeriodicRobin(-4.0)], ids=str)
    def test_certified_at_every_sampled_grid(self, bc):
        # discrete_bottom raises SearchError unless the signs of g at its
        # bracket's ends certify it
        for n in SAMPLED_GRIDS:
            fem.discrete_bottom(fem.assemble(n, bc))

    def test_dirichlet_bottom_is_the_closed_form(self):
        n = 2000
        exact = closed_form_p1_bottom(n)
        for bc in (BoundaryCondition.dirichlet(), AntiPeriodicRobin(0.0)):
            assert abs(fem.discrete_bottom(fem.assemble(n, bc)) - exact) <= 4 * math.ulp(exact), bc

    def test_zero_bottoms_are_zero_to_rounding(self):
        # at n = 4096 the entries of K are exact and K 1 = 0, K (1 - 2x) = -4 e_0
        n = 4096
        assert abs(fem.discrete_bottom(fem.assemble(n, Periodic()))) <= 1e-14
        assert abs(fem.discrete_bottom(fem.assemble(n, AntiPeriodicRobin(-4.0)))) <= 1e-14
        for bc in (Periodic(), AntiPeriodicRobin(-4.0)):
            op = fem.assemble(n, bc)
            assert fem.count_below(op, -1e-12) == 0, bc
            assert fem.count_below(op, 1e-12) == 1, bc


class TestVerifyInterval:
    def test_convergence_order(self):
        # one-sided O(h^2) error of the P1 bottom for the b-family at b = 0.5
        analytic = interval.spectrum(interval.b_to_t(0.5), cutoff=200.0).bottom
        e_200 = abs(fem.discrete_bottom(fem.assemble(200, AntiPeriodicRobin(0.5))) - analytic)
        e_400 = abs(fem.discrete_bottom(fem.assemble(400, AntiPeriodicRobin(0.5))) - analytic)
        assert abs(math.log2(e_200 / e_400) - 2.0) < 0.3

    def test_exact_eigenvector_case(self):
        # b = -4: the bottom eigenfunction 1 - 2x is piecewise linear, so it
        # lies in the FEM space and the discrete bottom is exact
        analytic = interval.spectrum(interval.b_to_t(-4.0), cutoff=200.0).bottom
        bottom = fem.discrete_bottom(fem.assemble(100, AntiPeriodicRobin(-4.0)))
        assert abs(bottom - analytic) < 1e-8
