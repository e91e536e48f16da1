"""Property tests of the root finders over wide finite input ranges."""
from hypothesis import given, settings, strategies as st

from topext import interval
from topext.coulomb import alpha_threshold, coulomb_eigenvalue, script_F
from topext.numerics import DomainError

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)
CUTOFFS = st.sampled_from((50.0, 200.0, 2000.0))
# up to |t| = 1e13 every root sits >= 2.4e-12 (relative) from its pole
LEVELS = st.floats(min_value=-1e13, max_value=1e13)


@PROPERTY
@given(t=st.floats(allow_nan=False, allow_infinity=False), cutoff=CUTOFFS)
def test_interval_spectrum_returns_or_raises_domain_error(t, cutoff):
    try:
        interval.spectrum(t, cutoff)
    except DomainError:
        pass


@PROPERTY
@given(t=LEVELS, cutoff=CUTOFFS)
def test_interval_roots_increase_and_bracket(t, cutoff):
    roots = interval.spectrum(t, cutoff).secular_roots
    assert all(r1 < r2 for r1, r2 in zip(roots, roots[1:]))
    for r in roots:
        width = 1e-12 * max(1.0, abs(r))
        assert interval.secular_F(r - width) <= t <= interval.secular_F(r + width)


@PROPERTY
@given(t1=LEVELS, t2=LEVELS)
def test_interval_bottom_monotone_in_t(t1, t2):
    lo, hi = sorted((t1, t2))
    bottom_lo = interval.spectrum(lo, 50.0).bottom
    bottom_hi = interval.spectrum(hi, 50.0).bottom
    assert bottom_lo <= bottom_hi + 1e-12 * max(1.0, abs(bottom_hi))


@PROPERTY
@given(nu=st.floats(min_value=0.1, max_value=1e3), side=st.sampled_from((-1.0, 1.0)),
       log_gap=st.floats(min_value=-14.0, max_value=5.0))
def test_coulomb_eigenvalue_iff_below_threshold(nu, side, log_gap):
    # |alpha| <= ~1e5: beyond that an absolute residual of 1e-10 is below
    # the float resolution of F
    threshold = alpha_threshold(nu)
    alpha = threshold + side * 10.0 ** log_gap
    E = coulomb_eigenvalue(nu, alpha)
    assert (E is None) == (alpha >= threshold)
    if E is not None:
        assert E < 0.0
        assert abs(script_F(nu, E) - alpha) <= 1e-10
