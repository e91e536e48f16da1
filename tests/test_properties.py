"""Property tests of the root finders over wide finite input ranges, and
of the classification records of the three examples."""
import math

from hypothesis import assume, given, settings, strategies as st

from topext import interval, kvb, point
from topext.coulomb import alpha_threshold, classify_coulomb, coulomb_eigenvalue, script_F
from topext.numerics import DomainError

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)
CUTOFFS = st.sampled_from((50.0, 200.0, 2000.0))
# up to |t| = 1e13 every root sits >= 2.4e-12 (relative) from its pole
LEVELS = st.floats(min_value=-1e13, max_value=1e13)
# every float, NaN and the infinities included, plus a dense moderate range
PARAMETERS = st.one_of(st.floats(), st.floats(min_value=-100.0, max_value=100.0))
PI2 = math.pi ** 2


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


def classify_or_none(classify, x):
    """The record, or None for a DomainError: the one exception allowed."""
    try:
        return classify(x)
    except DomainError:
        return None


def assert_record(cls, m_S, friedrichs=False):
    """Top keeps the Friedrichs bottom m(S) exactly.  NotTop is at or below
    it: b = -1e-16 rounds t to 12, so its bottom is pi^2 while it is NotTop."""
    assert cls.bottom == m_S if cls.top else cls.bottom <= m_S
    assert (cls.label == "Friedrichs") == friedrichs
    assert cls.label in (("Friedrichs", "Top") if cls.top else ("NotTop",))


@PROPERTY
@given(x1=PARAMETERS, x2=PARAMETERS,
       classify=st.sampled_from((interval.classify, point.classify_point)))
def test_classification_monotone(x1, x2, classify):
    # interval in b, point in alpha: NotTop -> Top only, the bottom never falls
    x1, x2 = sorted((x1, x2))  # a NaN lands anywhere, but has no record
    c1, c2 = classify_or_none(classify, x1), classify_or_none(classify, x2)
    if c1 is not None and c2 is not None:
        assert c2.top or not c1.top
        assert c1.bottom <= c2.bottom


@PROPERTY
@given(b=PARAMETERS)
def test_interval_record(b):
    cls = classify_or_none(interval.classify, b)
    if cls is not None:
        assert_record(cls, PI2)
        assert cls.t == interval.b_to_t(b)


@PROPERTY
@given(alpha=PARAMETERS)
def test_point_record(alpha):
    cls = classify_or_none(point.classify_point, alpha)
    if cls is not None:
        assert_record(cls, 0.0, friedrichs=alpha == math.inf)


@PROPERTY
@given(nu=st.floats(min_value=0.1, max_value=1e3),
       offset=st.one_of(st.sampled_from((0.0, math.inf)),
                        st.floats(min_value=-14.0, max_value=5.0).map(lambda g: 10.0 ** g),
                        st.floats(min_value=-14.0, max_value=5.0).map(lambda g: -10.0 ** g)))
def test_coulomb_record(nu, offset):
    alpha = alpha_threshold(nu) + offset
    assert_record(classify_coulomb(nu, alpha), 0.0, friedrichs=alpha == math.inf)


@PROPERTY
@given(t=st.floats(min_value=-1e3, max_value=1e3),
       mu=st.floats(min_value=-1e3, max_value=PI2, exclude_max=True))
def test_mu_criterion_matches_bottom(t, mu):
    model = interval.deficiency_model()
    T = kvb.ExtensionParameter.scalar(t, model.V_basis, model.gram)
    bottom = interval.spectrum(t, 50.0).bottom
    # the criterion counts T - q_mu as PSD to within 1e-10 relative to the
    # forms' size, so it may call a bottom just below mu "at least mu"; the
    # band left out is wider than that
    assume(abs(bottom - mu) > 1e-8 * max(1.0, abs(mu)))
    assert kvb.mu_criterion(T, model, mu) == (bottom >= mu)
