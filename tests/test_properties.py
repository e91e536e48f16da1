"""Property tests of the root finders over wide finite input ranges, of
the classification records of the three examples, and of the CLI on
extreme inputs."""
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import topext
from topext import cli, fem, interval, kvb, point, verify
from topext.interval import BoundaryCondition
from topext.coulomb import (
    alpha_threshold, classify_coulomb, coulomb_eigenvalue, count_sign_changes, script_F)
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


def sign_changes(values):
    """Sign changes of a list of floats, zeros skipped."""
    signs = [v > 0.0 for v in values if v != 0.0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@PROPERTY
@given(log_nu=st.floats(min_value=-5.0, max_value=6.0))
def test_coulomb_probe_on_arrays_is_the_scalar_loop(log_nu):
    # np.log and math.log may differ by an ulp, so values are close, not equal
    nu = 10.0 ** log_nu
    grid = np.geomspace(1e-6, 1e4, 2001)
    scalar = [script_F(nu, -s * s) for s in grid.tolist()]
    F = script_F(nu, -grid * grid)
    for f, value in zip(F.tolist(), scalar):
        assert abs(f - value) <= 1e-15 * max(1.0, abs(value))
    alphas = [alpha_threshold(nu) - d for d in (0.1, 1.0)]
    assert count_sign_changes(nu, alphas) == [
        sign_changes([value - alpha for value in scalar]) for alpha in alphas]


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
    assert kvb.is_top_extension(T, kvb.build_q(model, mu)) == (bottom >= mu)


# zeros, subnormals, the edges of the float range, NaN and the infinities
EXTREME = (0.0, -0.0, 1e-320, -1e-320, 1e-300, -1e-300, 1e-8, -1e-8, 1.0, -1.0, 12.0, 3.5,
           -4.0, 1e8, -1e8, 1e15, -1e15, 1e154, -1e154, 1e300, -1e300, 1.7e308, -1.7e308,
           math.nan, math.inf, -math.inf)
# log-uniform magnitudes of both signs, from the subnormals to 1e308
LOG_UNIFORM = st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                        st.sampled_from((-1.0, 1.0)), st.floats(min_value=-323.0, max_value=308.0))
FLOATS = st.one_of(st.sampled_from(EXTREME), LOG_UNIFORM)
# the other flags: term counts about the floor of 1 and the cap of 1,000,000,
# bounded sample counts, and grids about verify's floor of 16 with a case
# prefix or a junk string for --only
VALUES = {
    "--terms": st.one_of(st.sampled_from((0, -1, 2_000_000)), st.integers(1, 20_000)),
    "--samples": st.integers(-2, 50),
    "--grid": st.sampled_from((-1, 8, 15, 16, 17, 64)),
    "--only": st.sampled_from([prefix for _, prefix, _ in verify.CASES] + ["no-such-case"]),
}
# every command; secular writes to stdout (no --out)
COMMANDS = [([command] + ([subcommand] if subcommand else []),
             [argument[0] for argument in arguments if argument[0] != "--out"])
            for command, subcommand, arguments, _ in cli.COMMANDS]


@st.composite
def cli_argvs(draw):
    words, flags = draw(st.sampled_from(COMMANDS))
    values = [draw(VALUES.get(flag, FLOATS)) for flag in flags]
    return [*words, *(f"{flag}={value}" for flag, value in zip(flags, values)),
            "--format", "records"]


def printed_records(argv, text):
    """The JSON records a run printed, or secular's CSV rows as records."""
    lines = text.splitlines()
    if argv[1] != "secular":
        return [json.loads(line) for line in lines]
    header = lines[0].split(",")
    assert header == ["lambda", "F", "interval"], lines[0]
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def floats_of(record):
    for value in record.values():
        if isinstance(value, dict):
            yield from floats_of(value)
        else:
            yield from value if isinstance(value, list) else [value]


# the extreme float values alone give 2,132 argvs of the query commands; a
# sample keeps the test near 3 s
@settings(derandomize=True, deadline=None, max_examples=450)
@given(argv=cli_argvs())
def test_cli_answers_or_names_its_input(argv):
    # exit 0 with finite fields, apart from echoed inputs (alpha = inf is the
    # Friedrichs extension); exit 1 with records only from verify, when a
    # record failed, or from point tq, when its quadrature residual exceeds
    # quad_tol; or exit 1 with an error, or 2 with a usage message, that
    # names a flag (quad_tol for --quad-tol)
    values = {arg[2:arg.index("=")]: arg[arg.index("=") + 1:] for arg in argv if "=" in arg}
    names = list(values)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 0 or (code == 1 and out.getvalue()):
        records = printed_records(argv, out.getvalue())
        for record in records:
            computed = {key: value for key, value in record.items() if key not in names}
            assert all(math.isfinite(x) for x in floats_of(computed)
                       if isinstance(x, float)), record
        if argv[0] == "verify":
            assert records and (code == 0) == all(r["passed"] for r in records)
        elif argv[:2] == ["point", "tq"]:
            (record,) = records
            tol = float(values["quad-tol"])
            assert 0.0 < tol < math.inf and (code == 1) == (record["quad_residual"] > tol)
        else:
            assert code == 0
    else:
        assert code in (1, 2) and out.getvalue() == "", err.getvalue()
        if code == 1:
            assert any(err.getvalue().startswith(f"error: {name.replace('-', '_')} ")
                       for name in names), \
                err.getvalue()
        else:
            assert any(re.search(rf"\b{name}\b", err.getvalue()) for name in names), \
                err.getvalue()


# b1 edges where the FEM oracle once failed: -1e12 and -1e13 (a failed
# factorization or certificate), 1e250 and 1e300 (a solve that never
# returned) and 1.797e308 (an abort of the interpreter)
FEM_EDGES = (-1e13, -1e12, -1e150, 1e30, 1e50, 1e200, 1e250, 1e300, 1.797e308)
FEM_COUPLINGS = (-1.0, 0.0, 0.3, 1.0, 2.0)
FEM_DRAWS = f"""
import json
from hypothesis import given, settings, strategies as st
from topext import fem
from topext.interval import BoundaryCondition

def report(n, b1, c, k):
    try:
        op = fem.assemble(n, BoundaryCondition.one_dim_a(b1, c))
        line = {{"values": fem.lowest_eigenvalues(op, k).tolist()}}
    except Exception as error:
        line = {{"error": type(error).__module__, "message": str(error)}}
    print(json.dumps({{"n": n, "b1": b1, "c": c, "k": k, **line}}), flush=True)

for i, b1 in enumerate({FEM_EDGES!r}):
    for j, c in enumerate({FEM_COUPLINGS!r}):
        report(8 + 31 * (5 * i + j) % 249, b1, c, 1 + (i + j) % 3)

@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(n=st.integers(8, 256), k=st.integers(1, 3), c=st.sampled_from({FEM_COUPLINGS!r}),
       b1=st.one_of(st.sampled_from({FEM_EDGES!r}),
                    st.floats(allow_nan=False, allow_infinity=False)))
def draw(n, b1, c, k):
    report(n, b1, c, k)

draw()
"""


def test_fem_eigenvalues_are_certified_or_named():
    # every draw, run in one child process so that an abort or a hang shows
    # as a failure that prints the draws before it: k finite ascending
    # eigenvalues, each enclosed by counts at +-1e-9 relative, or an error
    # of topext whose message names n and the condition
    src = str(Path(topext.__file__).resolve().parents[1])
    try:
        out = subprocess.run([sys.executable, "-c", FEM_DRAWS], capture_output=True, text=True,
                             timeout=60, env={**os.environ, "PYTHONPATH": src})
    except subprocess.TimeoutExpired as expired:
        raise AssertionError(f"the draws did not finish:\n{(expired.stdout or b'').decode()}")
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    draws = [json.loads(line) for line in out.stdout.splitlines()]
    assert {d["b1"] for d in draws} >= set(FEM_EDGES) and len(draws) > 150
    for d in draws:
        bc = BoundaryCondition.one_dim_a(d["b1"], d["c"])
        if "error" in d:
            assert d["error"].startswith("topext."), d
            assert f"n = {d['n']}, bc = {bc}" in d["message"], d
            continue
        op, w = fem.assemble(d["n"], bc), d["values"]
        assert len(w) == d["k"] and all(map(math.isfinite, w)) and w == sorted(w), d
        for j, lam in enumerate(w, start=1):
            delta = 1e-9 * max(1.0, abs(lam))
            assert fem.count_below(op, lam - delta) <= j - 1 < fem.count_below(op, lam + delta), d
