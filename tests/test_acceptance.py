"""Acceptance gate: the claim matrix of `topext verify` at pinned tolerances.

One verification pass runs once per module; each test asserts one numbered
criterion on its records and prints a single pass/fail line (run pytest
with -s to see them).  The tolerances are literals here, pinned against
the constants in `topext.verify`; they must not be loosened to make a
failing criterion pass.
"""
import math

import pytest

from topext import verify

PI2 = math.pi ** 2

# pinned copies of the tolerance constants in topext.verify
TQ_TOL = 1e-6
QV_TOL = 1e-8
ROOT_TOL = 1e-10
ORACLE_REL_TOL = 5e-3
PERIODIC_ABS_TOL = 1e-8
ORDER_WINDOW = 0.2
SUP_REL_TOL = 1e-12
COULOMB_LIMIT_TOL = 1e-4
COULOMB_RESIDUAL_TOL = 1e-10
RICHARDSON_REL_TOL = 1e-8
ONE_SIDED_REL_TOL = 1e-9

CLASSIFY_BS = (-4.0, -1.0, -0.25, 0.0, 0.5, 5.0, 50.0)
POINT_ALPHAS = (-1.0, -1.0 / (4.0 * math.pi), -1e-3, 0.0, 1.0)


@pytest.fixture(scope="module")
def records():
    # assert on the records as `topext verify --format records` emits them
    reports = [verify.Report.from_record(r.to_record()) for r in verify.run(grid=2000)]
    by_case = {r.case: r for r in reports}
    assert len(by_case) == len(reports) == 26
    return by_case


def test_case_table_covers_records(records):
    # `verify --only` skips a case function unless its table row can match,
    # so every record must carry its row's example and case-name prefix
    for r in records.values():
        assert any(r.example == example and r.case.startswith(prefix)
                   for example, prefix, _ in verify.CASES), r.case


def one_sided(r) -> bool:
    # the conforming P1 oracle over-estimates the bottom, up to rounding
    scale = max(1.0, abs(r.bottom_analytic))
    return r.bottom_oracle >= r.bottom_analytic - ONE_SIDED_REL_TOL * scale


def report(number: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number:2d}: {label}")
    assert ok, f"criterion {number}: {label}"


def test_tolerances_pinned():
    pinned = {"TQ_TOL": TQ_TOL, "QV_TOL": QV_TOL, "ROOT_TOL": ROOT_TOL,
              "ORACLE_REL_TOL": ORACLE_REL_TOL, "PERIODIC_ABS_TOL": PERIODIC_ABS_TOL,
              "ORDER_WINDOW": ORDER_WINDOW, "SUP_REL_TOL": SUP_REL_TOL,
              "COULOMB_LIMIT_TOL": COULOMB_LIMIT_TOL,
              "COULOMB_RESIDUAL_TOL": COULOMB_RESIDUAL_TOL,
              "RICHARDSON_REL_TOL": RICHARDSON_REL_TOL,
              "ONE_SIDED_REL_TOL": ONE_SIDED_REL_TOL}
    drift = {name: getattr(verify, name) for name, value in pinned.items()
             if getattr(verify, name) != value}
    assert not drift, f"verify tolerances differ from the pinned literals: {drift}"


def test_criterion_01_interval_tq(records):
    r = records["interval-tq"]
    ok = (r.passed and r.classification == "Top"
          and abs(r.t_q - 12.0) <= TQ_TOL and r.bottom_analytic == PI2)
    report(1, "interval form level 12 (series) and q-value 4 (resolvent)", ok)


def test_criterion_02_point_tq(records):
    r = records["point-tq"]
    ok = r.passed and r.classification == "Top" and abs(r.t_q - 2.0) <= TQ_TOL
    report(2, "point-interaction form level 2, both integrals pi^2", ok)


def test_criterion_03_secular_consistency(records):
    r = records["interval-secular"]
    ok = r.passed and r.classification == "Top" and r.bottom_analytic == PI2
    report(3, "F(pi^2) = 12 exactly; first root of F = 12 is pi^2", ok)


def test_criterion_04_classification_boundary(records):
    ok = True
    for b in CLASSIFY_BS:
        r = records[f"interval-classify-b={b:g}"]
        ok = (ok and r.passed and r.t_q == 12.0
              and r.classification == ("Top" if b >= 0.0 else "NotTop")
              and r.abs_error == abs(r.bottom_oracle - r.bottom_analytic)
              and r.abs_error <= ORACLE_REL_TOL * max(abs(r.bottom_analytic), 1.0)
              and one_sided(r)
              and (b >= 0.0 or r.bottom_oracle < PI2))
    report(4, "classify boundary at b = 0; oracle bottoms match on 7 b's", ok)


def test_criterion_05_named_spectra(records):
    d, p, a = (records[f"named-{name}"] for name in ("dirichlet", "periodic", "antiperiodic"))
    ok = (all(r.passed and one_sided(r) for r in (d, p, a))
          and (d.classification, p.classification, a.classification)
          == ("Friedrichs", "NotTop", "Top")
          and abs(d.bottom_oracle - PI2) <= ORACLE_REL_TOL * PI2
          and abs(p.bottom_oracle) <= PERIODIC_ABS_TOL
          and abs(a.bottom_oracle - PI2) <= ORACLE_REL_TOL * PI2)
    report(5, "Dirichlet/periodic/anti-periodic oracle bottoms", ok)


def test_criterion_06_fem_convergence(records):
    ok = True
    for name, label in (("dirichlet", "Friedrichs"), ("antiperiodic", "Top")):
        r = records[f"convergence-{name}"]
        ok = (ok and r.passed and r.classification == label
              and abs(r.parameters["order"] - 2.0) <= ORDER_WINDOW)
    report(6, "oracle converges at order 2.0 +/- 0.2 (n = 500 vs 1000)", ok)


def test_criterion_07_variational_identity(records):
    # sup over Dirichlet P1 of |<f,v>|^2/<f,(S_F - mu)f> against the series
    # <v,(S_F - mu)^-1 v>, v = 1 - 2x: below it by the O(h^2) gap (about 5e-6
    # at n = 1000), and met by the Richardson extrapolation from n = 500
    r = records["variational-sup"]
    one_sided, richardson = r.parameters["one_sided"], r.parameters["richardson"]
    ok = (r.passed and r.parameters["n"] == 1000
          and one_sided <= SUP_REL_TOL and -6e-6 <= one_sided <= -4e-6
          and richardson <= RICHARDSON_REL_TOL and richardson <= 1e-10)
    report(7, "sup |<f,v>|^2/<f,(S_F - mu)f> = <v,(S_F - mu)^-1 v> on the FEM pencil", ok)


def test_criterion_08_ordering_monotonicity(records):
    ok = records["ordering-monotonicity"].passed
    report(8, "bottom nondecreasing in t; weighted entries nondecreasing in mu", ok)


def test_criterion_09_point_spectra(records):
    ok = True
    for alpha in POINT_ALPHAS:
        r = records[f"point-spectrum-alpha={alpha:g}"]
        expected = -(4.0 * math.pi * alpha) ** 2 if alpha < 0.0 else 0.0
        ok = (ok and r.passed and r.bottom_analytic == expected
              and r.classification == ("Top" if alpha >= 0.0 else "NotTop"))
    grid = records["point-classify-grid"]
    ok = ok and grid.passed and abs(grid.t_q - 2.0) <= TQ_TOL
    report(9, "point eigenvalue -(4 pi a)^2 iff a < 0; classifiers agree", ok)


def test_criterion_10_coulomb(records):
    ok = records["coulomb-threshold-limit"].passed and records["coulomb-roots"].passed
    report(10, "Coulomb threshold limit, root residuals, unique sign change", ok)


def test_criterion_11_krein_bound(records):
    ok = records["krein-bound"].passed
    report(11, "krein_bound(pi^2, t) <= bottom <= t; mu-criterion matches bottoms", ok)
