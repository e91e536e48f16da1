"""Full verification matrix: analytic claims against oracles.

Each case produces one Report record; `run` returns the sorted list.  The
CLI `verify` command emits them and fails (exit 1) when any case fails.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Dict, List, Optional

import numpy as np

from . import coulomb, fem, interval, kvb, point
from .numerics import QuadratureRule, digamma, integrate

PI2 = math.pi ** 2

# tolerances of the acceptance matrix
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


@dataclass
class Report:
    case: str
    example: str
    parameters: Dict[str, float] = field(default_factory=dict)
    m_S: Optional[float] = None
    t_q: Optional[float] = None
    classification: str = ""
    bottom_analytic: Optional[float] = None
    bottom_oracle: Optional[float] = None
    abs_error: Optional[float] = None
    passed: bool = True
    detail: str = ""

    def to_record(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_record(cls, line: str) -> "Report":
        return cls(**json.loads(line))


def _oracle_close(analytic: float, discrete: float) -> bool:
    return abs(discrete - analytic) <= ORACLE_REL_TOL * max(abs(analytic), 1.0)


def _oracle_tight(analytic: float, discrete: float, grid: int, bc) -> tuple:
    """(ok, detail) of the two checks that the O(h^2), one-sided P1 error
    allows: the Richardson extrapolation (4 lambda_grid - lambda_grid/2) / 3
    within RICHARDSON_REL_TOL, and the oracle not below the analytic bottom
    by more than ONE_SIDED_REL_TOL (both relative to max(1, |analytic|))."""
    scale = max(1.0, abs(analytic))
    extrapolated = (4.0 * discrete - fem.discrete_bottom(grid // 2, bc)) / 3.0
    richardson = abs(extrapolated - analytic)
    ok = (richardson <= RICHARDSON_REL_TOL * scale
          and discrete >= analytic - ONE_SIDED_REL_TOL * scale)
    return ok, f"richardson={extrapolated!r} richardson_error={richardson!r}"


def case_interval_tq(terms: int = 10_000) -> Report:
    model = interval.deficiency_model(terms)
    tq = kvb.build_q(model)
    # independent route to q[v]: closed-form resolvent plus quadrature
    res = interval.resolvent_at_bottom()
    rule = QuadratureRule.gauss(panels=64, nodes=10)
    inner = integrate(lambda x: (1.0 - 2.0 * x) * res(x), 0.0, 1.0, rule)
    norm2 = integrate(lambda x: (1.0 - 2.0 * x) ** 2, 0.0, 1.0, rule)
    q_v = float(PI2 * norm2 + PI2 ** 2 * inner)
    ok = abs(tq.t_q_scalar - 12.0) <= TQ_TOL and abs(q_v - 4.0) <= QV_TOL
    return Report(
        case="interval-tq", example="interval",
        parameters={"terms": terms}, m_S=PI2, t_q=tq.t_q_scalar,
        classification="Top", bottom_analytic=PI2, passed=ok,
        detail=f"t_q={tq.t_q_scalar!r} q[v]={q_v!r}")


def case_point_tq() -> Report:
    model = point.deficiency_model_point()
    tq = kvb.build_q(model)
    gram = float(model.gram[0, 0])
    reg = float(model.weighted_gram(1.0)[0, 0])
    ok = (abs(tq.t_q_scalar - 2.0) <= TQ_TOL
          and abs(gram - PI2) <= QV_TOL
          and abs(reg - PI2) <= QV_TOL)
    return Report(
        case="point-tq", example="point", m_S=1.0, t_q=tq.t_q_scalar,
        classification="Top", bottom_analytic=0.0, passed=ok,
        detail=f"t_q={tq.t_q_scalar!r} |G1|^2={gram!r} reg={reg!r}")


def case_interval_secular() -> Report:
    f_at_pi2 = interval.secular_F(PI2)
    root = interval.spectrum(12.0, cutoff=50.0).secular_roots[0]
    ok = f_at_pi2 == 12.0 and abs(root - PI2) <= ROOT_TOL
    return Report(
        case="interval-secular", example="interval", m_S=PI2,
        classification="Top", bottom_analytic=PI2, passed=ok,
        detail=f"F(pi^2)={f_at_pi2!r} root={root!r}")


def cases_interval_classify(grid: int) -> List[Report]:
    reports = []
    for b in CLASSIFY_BS:
        cls = interval.classify(b)
        analytic = interval.spectrum(cls.t, cutoff=200.0).bottom
        bc = fem.AntiPeriodicRobin(b)
        discrete = fem.discrete_bottom(grid, bc)
        tight, detail = _oracle_tight(analytic, discrete, grid, bc)
        ok = (_oracle_close(analytic, discrete) and tight and cls.top == (b >= 0.0)
              and cls.bottom == analytic)
        if b < 0:
            ok = ok and discrete < PI2
        reports.append(Report(
            case=f"interval-classify-b={b:g}", example="interval",
            parameters={"b": b, "grid": grid}, m_S=PI2, t_q=12.0,
            classification=cls.label, bottom_analytic=analytic, bottom_oracle=discrete,
            abs_error=abs(discrete - analytic), passed=ok, detail=detail))
    return reports


# the Friedrichs extension of the interval operator: Dirichlet conditions
DIRICHLET = kvb.Classification.of(top=True, bottom=PI2, friedrichs=True)


def cases_named_spectra(grid: int) -> List[Report]:
    specs = [
        ("Dirichlet", interval.BoundaryCondition.dirichlet(), DIRICHLET, ORACLE_REL_TOL * PI2),
        ("Periodic", fem.Periodic(), kvb.Classification.of(top=False, bottom=0.0),
         PERIODIC_ABS_TOL),
        ("AntiPeriodic", fem.AntiPeriodicRobin(0.0), interval.classify(0.0),
         ORACLE_REL_TOL * PI2),
    ]
    reports = []
    for name, bc, cls, tol in specs:
        discrete = fem.discrete_bottom(grid, bc)
        err = abs(discrete - cls.bottom)
        tight, detail = _oracle_tight(cls.bottom, discrete, grid, bc)
        reports.append(Report(
            case=f"named-{name.lower()}", example="interval",
            parameters={"grid": grid}, m_S=PI2, classification=cls.label,
            bottom_analytic=cls.bottom, bottom_oracle=discrete,
            abs_error=err, passed=err <= tol and tight, detail=detail))
    return reports


def cases_convergence() -> List[Report]:
    reports = []
    for name, bc, cls in [
        ("dirichlet", interval.BoundaryCondition.dirichlet(), DIRICHLET),
        ("antiperiodic", fem.AntiPeriodicRobin(0.0), interval.classify(0.0)),
    ]:
        e_500 = abs(fem.discrete_bottom(500, bc) - cls.bottom)
        e_1000 = abs(fem.discrete_bottom(1000, bc) - cls.bottom)
        order = math.log2(e_500 / e_1000)
        ok = abs(order - 2.0) <= ORDER_WINDOW
        reports.append(Report(
            case=f"convergence-{name}", example="interval",
            parameters={"grids": 500.0, "order": order}, m_S=PI2,
            classification=cls.label, bottom_analytic=cls.bottom, passed=ok,
            detail=f"order={order!r}"))
    return reports


def case_variational(matrices: int = 200, samples: int = 500, dim: int = 5,
                     seed: int = 1234) -> Report:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(matrices):
        B = rng.standard_normal((dim, dim))
        A = B @ B.T + dim * np.eye(dim)
        h = rng.standard_normal(dim)
        sup, closed = kvb.variational_sup_check(A, h, samples=samples, seed=seed + i)
        worst = max(worst, abs(sup - closed) / closed)
    return Report(
        case="variational-sup", example="abstract",
        parameters={"matrices": matrices, "samples": samples},
        passed=worst <= SUP_REL_TOL,
        detail=f"two-sided: worst |sup - closed| / closed = {worst!r}")


def interval_t_grid_bottoms():
    ts = np.linspace(-50.0, 300.0, 50)
    bottoms = [interval.spectrum(float(t), cutoff=200.0).bottom for t in ts]
    return ts, bottoms


def case_ordering() -> Report:
    ts, bottoms = interval_t_grid_bottoms()
    monotone = all(b2 >= b1 - 1e-9 for b1, b2 in zip(bottoms, bottoms[1:]))
    ok = monotone
    for model, m_S in [(interval.deficiency_model(), PI2),
                       (point.deficiency_model_point(), 1.0)]:
        mus = np.linspace(0.0, m_S, 20)
        vals = [float(model.weighted_gram(float(mu))[0, 0]) for mu in mus]
        ok = ok and all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
    return Report(
        case="ordering-monotonicity", example="abstract", passed=ok,
        detail="spectrum bottom nondecreasing in t; weighted_gram nondecreasing in mu")


def case_krein() -> Report:
    ts, bottoms = interval_t_grid_bottoms()
    model = interval.deficiency_model()
    mus = np.linspace(-150.0, PI2, 41)[:-1].tolist()
    q_mus = [kvb.build_q(model, mu) for mu in mus]
    ok = True
    agree = 0
    for t, bottom in zip(ts, bottoms):
        if t > 0 and not (kvb.krein_bound(PI2, float(t)) - 1e-9 <= bottom <= t + 1e-9):
            ok = False
        # mu-criterion: m(S_T) >= mu iff T >= q_mu, read off the parameter T alone
        T = kvb.ExtensionParameter.scalar(float(t), model.V_basis, model.gram)
        agree += sum(kvb.is_top_extension(T, q) == (bottom >= mu) for mu, q in zip(mus, q_mus))
    pairs = len(ts) * len(mus)
    return Report(
        case="krein-bound", example="interval", m_S=PI2, passed=ok and agree == pairs,
        detail="krein_bound(pi^2, t) <= bottom(S_t) <= t on the positive t grid; "
               f"mu_criterion(T_t, mu) == (bottom >= mu) on {agree} of {pairs} (t, mu)")


def cases_point() -> List[Report]:
    reports = []
    for alpha in (-1.0, -1.0 / (4 * math.pi), -1e-3, 0.0, 1.0):
        expected = -(4.0 * math.pi * alpha) ** 2 if alpha < 0 else None
        spec = point.point_spectrum(alpha)
        cls = point.classify_point(alpha)
        ok = spec.eigenvalue == expected and cls.bottom == spec.bottom
        reports.append(Report(
            case=f"point-spectrum-alpha={alpha:g}", example="point",
            parameters={"alpha": alpha}, m_S=1.0, classification=cls.label,
            bottom_analytic=spec.bottom, passed=ok))
    # classify agreement with the abstract criterion on an alpha grid
    model = point.deficiency_model_point()
    tq = kvb.build_q(model)
    agree = True
    for alpha in np.linspace(-1.0, 1.0, 21):
        T = point.extension_parameter(float(alpha))
        if kvb.is_top_extension(T, tq) != point.classify_point(float(alpha)).top:
            agree = False
    reports.append(Report(
        case="point-classify-grid", example="point", m_S=1.0, t_q=tq.t_q_scalar,
        passed=agree, detail="classify_point == is_top_extension on 21 alphas"))
    return reports


def cases_coulomb() -> List[Report]:
    reports = []
    digamma_gap = abs(digamma(1.0) + coulomb.EULER_GAMMA)
    limit_ok = digamma_gap <= 1e-12
    worst = 0.0
    for nu in (0.5, 1.0, 2.0, 5.0):
        gap = abs(coulomb.script_F(nu, -1e-10) - coulomb.alpha_threshold(nu))
        worst = max(worst, gap)
        if gap > COULOMB_LIMIT_TOL:
            limit_ok = False
    reports.append(Report(
        case="coulomb-threshold-limit", example="coulomb", passed=limit_ok,
        detail=f"|digamma(1) + gamma| = {digamma_gap!r}; "
               f"worst |F(-1e-10) - alpha_nu| = {worst!r}"))

    pairs = [(nu, coulomb.alpha_threshold(nu) - d)
             for nu in (0.5, 1.0, 2.0, 5.0, 10.0) for d in (0.1, 1.0)]
    root_ok = True
    for nu, alpha in pairs:
        E = coulomb.coulomb_eigenvalue(nu, alpha)
        resid = abs(coulomb.script_F(nu, E) - alpha)
        if E is None or resid > COULOMB_RESIDUAL_TOL:
            root_ok = False
        if coulomb.count_sign_changes(nu, alpha) != 1:
            root_ok = False
    for nu in (0.5, 1.0, 2.0):
        threshold = coulomb.alpha_threshold(nu)
        for alpha in (threshold, threshold + 1.0, 1e6):
            if coulomb.coulomb_eigenvalue(nu, alpha) is not None:
                root_ok = False
    reports.append(Report(
        case="coulomb-roots", example="coulomb", passed=root_ok,
        detail="10 below-threshold pairs: residual <= 1e-10, unique sign change; "
               "no root at alpha_nu, alpha_nu + 1 or 1e6"))
    return reports


# (example, case-name prefix, case function) for every case function, in run
# order.  `run` calls a function only if one of its records can match --only.
# Each lambda looks its function up in this module's globals when called, so
# a wrapper installed there (e.g. by a tracer) sees the call.
CASES = (
    ("interval", "interval-tq", lambda grid: [case_interval_tq()]),
    ("point", "point-tq", lambda grid: [case_point_tq()]),
    ("interval", "interval-secular", lambda grid: [case_interval_secular()]),
    ("interval", "interval-classify-", lambda grid: cases_interval_classify(grid)),
    ("interval", "named-", lambda grid: cases_named_spectra(grid)),
    ("interval", "convergence-", lambda grid: cases_convergence()),
    ("abstract", "variational-sup", lambda grid: [case_variational()]),
    ("abstract", "ordering-monotonicity", lambda grid: [case_ordering()]),
    ("interval", "krein-bound", lambda grid: [case_krein()]),
    ("point", "point-", lambda grid: cases_point()),
    ("coulomb", "coulomb-", lambda grid: cases_coulomb()),
)


def run(grid: int = 2000, only: Optional[str] = None) -> List[Report]:
    """Run the verification matrix, optionally filtered to one example or
    to the cases whose name starts with `only`."""
    reports: List[Report] = []
    for example, prefix, cases in CASES:
        if only in (None, example) or prefix.startswith(only) or only.startswith(prefix):
            reports.extend(cases(grid))
    if only is not None:
        reports = [r for r in reports if r.example == only or r.case.startswith(only)]
    return sorted(reports, key=lambda r: r.case)
