"""Full verification matrix: analytic claims against oracles.

Each case produces one Report record; `run` returns the sorted list.  The
CLI `verify` command emits them and fails (exit 1) when any case fails.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, asdict
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

from . import coulomb, fem, interval, kvb, point
from .numerics import DomainError, digamma, integrate, reject_noninteger

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


def _oracle(discrete: float, coarse: float, analytic: float, tol: float) -> tuple:
    """(abs_error, passed, detail) of the P1 bottom `discrete` at grid n, given
    `coarse` at n // 2: the error within `tol` and, as the O(h^2) one-sided P1
    error allows, the Richardson extrapolation (4 discrete - coarse) / 3 within
    RICHARDSON_REL_TOL and no undershoot beyond ONE_SIDED_REL_TOL; all three
    relative to max(1, |analytic|)."""
    scale = max(1.0, abs(analytic))
    err = abs(discrete - analytic)
    extrapolated = (4.0 * discrete - coarse) / 3.0
    richardson = abs(extrapolated - analytic)
    ok = (err <= tol * scale and richardson <= RICHARDSON_REL_TOL * scale
          and discrete >= analytic - ONE_SIDED_REL_TOL * scale)
    return err, ok, f"richardson={extrapolated!r} richardson_error={richardson!r}"


def case_interval_tq() -> Report:
    terms = 10_000
    model = interval.deficiency_model(terms)
    tq = kvb.build_q(model)
    # independent route to q[v]: closed-form resolvent plus quadrature
    res = interval.resolvent_at_bottom()
    inner = integrate(lambda x: (1.0 - 2.0 * x) * res(x), 0.0, 1.0, 64, 10)
    norm2 = integrate(lambda x: (1.0 - 2.0 * x) ** 2, 0.0, 1.0, 64, 10)
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


def cases_interval_classify(grid: int, bottom) -> List[Report]:
    reports = []
    for b in CLASSIFY_BS:
        cls = interval.classify(b)
        bc = fem.AntiPeriodicRobin(b)
        discrete = bottom(grid, bc)
        err, ok, detail = _oracle(discrete, bottom(grid // 2, bc), cls.bottom, ORACLE_REL_TOL)
        ok = ok and cls.top == (b >= 0.0) and (b >= 0.0 or discrete < PI2)
        reports.append(Report(
            case=f"interval-classify-b={b:g}", example="interval",
            parameters={"b": b, "grid": grid}, m_S=PI2, t_q=12.0,
            classification=cls.label, bottom_analytic=cls.bottom, bottom_oracle=discrete,
            abs_error=err, passed=ok, detail=detail))
    return reports


def named_conditions() -> list:
    """(name, condition, classification, oracle tolerance) of the named
    interval conditions; Dirichlet gives the Friedrichs extension."""
    return [
        ("Dirichlet", interval.BoundaryCondition.dirichlet(),
         kvb.Classification.of(top=True, bottom=PI2, friedrichs=True), ORACLE_REL_TOL),
        ("Periodic", fem.Periodic(), kvb.Classification.of(top=False, bottom=0.0),
         PERIODIC_ABS_TOL),  # the bottom is 0: absolute
        ("AntiPeriodic", fem.AntiPeriodicRobin(0.0), interval.classify(0.0), ORACLE_REL_TOL),
    ]


def cases_named_spectra(grid: int, bottom) -> List[Report]:
    reports = []
    for name, bc, cls, tol in named_conditions():
        discrete = bottom(grid, bc)
        err, ok, detail = _oracle(discrete, bottom(grid // 2, bc), cls.bottom, tol)
        reports.append(Report(
            case=f"named-{name.lower()}", example="interval",
            parameters={"grid": grid}, m_S=PI2, classification=cls.label,
            bottom_analytic=cls.bottom, bottom_oracle=discrete,
            abs_error=err, passed=ok, detail=detail))
    return reports


def cases_convergence(bottom) -> List[Report]:
    reports = []
    for name, bc, cls, _ in named_conditions():
        if cls.bottom == 0.0:
            continue  # periodic: P1 holds the constant bottom mode exactly
        e_500, e_1000 = (abs(bottom(n, bc) - cls.bottom) for n in (500, 1000))
        order = math.log2(e_500 / e_1000)
        ok = abs(order - 2.0) <= ORDER_WINDOW
        reports.append(Report(
            case=f"convergence-{name.lower()}", example="interval",
            parameters={"grids": 500.0, "order": order}, m_S=PI2,
            classification=cls.label, bottom_analytic=cls.bottom, passed=ok,
            detail=f"order={order!r}"))
    return reports


def case_variational(pencil) -> Report:
    """The paper's <v, (S_F - mu)^-1 v> = sup_f |<f, v>|^2 / <f, (S_F - mu) f> for v = 1 - 2x,
    the sup over Dirichlet P1 being b^T (K - mu M)^-1 b, b_i = <phi_i, v> = v(x_i) / n (exact:
    v is linear).  The sup is at most the series value W, and its Richardson
    extrapolation from n = 500 and 1000 meets W."""
    model, dirichlet = interval.deficiency_model(), interval.BoundaryCondition.dirichlet()
    loads = {n: (1.0 - 2.0 * np.arange(1, n) / n) / n for n in (500, 1000)}
    one_sided, richardson = -math.inf, 0.0
    for mu in (-150.0, 0.0, 9.0, PI2):
        W = float(model.weighted_gram(mu)[0, 0])
        coarse, fine = (fem.resolvent_form(pencil(n, dirichlet), mu, b)
                        for n, b in loads.items())
        one_sided = max(one_sided, (coarse - W) / W, (fine - W) / W)
        richardson = max(richardson, abs((4.0 * fine - coarse) / 3.0 - W) / W)
    return Report(
        case="variational-sup", example="abstract",
        parameters={"n": 1000.0, "one_sided": one_sided, "richardson": richardson},
        passed=one_sided <= SUP_REL_TOL and richardson <= RICHARDSON_REL_TOL,
        detail="sup over Dirichlet P1 (n = 500, 1000) of |<f,v>|^2/<f,(S_F - mu)f> against "
               "the series <v,(S_F - mu)^-1 v> = W, v = 1 - 2x, mu in (-150, 0, 9, pi^2): "
               f"worst (sup - W)/W = {one_sided!r} (tolerance {SUP_REL_TOL:g}); "
               f"worst |richardson - W|/W = {richardson!r} (tolerance {RICHARDSON_REL_TOL:g})")


def interval_t_grid_bottoms():
    ts = np.linspace(-50.0, 300.0, 50)
    bottoms = [interval.spectrum(float(t), cutoff=200.0).bottom for t in ts]
    return ts, bottoms


def case_ordering(t_grid) -> Report:
    ts, bottoms = t_grid()
    ok = all(b2 >= b1 - 1e-9 for b1, b2 in zip(bottoms, bottoms[1:]))
    for model in (interval.deficiency_model(), point.deficiency_model_point()):
        mus = np.linspace(0.0, model.m_S, 20)
        vals = np.array([float(model.weighted_gram(float(mu))[0, 0]) for mu in mus])
        ok = ok and all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
    # the point family (the last one) in closed form: differentiate
    # int_0^inf r^2 dr / ((r^2 + a^2)(r^2 + b^2)) = pi / (2 (a + b)) in b^2 at b = 1
    closed = PI2 / (1.0 + np.sqrt(1.0 - mus)) ** 2
    point_err = float(np.max(np.abs(vals - closed) / closed))
    return Report(
        case="ordering-monotonicity", example="abstract", passed=ok and point_err <= 1e-9,
        detail="spectrum bottom nondecreasing in t; weighted_gram nondecreasing in mu; "
               "point weighted_gram = pi^2/(1 + sqrt(1 - mu))^2 on 20 levels: worst "
               f"relative error {point_err!r} (tolerance 1e-9)")


def case_krein(t_grid) -> Report:
    ts, bottoms = t_grid()
    model = interval.deficiency_model()
    mus = np.linspace(-150.0, PI2, 41)[:-1]
    q_mus = kvb.build_q(model, mus)
    # Krein's resolvent formula: the scalar level of q_mu is the secular F(mu)
    levels = q_mus.q_matrix[:, 0, 0] / model.gram_V[0, 0]
    F = np.array([interval.secular_F(float(mu)) for mu in mus])
    krein_err = float(np.max(np.abs(levels - F) / np.maximum(1.0, np.abs(F))))
    ok = krein_err <= 1e-9
    agree = 0
    for t, bottom in zip(ts, bottoms):
        ok = ok and (t <= 0 or kvb.krein_bound(PI2, float(t)) - 1e-9 <= bottom <= t + 1e-9)
        # m(S_T) >= mu iff T >= q_mu, read off the parameter T alone, for
        # the whole family q_mus in one call
        T = kvb.ExtensionParameter.scalar(float(t), model.V_basis, model.gram)
        agree += int(np.sum(kvb.is_top_extension(T, q_mus) == (bottom >= mus)))
    pairs = len(ts) * len(mus)
    return Report(
        case="krein-bound", example="interval", m_S=PI2, passed=ok and agree == pairs,
        detail="krein_bound(pi^2, t) <= bottom(S_t) <= t on the positive t grid; "
               f"is_top_extension(T_t, q_mu) == (bottom >= mu) on {agree} of {pairs} (t, mu); "
               f"q_mu level = F(mu) on {len(mus)} levels: worst |level - F| / max(1, |F|) = "
               f"{krein_err!r} (tolerance 1e-9)")


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
    agree = all(kvb.is_top_extension(point.extension_parameter(alpha), tq)
                == point.classify_point(alpha).top
                for alpha in np.linspace(-1.0, 1.0, 21).tolist())
    reports.append(Report(
        case="point-classify-grid", example="point", m_S=1.0, t_q=tq.t_q_scalar,
        passed=agree, detail="classify_point == is_top_extension on 21 alphas"))
    return reports


def cases_coulomb() -> List[Report]:
    reports = []
    digamma_gap = abs(digamma(1.0) + coulomb.EULER_GAMMA)
    worst = max(abs(coulomb.script_F(nu, -1e-10) - coulomb.alpha_threshold(nu))
                for nu in (0.5, 1.0, 2.0, 5.0))
    reports.append(Report(
        case="coulomb-threshold-limit", example="coulomb",
        passed=digamma_gap <= 1e-12 and worst <= COULOMB_LIMIT_TOL,
        detail=f"|digamma(1) + gamma| = {digamma_gap!r}; "
               f"worst |F(-1e-10) - alpha_nu| = {worst!r}"))

    root_ok = True
    for nu in (0.5, 1.0, 2.0, 5.0, 10.0):
        alphas = [coulomb.alpha_threshold(nu) - d for d in (0.1, 1.0)]
        for alpha in alphas:
            E = coulomb.coulomb_eigenvalue(nu, alpha)
            resid = abs(coulomb.script_F(nu, E) - alpha)
            if E is None or resid > COULOMB_RESIDUAL_TOL:
                root_ok = False
        if coulomb.count_sign_changes(nu, alphas) != [1, 1]:
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
# order.  `run` calls a function only if one of its records can match --only,
# with the grid and the pass's memos.  Each lambda looks its function up in
# this module's globals when called, so a tracer's wrapper there sees the call.
CASES = (
    ("interval", "interval-tq", lambda grid, memo: [case_interval_tq()]),
    ("point", "point-tq", lambda grid, memo: [case_point_tq()]),
    ("interval", "interval-secular", lambda grid, memo: [case_interval_secular()]),
    ("interval", "interval-classify-",
     lambda grid, memo: cases_interval_classify(grid, memo.bottom)),
    ("interval", "named-", lambda grid, memo: cases_named_spectra(grid, memo.bottom)),
    ("interval", "convergence-", lambda grid, memo: cases_convergence(memo.bottom)),
    ("abstract", "variational-sup", lambda grid, memo: [case_variational(memo.pencil)]),
    ("abstract", "ordering-monotonicity", lambda grid, memo: [case_ordering(memo.t_grid)]),
    ("interval", "krein-bound", lambda grid, memo: [case_krein(memo.t_grid)]),
    ("point", "point-", lambda grid, memo: cases_point()),
    ("coulomb", "coulomb-", lambda grid, memo: cases_coulomb()),
)


def run(grid: int = 2000, only: Optional[str] = None) -> List[Report]:
    """Run the verification matrix, optionally filtered to one example or
    to the cases whose name starts with `only`.  The pass assembles each FEM
    pencil and solves for its bottom once per (n, bc), and builds the t grid
    once, and keeps none of them."""
    reject_noninteger(grid=grid)
    if grid < 16:
        raise DomainError(f"grid = {grid}: need grid >= 16 (the Richardson checks "
                          "solve at grid // 2, which must be at least 8)")
    pencil = functools.cache(fem.assemble)
    memo = SimpleNamespace(
        pencil=pencil,
        bottom=functools.cache(lambda n, bc: fem.discrete_bottom(pencil(n, bc))),
        t_grid=functools.cache(interval_t_grid_bottoms))
    reports: List[Report] = []
    for example, prefix, cases in CASES:
        if only in (None, example) or prefix.startswith(only) or only.startswith(prefix):
            reports.extend(cases(grid, memo))
    if only is not None:
        reports = [r for r in reports if r.example == only or r.case.startswith(only)]
    return sorted(reports, key=lambda r: r.case)
