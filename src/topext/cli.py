"""Command-line front end.

Subcommands `interval`, `point`, `coulomb` expose classification tables,
spectra, and form-level computations; `verify` runs the full verification
matrix against the finite-element oracle.  Exit codes: 0 pass, 1 numeric,
I/O or verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
from typing import List, Optional

from . import coulomb, interval, kvb, point
from .numerics import DomainError, reject_nonfinite


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _emit(args, pairs) -> None:
    """Print ("example", command) and the pairs: aligned rows, or one JSON record."""
    pairs = [("example", args.command), *pairs]
    if args.format == "records":
        print(json.dumps(dict(pairs), sort_keys=True))
        return
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        v = ", ".join(map(_fmt, v)) if isinstance(v, (list, tuple)) else _fmt(v)
        print(f"{k:<{width}}  {v}")


# Handlers return the output pairs after ("example", ...), or an exit code
# when they write their own output.  Each looks its topext functions up when
# called, so a wrapper installed on them (e.g. by a tracer) sees the call.

def _interval_classify(a):
    cls = interval.classify(a.b)
    return [("b", a.b), ("t", cls.t), ("classification", cls.label),
            ("margin", a.b), ("bottom", cls.bottom)]


def _interval_spectrum(a):
    spec = interval.spectrum(a.t, cutoff=a.cutoff)
    return [("t", a.t), ("cutoff", a.cutoff), ("sin_family", spec.sin_family),
            ("secular_roots", spec.secular_roots), ("bottom", spec.bottom)]


def _interval_tq(a):
    model = interval.deficiency_model(a.terms)
    tq = kvb.build_q(model)
    return [("terms", a.terms), ("m_S", model.m_S),
            ("q_value", float(tq.q_matrix[0, 0])), ("t_q", tq.t_q_scalar)]


def _interval_secular(a) -> int:
    lo, hi, k = a.min, a.max, a.samples
    reject_nonfinite(min=lo, max=hi)
    if not (lo < hi and k >= 2):
        print("secular: need min < max and samples >= 2", file=sys.stderr)
        return 2
    # the samples lo + (hi - lo) * i / (k - 1) need (hi - lo) * i finite
    if not math.isfinite((hi - lo) * (k - 1)):
        raise DomainError(f"max = {hi!r} and min = {lo!r}: (max - min) * (samples - 1) "
                          "overflows a float")
    with open(a.out, "w") if a.out else contextlib.nullcontext(sys.stdout) as sink:
        print("lambda,F,interval", file=sink)
        for i in range(k):
            lam = lo + (hi - lo) * i / (k - 1)
            # the branches of F lie between the poles at (2 n pi)^2
            x = math.sqrt(max(lam, 0.0)) / (2.0 * math.pi)
            n = round(x)
            if n >= 1 and abs(lam - (2.0 * n * math.pi) ** 2) < 1e-6:
                continue  # skip the singularity neighbourhood
            try:
                F = interval.secular_F(lam)
            except interval.PoleError:  # from pole ~500 on its window passes 1e-6
                continue
            print(f"{_fmt(lam)},{_fmt(F)},{math.floor(x)}", file=sink)
    return 0


def _point_classify(a):
    cls = point.classify_point(a.alpha)
    return [("alpha", a.alpha), ("classification", cls.label), ("bottom", cls.bottom)]


def _point_spectrum(a):
    spec = point.point_spectrum(a.alpha)
    return [("alpha", a.alpha),
            ("eigenvalue", spec.eigenvalue if spec.eigenvalue is not None else "none"),
            ("essential", "[0, inf)"), ("bottom", spec.bottom)]


def _point_tq(a) -> int:
    if not 0.0 < a.quad_tol < math.inf:
        raise DomainError(f"quad_tol = {a.quad_tol!r}; a finite tolerance > 0 is required")
    model = point.deficiency_model_point()
    tq = kvb.build_q(model)
    gram = float(model.gram[0, 0])
    reg = float(model.weighted_gram(1.0)[0, 0])
    residual = max(abs(gram - math.pi ** 2), abs(reg - math.pi ** 2))
    _emit(a, [("m_S", model.m_S), ("norm_G1_sq", gram), ("regularized_norm_sq", reg),
              ("quad_residual", residual), ("t_q", tq.t_q_scalar)])
    return 0 if residual <= a.quad_tol else 1


def _coulomb_eigenvalue(a):
    E = coulomb.coulomb_eigenvalue(a.nu, a.alpha)
    if E is None:
        return [("nu", a.nu), ("alpha", a.alpha), ("eigenvalue", "none"),
                ("note", "alpha at or above threshold")]
    return [("nu", a.nu), ("alpha", a.alpha), ("eigenvalue", E),
            ("residual", abs(coulomb.script_F(a.nu, E) - a.alpha))]


def _coulomb_classify(a):
    cls = coulomb.classify_coulomb(a.nu, a.alpha)
    return [("nu", a.nu), ("alpha", a.alpha),
            ("alpha_threshold", coulomb.alpha_threshold(a.nu)),
            ("classification", cls.label), ("bottom", cls.bottom)]


def _verify(a) -> int:
    from . import verify
    reports = verify.run(grid=a.grid, only=a.only)
    if not reports:
        print(f"verify: --only {a.only!r} matches no example or case", file=sys.stderr)
        return 2
    if a.format == "records":
        for r in reports:
            print(r.to_record())
    else:
        width = max(len(r.case) for r in reports)
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            extra = r.detail
            if r.bottom_oracle is not None:
                extra = (f"analytic={_fmt(r.bottom_analytic)} "
                         f"oracle={_fmt(r.bottom_oracle)} "
                         f"abs_error={_fmt(r.abs_error)}")
            print(f"{status}  {r.case:<{width}}  {extra}")
    return 0 if all(r.passed for r in reports) else 1


HELP = {
    "interval": "Laplacian on (0,1), deficiency index 2",
    "point": "3D point interaction, deficiency index 1",
    "coulomb": "radial Coulomb operator on the half line",
    "verify": "run the full verification matrix",
}

# (command, subcommand or None, arguments, handler).  An argument is
# (flag, type) when required and (flag, type, default) otherwise; every
# command also takes --format.
NU, ALPHA = ("--nu", float), ("--alpha", float)
COMMANDS = (
    ("interval", "classify", [("--b", float)], _interval_classify),
    ("interval", "spectrum", [("--t", float), ("--cutoff", float, 200.0)], _interval_spectrum),
    ("interval", "tq", [("--terms", int, 10_000)], _interval_tq),
    ("interval", "secular", [("--min", float), ("--max", float), ("--samples", int, 500),
                             ("--out", str, None)], _interval_secular),
    ("point", "classify", [ALPHA], _point_classify),
    ("point", "spectrum", [ALPHA], _point_spectrum),
    ("point", "tq", [("--quad-tol", float, 1e-6)], _point_tq),
    ("coulomb", "threshold", [NU], lambda a: [
        ("nu", a.nu), ("alpha_threshold", coulomb.alpha_threshold(a.nu))]),
    ("coulomb", "eigenvalue", [NU, ALPHA], _coulomb_eigenvalue),
    ("coulomb", "classify", [NU, ALPHA], _coulomb_classify),
    ("verify", None, [("--grid", int, 2000), ("--only", str, None)], _verify),
)

# argparse's own pattern misses exponents: `--b -1e6` would be a usage error
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topext",
        description="Self-adjoint extensions with the Friedrichs lower bound: "
                    "classification, spectra, and oracle verification.")
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}  # the parser of a command without subcommands, else its subparsers
    for command, subcommand, arguments, handler in COMMANDS:
        if command not in groups:
            p = top.add_parser(command, help=HELP[command])
            groups[command] = (p if subcommand is None
                               else p.add_subparsers(dest="subcommand", required=True))
        p = groups[command] if subcommand is None else groups[command].add_parser(subcommand)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for flag, type_, *default in arguments:
            if default:
                p.add_argument(flag, type=type_, default=default[0])
            else:
                p.add_argument(flag, type=type_, required=True)
        p.add_argument("--format", choices=["table", "records"], default="table")
        p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.handler(args)
    except (ArithmeticError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, int):
        return result
    _emit(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
