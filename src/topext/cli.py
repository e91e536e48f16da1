"""Command-line front end.

Subcommands `interval`, `point`, `coulomb` expose classification tables,
spectra, and form-level computations; `verify` runs the full verification
matrix against the finite-element oracle.  Exit codes: 0 pass, 1 numeric
or verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from . import coulomb, interval, kvb, point, verify as verify_mod
from .numerics import reject_nonfinite


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _emit_pairs(pairs, fmt: str, out) -> None:
    if fmt == "records":
        record = {k: v for k, v in pairs}
        print(json.dumps(record, sort_keys=True), file=out)
    else:
        width = max(len(k) for k, _ in pairs)
        for k, v in pairs:
            if isinstance(v, (list, tuple)):
                v = ", ".join(_fmt(x) for x in v)
            else:
                v = _fmt(v)
            print(f"{k:<{width}}  {v}", file=out)


def _cmd_interval(args, out) -> int:
    if args.subcommand == "classify":
        cls = interval.classify(args.b)
        bottom = interval.spectrum(cls.t, cutoff=200.0).bottom
        _emit_pairs([
            ("example", "interval"), ("b", args.b), ("t", cls.t),
            ("classification", "Top" if cls.top else "NotTop"),
            ("margin", cls.margin), ("bottom", bottom),
        ], args.format, out)
        return 0
    if args.subcommand == "spectrum":
        spec = interval.spectrum(args.t, cutoff=args.cutoff)
        _emit_pairs([
            ("example", "interval"), ("t", args.t), ("cutoff", args.cutoff),
            ("sin_family", list(spec.sin_family)),
            ("secular_roots", list(spec.secular_roots)),
            ("bottom", spec.bottom),
        ], args.format, out)
        return 0
    if args.subcommand == "tq":
        model = interval.deficiency_model(args.terms)
        tq = kvb.build_q(model)
        _emit_pairs([
            ("example", "interval"), ("terms", args.terms),
            ("m_S", model.m_S), ("q_value", float(tq.q_matrix[0, 0])),
            ("t_q", tq.t_q_scalar),
        ], args.format, out)
        return 0
    if args.subcommand == "secular":
        lo, hi, k = args.min, args.max, args.samples
        reject_nonfinite(min=lo, max=hi)
        if not (lo < hi and k >= 2):
            print("secular: need min < max and samples >= 2", file=sys.stderr)
            return 2
        sink = open(args.out, "w") if args.out else out
        try:
            print("lambda,F,interval", file=sink)
            for i in range(k):
                lam = lo + (hi - lo) * i / (k - 1)
                # the branches of F lie between the poles at (2 n pi)^2
                x = math.sqrt(max(lam, 0.0)) / (2.0 * math.pi)
                n = round(x)
                if n >= 1 and abs(lam - (2.0 * n * math.pi) ** 2) < 1e-6:
                    continue  # skip the singularity neighbourhood
                idx = math.floor(x)
                print(f"{_fmt(lam)},{_fmt(interval.secular_F(lam))},{idx}", file=sink)
        finally:
            if args.out:
                sink.close()
        return 0
    raise AssertionError(args.subcommand)


def _cmd_point(args, out) -> int:
    if args.subcommand == "classify":
        cls = point.classify_point(args.alpha)
        _emit_pairs([
            ("example", "point"), ("alpha", args.alpha),
            ("classification", "Friedrichs" if math.isinf(args.alpha)
             else ("Top" if cls.top else "NotTop")),
            ("bottom", cls.bottom),
        ], args.format, out)
        return 0
    if args.subcommand == "spectrum":
        spec = point.point_spectrum(args.alpha)
        _emit_pairs([
            ("example", "point"), ("alpha", args.alpha),
            ("eigenvalue", spec.eigenvalue if spec.eigenvalue is not None else "none"),
            ("essential", "[0, inf)"), ("bottom", spec.bottom),
        ], args.format, out)
        return 0
    if args.subcommand == "tq":
        model = point.deficiency_model_point()
        tq = kvb.build_q(model)
        gram = float(model.gram[0, 0])
        reg = float(model.weighted_gram(1.0)[0, 0])
        pi2 = math.pi ** 2
        residual = max(abs(gram - pi2), abs(reg - pi2))
        _emit_pairs([
            ("example", "point"), ("m_S", model.m_S),
            ("norm_G1_sq", gram), ("regularized_norm_sq", reg),
            ("quad_residual", residual), ("t_q", tq.t_q_scalar),
        ], args.format, out)
        return 0 if residual <= args.quad_tol else 1
    raise AssertionError(args.subcommand)


def _cmd_coulomb(args, out) -> int:
    if args.subcommand == "threshold":
        _emit_pairs([
            ("example", "coulomb"), ("nu", args.nu),
            ("alpha_threshold", coulomb.alpha_threshold(args.nu)),
        ], args.format, out)
        return 0
    if args.subcommand == "eigenvalue":
        E = coulomb.coulomb_eigenvalue(args.nu, args.alpha)
        pairs = [("example", "coulomb"), ("nu", args.nu), ("alpha", args.alpha)]
        if E is None:
            pairs += [("eigenvalue", "none"),
                      ("note", "alpha at or above threshold")]
        else:
            pairs += [("eigenvalue", E),
                      ("residual", abs(coulomb.script_F(args.nu, E) - args.alpha))]
        _emit_pairs(pairs, args.format, out)
        return 0
    if args.subcommand == "classify":
        cls = coulomb.classify_coulomb(args.nu, args.alpha)
        _emit_pairs([
            ("example", "coulomb"), ("nu", args.nu), ("alpha", args.alpha),
            ("alpha_threshold", cls.threshold),
            ("classification", "Friedrichs" if math.isinf(args.alpha)
             else ("Top" if cls.top else "NotTop")),
            ("bottom", cls.bottom),
        ], args.format, out)
        return 0
    raise AssertionError(args.subcommand)


def _cmd_verify(args, out) -> int:
    reports = verify_mod.run(grid=args.grid, only=args.only)
    if not reports:
        print(f"verify: --only {args.only!r} matches no example or case", file=sys.stderr)
        return 2
    if args.format == "records":
        for r in reports:
            print(r.to_record(), file=out)
    else:
        width = max(len(r.case) for r in reports)
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            extra = r.detail
            if r.bottom_oracle is not None:
                extra = (f"analytic={_fmt(r.bottom_analytic)} "
                         f"oracle={_fmt(r.bottom_oracle)} "
                         f"abs_error={_fmt(r.abs_error)}")
            print(f"{status}  {r.case:<{width}}  {extra}", file=out)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topext",
        description="Self-adjoint extensions with the Friedrichs lower bound: "
                    "classification, spectra, and oracle verification.")
    top = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["table", "records"], default="table")

    p_int = top.add_parser("interval", help="Laplacian on (0,1), deficiency index 2")
    sub = p_int.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("classify")
    p.add_argument("--b", type=float, required=True)
    add_format(p)
    p = sub.add_parser("spectrum")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--cutoff", type=float, default=200.0)
    add_format(p)
    p = sub.add_parser("tq")
    p.add_argument("--terms", type=int, default=10_000)
    add_format(p)
    p = sub.add_parser("secular")
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--out", type=str, default=None)
    add_format(p)

    p_pt = top.add_parser("point", help="3D point interaction, deficiency index 1")
    sub = p_pt.add_subparsers(dest="subcommand", required=True)
    for name in ("classify", "spectrum"):
        p = sub.add_parser(name)
        p.add_argument("--alpha", type=float, required=True)
        add_format(p)
    p = sub.add_parser("tq")
    p.add_argument("--quad-tol", type=float, default=1e-6)
    add_format(p)

    p_cb = top.add_parser("coulomb", help="radial Coulomb operator on the half line")
    sub = p_cb.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("threshold")
    p.add_argument("--nu", type=float, required=True)
    add_format(p)
    for name in ("eigenvalue", "classify"):
        p = sub.add_parser(name)
        p.add_argument("--nu", type=float, required=True)
        p.add_argument("--alpha", type=float, required=True)
        add_format(p)

    p_ver = top.add_parser("verify", help="run the full verification matrix")
    p_ver.add_argument("--grid", type=int, default=2000)
    p_ver.add_argument("--only", type=str, default=None)
    add_format(p_ver)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "interval":
            return _cmd_interval(args, out)
        if args.command == "point":
            return _cmd_point(args, out)
        if args.command == "coulomb":
            return _cmd_coulomb(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
