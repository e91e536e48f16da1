"""The three benchmark workloads: seeded inputs, the timed op, its check.

Inputs are drawn in blocks that cover every stratum of the input ranges
in fixed proportions, so a run's medians depend on the seed only through
the draws inside each stratum.  `run` is the timed call into
topext.  `check` runs right after it, outside the timing, and returns None
when the output is right, or a message saying what is wrong.

Import this module only after `src` is on `sys.path`.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from topext import cli, coulomb, fem, interval, kvb, point, verify

PI2 = math.pi ** 2

# topext verify at this grid emits this many records, all of them passing
VERIFY_RECORDS = 26

FEM_BCS = ("robin", "dirichlet", "periodic")
FEM_N_RANGE = (200, 800)
FEM_N_STRATA = 64  # a power of two, for the bit-reversed order
FEM_K_MAX = 6
FEM_B_RANGE = (-10.0, 50.0)
# holds at least 8 Robin eigenvalues for every b in FEM_B_RANGE
FEM_ANALYTIC_CUTOFF = 700.0
# P1 eigenvalues lie above the exact ones; allow this much solver round-off
FEM_ONE_SIDED_SLACK = 1e-9

CUTOFFS = (200.0, 2000.0, 20000.0)
# |b| = 10^u for u in this range, so that |t| = |3b + 12| reaches about 1e13
INTERVAL_LOG10_B = (-6.0, math.log10(1e13 / 3.0))
# a secular root must bracket F = t within this relative width
ROOT_REL_WIDTH = 1e-12
POINT_LOG10_ALPHA = (-6.0, 4.0)
COULOMB_LOG10_NU = (-1.0, 6.0)
COULOMB_LOG10_GAP = (-14.0, 2.0)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[random.Random], Iterator[tuple]]
    run: Callable[[tuple], object]
    check: Callable[[tuple, object], Optional[str]]
    # an untraced run times each of its inputs this many times and keeps the
    # least: the machine has slow spells of seconds that would otherwise
    # decide the percentiles
    passes: int
    # mean seconds of one op at the baseline, and the number of inputs that
    # cover every stratum once; they size a run's list of inputs
    op_s: float
    block: int
    # ops a traced run replays: fixed, so that per-layer counts compare
    # across commits whatever their speed
    trace_ops: int
    # exceptions an op may raise on inputs the program is known to fail on;
    # any other exception is a wrong output
    known_failures: tuple = ()

    def run_inputs(self, seconds: float) -> int:
        """How many inputs an untraced run times: whole blocks, at least one,
        taking about `seconds` at the baseline.  The number depends on
        nothing else, so the ops a run attempts, and those that fail, are
        the same at a given seed on every commit."""
        blocks = round(seconds / (self.passes * self.op_s * self.block))
        return self.block * max(1, blocks)


def kind(inp: tuple) -> str:
    """Label under which an op's latency is also reported on its own."""
    return inp[0]


def warm_up() -> None:
    """Fill the lru_cached deficiency models and touch every code path the
    workloads time, so that one-off costs land in setup, not in ops."""
    interval.deficiency_model()
    point.deficiency_model_point()
    fem.lowest_eigenvalues(fem.assemble(8, fem.Periodic()), 1)
    interval.spectrum(12.0)
    point_query(-1.0)
    coulomb.classify_coulomb(1.0, -1.0)
    cli.build_parser()


def _radical_inverse(j: int, base: int) -> float:
    """The digits of j in `base` mirrored behind the point."""
    x, scale = 0.0, 1.0 / base
    while j:
        j, digit = divmod(j, base)
        x += digit * scale
        scale /= base
    return x


def _low_discrepancy(rng: random.Random, base: int, log10_range) -> Iterator[float]:
    """Exponents in `log10_range` from the van der Corput sequence in
    `base`, shifted by a seeded offset.  Every prefix spreads evenly over
    the range, and two sequences of coprime bases together fill the square
    evenly (a Halton sequence).  The share of inputs in any sub-range, such
    as those the program fails on, then hardly depends on the seed."""
    lo, hi = log10_range
    offset = rng.random()
    for j in itertools.count(1):
        yield lo + (hi - lo) * ((offset + _radical_inverse(j, base)) % 1.0)


# ---------------------------------------------------------------- verify-matrix

def verify_inputs(rng: random.Random) -> Iterator[tuple]:
    while True:
        yield ("verify",)


def verify_pass(inp: tuple):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", "--format", "records"])
    return rc, buf.getvalue()


def check_verify(inp: tuple, out) -> Optional[str]:
    rc, text = out
    records = [json.loads(line) for line in text.splitlines()]
    failing = [r["case"] for r in records if not r["passed"]]
    if rc != 0 or len(records) != VERIFY_RECORDS or failing:
        return (f"verify exit {rc}, {len(records)} records "
                f"(want {VERIFY_RECORDS}), failing {failing}")
    return None


# ---------------------------------------------------------------- fem-spectra

def fem_inputs(rng: random.Random) -> Iterator[tuple]:
    """One op per boundary condition and n-stratum, with n drawn inside
    its stratum.  The strata come in bit-reversed order, so that every 16
    strata in a row are evenly spaced over [200, 800]: a run takes 16."""
    lo, hi = FEM_N_RANGE
    bits = (FEM_N_STRATA - 1).bit_length()
    order = sorted(range(FEM_N_STRATA), key=lambda s: int(f"{s:0{bits}b}"[::-1], 2))
    while True:
        for stratum in order:
            n = lo + int((hi - lo + 1) * (stratum + rng.random()) / FEM_N_STRATA)
            for bc in rng.sample(FEM_BCS, len(FEM_BCS)):
                k = rng.randint(1, FEM_K_MAX)
                b = rng.uniform(*FEM_B_RANGE) if bc == "robin" else None
                yield (bc, n, k, b)


def _fem_bc(name: str, b: Optional[float]):
    if name == "robin":
        return fem.AntiPeriodicRobin(b)
    if name == "dirichlet":
        return interval.BoundaryCondition.dirichlet()
    return fem.Periodic()


def fem_spectrum(inp: tuple):
    bc, n, k, b = inp
    return fem.lowest_eigenvalues(fem.assemble(n, _fem_bc(bc, b)), k)


def fem_analytic(bc: str, k: int, b: Optional[float]) -> list:
    """The k lowest exact eigenvalues, with multiplicity."""
    if bc == "robin":
        spec = interval.spectrum(interval.b_to_t(b), cutoff=FEM_ANALYTIC_CUTOFF)
        return sorted(spec.sin_family + spec.secular_roots)[:k]
    if bc == "dirichlet":
        return [(j * math.pi) ** 2 for j in range(1, k + 1)]
    # periodic: 0, then (2 pi m)^2 twice for m = 1, 2, ...
    return [(2.0 * math.pi * ((j + 1) // 2)) ** 2 for j in range(k)]


def check_fem(inp: tuple, out) -> Optional[str]:
    bc, n, k, b = inp
    exact = fem_analytic(bc, k, b)
    if len(out) != k or len(exact) != k:
        return f"{inp}: {len(out)} eigenvalues, {len(exact)} exact, want {k}"
    for j, (a, d) in enumerate(zip(exact, out)):
        scale = max(abs(a), 1.0)
        if d < a - FEM_ONE_SIDED_SLACK * scale:
            return f"{inp}: eigenvalue {j} = {d!r} below exact {a!r}"
        if abs(d - a) > verify.ORACLE_REL_TOL * scale:
            return f"{inp}: eigenvalue {j} = {d!r} too far from exact {a!r}"
    return None


# ---------------------------------------------------------------- query-mix

def query_inputs(rng: random.Random) -> Iterator[tuple]:
    """Blocks of 18: six queries of each example.  Each slot of the block
    takes its exponents from low-discrepancy sequences of its own; a
    coulomb slot takes (nu, gap) from a two-dimensional one, since the
    program fails in corners of that square."""
    intervals = [(cutoff, sign, _low_discrepancy(rng, 2, INTERVAL_LOG10_B))
                 for cutoff in CUTOFFS for sign in (-1.0, 1.0)]
    points = [(sign, _low_discrepancy(rng, 2, POINT_LOG10_ALPHA))
              for sign in (-1.0, -1.0, -1.0, 1.0, 1.0)]
    coulombs = [(sign, _low_discrepancy(rng, 2, COULOMB_LOG10_NU),
                 _low_discrepancy(rng, 3, COULOMB_LOG10_GAP))
                for sign in (-1.0, -1.0, -1.0, -1.0, 1.0, 1.0)]
    while True:
        block = [("interval", sign * 10.0 ** next(u), cutoff) for cutoff, sign, u in intervals]
        block += [("point", sign * 10.0 ** next(u)) for sign, u in points]
        block.append(("point", rng.choice((0.0, math.inf))))
        for sign, u, v in coulombs:
            nu = 10.0 ** next(u)
            block.append(("coulomb", nu, coulomb.alpha_threshold(nu) + sign * 10.0 ** next(v)))
        rng.shuffle(block)
        yield from block


def interval_query(b: float, cutoff: float):
    cls = interval.classify(b)
    return cls, interval.spectrum(cls.t, cutoff)


def point_query(alpha: float):
    """Closed-form classification plus the abstract criterion T >= T_q."""
    cls = point.classify_point(alpha)
    tq = kvb.build_q(point.deficiency_model_point())
    return cls, kvb.is_top_extension(point.extension_parameter(alpha), tq)


def query(inp: tuple):
    if inp[0] == "interval":
        return interval_query(inp[1], inp[2])
    if inp[0] == "point":
        return point_query(inp[1])
    return coulomb.classify_coulomb(inp[1], inp[2])


def _check_interval(b: float, out) -> Optional[str]:
    cls, spec = out
    if cls.top != (b >= 0.0):
        return f"b={b!r}: top={cls.top}"
    if (spec.bottom < PI2) != (b < 0.0):
        return f"b={b!r}: bottom {spec.bottom!r} against pi^2"
    for r in spec.secular_roots:
        width = ROOT_REL_WIDTH * max(1.0, abs(r))
        below = interval.secular_F(r - width) - cls.t
        above = interval.secular_F(r + width) - cls.t
        if not below <= 0.0 <= above:
            return f"b={b!r}: root {r!r} does not bracket F = t ({below!r}, {above!r})"
    return None


def _check_point(alpha: float, out) -> Optional[str]:
    cls, top_by_criterion = out
    if cls.top != (alpha >= 0.0) or top_by_criterion != cls.top:
        return f"alpha={alpha!r}: top={cls.top}, criterion says {top_by_criterion}"
    expected = -(4.0 * math.pi * alpha) ** 2 if alpha < 0.0 else 0.0
    if cls.bottom != expected:
        return f"alpha={alpha!r}: bottom {cls.bottom!r}, want {expected!r}"
    return None


def _check_coulomb(nu: float, alpha: float, cls) -> Optional[str]:
    below = alpha < coulomb.alpha_threshold(nu)
    if cls.top == below:
        return f"nu={nu!r} alpha={alpha!r}: top={cls.top}, below threshold {below}"
    if not below:
        return None if cls.bottom == 0.0 else f"nu={nu!r}: bottom {cls.bottom!r} above threshold"
    residual = abs(coulomb.script_F(nu, cls.bottom) - alpha)
    if not (cls.bottom < 0.0 and residual <= verify.COULOMB_RESIDUAL_TOL):
        return f"nu={nu!r} alpha={alpha!r}: E={cls.bottom!r}, residual {residual!r}"
    return None


def check_query(inp: tuple, out) -> Optional[str]:
    if inp[0] == "interval":
        return _check_interval(inp[1], out)
    if inp[0] == "point":
        return _check_point(inp[1], out)
    return _check_coulomb(inp[1], inp[2], out)


def coulomb_below_threshold(inp: tuple) -> bool:
    """True for a coulomb query that must search for an eigenvalue."""
    return inp[0] == "coulomb" and inp[2] < coulomb.alpha_threshold(inp[1])


WORKLOADS = {
    w.name: w for w in (
        # one pass of about 45 s: it spans the slow spells itself
        Workload("verify-matrix", verify_inputs, verify_pass, check_verify,
                 passes=1, op_s=45.0, block=1, trace_ops=1),
        # a block is 16 n-strata, evenly spaced over [200, 800], with each
        # boundary condition; one block is traced
        Workload("fem-spectra", fem_inputs, fem_spectrum, check_fem,
                 passes=3, op_s=0.125, block=16 * len(FEM_BCS), trace_ops=48),
        # 200 blocks are traced; SearchError is how the root finders fail
        # today at |t| >= 1e11, nu near 1e6 and gaps near 1e-14 (see ROADMAP.md)
        Workload("query-mix", query_inputs, query, check_query,
                 passes=12, op_s=1.2e-3, block=18, trace_ops=3600,
                 known_failures=(interval.SearchError, coulomb.SearchError)),
    )
}
