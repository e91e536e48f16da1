"""Span tracing of topext from outside, by wrapping its public functions.

Each wrapped call records one span (name, start, end, parent span, op id)
into flat arrays held in memory.  The modules import one another's
functions with `from .numerics import ...`, so a function has several
binding sites (`numerics.bisect`, `coulomb.bisect`, `interval.bisect`);
`Tracer.install` replaces every module-global binding of the original
function object, and `uninstall` puts the originals back.  Calls inside a
module go through its globals, so they are caught as well.

A span's self time is its duration minus the time its direct children
cover.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

VERIFY_CASES = (
    "case_interval_tq", "case_point_tq", "case_interval_secular",
    "cases_interval_classify", "cases_named_spectra", "cases_convergence",
    "case_variational", "case_ordering", "case_krein", "cases_point",
    "cases_coulomb",
)

# (module, function): every traced layer boundary
TARGETS = (
    ("numerics", "eig_sym"), ("numerics", "bisect"), ("numerics", "digamma"),
    ("numerics", "integrate"), ("numerics", "is_psd"),
    ("kvb", "build_q"), ("kvb", "is_top_extension"), ("kvb", "variational_sup_check"),
    ("interval", "spectrum"), ("interval", "secular_F"),
    ("point", "radial_integral"), ("point", "classify_point"),
    ("coulomb", "coulomb_eigenvalue"), ("coulomb", "script_F"),
    ("coulomb", "count_sign_changes"),
    ("fem", "assemble"), ("fem", "lowest_eigenvalues"),
    *(("verify", case) for case in VERIFY_CASES),
    ("cli", "main"),
)
# reported by self time only: the verify cases and the CLI are callers,
# their call counts are fixed by the program
SELF_ONLY = {f"verify.{case}" for case in VERIFY_CASES} | {"cli.main"}


def _count_f_evals(key):
    """Pre-hook: count calls of the integrand/target passed as argument 0."""
    def pre(counts, args):
        f = args[0]

        def counted(x):
            counts[key] += 1
            return f(x)
        return (counted,) + tuple(args[1:])
    return pre


def _eig_sym_flops(counts, args, kwargs, result):
    # dense LAPACK path: potrf n^3/3 + two trsm n^3 each + sytrd 4n^3/3;
    # without B only the sytrd
    n = np.shape(args[0])[0]
    generalized = (len(args) > 1 and args[1] is not None) or kwargs.get("B") is not None
    counts["numerics.eig_sym.flops_computed"] += (11 if generalized else 4) * n ** 3 / 3


def _assemble_sizes(counts, args, kwargs, result):
    # float64 K and M as dense arrays: bytes computed from their shapes
    counts["fem.dofs_total"] += getattr(result, "dim", 0)
    for part in ("stiffness", "mass"):
        counts["fem.assemble.bytes_computed"] += 8 * int(
            np.prod(np.shape(getattr(result, part, ()))))


def _count_roots(counts, args, kwargs, result):
    counts["coulomb.roots"] += result is not None


PRE_HOOKS = {
    "numerics.bisect": _count_f_evals("numerics.bisect.f_evals"),
    "numerics.integrate": _count_f_evals("numerics.integrate.f_evals"),
}
POST_HOOKS = {
    "numerics.eig_sym": _eig_sym_flops,
    "fem.assemble": _assemble_sizes,
    "coulomb.coulomb_eigenvalue": _count_roots,
}
COUNTERS = {
    "fem.assemble.bytes_computed": "B",
    "fem.dofs_total": "count",
    "numerics.eig_sym.flops_computed": "flop",
    "numerics.bisect.f_evals": "count",
    "numerics.integrate.f_evals": "count",
    "coulomb.roots": "count",
}


class Tracer:
    """Span recorder; `op` is the id stamped on spans opened from now on."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TARGETS]
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_error = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = -1
        self.active = True
        self.counts = defaultdict(float)
        self._restore = []

    def _wrap(self, name_id: int, fn):
        name = self.names[name_id]
        pre, post = PRE_HOOKS.get(name), POST_HOOKS.get(name)
        names, parents, ops, errors = (self.span_name, self.span_parent,
                                       self.span_op, self.span_error)
        starts, ends, stack, counts = self.span_start, self.span_end, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if pre is not None and args:
                args = pre(counts, args)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op)
            errors.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(counts, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target at every module-global binding in topext."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "topext" or key.startswith("topext.")]
        for name_id, (mod, fn) in enumerate(TARGETS):
            original = getattr(sys.modules.get(f"topext.{mod}"), fn, None)
            if original is None:  # removed from the program: reads as zero
                continue
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans, e.g. an output check."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def arrays(self) -> dict:
        """Views of the span columns; take them once tracing has stopped."""
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "op": np.frombuffer(self.span_op, dtype=np.int64),
            "error": np.frombuffer(self.span_error, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def per_op_calls(self, ops: int) -> np.ndarray:
        """calls[op, name id] for spans stamped with op ids 0..ops-1."""
        a = self.arrays()
        keep = (a["op"] >= 0) & (a["op"] < ops)
        flat = a["op"][keep] * len(self.names) + a["name"][keep]
        return np.bincount(flat, minlength=ops * len(self.names)).reshape(
            ops, len(self.names))

    def layer_metrics(self, op_wall_s: float) -> dict:
        """Per-layer values: calls, self time (seconds and share of the
        traced op wall time), errors leaving a module, hook counters."""
        a = self.arrays()
        k = len(self.names)
        duration = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=duration[child],
                              minlength=duration.size)
        self_s = np.bincount(a["name"], weights=duration - covered, minlength=k)
        calls = np.bincount(a["name"], minlength=k)
        module = np.array([n.split(".")[0] for n in self.names])
        span_module = module[a["name"]]
        parent_module = np.where(child, module[a["name"][np.maximum(a["parent"], 0)]], "")
        escaped = a["error"] & (span_module != parent_module)

        values = {}
        for i, name in enumerate(self.names):
            if name not in SELF_ONLY:
                values[f"{name}.calls"] = int(calls[i])
            values[f"{name}.self_s"] = float(self_s[i])
            values[f"{name}.self_pct"] = 100.0 * float(self_s[i]) / op_wall_s
        for mod in ("interval", "coulomb"):
            values[f"{mod}.errors"] = int(np.sum(escaped & (span_module == mod)))
        for key in COUNTERS:
            values[key] = float(self.counts.get(key, 0.0))
        values["interval.secular_F.per_spectrum"] = _ratio(
            values["interval.secular_F.calls"], values["interval.spectrum.calls"])
        values["coulomb.script_F.per_root"] = _ratio(
            values["coulomb.script_F.calls"], values["coulomb.roots"])
        values["trace.spans"] = int(duration.size)
        return values


def _ratio(count: float, base: float) -> float:
    return count / base if base else 0.0
