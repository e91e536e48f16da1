"""topext benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the last line of stdout is a JSON object holding every
end-to-end metric of BENCHMARK.json; with `--trace 1` it holds every
per-layer metric, taken from a fixed number of seeded ops run once
untraced and once traced.  The lines before it describe the machine and
the run.  The exit code is 0 when every output checked correct, 1 when
one did not, and 2 when the program cannot be found.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads; the setup probes inherit this.
# One thread: on a small shared machine a second BLAS thread doubled the
# fem-spectra op times and made the query-mix timings spread more.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import contextlib
import itertools
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH_DIR / "out"

# setup_s is the median of this many fresh interpreters that import topext
# and run the same warm-up as the benchmark process; import time swings by up
# to 1.5x with the load of the shared machine, so several probes, spread over
# the run, sample both its busy and its calm spells
SETUP_PROBES = 7
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.warm_up()
print(time.perf_counter() - t0)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "topext" / "__init__.py").is_file():
        fail(f"no topext sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import topext
    if Path(topext.__file__).resolve().parent != SRC / "topext":
        fail(f"imported topext from {topext.__file__}, not from {SRC}")
    return topext


def declared_metrics() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path}")
    spec = json.loads(path.read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def machine_info(topext) -> dict:
    import scipy

    def blas(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "threads": THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_openblas": blas(numpy),
            "scipy_openblas": blas(scipy), "topext": topext.__version__}


def setup_probe() -> float:
    """Seconds a fresh interpreter takes to import topext and warm up."""
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


class Op:
    """One timed call: its input, how long it took, and what went wrong."""
    __slots__ = ("inp", "seconds", "error", "problem")

    def __init__(self, inp, seconds, error=None, problem=None):
        self.inp, self.seconds, self.error, self.problem = inp, seconds, error, problem

    @property
    def failed(self) -> bool:
        return self.error is not None or self.problem is not None


def run_op(workload, inp, untraced=contextlib.nullcontext) -> Op:
    """Time one op, then check its output outside the timed region (and,
    in a traced run, outside the trace).  An exception counts the op as
    failed and the run goes on; one the workload does not list as a known
    failure is also a wrong output."""
    t0 = time.perf_counter()
    try:
        out = workload.run(inp)
    except Exception as exc:
        seconds = time.perf_counter() - t0
        problem = (None if isinstance(exc, workload.known_failures)
                   else f"{inp}: raised {type(exc).__name__}: {exc}")
        return Op(inp, seconds, error=exc, problem=problem)
    seconds = time.perf_counter() - t0
    try:
        with untraced():
            problem = workload.check(inp, out)
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    return Op(inp, seconds, problem=problem)


def timed_passes(workload, inputs, probes: int):
    """Time every input `workload.passes` times, one pass over the list
    after another, as a closed loop: the next op starts when the last one
    has returned.  Between ops, run `probes` setup probes spread evenly
    over the run, so that they sample the machine at different times.
    Returns every op, and for each input the least of its op times."""
    total = workload.passes * len(inputs)
    ops, setup = [], []
    for i in range(total):
        while len(setup) < probes and i >= len(setup) * total / probes:
            setup.append(setup_probe())
        ops.append(run_op(workload, inputs[i % len(inputs)]))
    setup += [setup_probe() for _ in range(probes - len(setup))]
    best = [min(op.seconds for op in ops[i::len(inputs)]) for i in range(len(inputs))]
    return ops, best, setup


def percentile_ms(seconds, q: float) -> float:
    return 1e3 * float(numpy.percentile(seconds, q))


def summary(inputs, best, ops, kind) -> dict:
    """Counts and per-kind medians printed ahead of the result line."""
    raised, kinds = {}, {}
    for op in ops:
        if op.error is not None:
            name = type(op.error).__name__
            raised[name] = raised.get(name, 0) + 1
    for inp, seconds in zip(inputs, best):
        kinds.setdefault(kind(inp), []).append(seconds)
    failed = sum(op.failed for op in ops)
    return {
        "inputs": len(inputs), "attempted": len(ops), "failed": failed,
        "fail_frac": failed / len(ops), "raised": raised,
        # too dependent on the machine's slow spells to be bounded
        "p99_ms": percentile_ms(best, 99),
        "wrong": [op.problem for op in ops if op.problem is not None][:5],
        "kinds": {k: {"inputs": len(v), "p50_ms": percentile_ms(v, 50)}
                  for k, v in sorted(kinds.items())},
    }


def end_to_end(best, ops, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        # one client, no think time: inputs per second of their op time
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": percentile_ms(best, 50),
        "op_p90_ms": percentile_ms(best, 90),
        "ok_frac": sum(not op.failed for op in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_replay(workload, inputs, spans_path):
    """Run `inputs` with every layer wrapped."""
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        replay = []
        for i, inp in enumerate(inputs):
            tracer.op = i
            replay.append(run_op(workload, inp, tracer.paused))
    finally:
        tracer.uninstall()
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.save(spans_path)
    return tracer, replay


def per_layer(tracer, untraced, traced) -> dict:
    traced_s = sum(op.seconds for op in traced)
    values = tracer.layer_metrics(traced_s)
    values["trace.op_ms"] = 1e3 * traced_s / len(traced)
    values["trace.overhead_pct"] = 100.0 * (
        traced_s / sum(op.seconds for op in untraced) - 1.0)
    return values


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for name in units:
        print(f"{name:<40} {metrics[name]!r} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-matrix", "fem-spectra", "query-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    topext = import_program()
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]

    import workloads
    workload = workloads.WORKLOADS[args.workload]
    workloads.warm_up()
    inputs = workload.inputs(random.Random(args.seed))

    if args.trace:
        fixed = list(itertools.islice(inputs, workload.trace_ops))
        untraced = [run_op(workload, inp) for inp in fixed]
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer, ops = traced_replay(workload, fixed, spans_path)
        info = summary(fixed, [op.seconds for op in ops], ops, workloads.kind)
        metrics = per_layer(tracer, untraced, ops)
        info["self_s"] = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {k: v for k, v in metrics.items() if k in units}
        wrong = [op.problem for op in untraced + ops if op.problem is not None]
    else:
        fixed = list(itertools.islice(inputs, workload.run_inputs(args.seconds)))
        ops, best, setup = timed_passes(workload, fixed, SETUP_PROBES)
        info = summary(fixed, best, ops, workloads.kind)
        metrics = end_to_end(best, ops, statistics.median(setup))
        wrong = [op.problem for op in ops if op.problem is not None]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "machine": machine_info(topext), "run": info}))
    correct = not wrong
    if not correct:
        print(f"perfbench: {len(wrong)} wrong outputs on {args.workload}, "
              f"first: {wrong[0]}", file=sys.stderr)
    emit(correct, len(ops), info["failed"], metrics, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
