"""Self-test of the tracing: traced call counts against known ground truth.

    python3 perfbench/selftest.py

A binding site that `Tracer.install` missed would make a layer read as
zero; here it makes a count differ from what the program is known to do.
The expected counts are those of the program when the benchmark was
defined: one `topext verify` pass assembles and solves 14 FEM problems,
computes 108 interval spectra and finds 10 Coulomb roots with 34,299
evaluations of F_nu.  Exit code 0 when every count matches, 1 otherwise.
"""
from __future__ import annotations

import itertools
import random
import sys

import run

VERIFY_PASS_CALLS = {
    "fem.assemble": 14,
    "numerics.eig_sym": 14,
    "interval.spectrum": 108,
    "coulomb.script_F": 34_299,
}
VERIFY_PASS_ROOTS = 10
QUERIES = 540


def traced(ops_inputs, op):
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    outputs = []
    try:
        for i, inp in enumerate(ops_inputs):
            tracer.op = i
            try:
                outputs.append(op(inp))
            except Exception as exc:  # known SearchError inputs stay in the mix
                outputs.append(exc)
    finally:
        tracer.uninstall()
    return tracer, outputs


def main() -> int:
    run.import_program()
    import workloads
    workloads.warm_up()
    problems = []

    def expect(what, got, want):
        status = "ok  " if got == want else "FAIL"
        print(f"{status} {what}: {got} (want {want})")
        if got != want:
            problems.append(what)

    tracer, (out,) = traced([("verify",)], workloads.verify_pass)
    expect("verify pass output problems", workloads.check_verify(("verify",), out), None)
    calls = dict(zip(tracer.names, tracer.per_op_calls(1)[0]))
    for name, want in VERIFY_PASS_CALLS.items():
        expect(f"{name} calls per verify pass", int(calls[name]), want)
    expect("coulomb roots per verify pass", int(tracer.counts["coulomb.roots"]),
           VERIFY_PASS_ROOTS)

    inputs = list(itertools.islice(workloads.query_inputs(random.Random(0)), QUERIES))
    tracer, _ = traced(inputs, workloads.query)
    per_op = tracer.per_op_calls(len(inputs))
    column = {name: i for i, name in enumerate(tracer.names)}
    expect("coulomb.coulomb_eigenvalue calls in query-mix",
           int(per_op[:, column["coulomb.coulomb_eigenvalue"]].sum()),
           sum(map(workloads.coulomb_below_threshold, inputs)))
    for kind, name in (("interval", "interval.spectrum"), ("point", "point.classify_point")):
        ops = [i for i, inp in enumerate(inputs) if workloads.kind(inp) == kind]
        expect(f"{name} calls in the {kind} queries of query-mix",
               int(per_op[ops, column[name]].sum()), len(ops))
    print("selftest", "FAILED: " + ", ".join(problems) if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
