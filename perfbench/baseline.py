"""Record the benchmark's baseline: every workload over seeds 1-10.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

Runs `run.py` once per workload and seed, one process after another, for
BENCHMARK.json's `run_seconds`.  For each end-to-end metric it reports the
median over seeds, the quartiles, and the spread: the distance between the
quartiles of `statistics.quantiles(values, n=4)` as a share of the median.
A steady benchmark keeps every spread below a third of the metric's bound;
the exit code is 1 when one is not.  One traced run per workload, at the
first seed, gives the per-layer table.  `--out` receives a fresh report.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[0]), json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for w in spec["workloads"]:
        runs = []
        for seed in SEEDS:
            info, result = run_once(w["name"], seed, seconds, 0)
            report["machine"] = info["machine"]
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "raised": info["run"]["raised"],
                         "p99_ms": info["run"]["p99_ms"],
                         "kinds": {k: v["p50_ms"] for k, v in info["run"]["kinds"].items()},
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{w['name']} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"why": w["why"], "seeds": SEEDS, "end_to_end": {},
                 "kind_p50_ms": {}, "runs": runs}
        for name, m in bounds.items():
            s = spread([r["metrics"][name] for r in runs])
            s.update(unit=m["unit"], bound=m["bound"])
            entry["end_to_end"][name] = s
            ok = s["spread"] < m["bound"] / 3.0
            steady &= ok
            print(f"  {name:<12} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"bound {m['bound']}{'' if ok else '  UNSTEADY'}")
        entry["p99_ms"] = spread([r["p99_ms"] for r in runs])
        for k in runs[0]["kinds"]:
            entry["kind_p50_ms"][k] = spread([r["kinds"][k] for r in runs])
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry["fail"] = {"attempted": attempted, "failed": failed,
                         "fail_frac": failed / attempted}
        info, result = run_once(w["name"], SEEDS[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        entry["self_s"] = info["run"]["self_s"]
        report["workloads"][w["name"]] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
