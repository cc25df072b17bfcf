"""Run the benchmark over several seeds and summarize it as one BENCH file.

From the repository root:

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/BENCH_<commit>.json

For every workload it makes one untraced run per seed and one traced run on
the first seed, then records each end-to-end metric's median, quartiles and
spread (quartile distance over median) and the traced run's layer metrics.
Runs go one at a time, so they never compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "values": values}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {json.dumps(results[-1]['metrics'])}",
                  file=sys.stderr, flush=True)
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "correct": all(r["correct"] for r in results), "end_to_end": {}}
        for name in bounds:
            entry["end_to_end"][name] = spread([r["metrics"][name]["value"] for r in results])
        traced = run_once(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    for workload, entry in summary["workloads"].items():
        for name, s in entry["end_to_end"].items():
            print(f"{workload:14s} {name:12s} median {s['median']:.5g}  spread {s['spread']:.3f}"
                  f"  bound/3 {bounds[name] / 3:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
