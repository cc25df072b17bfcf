"""Benchmark of the walras CLI: one seeded workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload unit-solve --seed 1 --seconds 25 --trace 0

The run writes its markets as plain instance JSON, times every planned
``walras`` command in a fresh worker process (see ``worker.py``), checks each
output against ``manifest.json`` and prints every metric by name and unit.
The last stdout line is the result object; ``.perfbench-out/`` keeps the
instances, the raw timings, the spans of a traced run and ``report.json``.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import manifest  # noqa: E402

# Imports per run, half before the worker and half after it.
SETUP_SAMPLES = 16
# Set-up time is reported at the reference machine speed the same way as
# command time, but with a bare interpreter start (``python3 -c pass``) as the
# kernel, because process start-up follows the machine's speed less closely
# than the pure-Python kernel does.  Each import is divided by the mean of
# the bare starts just before and after it, times BARE_REF_S, a bare start on
# the reference machine in its slower phase (like KERNEL_REF_S).  Over 21
# windows of 16 imports, with solver-like load between windows, the spread
# of set-up medians was 18% raw, 4% with the pure-Python kernel and 1.6%
# with the bare start.
BARE_REF_S = 0.06
WORKER_TIMEOUT_S = 150
# The reference machine's speed drifts by 20-40% over tens of seconds to
# minutes, longer than a run.  Each command is therefore bracketed by four
# runs of a fixed calibration kernel (``worker.calibration_kernel``), and its
# wall time is reported at the reference speed: seconds x KERNEL_REF_S /
# median kernel time.  KERNEL_REF_S is a typical kernel time on the reference
# machine (2 vCPU, Python 3.11).  Over 20-s windows of a 3-minute trace this
# cut the spread of command medians from 24-28% to 3-5%.
KERNEL_REF_S = 0.0017


class BenchError(Exception):
    """The benchmark could not produce a result."""


def measure_setup(root: str, samples: int) -> list[dict]:
    """Wall seconds for a fresh interpreter to ``import walras.cli``, each
    with the mean wall seconds of the bare interpreter starts just before
    and after it.  One unmeasured import first writes the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def wall(code: str) -> float:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, timeout=60)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"python3 -c {code!r} failed: {proc.stderr.decode().strip()}")
        return elapsed

    wall("import walras.cli")
    records = []
    before = wall("pass")
    for _ in range(samples):
        seconds = wall("import walras.cli")
        after = wall("pass")
        records.append({"seconds": seconds, "bare_s": (before + after) / 2})
        before = after
    return records


def tail(times: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond) for the highest integer percentile
    with at least ten samples above it, by nearest rank.  Runs of at most ten
    commands have no such percentile and report their maximum as p100."""
    xs = sorted(times)
    n = len(xs)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, xs[rank - 1], n - rank
    return 100, xs[-1], 0


def _run_worker(root: str, out_dir: str, plan_path: str) -> dict:
    result_path = os.path.join(out_dir, "worker.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
            "--plan", plan_path, "--out", result_path,
            "--spans", os.path.join(out_dir, "spans.bin.gz")]
    try:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_benchmark(root: str, workload: str, seed: int, seconds: float, trace: bool, *,
                  expected: dict | None = None, ladder=None) -> dict:
    """One run; returns the report whose ``result`` is the printed object.

    ``expected`` replaces the committed manifest and ``ladder`` restricts the
    workload to some of its rungs; the benchmark's own tests use both.
    """
    if not os.path.isfile(os.path.join(root, "src", "walras", "cli.py")):
        raise BenchError(f"no walras sources under {os.path.join(root, 'src')}")
    expected = manifest.load() if expected is None else expected
    out_dir = os.path.join(root, ".perfbench-out", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    rounds = gen.rounds_for(workload, seconds / 2 if trace else seconds)
    commands = gen.write_plan(workload, seed, rounds, os.path.join(out_dir, "instances"),
                              ladder)
    plan_path = os.path.join(out_dir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": commands, "traced": trace}, fh)

    half = SETUP_SAMPLES // 2
    setup = [] if trace else measure_setup(root, half)
    worker = _run_worker(root, out_dir, plan_path)
    if not trace:  # the second half, seconds later, spreads set-up over the run
        setup += measure_setup(root, SETUP_SAMPLES - half)
    untraced, traced = worker["untraced"], worker["traced"]
    failures = manifest.check(commands, untraced + traced, expected)
    attempted = len(untraced) + len(traced)
    times = [calibrated(r) for r in untraced]

    report = {"workload": workload, "seed": seed, "rounds": rounds,
              "commands": len(commands), "failures": failures,
              "error_rate": {"failed": len(failures), "attempted": attempted,
                             "value": len(failures) / attempted},
              "rung_p50_s": _rung_medians(commands, untraced),
              "uncalibrated": {"cmd_s_p50": statistics.median(r["seconds"] for r in untraced),
                               "cmds_per_s": len(untraced) / worker["wall_s"]}}
    metrics = {}
    if trace:
        # each command's traced and untraced runs are back to back
        overhead = statistics.median(calibrated(t) / calibrated(u)
                                     for t, u in zip(traced, untraced)) - 1
        for name, (value, unit) in worker["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        pct, tail_s, beyond = tail(times)
        report["cmd_s_tail"] = {"percentile": pct, "samples_beyond": beyond,
                                "samples": len(times)}
        report["setup_samples"] = setup
        report["uncalibrated"]["setup_s"] = statistics.median(r["seconds"] for r in setup)
        setup_s = BARE_REF_S * statistics.median(r["seconds"] / r["bare_s"] for r in setup)
        metrics = {
            "cmd_s_p50": {"value": statistics.median(times), "unit": "s"},
            "cmd_s_tail": {"value": tail_s, "unit": "s"},
            "cmds_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    report["result"] = {"correct": not failures, "attempted": attempted,
                        "failed": len(failures), "metrics": metrics}
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def calibrated(record: dict) -> float:
    """A command's wall seconds at the reference machine speed."""
    return record["seconds"] * KERNEL_REF_S / statistics.median(record["kernel_s"])


def _rung_medians(commands: list[dict], records: list[dict]) -> dict:
    by_rung: dict[str, list[float]] = {}
    for r in records:
        by_rung.setdefault(commands[r["index"]]["market"].split("/")[1], []).append(calibrated(r))
    return {rung: statistics.median(ts) for rung, ts in sorted(by_rung.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="walras CLI benchmark, one workload per run")
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        report = run_benchmark(os.getcwd(), args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    err = report["error_rate"]
    print(f"{args.workload} seed={args.seed}: {report['commands']} commands in "
          f"{report['rounds']} rounds; error_rate {err['value']:g} "
          f"({err['failed']} failed of {err['attempted']} attempted)")
    if "cmd_s_tail" in report:
        t = report["cmd_s_tail"]
        print(f"cmd_s_tail is p{t['percentile']} of {t['samples']} commands "
              f"({t['samples_beyond']} beyond it)")
    for rung, p50 in report["rung_p50_s"].items():
        print(f"rung {rung}: median {p50:.4f} s")
    for name, value in report["uncalibrated"].items():
        print(f"uncalibrated {name} = {value}")
    for name, m in report["result"]["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    for msg in report["failures"][:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
