"""Timed phase of one benchmark run, in a fresh interpreter.

Runs the planned commands through ``walras.cli.run_command`` in-process,
with stdout and stderr captured.  Only the call itself is inside the timer;
the digest and the answer summary the parent checks against the manifest are
taken right after it.  A ``traced`` plan runs every command a second time
with the span tracer installed, and the spans are written out at exit.

    python3 perfbench/worker.py --root . --plan PLAN.json --out RESULT.json [--spans SPANS.gz]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

def summarize_output(argv: list[str], stdout: str, stderr: str):
    """The answer a command printed: ``p_final`` for solve and compare, the
    per-check verdicts for verify.  None when the output does not parse."""
    try:
        if argv[0] == "verify":
            verdicts = []
            for line in (stdout + stderr).splitlines():
                head, _, rest = line.partition(": ")
                if head == "lnat":
                    verdicts.append(f"lnat:{rest.split(' ', 1)[0]}")
                elif head in ("monotone", "mnat"):
                    bidder, _, verdict = rest.partition(": ")
                    verdicts.append(f"{head}:{bidder.split()[-1]}:{verdict.split(' ', 1)[0]}")
                else:
                    verdicts.append(f"other:{line}")
            return verdicts
        if argv[0] == "compare":
            return json.loads(stdout)["p_min"]
        if "csv" in argv:
            rows = list(csv.reader(io.StringIO(stdout)))
            n = len(rows[0]) - 5
            if len(rows) == 1:
                return [0] * n  # no iterations: the start, which is zero
            last = rows[-1]
            mask = int(last[n + 1])
            return [int(c) + (mask >> k & 1) for k, c in enumerate(last[1:n + 1])]
        return json.loads(stdout)["p_final"]
    except (ValueError, KeyError, IndexError, TypeError):
        return None


def calibration_kernel() -> int:
    """Fixed interpreter work shaped like the solver's inner loops: tuple
    keys, a short max scan, dict inserts and lookups.  Its wall time follows
    the machine's current speed (see ``run.py``), independently of walras."""
    memo = {}
    values = [(i * 7919) % 101 for i in range(12)]
    for a in range(40):
        for b in range(40):
            p = (a, b, a ^ b, (a + b) % 7)
            best = 0
            for w in values:
                if w - a > best:
                    best = w - a
            memo[p] = best + sum(p)
    return sum(memo.get(key, 0) for key in memo)


def calibrate() -> list[float]:
    """Wall seconds of two runs of the calibration kernel."""
    out = []
    for _ in range(2):
        t0 = perf_counter()
        calibration_kernel()
        out.append(perf_counter() - t0)
    return out


def _timed(run_command, index: int, cmd: dict) -> dict:
    """Run one command; only the call itself is inside the timer."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = run_command(cmd["argv"])
        except Exception:  # a traceback is a failed command, not a crash
            code = None
            error = traceback.format_exc(limit=-3)
        seconds = perf_counter() - t0
    stdout = out.getvalue()
    return {"index": index, "key": cmd["key"], "exit": code, "seconds": seconds,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "answer": summarize_output(cmd["argv"], stdout, err.getvalue()),
            "error": error}


def run_commands(run_command, commands: list[dict], tracer=None) -> dict:
    """Each command bracketed by calibration samples, which ``run.py`` turns
    into the machine's speed at the time of the command.

    With a tracer, each command also runs traced, back to back with its
    untraced run, and each of the two runs is calibrated by the samples just
    before and after it.  The order alternates between commands, so neither
    run is always the one that finds the caches warm.
    """
    untraced, traced = [], []

    def traced_run(index: int, cmd: dict) -> dict:
        tracer.begin_command(index)
        tracer.install()
        try:
            return _timed(run_command, index, cmd)
        finally:
            tracer.uninstall()

    begin = perf_counter()
    for index, cmd in enumerate(commands):
        order = (False,)
        if tracer is not None:
            order = (False, True) if index % 2 == 0 else (True, False)
        kernel = calibrate()
        for with_spans in order:
            record = traced_run(index, cmd) if with_spans else _timed(run_command, index, cmd)
            after = calibrate()
            record["kernel_s"] = kernel + after
            kernel = after
            (traced if with_spans else untraced).append(record)
    return {"untraced": untraced, "traced": traced, "wall_s": perf_counter() - begin}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="timed phase of one benchmark run")
    ap.add_argument("--root", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="where to write the traced runs' spans")
    args = ap.parse_args(argv)

    src = os.path.abspath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    import walras.cli

    if not os.path.abspath(walras.cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"walras imported from {walras.cli.__file__}, not {src}\n")
        return 2
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    commands = plan["commands"]

    def run_command(cmd_argv):
        return walras.cli.run_command(cmd_argv)  # looked up per call: tracing patches it

    tracer = None
    if plan["traced"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer
        tracer = Tracer()
    result = run_commands(run_command, commands, tracer)
    if tracer is not None:
        result["layers"] = tracer.summarize(sum(r["seconds"] for r in result["traced"]))
        tracer.write(args.spans)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
