"""Expected answers for every pool command, and the per-run check against them.

The manifest maps each command key (``<market id> <cli args>``) to the exit
code, ``p_final`` and stdout sha256 the CLI must produce.  ``verify``
commands record the per-check verdicts instead of a digest, because the
L♮ box text in their output is expected to change.

Build it once, from the repository root (several minutes on two cores):

    python3 perfbench/manifest.py

Building cross-validates every market before anything is written: the four
strategies agree, ``verify_equilibrium`` returns an allocation, a downward
scan finds no nonempty X ⊆ supp(p) with L(p − χ_X) ≤ L(p), and
``brute_force_min_equilibrium`` agrees wherever its price box fits
``BRUTE_FORCE_BUDGET``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST_PATH = os.path.join(HERE, "manifest.json")

#: Price-box volume up to which the brute-force oracle re-derives p_min.
BRUTE_FORCE_BUDGET = 2_000_000


def load(path: str = MANIFEST_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(commands: list[dict], records: list[dict], manifest: dict) -> list[str]:
    """One message per record that does not match its manifest entry."""
    entries = manifest["entries"]
    failures = []
    for rec in records:
        cmd = commands[rec["index"]]
        key = cmd["key"]
        want = entries.get(key)
        if want is None:
            problem = "no manifest entry"
        elif rec["error"] is not None:
            problem = "raised " + rec["error"].strip().splitlines()[-1]
        elif cmd["instance_sha256"] != want["instance_sha256"]:
            problem = "generated instance differs from the manifest's"
        elif rec["exit"] != want["exit"]:
            problem = f"exit {rec['exit']}, expected {want['exit']}"
        elif "verdicts" in want:
            problem = None if rec["answer"] == want["verdicts"] else \
                f"verdicts {rec['answer']}, expected {want['verdicts']}"
        elif rec["answer"] != want["p_final"]:
            problem = f"p_final {rec['answer']}, expected {want['p_final']}"
        elif rec["stdout_sha256"] != want["stdout_sha256"]:
            problem = "stdout differs from the manifest"
        else:
            problem = None
        if problem is not None:
            failures.append(f"{key}: {problem}")
    return failures


# --- building ----------------------------------------------------------------


def _cross_validate(instance, p, stats: dict) -> None:
    from walras import (LyapunovOracle, StrategyKind, ascending_auction,
                        brute_force_min_equilibrium, verify_equilibrium)
    from walras.instance import max_total_value
    from walras.itemsets import chi_sub

    p = tuple(p)
    for kind in StrategyKind:
        got = ascending_auction(instance, kind).p_min
        if got != p:
            raise AssertionError(f"{kind.value} gives {got}, expected {p}")
    verdict = verify_equilibrium(instance, p)
    if not verdict.equilibrium or verdict.allocation is None:
        raise AssertionError(f"{p} is not certified by an allocation")
    ly = LyapunovOracle(instance)
    base = ly.value(p)
    supp = sum(1 << k for k, c in enumerate(p) if c > 0)
    sub = supp
    while sub:
        if ly.value(chi_sub(p, sub)) <= base:
            raise AssertionError(f"{p} is not minimal: lowering mask {sub} does not raise L")
        sub = (sub - 1) & supp
    stats["certified"] += 1
    if (max_total_value(instance) + 1) ** instance.n <= BRUTE_FORCE_BUDGET:
        brute = brute_force_min_equilibrium(instance, budget=BRUTE_FORCE_BUDGET)
        if brute != p:
            raise AssertionError(f"brute force gives {brute}, expected {p}")
        stats["brute_force"] += 1


def build(root: str) -> dict:
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    from gen import WORKLOADS, commands_for, instance_text, market_id, pool_ids, pool_market
    from worker import run_pass

    import walras.cli
    from walras.instance import parse_instance

    entries = {}
    stats = {"markets": 0, "certified": 0, "brute_force": 0, "negative_controls": 0}
    scratch = os.path.join(root, ".perfbench-out")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in WORKLOADS:
            for rung, k in pool_ids(workload):
                mid = market_id(workload, rung, k)
                text = instance_text(pool_market(workload, rung, k))
                path = os.path.join(tmp, "market.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                digest = hashlib.sha256(text.encode()).hexdigest()
                commands = []
                for slot in (0, 1):  # multi-solve alternates formats by slot
                    for args in commands_for(workload, slot):
                        key = f"{mid} {' '.join(args)}"
                        if all(c["key"] != key for c in commands):
                            commands.append({"key": key, "instance_sha256": digest,
                                             "argv": [args[0], "--instance", path] + args[1:]})
                records = run_pass(walras.cli.run_command, commands)["records"]
                instance = parse_instance(text)
                stats["markets"] += 1
                answers = set()
                for rec in records:
                    if rec["error"] is not None:
                        raise AssertionError(f"{rec['key']} raised:\n{rec['error']}")
                    entry = {"instance_sha256": digest, "exit": rec["exit"]}
                    if workload == "verify":
                        entry["verdicts"] = rec["answer"]
                        _check_verdicts(rung, instance.m, rec)
                    else:
                        if rec["exit"] != 0:
                            raise AssertionError(f"{rec['key']} exited {rec['exit']}")
                        entry["p_final"] = rec["answer"]
                        entry["stdout_sha256"] = rec["stdout_sha256"]
                        answers.add(tuple(rec["answer"]))
                    entries[rec["key"]] = entry
                if rung == "neg":
                    stats["negative_controls"] += 1
                elif workload != "verify":
                    if len(answers) != 1:
                        raise AssertionError(f"{mid}: commands disagree: {answers}")
                    _cross_validate(instance, answers.pop(), stats)
                print(f"{mid}: ok", file=sys.stderr, flush=True)
    return {"brute_force_budget": BRUTE_FORCE_BUDGET, "cross_checks": stats,
            "entries": entries}


def _check_verdicts(rung, m: int, rec: dict) -> None:
    """Positive tables tabulate substitutes valuations, so every check must
    pass; a negative control must fail the exchange check for bidder 0 only."""
    got = rec["answer"]
    mono = [f"monotone:{b}:ok" for b in range(m)]
    if rung == "neg":
        mnat = ["mnat:0:counterexample"] + [f"mnat:{b}:ok" for b in range(1, m)]
        if rec["exit"] != 1 or got[:2 * m] != mono + mnat:
            raise AssertionError(f"{rec['key']}: negative control not rejected: {got}")
    else:
        mnat = [f"mnat:{b}:ok" for b in range(m)]
        if rec["exit"] != 0 or got != mono + mnat + ["lnat:holds"]:
            raise AssertionError(f"{rec['key']}: substitutes table rejected: {got}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="build the expected-answer manifest")
    ap.add_argument("--out", default=MANIFEST_PATH)
    args = ap.parse_args(argv)
    manifest = build(os.getcwd())
    entries = manifest.pop("entries")
    lines = [f"{json.dumps(k)}: {json.dumps(entries[k], sort_keys=True)}" for k in sorted(entries)]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True)[:-1] + ',\n"entries": {\n')
        fh.write(",\n".join(lines) + "\n}}\n")
    print(json.dumps(manifest["cross_checks"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
