"""Seeded market generator for the benchmark's four workloads.

Every market comes from a fixed pool: pool market ``k`` of a rung is drawn
from ``random.Random("<family>/<rung>/<k>")``, so its text never changes and
its expected answer can sit in the committed manifest.  A run's ``--seed``
orders the pool markets into rounds (and, for runs shorter than 25 s, picks
which of them run).  The program only
ever sees the plain instance JSON written by :func:`write_plan`.

Run ``python3 perfbench/gen.py --workload unit-solve --seed 1 --out DIR`` to
write the instance files and command plan of one round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys

STRATEGIES = ("minimal-overdemanded", "steepest", "excess-random", "excess-maximal")

# Marginal / item values for the explicit-table markets.  Small values keep a
# ``compare`` near one second, so a run still holds enough commands for a tail.
# They also keep the auctions short, so the value-independent admission
# checks outweigh ``indirect_utility`` on kind A (see README.md).
TABLE_VALUE_MAX = 12

# Per workload: the ladder of one round as (rung, markets per round, pool
# size), and the calibrated seconds one round takes (see ``run.py``).  A run
# of S seconds plans max(1, floor(S / round_seconds)) whole rounds, so a
# run's mix of market sizes does not depend on timing noise.  Each pool holds
# exactly what a 25-s run draws: the seed then orders a fixed ladder, and
# runs compare like with like.  Shorter runs draw a seeded subset.
WORKLOADS = {
    # Unit-demand, m = ceil(4n/3), values in [0, 100].  The n=9 rung holds
    # every tail sample, the n=7 rung the median; n=3 is small enough for
    # brute force.  n=10 and n=12 do not fit: see README.md.
    "unit-solve": {"ladder": ((3, 1, 5), (7, 1, 5), (9, 1, 5)),
                   "round_seconds": 4.6},
    # Separable multi-demand, u=3 per item, m=8, marginals in [0, 30].  The
    # n=6 rung holds the tail samples, the n=5 rung the median.
    "multi-solve": {"ladder": ((4, 2, 6), (5, 2, 6), (6, 2, 6)),
                    "round_seconds": 8.2},
    # Explicit tables: A tabulates separable valuations (n=4, u=2); B mixes
    # tabulated separable and unit-demand valuations (n=5, u=1).  m = 6..8.
    "table-compare": {"ladder": (("A", 2, 18), ("B", 1, 9)),
                      "round_seconds": 2.7},
    # The same table markets plus negative controls that break the exchange
    # axiom (a complementarity bonus on items 1 and 2 for one bidder).
    "verify": {"ladder": (("A", 1, 5), ("B", 1, 5), ("neg", 1, 5)),
               "round_seconds": 4.9},
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // WORKLOADS[workload]["round_seconds"]))


# --- pool markets ------------------------------------------------------------


def _separable_rows(rng: random.Random, u, value_max: int) -> list[list[int]]:
    return [sorted((rng.randint(0, value_max) for _ in range(c)), reverse=True) for c in u]


def _box(u):
    out = [()]
    for c in u:
        out = [x + (k,) for x in out for k in range(c + 1)]
    return out


def _table(worth, u) -> dict:
    return {"family": "explicit_table",
            "entries": [{"x": list(x), "v": worth(x)} for x in _box(u)]}


def _separable_worth(rows):
    return lambda x: sum(sum(row[:c]) for row, c in zip(rows, x))


def _unit_worth(values):
    return lambda x: max([w for w, c in zip(values, x) if c] or [0])


def unit_market(n: int, k: int) -> dict:
    rng = random.Random(f"unit/{n}/{k}")
    m = math.ceil(4 * n / 3)
    vals = [{"family": "unit_demand", "values": [rng.randint(0, 100) for _ in range(n)]}
            for _ in range(m)]
    return {"model": "unit", "n": n, "m": m, "u": [1] * n, "valuations": vals}


def multi_market(n: int, k: int) -> dict:
    rng = random.Random(f"multi/{n}/{k}")
    u = [3] * n
    vals = [{"family": "separable_concave", "marginals": _separable_rows(rng, u, 30)}
            for _ in range(8)]
    return {"model": "multi", "n": n, "m": 8, "u": u, "valuations": vals}


def table_market(kind: str, k: int) -> dict:
    rng = random.Random(f"table/{kind}/{k}")
    m = 6 + k % 3
    if kind == "A":
        n, u = 4, [2] * 4
        worths = [_separable_worth(_separable_rows(rng, u, TABLE_VALUE_MAX)) for _ in range(m)]
    else:
        n, u = 5, [1] * 5
        worths = []
        for b in range(m):
            if b % 2:
                worths.append(_separable_worth(_separable_rows(rng, u, TABLE_VALUE_MAX)))
            else:
                worths.append(_unit_worth([rng.randint(0, TABLE_VALUE_MAX) for _ in range(n)]))
    return {"model": "multi", "n": n, "m": m, "u": u,
            "valuations": [_table(w, u) for w in worths]}


def negative_market(k: int) -> dict:
    """A kind-B table market whose bidder 0 sees items 1 and 2 as
    complements; the bonus exceeds any single value, so the exchange axiom
    fails for that bidder while monotonicity still holds.  Kind B keeps these
    commands next to the positive B tables in cost, so the run's median and
    tail fall inside one cluster of command times instead of at its edge."""
    doc = table_market("B", 1000 + k)
    bonus = TABLE_VALUE_MAX + 1
    for e in doc["valuations"][0]["entries"]:
        if e["x"][0] and e["x"][1]:
            e["v"] += bonus
    return doc


def pool_market(workload: str, rung, k: int) -> dict:
    if workload == "unit-solve":
        return unit_market(rung, k)
    if workload == "multi-solve":
        return multi_market(rung, k)
    if rung == "neg":
        return negative_market(k)
    return table_market(rung, k)


def commands_for(workload: str, slot: int) -> list[list[str]]:
    """CLI arguments (without ``--instance``) run on one market.  ``slot``
    is the market's position in its round; multi-solve alternates JSON and
    CSV output with it."""
    if workload == "unit-solve":
        return [["solve", "--strategy", s] for s in STRATEGIES]
    if workload == "multi-solve":
        fmts = ("json", "csv") if slot % 2 == 0 else ("csv", "json")
        return [["solve", "--strategy", s, "--format", f]
                for s, f in zip(("steepest", "excess-maximal"), fmts)]
    if workload == "table-compare":
        return [["compare"]]
    return [["verify", "--check", "all"]]


def pool_ids(workload: str) -> list[tuple]:
    """Every (rung, k) of the workload's pool, in a fixed order."""
    return [(rung, k) for rung, _, pool in WORKLOADS[workload]["ladder"] for k in range(pool)]


def market_id(workload: str, rung, k: int) -> str:
    return f"{workload}/{rung}/{k}"


def instance_text(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


# --- one run's plan ----------------------------------------------------------


def plan(workload: str, seed: int, rounds: int, ladder=None) -> list[dict]:
    """The run's markets, round by round.

    Each rung draws a seeded sample of its pool without replacement (cycling
    when a run needs more markets than the pool holds), and each round visits
    the rungs in a seeded order.  ``ladder`` restricts the run to a sub-ladder
    (used by the benchmark's own tests).
    """
    spec = WORKLOADS[workload]
    ladder = spec["ladder"] if ladder is None else ladder
    rng = random.Random(f"{workload}/seed/{seed}")
    draws = {}
    for rung, count, pool in ladder:
        order = []
        while len(order) < count * rounds:
            block = list(range(pool))
            rng.shuffle(block)
            order += block
        draws[rung] = order[:count * rounds]
    markets = []
    for r in range(rounds):
        slots = [(rung, draws[rung][r * count + j]) for rung, count, _ in ladder
                 for j in range(count)]
        rng.shuffle(slots)
        for slot, (rung, k) in enumerate(slots):
            markets.append({"id": market_id(workload, rung, k), "rung": rung, "k": k,
                            "args": commands_for(workload, slot)})
    return markets


def write_plan(workload: str, seed: int, rounds: int, out_dir: str, ladder=None) -> list[dict]:
    """Write each distinct market's instance JSON under ``out_dir`` and
    return the command list, one entry per CLI invocation."""
    os.makedirs(out_dir, exist_ok=True)
    commands = []
    written = {}
    for market in plan(workload, seed, rounds, ladder):
        mid = market["id"]
        if mid not in written:
            text = instance_text(pool_market(workload, market["rung"], market["k"]))
            path = os.path.join(out_dir, mid.replace("/", "_") + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written[mid] = (path, hashlib.sha256(text.encode()).hexdigest())
        path, digest = written[mid]
        for args in market["args"]:
            commands.append({"market": mid, "instance_sha256": digest,
                             "key": f"{mid} {' '.join(args)}",
                             "argv": [args[0], "--instance", path] + args[1:]})
    return commands


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    commands = write_plan(args.workload, args.seed, 1, args.out)
    json.dump(commands, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
