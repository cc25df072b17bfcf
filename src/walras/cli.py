"""Command-line front end: solve, verify, compare, oracle.

Output is machine-first (JSON, optionally CSV) and byte-deterministic for
identical inputs and seeds.  Exit codes: 0 success, 1 domain error, 2 usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Iterable, Iterator

from .auction import UnitAllocation, ascending_auction
from .demand import DemandCache
from .errors import WalrasError
from .instance import (DEFAULT_BUDGET, Instance, load_instance,
                       max_total_value, verify_mnat_exc,
                       verify_monotone_normalized)
from .itemsets import mask_weight
from .lnat import StrategyKind, is_lnat_convex_on_box
from .lyapunov import LyapunovOracle

STRATEGY_FLAGS = {
    "minimal-overdemanded": StrategyKind.MINIMAL_DESCENT,
    "steepest": StrategyKind.STEEPEST_MINIMAL,
    "excess-random": StrategyKind.FIRST_GP_MINIMAL,
    "excess-maximal": StrategyKind.STEEPEST_MINIMAL,
}

_LNAT_CHECK_BUDGET = 500_000


def _budget() -> int:
    raw = os.environ.get("WALRAS_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise WalrasError(f"WALRAS_BUDGET: not an integer: {raw!r}") from None
    if value < 1:
        raise WalrasError("WALRAS_BUDGET: must be positive")
    return value


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the strings of ``chunks`` in order, each as it comes."""
    if out_path is None:
        for text in chunks:
            sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                for text in chunks:
                    fh.write(text)
        except OSError as exc:
            raise WalrasError(f"--out {out_path}: {exc.strerror or exc}") from None


def _allocation_json(allocation) -> dict | None:
    if allocation is None:
        return None
    if isinstance(allocation, UnitAllocation):
        return {"model": "unit", "assignment": list(allocation.assignment)}
    return {"model": "multi", "bundles": [list(x) for x in allocation.bundles]}


def _step_rows(instance: Instance, result):
    """Per-step columns of both formats; the descent certified each step's
    value drop as its chosen set's deficiency."""
    items = range(instance.n)
    for k, step in enumerate(result.trajectory.steps):
        mask = step.chosen_mask
        deficiency = step.g_before - step.g_after
        supply = mask_weight(mask, instance.u)
        yield {
            "iteration": k + 1,
            "p_before": list(step.p_before),
            "chosen_items": [i + 1 for i in items if mask >> i & 1],
            "chosen_mask": mask,
            "lyapunov_before": step.g_before,
            "lyapunov_after": step.g_after,
            "deficiency": deficiency,
            "demanded_units": deficiency + supply,
            "supply_units": supply,
        }


def _row_json(row: dict) -> str:
    """``json.dumps(row, indent=2)`` indented four more spaces, to its place
    in the trajectory list, for a row of int and int-list values under
    plain keys.  Formatted here because CPython's encoder drops to pure
    Python whenever it indents: the row's ints, list entries included, fill
    one template kept for its keys and list lengths."""
    ints, shape = [], []
    for val in row.values():
        if isinstance(val, list):
            ints += val
            shape.append(len(val))
        else:
            ints.append(val)
            shape.append(-1)
    return _row_template(tuple(row), tuple(shape)) % tuple(ints)


@functools.lru_cache(maxsize=64)
def _row_template(keys: tuple[str, ...], shape: tuple[int, ...]) -> str:
    """The ``%`` template of a JSON row: under each key a ``%d``, or, where
    ``shape`` gives a list's length instead of -1, a list of that many."""
    fields = []
    for key, size in zip(keys, shape):
        if size < 0:
            val = "%d"
        else:
            val = "[\n        " + ",\n        ".join(["%d"] * size) + "\n      ]" if size else "[]"
        fields.append('      "%s": %s' % (key.replace("%", "%%"), val))
    return "    {\n" + ",\n".join(fields) + "\n    }"


def _result_json(instance: Instance, strategy_flag: str, seed: int, p0, result) -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=2)``, one trajectory row at a
    time: the document is dumped with an empty trajectory, and each row is
    formatted alone at its place inside the list."""
    doc = {
        "model": instance.model,
        "strategy": strategy_flag,
        "seed": seed,
        "start": list(p0),
        "p_final": list(result.p_min),
        "iterations": len(result.trajectory),
        "trajectory": [],
        "allocation": _allocation_json(result.allocation),
        "allocation_error": result.allocation_error,
    }
    # Only strings could hold the placeholder, and json escapes their quotes.
    head, _, tail = json.dumps(doc, indent=2).partition('"trajectory": []')
    yield head + '"trajectory": ['
    sep = "\n"
    for row in _step_rows(instance, result):
        yield sep + _row_json(row)
        sep = ",\n"
    yield ("\n  ]" if result.trajectory else "]") + tail + "\n"


def _result_csv(instance: Instance, result) -> Iterator[str]:
    """The CSV text, one line at a time; no field holds a comma, a quote or
    a line break, so none is quoted."""
    header = ["iteration"] + [f"p{i}" for i in range(1, instance.n + 1)]
    yield ",".join(header + ["chosen_mask", "chosen_items", "lyapunov", "deficiency"]) + "\n"
    for row in _step_rows(instance, result):
        fields = [row["iteration"], *row["p_before"], row["chosen_mask"],
                  ";".join(str(i) for i in row["chosen_items"]),
                  row["lyapunov_before"], row["deficiency"]]
        yield ",".join(map(str, fields)) + "\n"


def _load_start(instance: Instance, source: str):
    if source == "zero":
        return (0,) * instance.n
    try:
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad syntax, not UTF-8, or a huge integer; RecursionError: deep nesting
        raise WalrasError(f"start vector {source}: {exc}") from None
    if (not isinstance(raw, list) or len(raw) != instance.n
            or not all(isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in raw)):
        raise WalrasError(f"start vector {source}: expected {instance.n} nonnegative integers")
    return tuple(raw)


def _cmd_solve(args) -> int:
    budget = _budget()
    instance = load_instance(args.instance)
    p0 = _load_start(instance, args.start)
    strategy = STRATEGY_FLAGS[args.strategy]
    result = ascending_auction(instance, strategy, p0, seed=args.seed, budget=budget)
    if args.format == "json":
        _emit(_result_json(instance, args.strategy, args.seed, p0, result), args.out)
    else:
        _emit(_result_csv(instance, result), args.out)
    return 0


def _cmd_verify(args) -> int:
    budget = _budget()
    instance = load_instance(args.instance)
    checks = ("monotone", "mnat", "lnat") if args.check == "all" else (args.check,)
    lines = []
    failed = False
    if "monotone" in checks:
        for b, v in enumerate(instance.valuations):
            bad = verify_monotone_normalized(v, budget=budget)
            if bad is None:
                lines.append(f"monotone: bidder {b}: ok")
            else:
                failed = True
                lines.append(f"monotone: bidder {b}: counterexample {bad.message}")
    if "mnat" in checks:
        # Unit-demand and separable-concave valuations are M♮-concave by
        # theorem (Murota 2003, ch. 6); only the tables are checked, as the
        # auction admits them.
        tables = set(DemandCache(instance, budget=budget).tables)
        for b, v in enumerate(instance.valuations):
            bad = verify_mnat_exc(v, budget=budget) if b in tables else None
            if bad is None:
                lines.append(f"mnat: bidder {b}: ok")
            else:
                failed = True
                lines.append(f"mnat: bidder {b}: counterexample "
                             f"x={tuple(bad.x)} y={tuple(bad.y)}")
    if "lnat" in checks:
        ly = LyapunovOracle(instance, budget=budget)
        # The box verify prints: [0, s]^n for the largest s with (s + 1)^(2n + 1)
        # <= _LNAT_CHECK_BUDGET, at most the largest worth.  The check is
        # charged its theorem's pairs (29,403 on [0, 2]^5), below that bound,
        # and tests about a fifth of them; a wider box would change the output.
        root = 1
        while (root + 1) ** (2 * instance.n + 1) <= _LNAT_CHECK_BUDGET:
            root += 1
        side = min(root - 1, max_total_value(instance))
        box = ((0,) * instance.n, (side,) * instance.n)
        bad = is_lnat_convex_on_box(ly.function_oracle(), box, budget=_LNAT_CHECK_BUDGET)
        if bad is None:
            lines.append(f"lnat: holds on [0, {side}]^{instance.n}")
        else:
            failed = True
            lines.append(f"lnat: counterexample p={tuple(bad.p)} q={tuple(bad.q)}")
    text = "\n".join(lines) + "\n"
    if failed:
        sys.stderr.write(text)
        return 1
    sys.stdout.write(text)
    return 0


def _cmd_compare(args) -> int:
    budget = _budget()
    instance = load_instance(args.instance)
    oracle = LyapunovOracle(instance, budget=budget)
    report = {}
    finals = []
    runs = {}  # one run per distinct rule: excess-maximal is steepest's
    for flag, kind in STRATEGY_FLAGS.items():  # fixed order, independent of runtimes
        if kind not in runs:
            runs[kind] = ascending_auction(instance, kind, seed=args.seed,
                                           budget=budget, oracle=oracle)
        result = runs[kind]
        report[flag] = {"p_final": list(result.p_min),
                        "iterations": len(result.trajectory)}
        finals.append(result.p_min)
    agree = all(p == finals[0] for p in finals)
    doc = {"seed": args.seed, "strategies": report, "all_equal": agree,
           "p_min": list(finals[0]) if agree else None}
    _emit([json.dumps(doc, indent=2) + "\n"], args.out)
    if not agree:
        sys.stderr.write("strategies disagree on the final price\n")
        return 1
    return 0


def _cmd_oracle(args) -> int:
    # Imported here: no other command needs the brute-force scans.
    from .oracle import all_lyapunov_minimizers, certified_meet, price_cap

    budget = _budget()
    instance = load_instance(args.instance)
    minimizers = all_lyapunov_minimizers(instance, budget=budget)
    p_min = certified_meet(instance, minimizers, budget=budget)
    doc = {
        "price_cap": list(price_cap(instance)),
        "lyapunov_minimizers": [list(p) for p in sorted(minimizers)],
        "min_equilibrium_price": list(p_min),
    }
    _emit([json.dumps(doc, indent=2) + "\n"], args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    returns a fresh namespace on every call and keeps nothing between
    them."""
    parser = argparse.ArgumentParser(
        prog="walras",
        description="Compute minimal market-clearing prices for auctions "
                    "with substitutes valuations.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one ascending auction")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--strategy", required=True, choices=sorted(STRATEGY_FLAGS))
    solve.add_argument("--start", default="zero",
                       help="'zero' or a path to a JSON list of start prices")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out")
    solve.add_argument("--format", choices=("json", "csv"), default="json")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="check structural properties of an instance")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--check", choices=("mnat", "lnat", "monotone", "all"),
                        default="all")
    verify.set_defaults(func=_cmd_verify)

    compare = sub.add_parser("compare", help="run every strategy and compare")
    compare.add_argument("--instance", required=True)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--out")
    compare.set_defaults(func=_cmd_compare)

    oracle = sub.add_parser("oracle", help="brute-force minimizer scan")
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--out")
    oracle.set_defaults(func=_cmd_oracle)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "seed", 0) < 0 or getattr(args, "seed", 0) >= 1 << 64:
        sys.stderr.write("seed must be an unsigned 64-bit integer\n")
        return 2
    try:
        return args.func(args)
    except WalrasError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main(argv=None) -> None:
    sys.exit(run_command(sys.argv[1:] if argv is None else argv))
