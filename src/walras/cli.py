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
from .errors import WalrasError
from .instance import (DEFAULT_BUDGET, Instance, load_instance,
                       max_total_value, verify_mnat_exc,
                       verify_monotone_normalized)
from .itemsets import mask_weight
from .lnat import StrategyKind, is_lnat_convex_on_box, midpoint_charge
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


# The longest piece of text handed to stdout at once: PIPE_BUF on Linux, and
# every character walras prints is ASCII, so one write(2) of a piece to a
# pipe is whole or fails.  An unbuffered stdout (``python -u``,
# PYTHONUNBUFFERED) passes each write straight to the pipe and ignores a
# short count, so a longer write cut short by a reader that closed the pipe
# would lose its tail and exit 0.
_PIECE = 4096


def _write(stream, text: str) -> None:
    """Write ``text`` to ``stream`` in pieces of at most ``_PIECE``
    characters, so that a closed pipe raises ``BrokenPipeError``."""
    for i in range(0, len(text), _PIECE):
        stream.write(text[i:i + _PIECE])


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the strings of ``chunks`` in order, each as it comes: a
    trajectory's rows come joined in pieces of at most ``_PIECE``
    characters (``_pieces``), so a long run makes few writes and holds
    one piece at a time."""
    if out_path is None:
        for text in chunks:
            _write(sys.stdout, text)
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


# The columns of a trajectory row, in the order ``_step_rows`` yields them.
_ROW_KEYS = ("iteration", "p_before", "chosen_items", "chosen_mask", "lyapunov_before",
             "lyapunov_after", "deficiency", "demanded_units", "supply_units")


def _step_rows(instance: Instance, result):
    """Per-step columns of both formats, one tuple in ``_ROW_KEYS`` order;
    the descent certified each step's value drop as its chosen set's
    deficiency.  Each distinct chosen set's items and supply are computed
    once, and its rows share the one items list."""
    items = range(instance.n)
    sets = {}
    for k, step in enumerate(result.trajectory.steps):
        mask = step.chosen_mask
        kept = sets.get(mask)
        if kept is None:
            kept = sets[mask] = ([i + 1 for i in items if mask >> i & 1],
                                 mask_weight(mask, instance.u))
        chosen, supply = kept
        deficiency = step.g_before - step.g_after
        yield (k + 1, step.p_before, chosen, mask, step.g_before, step.g_after,
               deficiency, deficiency + supply, supply)


def _pieces(texts: Iterable[str], sep: str) -> Iterator[str]:
    """The strings of ``texts`` joined by ``sep`` in consecutive runs, one
    ``str.join`` each.  A run's text with one more ``sep`` before it, as a
    caller joining the runs writes it, is at most ``_PIECE`` characters
    unless one string alone is longer, so it goes out in one write."""
    run, size = [], 0
    for text in texts:
        size += len(sep) + len(text)
        if size > _PIECE and run:
            yield sep.join(run)
            run, size = [], len(sep) + len(text)
        run.append(text)
    if run:
        yield sep.join(run)


def _row_json(row: tuple) -> str:
    """``json.dumps(dict(zip(_ROW_KEYS, row)), indent=2)`` indented four
    more spaces, to its place in the trajectory list.  Formatted here
    because CPython's encoder drops to pure Python whenever it indents: the
    row's ints, list entries included, fill one template kept for its two
    list lengths."""
    iteration, prices, chosen, *rest = row
    return _row_template(len(prices), len(chosen)) % (iteration, *prices, *chosen, *rest)


@functools.lru_cache(maxsize=64)
def _row_template(n: int, k: int) -> str:
    """The ``%`` template of a JSON row of n prices and k chosen items."""
    lists = ["[\n        " + ",\n        ".join(["%d"] * size) + "\n      ]" if size else "[]"
             for size in (n, k)]
    vals = ["%d", *lists] + ["%d"] * 6
    return "    {\n" + ",\n".join(f'      "{key}": {val}'
                                  for key, val in zip(_ROW_KEYS, vals)) + "\n    }"


def _result_json(instance: Instance, strategy_flag: str, seed: int, p0, result) -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=2)``, the trajectory in pieces
    of rows: the document is dumped with an empty trajectory, each row is
    formatted alone, and the rows go inside the list in ``_pieces``, joined
    by ``,\\n`` within a piece and between pieces."""
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
    for piece in _pieces(map(_row_json, _step_rows(instance, result)), ",\n"):
        yield sep + piece
        sep = ",\n"
    yield ("\n  ]" if result.trajectory else "]") + tail + "\n"


def _result_csv(instance: Instance, result) -> Iterator[str]:
    """The CSV text, the header line and then the step lines in
    ``_pieces``; no field holds a comma, a quote or a line break, so none
    is quoted."""
    header = ["iteration"] + [f"p{i}" for i in range(1, instance.n + 1)]
    yield ",".join(header + ["chosen_mask", "chosen_items", "lyapunov", "deficiency"]) + "\n"
    rows = _step_rows(instance, result)
    yield from _pieces((",".join(map(str, [k, *prices, mask, ";".join(map(str, chosen)),
                                           g_before, deficiency])) + "\n"
                        for k, prices, chosen, mask, g_before, _, deficiency, *_ in rows), "")


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
    try:
        for line, ok in _verify_lines(instance, checks, budget):
            lines.append(line)
            failed = failed or not ok
    except WalrasError:
        if lines:  # the lines computed before a check raised go out first
            _write(sys.stderr if failed else sys.stdout, "\n".join(lines) + "\n")
        raise
    _write(sys.stderr if failed else sys.stdout, "\n".join(lines) + "\n")
    return 1 if failed else 0


def _verify_lines(instance: Instance, checks: tuple[str, ...],
                  budget: int) -> Iterator[tuple[str, bool]]:
    """Each line ``verify`` prints for ``checks``, in order, with whether it
    holds."""
    # Unit-demand and separable-concave bidders are monotone and normalized
    # by construction (``Valuation`` takes nonnegative values and nonnegative,
    # nonincreasing marginals) and M♮-concave by theorem (Murota 2003, ch. 6);
    # only the tables are checked, as the loader and the auction check them.
    ly = LyapunovOracle(instance, budget=budget)
    tables = set(ly.demand.tables)
    if "monotone" in checks:
        for b, v in enumerate(instance.valuations):
            bad = verify_monotone_normalized(v, budget=budget) if b in tables else None
            if bad is None:
                yield f"monotone: bidder {b}: ok", True
            else:
                yield f"monotone: bidder {b}: counterexample {bad.message}", False
    if "mnat" in checks:
        for b, v in enumerate(instance.valuations):
            bad = verify_mnat_exc(v, budget=budget) if b in tables else None
            if bad is None:
                yield f"mnat: bidder {b}: ok", True
            else:
                yield (f"mnat: bidder {b}: counterexample "
                       f"x={tuple(bad.x)} y={tuple(bad.y)}"), False
    if "lnat" in checks:
        # The box verify prints: [0, s]^n for the largest s with (s + 1)^(2n + 1)
        # <= _LNAT_CHECK_BUDGET, at most the largest worth; a wider box would
        # change the output.  The check is charged its theorem's pairs (29,403
        # on [0, 2]^5) against the run's budget, as monotone and mnat are, and
        # tests about a fifth of them.  The rule's largest charge is 32,640
        # (n = 8, s = 1), so only a budget below the default can refuse it.
        # Where it leaves s = 0, [0, 1]^n is checked if its charge fits: n <= 10 by default.
        root = 1
        while (root + 1) ** (2 * instance.n + 1) <= _LNAT_CHECK_BUDGET:
            root += 1
        worth = max_total_value(instance)
        side = min(root - 1, worth)
        if side < 1 <= worth and midpoint_charge([1] * instance.n) <= budget:
            side = 1
        box = ((0,) * instance.n, (side,) * instance.n)
        bad = is_lnat_convex_on_box(ly.function_oracle(), box, budget=budget)
        if bad is None:
            yield f"lnat: holds on [0, {side}]^{instance.n}", True
        else:
            yield f"lnat: counterexample p={tuple(bad.p)} q={tuple(bad.q)}", False


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
    """Run the command and exit with its code.  A reader that closes stdout
    early, as ``| head`` does, ends the run with exit 1 and no traceback;
    stdout then points at the null device, so the exit's flush cannot fail
    again (the Python docs' note on SIGPIPE)."""
    try:
        code = run_command(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
