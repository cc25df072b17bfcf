"""Generic descent engine over the integer lattice.

Works for any integer-valued function oracle whose restriction to unit-raise
neighborhoods is submodular (discrete midpoint convexity).  The minimization
loop repeatedly raises a chosen item set's coordinates by one; with any
selection rule whose sets satisfy the local-minimality condition below, the
loop lands on the unique componentwise-minimal minimizer.

Each iteration reads one change table ``deltas[mask] = g(p + chi_mask) - g(p)``
(entry 0 is 0, None outside the domain) from the route its caller passes,
such as the Lyapunov oracle's demand-side ``neighborhood``; g's own
values certify each step and the stop.  The termination test and every
selection rule are functions of that table alone, and the rules compare its
entries only with each other and entry 0, so a value table such as
``neighborhood_values`` gets the same answers.
A route that hands out one kept tuple per table, as the Lyapunov oracle's
does, meets the same tables again, so each rule keeps its answers for the
latest four tuple tables it read; ``minimize`` still asks its rule every step.
An oracle that is a sum of one-variable functions may declare it, and then
every rule but the seeded one reads n per-item changes instead of a table.
"""

from __future__ import annotations

import enum
import functools
import random
from itertools import combinations, islice, product, repeat
from math import prod
from operator import add, ge, lt
from typing import Callable, NamedTuple, Sequence

from .errors import (BudgetExceededError, ContractError, ConvexityError,
                     IterationCapError)
from .instance import PriceVector, _Record
from .itemsets import chi_add, corner_indices, getter, strides

_SEED_LIMIT = 1 << 64

#: Largest item count a descent on change tables accepts; each of its steps
#: enumerates 2^n sets.  The per-item route of a separable oracle has no cap.
MAX_ITEMS = 24


class FunctionOracle(_Record):
    """Deterministic integer function on Z^n.

    ``fn`` returns None outside the function's domain (read as +infinity).
    ``box``, when given, declares per-coordinate bounds containing every
    finite query; no library function reads it, and it stays because the
    benchmark's span tracer rebuilds adapters with it.  ``value_floor`` is
    any known lower bound on the minimum, used to derive the descent loop's
    iteration cap.
    ``grid(axes)`` returns ``fn`` at every point of the product of the n
    integer lists ``axes``, in lexicographic order (coordinate 0 slowest),
    None outside the domain; ``neighborhood_values`` and
    ``is_lnat_convex_on_box`` read many values through it.  An oracle may
    declare a faster route; without one, ``grid`` queries ``fn`` once per
    point, in that order.  ``terms`` and ``items`` declare a separable g,
    g(p) = sum_j g_j(p_j): ``terms(j, c)`` is g_j(c), None outside the
    domain, and ``items(p)`` gives the n changes g(p + chi_j) - g(p) by a
    route of the oracle's own, as ``neighborhood`` gives tables to
    ``minimize``; without it they are read from ``terms``.  Two oracles are
    equal only when they are one object.
    """

    __slots__ = _fields = ("n", "fn", "box", "value_floor", "grid", "terms", "items")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n: int, fn: Callable[[PriceVector], int | None],
                 box: tuple[PriceVector, PriceVector] | None = None,
                 value_floor: int | None = None,
                 grid: Callable[[Sequence[Sequence[int]]], list[int | None]] | None = None,
                 terms: Callable[[int, int], int | None] | None = None,
                 items: Callable[[PriceVector], Sequence[int | None]] | None = None):
        if grid is None:
            def grid(axes):
                return list(map(fn, product(*axes)))
        if items is None and terms is not None:
            def items(p):
                return _term_changes(terms, p, 1)
        self._assign(n, fn, box, value_floor, grid, terms, items)

    def __call__(self, p: PriceVector) -> int | None:
        return self.fn(p)


class StrategyKind(enum.Enum):
    """Which set-selection rule the descent loop uses each iteration.

    ``STEEPEST_MINIMAL`` also chooses the maximal locally-minimal descent
    set, which is the steepest rule's minimal minimizer (Murota, Shioura and
    Yang, 2016), so that rule has no member of its own."""

    MINIMAL_DESCENT = "minimal_descent"
    STEEPEST_MINIMAL = "steepest_minimal"
    FIRST_GP_MINIMAL = "first_gp_minimal"


class Step(NamedTuple("Step", [("p_before", PriceVector), ("chosen_mask", int),
                                ("g_before", int), ("g_after", int)])):
    """One descent iteration: the chosen set's bitmask and the values before
    and after raising it.  The drop g_before - g_after is the set's
    deficiency when g is a Lyapunov function.  A step must raise a nonempty
    set and lower the value (None, outside the domain, does not)."""

    __slots__ = ()

    def __new__(cls, p_before: PriceVector, chosen_mask: int, g_before: int, g_after: int):
        if not chosen_mask:
            raise ContractError("descent step chose the empty set")
        if g_after is None or g_after >= g_before:
            raise ContractError("descent step failed to decrease the objective")
        return super().__new__(cls, p_before, chosen_mask, g_before, g_after)


class Trajectory(NamedTuple):
    """Ordered record of a full descent run; its length is its number of
    steps."""

    start: PriceVector
    steps: tuple[Step, ...]
    p_final: PriceVector

    def __len__(self) -> int:
        return len(self.steps)


class LnatCounterexample(NamedTuple):
    """Witness that a function is not L♮-convex on a box: points ``p`` <
    ``q`` (lexicographically) of the box with 1 <= ‖q - p‖∞ <= 2 and
    g(p) + g(q) < g(ceil((p + q)/2)) + g(floor((p + q)/2)), a failure of
    discrete midpoint convexity at a pair of the local theorem (see
    ``is_lnat_convex_on_box``)."""

    p: PriceVector
    q: PriceVector


def is_lnat_convex_on_box(g: FunctionOracle, box: tuple[PriceVector, PriceVector], *,
                          budget: int = 2_000_000) -> LnatCounterexample | None:
    """Decide whether g is L♮-convex on a box, by one local check.

    A function whose effective domain is L♮-convex, as a box is, is
    L♮-convex iff g(p) + g(q) >= g(ceil((p + q)/2)) + g(floor((p + q)/2))
    holds on the pairs with ‖p - q‖∞ <= 2 (Murota, *Discrete Convex
    Analysis*, SIAM 2003, ch. 7); its unit squares and comparable pairs
    with a step of 2 imply the rest (``_locally_midpoint_convex``).  It
    returns None when they hold, else the theorem's first failing pair in
    lexicographic order, q - p lexicographically positive, as an
    ``LnatCounterexample``.

    The budget is charged the number of the theorem's pairs in closed form
    (``_midpoint_charge``) before any value is read; the box's values are
    then read in one ``g.grid`` call.  The theorem needs the box inside g's
    domain, so a None value raises ValueError naming the first such point.
    """
    lo, hi = tuple(box[0]), tuple(box[1])
    if len(lo) != g.n or len(hi) != g.n or any(a > b for a, b in zip(lo, hi)):
        raise ValueError("box bounds must be two n-vectors with lo <= hi")
    widths = [b - a for a, b in zip(lo, hi)]
    pairs = _midpoint_charge(widths)
    if pairs > budget:
        raise BudgetExceededError(
            f"convexity check needs {pairs} inequality tests, budget is {budget}")
    axes = [range(a, b + 1) for a, b in zip(lo, hi)]
    vals = g.grid(axes)
    if None in vals:
        point = next(islice(product(*axes), vals.index(None), None))
        raise ValueError(f"the box leaves the function's domain at {point}")
    if _locally_midpoint_convex(widths, vals):
        return None
    p, q = _first_midpoint_failure(widths, vals)
    return LnatCounterexample(p=tuple(map(add, lo, p)), q=tuple(map(add, lo, q)))


def _midpoint_charge(widths: list[int]) -> int:
    """Pairs p < q of the box [0, widths] with ‖q - p‖∞ <= 2, the most the
    witness scan tests.  Along a coordinate of r points, r - |t| of them
    (none if not positive) step by t, so the (p, q) with ‖q - p‖∞ <= 2
    number Π_c Σ_{|t| <= 2} (r_c - |t|); less p = q, they come in twins."""
    steps = prod(sum(max(0, w + 1 - abs(t)) for t in range(-2, 3)) for w in widths)
    return (steps - prod(w + 1 for w in widths)) // 2


def _locally_midpoint_convex(widths: list[int], vals: list[int]) -> bool:
    """Whether g(p) + g(q) >= g(ceil((p + q)/2)) + g(floor((p + q)/2)) on
    every pair of the box [0, widths] with ‖q - p‖∞ <= 2, given g's values
    ``vals`` over the box in lexicographic order.  It tests (a) the unit
    squares g(p + χ_i) + g(p + χ_j) >= g(p) + g(p + χ_i + χ_j), i < j, and
    (b) the pairs (a, a + d), d in {0, 1, 2}^n with a 2.  On a box, (a)
    gives g(p) + g(q) >= g(p ∧ q) + g(p ∨ q) (Topkis, Oper. Res. 1978);
    if ‖p - q‖∞ <= 2, p ∧ q and p ∨ q have the midpoints of p and q, and
    are them or a pair of (b).  A point's index is its block's start, set
    by the leading coordinates, plus its place in the block of the trailing
    (at most three) ones.  Each product of (a) or (b), a word of ``_parts``
    letters, splits in two: the trailing words shared by leading words list
    the four points' places, read in each of those leading words' blocks."""
    n, k = len(widths), max(len(widths) - 3, 0)
    stride = strides([w + 1 for w in widths])
    parts = [_parts(s, w) for s, w in zip(stride, widths)]
    size = stride[k - 1] if k else len(vals)
    words = ["s" * i + "u" + "s" * (j - i - 1) + "d" + "s" * (n - 1 - j)
             for i, j in combinations(range(n), 2)]
    tails, leads = {}, {}
    for word in words + ["b" * j + "t" + "e" * (n - 1 - j) for j in range(n)]:
        tails.setdefault(word[:k], []).append(word[k:])
    for lead, rest in tails.items():
        leads.setdefault(tuple(rest), []).append(lead)
    for rest, first in leads.items():
        plan = _columns(parts[k:], rest)
        if not plan[0]:
            continue
        get = [getter(col) for col in plan]
        for starts in zip(*_columns(parts[:k], first)):
            gp, gq, gc, gf = (read(vals[b:b + size]) for read, b in zip(get, starts))
            if not all(map(ge, map(add, gp, gq), map(add, gc, gf))):
                return False
    return True


def _parts(s: int, w: int) -> dict[str, list[tuple]]:
    """Index parts s * (p, q, ceil((p + q)/2), floor((p + q)/2)) along a
    coordinate of stride s, for p and q in [0, w]: "s" has q = p, "u"
    q = p + 1, "d" q = p - 1, "t" q = p + 2, "b" is "s" or "u", "e" not "d"."""
    still = [(s * x,) * 4 for x in range(w + 1)]
    up = [(s * x, s * x + s, s * x + s, s * x) for x in range(w)]
    two = [(s * x, s * x + 2 * s, s * x + s, s * x + s) for x in range(w - 1)]
    return {"s": still, "u": up, "d": [(q, p, c, f) for p, q, c, f in up], "t": two,
            "b": still + up, "e": still + up + two}


def _columns(parts: list[dict], words: Sequence[str]) -> list[list[int]]:
    """The four index columns of every choice of one part per coordinate,
    from ``parts[c][word[c]]`` at coordinate c, for each word in turn."""
    out = [[] for _ in range(4)]
    for word in words:
        cols = [[0]] * 4
        for factor in map(dict.get, parts, word):
            cols = [[a + part[i] for a in col for part in factor] for i, col in enumerate(cols)]
        for joined, col in zip(out, cols):
            joined.extend(col)
    return out


def _first_midpoint_failure(widths: list[int], vals: list[int]) -> tuple:
    """The first (p, q) in lexicographic order over the box [0, widths] that
    fails the local inequality.  Along coordinate c, of stride s, the steps t
    from p_c that stay in the box have index parts s * (t, ceil(t/2),
    floor(t/2)), so only the theorem's pairs are listed, in order of q."""
    stride = strides([w + 1 for w in widths])
    parts = [[[(t, s * t, s * -(-t // 2), s * (t // 2))
               for t in range(max(-2, -a), min(2, w - a) + 1)] for a in range(w + 1)]
             for s, w in zip(stride, widths)]
    zero = (0,) * len(widths)
    for ip, p in enumerate(product(*(range(w + 1) for w in widths))):
        for choice in product(*(part[a] for part, a in zip(parts, p))):
            d, q, c, f = zip(*choice)
            if d > zero and vals[ip] + vals[ip + sum(q)] < vals[ip + sum(c)] + vals[ip + sum(f)]:
                return p, tuple(map(add, p, d))
    raise ContractError("the local midpoint check failed at no pair")


def neighborhood_values(g: FunctionOracle, p: PriceVector, s: int = 1) -> list[int | None]:
    """``g(p + s * chi_X)`` for every item subset X, indexed by bitmask.

    Entry 0 is ``g(p)``; None marks corners outside the oracle's domain.
    Read from the oracle's ``grid`` on the axes (p_k, p_k + s): the descent
    and its stop read s = 1, the minimality certificate s = -1.
    """
    vals = g.grid([(c, c + s) for c in p])
    return [vals[i] for i in corner_indices(len(p))]


def _width(vals: list[int | None]) -> int:
    """Item count of a neighborhood table, of changes or of values, which
    must hold 2^n entries and a finite entry 0, the one at p."""
    n = len(vals).bit_length() - 1
    if n < 0 or len(vals) != 1 << n:
        raise ValueError("neighborhood table must have 2^n entries")
    if vals[0] is None:
        raise ValueError("p is outside the oracle's domain")
    return n


#: Tables whose answers each selection rule keeps.
_KEPT_TABLES = 4


def _kept_by_table(rule):
    """``rule`` keeping its answers for the latest ``_KEPT_TABLES`` tables
    it read, as (table, other arguments) pairs.

    A rule reads nothing but its table and its integer arguments, so an
    answer holds for as long as the table does.  Only tuples are kept:
    ``LyapunovOracle.neighborhood`` hands out one kept tuple per demand
    state, which an ascending run keeps returning to, while a list may
    change between calls.  An answer is found by the table's identity, and
    the memo holds the table itself, so no other table can take that
    identity while its answer is kept.  Other arguments must be exact ints
    to be kept, so a seed such as True, equal to 1 as a key, still meets the
    rule's own check.  A call that raises keeps nothing.  The memo is
    ``_kept``, least recently read first.
    """
    kept: dict[tuple, tuple] = {}

    @functools.wraps(rule)
    def kept_rule(vals, *args):
        if type(vals) is not tuple or not all(type(a) is int for a in args):
            return rule(vals, *args)
        key = (id(vals), *args)
        hit = kept.pop(key, None)
        answer = rule(vals, *args) if hit is None else hit[1]
        if hit is None and len(kept) >= _KEPT_TABLES:
            del kept[next(iter(kept))]
        kept[key] = (vals, answer)
        return answer

    kept_rule._kept = kept
    return kept_rule


@_kept_by_table
def minimal_descent_set(vals: list[int | None]) -> int | None:
    """Mask of the first descent set in (cardinality, lexicographic) scan order.

    A descent set's entry is below entry 0.  The minimum-cardinality
    guarantee makes the result inclusion-minimal.  Returns None when no
    raise descends.
    """
    _width(vals)
    base = vals[0]
    for mask in _masks_by_size(len(vals)):
        val = vals[mask]
        if val is not None and val < base:
            return mask
    return None


@functools.lru_cache(maxsize=1)
def _masks_by_size(size: int) -> tuple[int, ...]:
    """The masks 1..size-1 by cardinality, then lexicographically by their
    members, as ``combinations`` lists them; kept for the latest size."""
    n = size.bit_length() - 1
    return tuple(sum(1 << i for i in combo)
                 for k in range(1, n + 1) for combo in combinations(range(n), k))


@_kept_by_table
def minimal_minimizer_step(vals: list[int | None]) -> int:
    """Mask of the meet of all sets minimizing the one-step change g(p + chi_X) - g(p).

    Only which entries are least matters.  The meet must itself attain the
    minimum; if it does not, the step function is not submodular and the
    input is rejected.  0 means nothing descends.  The least entry is read
    by one ``min`` over the table; only a table holding None, on which that
    ``min`` raises TypeError, is read again without its None entries.
    """
    _width(vals)
    try:
        best = min(vals)
    except TypeError:
        best = min(val for val in vals if val is not None)
    meet = mask = -1
    for _ in range(vals.count(best)):
        mask = vals.index(best, mask + 1)
        meet &= mask
    if vals[meet] != best:
        raise ConvexityError("step function not submodular")
    return meet


@_kept_by_table
def first_gp_minimal(vals: list[int | None], seed: int) -> int | None:
    """Mask of the first locally-minimal descent set in a seeded subset order.

    A set X is locally minimal when its entry is finite and below the entry
    of every proper subset (Murota, Shioura and Yang, 2016), so it compares
    entries with each other only.  The order is a Fisher-Yates shuffle of
    all nonempty subset indices, so a fixed seed always yields the same
    choice; it is built once per (seed, table size) and reused while those
    stay the same.  The walk stops at the first hit and rejects a set in
    three steps, cheapest first: its entry is not below entry 0; some set
    one item smaller has an entry at or below it; some proper subset does,
    found by walking the set's proper submasks downward to the first entry
    at or below the set's.  The walk keeps nothing and reads at most
    2^|X| - 1 entries for a set X, so one call may read up to 3^n entries,
    where least-over-subsets values shared between sets would bound it by
    about n * 2^n; on descent tables most sets fail an earlier step or meet
    a lower subset early, and the walk is the faster.
    ``oracle.gp_minimal_table`` flags every set at once and is its twin.
    Returns None when no raise descends.
    """
    _check_seed(seed)
    _width(vals)
    base = vals[0]
    for mask in _shuffled_masks(seed, len(vals)):
        val = vals[mask]
        if val is None or val >= base:
            continue
        rest = mask
        while rest:  # the sets one item smaller
            bit = rest & -rest
            rest ^= bit
            sub = vals[mask ^ bit]
            if sub is not None and sub <= val:
                break
        else:
            sub = (mask - 1) & mask
            while sub:  # every nonempty proper subset, downward
                low = vals[sub]
                if low is not None and low <= val:
                    break
                sub = (sub - 1) & mask
            else:
                return mask
    return None


@functools.lru_cache(maxsize=1)
def _shuffled_masks(seed: int, size: int) -> tuple[int, ...]:
    """The masks 1..size-1 shuffled by ``random.Random(seed)``.

    A descent asks for the same order at every iteration, so the latest
    order is kept and rebuilt only when the seed or the size changes.
    """
    order = list(range(1, size))
    random.Random(seed).shuffle(order)
    return tuple(order)


# The unique maximal locally-minimal descent set.  The locally-minimal
# descent sets are closed under union, and their union is the minimal
# minimizer of the one-step change (Murota, Shioura and Yang, 2016), so the
# rule is ``minimal_minimizer_step``; the tests hold the identity against the
# union of ``oracle.gp_minimal_table`` flags.  No library code reads this
# name: it stays only because the benchmark's span tracer patches it.
maximal_gp_minimal = minimal_minimizer_step


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < _SEED_LIMIT:
        raise ValueError("seed must be an unsigned 64-bit integer")


def minimize(g: FunctionOracle, p0: PriceVector, strategy: StrategyKind, *,
             seed: int = 0, budget: int | None = None,
             neighborhood: Callable[[PriceVector], Sequence[int | None]],
             ) -> tuple[PriceVector, Trajectory]:
    """Run the ascending descent loop from p0 with the given selection rule.

    The caller must start at or below the minimal minimizer; this is not
    checkable here and is validated externally against brute force.  Each
    iteration reads one change table, ``neighborhood(p)``, which the
    termination test reads up to its first negative entry (scanning past
    None entries only when it meets one) and, while something descends, the
    strategy.  ``g`` certifies the table: the change for the empty set must
    be 0, each step's g(p + chi_X) - g(p) must equal its entry, and a stop
    is confirmed by one scan of g's own neighborhood (``neighborhood_values``);
    a mismatch raises ConvexityError.

    A separable g, one that declares ``terms``, is read per item by every
    rule but the seeded one, whose order spans all item sets: each
    iteration reads the n changes ``g.items(p)``, and the table they
    define, entry X the sum of X's changes, is never built.  On it the
    steepest rule's set is D, the items whose change is negative, and the
    minimal descent set is D's lowest item.  Each step is certified as
    above, a stop by the n changes read from ``terms``, and ``neighborhood``
    serves the seeded rule alone.

    More than ``MAX_ITEMS`` items raise BudgetExceededError on the table
    route.  The oracle must declare a ``value_floor``: every
    step lowers the value by at least one, so a run still descending after
    g(p0) - value_floor + 1 steps raises IterationCapError.  A ``budget``
    caps the steps too, for values too large to wait for: a run still
    descending after ``budget`` steps, below that cap, raises
    BudgetExceededError.  Returns the final point and the full trajectory,
    one Step per iteration holding the chosen rule's mask as it came; a
    rule that finds no set, or a non-descent one, fails the Step's contract.
    """
    if not isinstance(strategy, StrategyKind):
        raise ValueError(f"unknown strategy {strategy!r}")
    _check_seed(seed)
    per_item = g.terms is not None and strategy is not StrategyKind.FIRST_GP_MINIMAL
    if g.n > MAX_ITEMS and not per_item:
        raise BudgetExceededError(
            f"n={g.n} exceeds the subset-enumeration cap {MAX_ITEMS}")
    p = tuple(p0)
    base = g.fn(p)
    if base is None:
        raise ValueError("start point is outside the oracle's domain")
    if g.value_floor is None:
        raise ValueError("the descent needs an oracle that declares a value_floor")
    cap = base - g.value_floor + 1
    size = g.n if per_item else 1 << g.n
    route = "item changes disagree" if per_item else "neighborhood table disagrees"
    steps: list[Step] = []
    while True:
        if per_item:
            deltas = g.items(p)
            if len(deltas) != size:
                raise ConvexityError(f"{route} with the oracle at p")
            down = sum(1 << j for j, d in enumerate(deltas) if d is not None and d < 0)
            descends = down != 0
        else:
            deltas = neighborhood(p)
            if len(deltas) != size or deltas[0] != 0:
                raise ConvexityError(f"{route} with the oracle at p")
            try:  # stops at the first negative entry, in C
                descends = any(map(lt, deltas, repeat(0)))
            except TypeError:  # a corner outside the domain: None entries
                descends = any(d is not None and d < 0 for d in deltas)
        if not descends:
            if per_item:
                certified = _term_changes(g.terms, p, 1) == list(deltas)
            else:
                certified = _changes(neighborhood_values(g, p), base) == list(deltas)
            if not certified:
                raise ConvexityError(f"{route} with the oracle at the stop")
            break
        if len(steps) >= cap:
            raise IterationCapError(f"no minimizer reached within {cap} iterations")
        if budget is not None and len(steps) >= budget:
            raise BudgetExceededError(
                f"descent exceeded budget {budget}: no minimizer within "
                f"{budget} iterations")
        if per_item:
            mask = down if strategy is StrategyKind.STEEPEST_MINIMAL else down & -down
            change = sum(d for j, d in enumerate(deltas) if mask >> j & 1)
        else:
            if strategy is StrategyKind.MINIMAL_DESCENT:
                mask = minimal_descent_set(deltas)
            elif strategy is StrategyKind.STEEPEST_MINIMAL:
                mask = minimal_minimizer_step(deltas)
            else:
                mask = first_gp_minimal(deltas, seed)
            mask = mask or 0  # nothing found: the Step below refuses the empty set
            change = deltas[mask]
        q = chi_add(p, mask)
        after = g.fn(q)
        if (None if after is None else after - base) != change:
            raise ConvexityError(f"{route} with the oracle at a step")
        steps.append(Step(p_before=p, chosen_mask=mask, g_before=base, g_after=after))
        p = q
        base = after
    trajectory = Trajectory(start=tuple(p0), steps=tuple(steps), p_final=p)
    return p, trajectory


def _changes(vals: list[int | None], base: int) -> list[int | None]:
    """Values less ``base``, None kept as None."""
    return [None if val is None else val - base for val in vals]


def _term_changes(terms: Callable[[int, int], int | None], p: PriceVector,
                  s: int) -> list[int | None]:
    """g_j(p_j + s) - g_j(p_j) for every coordinate j of a separable g
    given by its ``terms``, None where either is outside the domain."""
    out = []
    for j, c in enumerate(p):
        a, b = terms(j, c), terms(j, c + s)
        out.append(None if a is None or b is None else b - a)
    return out
