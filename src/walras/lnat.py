"""Generic descent engine over the integer lattice.

Works for any integer-valued function oracle whose restriction to unit-raise
neighborhoods is submodular (discrete midpoint convexity).  The minimization
loop repeatedly raises a chosen item set's coordinates by one; with any
selection rule whose sets satisfy the local-minimality condition below, the
loop lands on the unique componentwise-minimal minimizer.

Each iteration reads one change table ``deltas[mask] = g(p + chi_mask) - g(p)``
(entry 0 is 0, None outside the domain) from the route its caller passes,
such as the Lyapunov oracle's demand-side ``neighborhood``; g's own values
certify each step and the stop, the stop through the one corner reader,
``_corner_changes``.  The termination test and every selection rule are
functions of that table alone, and the rules compare its entries only with
each other and entry 0, so a value table such as ``neighborhood_values``
gets the same answers.  Every iteration is one run, ``_take_periods``: T
periods of k phases, a step being k = T = 1.  An oracle that bounds how
long a raise keeps its table may declare ``runs``; ``minimize`` then raises
a cycle of disjoint sets for whole periods.  A separable oracle may declare
its terms, and every rule but the seeded one then reads n per-item changes;
that route, like a table route without ``runs``, steps one raise per
iteration.
"""

from __future__ import annotations

import enum
import functools
import random
from collections import Counter
from itertools import chain, combinations, islice, product, repeat
from math import prod
from operator import add, ge, lt
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import (BudgetExceededError, ContractError, ConvexityError,
                     IterationCapError)
from .instance import DEFAULT_BUDGET, PriceVector, _Record
from .itemsets import box_pairs, box_point, chi_add, corner_indices, pair_failures

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
    ``minimize``; without it they are read from ``terms``.  ``runs(p, X)``,
    when given, is a lower bound t >= 1 on the raises of the item set X,
    as a bitmask, from p that keep the change table: every point
    p + s * chi_X, 0 <= s < t, has the table of p; None when every raise
    keeps it.  An oracle that declares it must be convex along each such
    line, as an L♮-convex g is; ``minimize`` reads no table inside a period
    run, so a bound that is too long goes unseen while the run's values fit
    its lines.  Two oracles are equal only when they are one object.
    """

    __slots__ = _fields = ("n", "fn", "box", "value_floor", "grid", "terms", "items",
                           "runs")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n: int, fn: Callable[[PriceVector], int | None],
                 box: tuple[PriceVector, PriceVector] | None = None,
                 value_floor: int | None = None,
                 grid: Callable[[Sequence[Sequence[int]]], list[int | None]] | None = None,
                 terms: Callable[[int, int], int | None] | None = None,
                 items: Callable[[PriceVector], Sequence[int | None]] | None = None,
                 runs: Callable[[PriceVector, int], int | None] | None = None):
        if grid is None:
            def grid(axes):
                return list(map(fn, product(*axes)))
        if items is None and terms is not None:
            def items(p):
                return _term_changes(terms, p, 1)
        self._assign(n, fn, box, value_floor, grid, terms, items, runs)

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
    """One descent step: the chosen set's bitmask and the values before and
    after raising it.  The drop g_before - g_after is the set's
    deficiency when g is a Lyapunov function.  A step must raise a nonempty
    set and lower the value (None, outside the domain, does not)."""

    __slots__ = ()

    def __new__(cls, p_before: PriceVector, chosen_mask: int, g_before: int, g_after: int):
        _check_step(chosen_mask, g_before, g_after)
        return super().__new__(cls, p_before, chosen_mask, g_before, g_after)


def _check_step(mask: int, g_before: int, g_after: int | None) -> None:
    if not mask:
        raise ContractError("descent step chose the empty set")
    if g_after is None or g_after >= g_before:
        raise ContractError("descent step failed to decrease the objective")


class Trajectory(_Record):
    """Ordered record of a full descent; its length is its step count.

    ``runs`` holds one (p_before, g_before, phases, T) per iteration: from
    p_before, of value g_before, T periods of the k ``phases``, (mask,
    change) pairs, raised in turn.  ``steps`` builds one ``Step`` per raise
    on each read; one built from steps holds a run per step."""

    __slots__ = ("start", "runs", "p_final", "_count")
    _fields = ("start", "steps", "p_final")

    def __init__(self, start: PriceVector, steps: Sequence[Step], p_final: PriceVector):
        runs = tuple((step.p_before, step.g_before,
                      ((step.chosen_mask, step.g_after - step.g_before),), 1) for step in steps)
        self._assign(start, runs, p_final, len(runs))

    @classmethod
    def _of_runs(cls, start: PriceVector, runs: tuple, count: int, p_final: PriceVector):
        self = cls.__new__(cls)
        self._assign(start, runs, p_final, count)
        return self

    @property
    def steps(self) -> tuple[Step, ...]:
        return tuple(_expand(self.runs))

    def __len__(self) -> int:
        return self._count


def _expand(runs: Sequence[tuple]) -> Iterator[Step]:
    """The steps of ``runs``, in order, one ``Step`` per raise."""
    for p, g, phases, periods in runs:
        for _ in range(periods):
            for mask, change in phases:
                yield Step(p, mask, g, g + change)
                p, g = chi_add(p, mask), g + change


class LnatCounterexample(NamedTuple):
    """Witness that a function is not L♮-convex on a box: points ``p`` <
    ``q`` (lexicographically) of the box with 1 <= ‖q - p‖∞ <= 2 and
    g(p) + g(q) < g(ceil((p + q)/2)) + g(floor((p + q)/2)), a failure of
    discrete midpoint convexity at a pair of the local theorem (see
    ``is_lnat_convex_on_box``)."""

    p: PriceVector
    q: PriceVector


def is_lnat_convex_on_box(g: FunctionOracle, box: tuple[PriceVector, PriceVector], *,
                          budget: int = DEFAULT_BUDGET) -> LnatCounterexample | None:
    """Decide whether g is L♮-convex on a box, by one local check.

    A function whose effective domain is L♮-convex, as a box is, is
    L♮-convex iff g(p) + g(q) >= g(ceil((p + q)/2)) + g(floor((p + q)/2))
    holds on the pairs with ‖p - q‖∞ <= 2 (Murota, *Discrete Convex
    Analysis*, SIAM 2003, ch. 7), ``_theorem``; the smaller family
    ``_check``, read first, implies them; ``box_pairs`` plans both.  It
    returns None when they hold, else the theorem's least failing pair by
    flat index, as an ``LnatCounterexample``.

    The budget is charged the theorem's pairs (``midpoint_charge``) before
    the box is read, in one ``g.grid`` call; a None value, out of g's
    domain, raises ValueError naming the first such point.  Coordinates of
    width 0, which no pair moves, are left out.
    """
    lo, hi = tuple(box[0]), tuple(box[1])
    if len(lo) != g.n or len(hi) != g.n or any(a > b for a, b in zip(lo, hi)):
        raise ValueError("box bounds must be two n-vectors with lo <= hi")
    widths = [b - a for a, b in zip(lo, hi)]
    pairs = midpoint_charge(widths)
    if pairs > budget:
        raise BudgetExceededError(
            f"convexity check needs {pairs} inequality tests, budget is {budget}")
    vals = g.grid([range(a, b + 1) for a, b in zip(lo, hi)])
    if None in vals:
        point = tuple(map(add, lo, box_point(vals.index(None), widths)))
        raise ValueError(f"the box leaves the function's domain at {point}")
    live = tuple(w for w in widths if w)
    if next(pair_failures(vals, box_pairs(live, _check, budget)[2], _midpoint_fails), None) is None:
        return None
    ip, iq = min(pair_failures(vals, box_pairs(live, _theorem, budget)[2], _midpoint_fails))
    return LnatCounterexample(p=tuple(map(add, lo, box_point(ip, widths))),
                              q=tuple(map(add, lo, box_point(iq, widths))))


def midpoint_charge(widths: list[int]) -> int:
    """The theorem's pairs p < q of the box [0, widths], ‖q - p‖∞ <= 2, the
    check's charge.  Along a coordinate of r points, r - |t| (none if not
    positive) step by t, so the ordered pairs number Π_c Σ_{|t| <= 2}
    (r_c - |t|); less p = q, they come in twins.  Equal widths share a
    power, so a wide box costs a few big-integer powers, not n products."""
    counts = Counter(widths).items()
    steps = prod(sum(max(0, w + 1 - abs(t)) for t in range(-2, 3)) ** k for w, k in counts)
    return (steps - prod((w + 1) ** k for w, k in counts)) // 2


#: Step t moves p, q and the midpoints by 0, t, ceil(t/2) and floor(t/2).
_OFFSETS = {t: (0, t, (t + 1) // 2, t // 2) for t in range(-2, 3)}


def _midpoint(word: tuple) -> tuple:
    """The pattern of a word of step sets q - p per coordinate."""
    return tuple(tuple(map(_OFFSETS.get, steps)) for steps in word)


def _check(n: int) -> list[tuple]:
    """The check's family: (a) the unit squares (p + χ_i, p + χ_j), i < j,
    and (b) the pairs (a, a + d), d in {0, 1, 2}^n with a 2.  On a box,
    (a) gives g(p) + g(q) >= g(p ∧ q) + g(p ∨ q) (Topkis, Oper. Res. 1978);
    if ‖p - q‖∞ <= 2, p ∧ q and p ∨ q have the midpoints of p and q, and are
    them or a pair of (b), so (a) and (b) hold iff the theorem's pairs do."""
    words = [tuple((1,) if c == i else (-1,) if c == j else (0,) for c in range(n))
             for i, j in combinations(range(n), 2)]
    words += [((0, 1),) * j + ((2,),) + ((0, 1, 2),) * (n - 1 - j) for j in range(n)]
    return list(map(_midpoint, words))


def _theorem(n: int) -> list[tuple]:
    """The theorem's pairs p < q, ‖q - p‖∞ <= 2: 0 before some c, {1, 2} at
    c, then -2..2."""
    return [_midpoint(((0,),) * c + ((1, 2),) + ((-2, -1, 0, 1, 2),) * (n - c - 1))
            for c in range(n)]


def _midpoint_fails(gp: tuple, gq: tuple, gc: tuple, gf: tuple) -> Iterator[bool] | None:
    """Per pair of a block, whether g(p) + g(q) < g(ceil((p + q)/2)) +
    g(floor((p + q)/2)); None, by a cheaper pass, where all hold."""
    holds = all(map(ge, map(add, gp, gq), map(add, gc, gf)))
    return None if holds else map(lt, map(add, gp, gq), map(add, gc, gf))


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
    bits = [1 << i for i in range(size.bit_length() - 1)]
    return tuple(chain.from_iterable(map(sum, combinations(bits, k))
                                     for k in range(1, len(bits) + 1)))


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


def first_gp_minimal(vals: list[int | None], seed: int) -> int | None:
    """Mask of the first locally-minimal descent set in a seeded subset order.

    A set X is locally minimal when its entry is finite and below the entry
    of every proper subset (Murota, Shioura and Yang, 2016), so it compares
    entries with each other only.  The order is a Fisher-Yates shuffle of
    all nonempty subset indices, so a fixed seed always yields the same
    choice; it is built once per (seed, table size) and reused while those
    stay the same.  The walk stops at the first hit; it rejects a set whose
    entry is not below entry 0, or else at the first of its proper submasks,
    walked downward, with an entry at or below its own: up to 3^n reads
    per call, but on descent tables most sets are rejected early.
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
    termination test reads up to its first negative entry (past None
    entries only when it meets one) and, while something descends, the
    strategy.  ``g`` certifies the table: the change for the empty set must
    be 0, each step's g(p + chi_X) - g(p) must equal its entry, and a stop
    is confirmed by one read of g's own corner changes (``_corner_changes``);
    a mismatch raises ConvexityError.

    A separable g, one that declares ``terms``, is read per item by every
    rule but the seeded one: each iteration reads the n changes
    ``g.items(p)``, and the table they define is never built.  On it the
    steepest rule's set is D, the items whose change is negative, and the
    minimal descent set is D's lowest item.  Each step is certified as
    above, a stop by the n changes read from ``terms``, and ``neighborhood``
    serves the seeded rule alone.

    On the table route, an oracle that declares ``runs`` has each cycle of
    k <= n disjoint sets that the latest steps raised (``_period``) taken
    for whole periods: the bounds certify that each phase's rule would pick
    its set again, and g's values at both ends of each phase's line the
    values.

    More than ``MAX_ITEMS`` items raise BudgetExceededError on the table
    route.  The oracle must declare a ``value_floor``: every step lowers
    the value by at least one, so a descent still descending after g(p0) -
    value_floor + 1 steps raises IterationCapError.  A ``budget`` caps the
    steps too, for values too large to wait for: a descent still descending
    after ``budget`` steps, below that cap, raises BudgetExceededError.
    Returns the final point and the trajectory, one run per iteration; a
    rule that finds no set, or a non-descent one, fails a Step's contract.
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
    most = cap if budget is None else min(cap, budget)
    size = g.n if per_item else 1 << g.n
    route = "item changes disagree" if per_item else "neighborhood table disagrees"
    runs = None if per_item else g.runs
    trail: list[tuple] = []
    count = 0
    single = {}  # one shared (phases, T) per (mask, change) stepped alone
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
            if _corner_changes(g, p, base, 1, per_item) != list(deltas):
                raise ConvexityError(f"{route} with the oracle at the stop")
            break
        if count >= most:
            if count >= cap:
                raise IterationCapError(f"no minimizer reached within {cap} iterations")
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
            mask = mask or 0  # nothing found: its Step refuses the empty set
            change = deltas[mask]
        found = None if runs is None else _period(runs, trail, mask, change, p, g.n,
                                                  most - count)
        if found is None:
            found = single.get((mask, change))
            if found is None:
                found = single[mask, change] = ((mask, change),), 1
        phases, periods = found
        p, base = _take_periods(g, trail, phases, periods, p, base, route)
        count += periods * len(phases)
    return p, Trajectory._of_runs(tuple(p0), tuple(trail), count, p)


def _period(runs: Callable[[PriceVector, int], int | None], trail: list[tuple], mask: int,
            change: int | None, p: PriceVector, n: int,
            most: int) -> tuple[tuple[tuple[int, int | None], ...], int] | None:
    """The period run ``minimize`` takes at p, where the rule picked
    ``mask``, of table entry ``change``: k (mask, change) phases and T.

    The period is the latest k <= n steps of the runs in ``trail``, back
    to the latest that raised ``mask``, if their masks are disjoint, with
    union Y.  Its first phase is (``mask``, ``change``), each later one its
    step's.  Phase l keeps its table at its last price p_l, p less chi of
    the sets of phases l and on, plus s * chi_Y for s <= ``runs(p_l, Y) -
    1``, the first for s < ``runs(p, Y)``, read first, while the oracle's
    state for p is current.  T is the least bound, cut to the whole periods
    in ``most`` steps; below 2, None."""
    later = []  # the later phases, latest first
    since = []  # for each, the union of its set and the later ones
    union = 0
    for step in islice(_latest(trail), n):
        if step[0] == mask:
            break
        if step[0] & (union | mask):
            return None
        union |= step[0]
        later.append(step)
        since.append(union)
    else:
        return None
    union |= mask
    periods = most // (len(later) + 1)
    for drop in (0, *reversed(since)):
        if periods < 2:
            return None
        bound = runs(chi_add(p, drop, -1) if drop else p, union)
        if bound is not None:
            periods = min(periods, bound - (drop > 0))
    if periods < 2:
        return None
    return ((mask, change), *reversed(later)), periods


def _latest(trail: list[tuple]) -> Iterator[tuple[int, int | None]]:
    """The (mask, change) of each step of ``trail``, latest first."""
    for _, _, phases, periods in reversed(trail):
        for _ in range(periods):
            yield from reversed(phases)


def _take_periods(g: FunctionOracle, trail: list[tuple],
                  phases: tuple[tuple[int, int | None], ...], periods: int, p: PriceVector,
                  base: int, route: str) -> tuple[PriceVector, int]:
    """Append the run of T = ``periods`` periods of ``phases``, (mask,
    change) pairs, from p, where g(p) is ``base``, to ``trail``; return
    the final price and its value.

    Each phase must be a valid ``Step``.  Period s's step ends lie on the
    lines e_l + (s - 1) * chi_Y through the first period's step ends e_l,
    along which g is convex (for the Lyapunov function, a sum of maxes of
    affine terms).  g is read at each e_l, then, for T >= 2, at e_l + (T -
    1) * chi_Y, each read must be its step's value, g(e_l) + (s - 1) * C
    for C the period's change, and then every step's values hold."""
    start, value = p, base
    ends = []
    for mask, change in phases:
        _check_step(mask, base, None if change is None else base + change)
        p, base = chi_add(p, mask), base + change
        if g.fn(p) != base:
            raise ConvexityError(f"{route} with the oracle at a step")
        ends.append((p, base))
    trail.append((start, value, phases, periods))
    if periods == 1:
        return p, base
    union = sum(mask for mask, _ in phases)
    total = base - value
    for end, at in ends:
        if g.fn(chi_add(end, union, periods - 1)) != at + (periods - 1) * total:
            raise ConvexityError(f"{route} with the oracle at a run's end")
    return chi_add(start, union, periods), base + (periods - 1) * total


def _corner_changes(g: FunctionOracle, p: PriceVector, base: int, s: int,
                    per_item: bool) -> list[int | None]:
    """g(p + s * chi_X) - ``base``, None outside the domain: for the n single
    items, from g's ``terms``, when ``per_item``, else for every item set
    X, by bitmask, from ``neighborhood_values``."""
    if per_item:
        return _term_changes(g.terms, p, s)
    return [None if val is None else val - base for val in neighborhood_values(g, p, s)]


def _corners(g: FunctionOracle, p: PriceVector, base: int, s: int) -> Iterator[tuple[int, int]]:
    """``(mask, g(p + s * chi_X) - base)`` for every nonempty X whose corner
    is in g's domain, in increasing mask order, given ``base`` = g(p): for
    s = -1 the minimality cuts within the support of p.  A separable g's
    corners are read for the single items alone, from its terms: the change
    is then the sum of X's items' changes, so an X whose change is at most
    0, or below 0, holds an item whose change is too, whose mask is not
    larger, and the first such X is an item."""
    per_item = g.terms is not None
    for i, change in enumerate(_corner_changes(g, p, base, s, per_item)):
        mask = 1 << i if per_item else i
        if mask and change is not None:
            yield mask, change


def _term_changes(terms: Callable[[int, int], int | None], p: PriceVector,
                  s: int) -> list[int | None]:
    """g_j(p_j + s) - g_j(p_j) for every coordinate j of a separable g
    given by its ``terms``, None where either is outside the domain."""
    out = []
    for j, c in enumerate(p):
        a, b = terms(j, c), terms(j, c + s)
        out.append(None if a is None or b is None else b - a)
    return out
