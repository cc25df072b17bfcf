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
gets the same answers.  Every raise is taken one way, ``_take_periods``: T
periods of k phases, one step being k = T = 1.  An oracle that bounds how
long a raise keeps its table may declare ``runs``; ``minimize`` then raises
a cycle of disjoint sets, found in the trajectory, for whole periods: the
bounds certify that each phase's set stays the rule's choice, and value
reads at both ends of each phase's line certify the values, since g is
convex along it.  An oracle that is a sum of one-variable functions may
declare it, and then every rule but the seeded one reads n per-item changes
instead of a table; that route, like a table route without ``runs``, steps
one raise per iteration.
"""

from __future__ import annotations

import enum
import functools
import random
from collections import Counter
from itertools import combinations, product, repeat
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
    line, as an L♮-convex g is; ``minimize`` reads it on the table route
    only, for the union X of a period's sets at each phase's price, and
    does not read the table inside a period run: the bound alone certifies
    the sets and value reads on the phase lines the values, so a bound that
    is too long goes unseen while the run's values fit the lines.  Two
    oracles are equal only when they are one object.
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
    n = size.bit_length() - 1
    return tuple(sum(1 << i for i in combo)
                 for k in range(1, n + 1) for combo in combinations(range(n), k))


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
    walked downward, with an entry at or below its own.  It keeps nothing
    and reads at most 2^|X| - 1 entries for a set X, up to 3^n per call,
    where least-over-subsets values shared between sets would bound it by
    about n * 2^n; on descent tables most sets are rejected early, and the
    walk is the faster.
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
    termination test reads up to its first negative entry (scanning past
    None entries only when it meets one) and, while something descends, the
    strategy.  ``g`` certifies the table: the change for the empty set must
    be 0, each step's g(p + chi_X) - g(p) must equal its entry, and a stop
    is confirmed by one read of g's own corner changes (``_corner_changes``);
    a mismatch raises ConvexityError.

    A separable g, one that declares ``terms``, is read per item by every
    rule but the seeded one, whose order spans all item sets: each
    iteration reads the n changes ``g.items(p)``, and the table they
    define, entry X the sum of X's changes, is never built.  On it the
    steepest rule's set is D, the items whose change is negative, and the
    minimal descent set is D's lowest item.  Each step is certified as
    above, a stop by the n changes read from ``terms``, and ``neighborhood``
    serves the seeded rule alone.

    Every iteration raises through ``_take_periods``; one step is one
    phase taken once.  An oracle that declares ``runs`` has period runs
    taken on the table route: a cycle of k <= n disjoint sets that the
    latest steps raised, found by ``_period`` in the trajectory, is raised
    for whole periods.  The ``runs`` bounds certify that each phase's rule
    would pick its set again, and g's values at both ends of each phase's
    line certify the values.

    More than ``MAX_ITEMS`` items raise BudgetExceededError on the table
    route.  The oracle must declare a ``value_floor``: every step lowers
    the value by at least one, so a descent still descending after g(p0) -
    value_floor + 1 steps raises IterationCapError.  A ``budget`` caps the
    steps too, for values too large to wait for: a descent still descending
    after ``budget`` steps, below that cap, raises BudgetExceededError.
    Returns the final point and the full trajectory, one Step per raise
    holding the chosen rule's mask as it came; a rule that finds no set, or
    a non-descent one, fails the Step's contract.
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
            if _corner_changes(g, p, base, 1, per_item) != list(deltas):
                raise ConvexityError(f"{route} with the oracle at the stop")
            break
        if len(steps) >= most:
            if len(steps) >= cap:
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
        found = None if runs is None else _period(runs, steps, mask, change, p, g.n,
                                                  most - len(steps))
        phases, periods = found or ([(mask, change)], 1)
        p, base = _take_periods(g, steps, phases, periods, p, base, route)
    trajectory = Trajectory(start=tuple(p0), steps=tuple(steps), p_final=p)
    return p, trajectory


def _period(runs: Callable[[PriceVector, int], int | None], steps: list[Step], mask: int,
            change: int | None, p: PriceVector, n: int,
            most: int) -> tuple[list[tuple[int, int | None]], int] | None:
    """The period run ``minimize`` takes at p, where the rule picked
    ``mask``, of table entry ``change``: k (mask, change) phases and T.

    The period is the latest k <= n steps, back to the latest that raised
    ``mask``; if their masks are pairwise disjoint, with union Y, p is its
    price plus chi_Y.  The first phase is (``mask``, ``change``), each
    later one its step's (mask, g_after - g_before).  Phase l keeps its
    table, and so its set, at its last price p_l plus s * chi_Y for s <=
    ``runs(p_l, Y) - 1``, and the first phase for s < ``runs(p, Y)``, read
    at p first, while the oracle's state for p is current.  T is the least
    bound, cut to the whole periods in ``most`` steps; below 2, None."""
    for k in range(1, min(n, len(steps)) + 1):
        if steps[-k].chosen_mask == mask:
            break
    else:
        return None
    last = steps[-k:]
    union = 0
    for step in last:
        if step.chosen_mask & union:
            return None
        union |= step.chosen_mask
    periods = most // k
    for later, step in enumerate(last):
        if periods < 2:
            return None
        bound = runs(step.p_before if later else p, union)
        if bound is not None:
            periods = min(periods, bound - (later > 0))
    if periods < 2:
        return None
    return [(mask, change)] + [(step.chosen_mask, step.g_after - step.g_before)
                               for step in last[1:]], periods


def _take_periods(g: FunctionOracle, steps: list[Step], phases: list[tuple[int, int | None]],
                  periods: int, p: PriceVector, base: int, route: str) -> tuple[PriceVector, int]:
    """Append T = ``periods`` periods of ``phases``, (mask, change) pairs,
    from p, where g(p) is ``base``, to ``steps``; return the final price
    and its value.

    The ends of period s's steps lie on the phase lines e_l + s * chi_Y
    through the last period's step ends e_l, along which g is convex (for
    the Lyapunov function each bidder's term is a max of functions affine
    in s, and the revenue term is affine).  g is read at the ends of the
    first period's steps, then, for T >= 2, of the last's, in trajectory
    order, and each must be its step's value g(e_l) + s * C, for C the
    phase's change: then every change along each line is C, and every
    step's values hold."""
    for s in range(1, periods + 1):
        for mask, change in phases:
            value = None if change is None else base + change
            steps.append(Step(p, mask, base, value))
            p, base = chi_add(p, mask), value
            if (s == 1 or s == periods) and g.fn(p) != value:
                where = "a step" if s == 1 else "a run's end"
                raise ConvexityError(f"{route} with the oracle at {where}")
    return p, base


def _corner_changes(g: FunctionOracle, p: PriceVector, base: int, s: int,
                    per_item: bool) -> list[int | None]:
    """g(p + s * chi_X) - ``base``, None outside the domain: for the n single
    items, from g's ``terms``, when ``per_item``, else for every item set
    X, by bitmask, from ``neighborhood_values``."""
    if per_item:
        return _term_changes(g.terms, p, s)
    return [None if val is None else val - base for val in neighborhood_values(g, p, s)]


def _corners(g: FunctionOracle, p: PriceVector, base: int, s: int) -> Iterator[tuple[int, int]]:
    """``(mask, g(p + s * chi_X))`` for every nonempty X whose corner is in
    g's domain, in increasing mask order, given ``base`` = g(p): for s = -1
    the minimality cuts within the support of p.  A separable g's corners
    are read for the single items alone, from its terms: g(p + s * chi_X) -
    g(p) is then the sum of X's items' changes, so an X at or below
    ``base`` (or below it) holds an item that is too, whose mask is not
    larger, and the first such X is an item."""
    per_item = g.terms is not None
    for i, change in enumerate(_corner_changes(g, p, base, s, per_item)):
        mask = 1 << i if per_item else i
        if mask and change is not None:
            yield mask, base + change


def _term_changes(terms: Callable[[int, int], int | None], p: PriceVector,
                  s: int) -> list[int | None]:
    """g_j(p_j + s) - g_j(p_j) for every coordinate j of a separable g
    given by its ``terms``, None where either is outside the domain."""
    out = []
    for j, c in enumerate(p):
        a, b = terms(j, c), terms(j, c + s)
        out.append(None if a is None or b is None else b - a)
    return out
