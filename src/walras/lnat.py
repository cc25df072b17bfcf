"""Generic descent engine over the integer lattice.

Works for any integer-valued function oracle whose restriction to unit-raise
neighborhoods is submodular (discrete midpoint convexity).  The minimization
loop repeatedly raises a chosen item set's coordinates by one; with any
selection rule whose sets satisfy the local-minimality condition below, the
loop lands on the unique componentwise-minimal minimizer.

Each iteration reads one change table ``deltas[mask] = g(p + chi_mask) - g(p)``
(entry 0 is 0, None outside the domain).  The termination test and every
selection rule are functions of that table alone, and the rules compare its
entries only with each other and entry 0, so a value table such as
``neighborhood_values`` gets the same answers.  A caller may supply a faster
route to the changes; the oracle's own values then certify each step and the stop.
"""

from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from typing import Callable

from .errors import (BudgetExceededError, ContractError, ConvexityError,
                     IterationCapError)
from .instance import PriceVector
from .itemsets import chi_add, difference_keys, strides

_SEED_LIMIT = 1 << 64

#: Largest item count the descent accepts; each step enumerates 2^n sets.
MAX_ITEMS = 24


@dataclass(frozen=True, eq=False)
class FunctionOracle:
    """Deterministic integer function on Z^n.

    ``fn`` returns None outside the function's domain (read as +infinity).
    ``box``, when given, declares per-coordinate bounds containing every
    finite query; ``value_floor`` is any known lower bound on the minimum,
    used to derive a default iteration cap for the descent loop.  ``scan``,
    when given, is a faster route to ``neighborhood_values``: ``scan(p)``
    must return ``fn(p + chi_X)`` for every X, indexed by bitmask, at any
    p in the domain.
    """

    n: int
    fn: Callable[[PriceVector], int | None]
    box: tuple[PriceVector, PriceVector] | None = None
    value_floor: int | None = None
    scan: Callable[[PriceVector], list[int | None]] | None = None

    def __call__(self, p: PriceVector) -> int | None:
        return self.fn(p)


class StrategyKind(enum.Enum):
    """Which set-selection rule the descent loop uses each iteration."""

    MINIMAL_DESCENT = "minimal_descent"
    STEEPEST_MINIMAL = "steepest_minimal"
    FIRST_GP_MINIMAL = "first_gp_minimal"
    MAXIMAL_GP_MINIMAL = "maximal_gp_minimal"


@dataclass(frozen=True, slots=True)
class Step:
    """One descent iteration: the chosen set's bitmask and the values before
    and after raising it.  The drop g_before - g_after is the set's
    deficiency when g is a Lyapunov function.  A step must raise a nonempty
    set and lower the value (None, outside the domain, does not)."""

    p_before: PriceVector
    chosen_mask: int
    g_before: int
    g_after: int

    def __post_init__(self):
        if not self.chosen_mask:
            raise ContractError("descent step chose the empty set")
        if self.g_after is None or self.g_after >= self.g_before:
            raise ContractError("descent step failed to decrease the objective")


@dataclass(frozen=True)
class Trajectory:
    """Ordered record of a full descent run."""

    start: PriceVector
    steps: tuple[Step, ...]
    p_final: PriceVector

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class LnatCounterexample:
    """Pair of points and a shift violating discrete midpoint convexity."""

    p: PriceVector
    q: PriceVector
    lam: int


def is_lnat_convex_on_box(g: FunctionOracle,
                          box: tuple[PriceVector, PriceVector] | None = None, *,
                          budget: int = 2_000_000) -> LnatCounterexample | None:
    """Exhaustive discrete-midpoint-convexity check over a box.

    Scans every in-box pair (p, q) and every shift 0..diameter; returns the
    first violation in lexicographic (p, q, shift) order, or None.  Each box
    point is queried once, in lexicographic order, and the shifted points
    are read at index offsets.  Shifts at or past max_c(q_c - p_c) are
    skipped: there the shifted pair is (q, p) itself, so the inequality holds
    by identity (and a None value at p or q never makes a violation).  The
    budget is charged volume^2 * (diameter + 1) tests all the same.
    """
    if box is None:
        box = g.box
    if box is None:
        raise ValueError("no box given and the oracle declares none")
    lo, hi = tuple(box[0]), tuple(box[1])
    if len(lo) != g.n or len(hi) != g.n or any(a > b for a, b in zip(lo, hi)):
        raise ValueError("box bounds must be two n-vectors with lo <= hi")
    widths = [b - a for a, b in zip(lo, hi)]
    volume = prod(w + 1 for w in widths)
    diameter = max(widths)
    work = volume * volume * (diameter + 1)
    if work > budget:
        raise BudgetExceededError(
            f"convexity check needs {work} inequality tests, budget is {budget}")
    points = list(product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    vals = [g.fn(p) for p in points]
    # A point x sits at index sum_c stride_c * (x_c - lo_c).  For d = q - p,
    # a = min(p + lam, q) sits at index(p) + sum_c stride_c * min(lam, d_c)
    # and b = max(p, q - lam) at index(p) + index(q) - index(a).  Those
    # offsets depend on d alone, so they are listed once per difference
    # vector, for the shifts below max(d); d is found at key[q] - key[p] + zero.
    stride = strides([w + 1 for w in widths])
    shifts = []
    for d in product(*(range(-w, w + 1) for w in widths)):
        shifts.append([sum(s * min(lam, dc) for s, dc in zip(stride, d))
                       for lam in range(max(d))])
    key, zero = difference_keys(points, widths)
    for ip, p in enumerate(points):
        gp = vals[ip]
        if gp is None:
            continue
        row = zero - key[ip]
        for iq in range(volume):
            offsets = shifts[row + key[iq]]
            if not offsets:
                continue
            gq = vals[iq]
            if gq is None:
                continue
            lhs = gp + gq
            for lam, off in enumerate(offsets):
                ga = vals[ip + off]
                gb = vals[iq - off]
                if ga is None or gb is None or lhs < ga + gb:
                    return LnatCounterexample(p=p, q=points[iq], lam=lam)
    return None


def neighborhood_values(g: FunctionOracle, p: PriceVector) -> list[int | None]:
    """``g(p + chi_X)`` for every item subset X, indexed by bitmask.

    Entry 0 is ``g(p)``; None marks raises outside the oracle's domain.
    Read from the oracle's ``scan`` when it declares one, for p in the
    domain; otherwise one query per set.
    """
    p = tuple(p)
    if g.scan is not None:
        return g.scan(p)
    return [g.fn(chi_add(p, mask)) for mask in range(1 << g.n)]


def _width(vals: list[int | None]) -> int:
    """Item count of a neighborhood table, of changes or of values, which
    must hold 2^n entries and a finite entry 0, the one at p."""
    n = len(vals).bit_length() - 1
    if n < 0 or len(vals) != 1 << n:
        raise ValueError("neighborhood table must have 2^n entries")
    if vals[0] is None:
        raise ValueError("p is outside the oracle's domain")
    return n


def gp_minimal_table(vals: list[int | None]) -> list[bool]:
    """``oracle.is_gp_minimal`` for every mask of a neighborhood table at once.

    One pass in increasing mask order keeps, per mask, the least finite
    value over all its submasks, so the least value over a mask's proper
    submasks costs one lookup per member: O(2^n * n) instead of 3^n.
    """
    low = list(vals)
    flags = [False] * len(vals)
    for mask in range(1, len(vals)):
        below = None
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = low[mask ^ bit]
            if v is not None and (below is None or v < below):
                below = v
        val = vals[mask]
        if val is not None and (below is None or val < below):
            flags[mask] = True
        elif below is not None:
            low[mask] = below
    return flags


def minimal_descent_set(vals: list[int | None]) -> int | None:
    """Mask of the first descent set in (cardinality, lexicographic) scan order.

    A descent set's entry is below entry 0.  The minimum-cardinality
    guarantee makes the result inclusion-minimal.  Returns None when no
    raise descends.
    """
    n = _width(vals)
    base = vals[0]
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            mask = sum(1 << i for i in combo)
            val = vals[mask]
            if val is not None and val < base:
                return mask
    return None


def minimal_minimizer_step(vals: list[int | None]) -> int:
    """Mask of the meet of all sets minimizing the one-step change g(p + chi_X) - g(p).

    Only which entries are least matters.  The meet must itself attain the
    minimum; if it does not, the step function is not submodular and the
    input is rejected.  0 means nothing descends.
    """
    _width(vals)
    best = min(val for val in vals if val is not None)
    meet = -1
    for mask, val in enumerate(vals):
        if val == best:
            meet &= mask
    if vals[meet] != best:
        raise ConvexityError("step function not submodular")
    return meet


def first_gp_minimal(vals: list[int | None], seed: int) -> int | None:
    """Mask of the first locally-minimal descent set in a seeded subset order.

    Local minimality compares entries with each other only.  The order is
    a Fisher-Yates shuffle of all nonempty subset indices, so a fixed seed
    always yields the same choice; it is built once per (seed, table size)
    and reused while those stay the same.  Returns None when no raise
    descends.
    """
    _check_seed(seed)
    _width(vals)
    flags = gp_minimal_table(vals)
    for mask in _shuffled_masks(seed, len(vals)):
        if flags[mask]:
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


def maximal_gp_minimal(vals: list[int | None]) -> int:
    """Mask of the unique maximal locally-minimal descent set.

    The locally-minimal descent sets are closed under union, and their union
    is the minimal minimizer of the one-step change (Murota, Shioura and
    Yang, 2016), so this is ``minimal_minimizer_step``; the tests hold the
    identity against the union of ``gp_minimal_table`` flags.  Degenerates
    to 0, the empty set, when nothing descends.
    """
    return minimal_minimizer_step(vals)


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < _SEED_LIMIT:
        raise ValueError("seed must be an unsigned 64-bit integer")


def minimize(g: FunctionOracle, p0: PriceVector, strategy: StrategyKind, *,
             seed: int = 0, budget: int | None = None,
             neighborhood: Callable[[PriceVector], list[int]] | None = None,
             ) -> tuple[PriceVector, Trajectory]:
    """Run the ascending descent loop from p0 with the given selection rule.

    The caller must start at or below the minimal minimizer; this is not
    checkable here and is validated externally against brute force.  Each
    iteration builds one change table, which the termination test reads
    and, while something descends, the strategy.  Without ``neighborhood``
    the changes are read from ``g``, which is queried unmemoized (the
    Lyapunov oracle keeps its own memo).  With it, ``neighborhood(p)`` gives
    them by a faster route, and ``g`` certifies them: the change for the
    empty set must be 0, each step's g(p + chi_X) - g(p) must equal its
    entry, and a stop is confirmed by one scan of g's own neighborhood; a
    mismatch raises ConvexityError.  More than ``MAX_ITEMS`` items raise
    BudgetExceededError.  The oracle must declare a ``value_floor``: every
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
    if g.n > MAX_ITEMS:
        raise BudgetExceededError(
            f"n={g.n} exceeds the subset-enumeration cap {MAX_ITEMS}")
    p = tuple(p0)
    base = g.fn(p)
    if base is None:
        raise ValueError("start point is outside the oracle's domain")
    if g.value_floor is None:
        raise ValueError("the descent needs an oracle that declares a value_floor")
    cap = base - g.value_floor + 1
    size = 1 << g.n
    steps: list[Step] = []
    while True:
        if neighborhood is None:
            deltas = _changes(neighborhood_values(g, p), base)
        else:
            deltas = neighborhood(p)
            if len(deltas) != size or deltas[0] != 0:
                raise ConvexityError("neighborhood table disagrees with the oracle at p")
        if not any(d is not None and d < 0 for d in deltas):
            if neighborhood is not None and _changes(neighborhood_values(g, p), base) != deltas:
                raise ConvexityError(
                    "neighborhood table disagrees with the oracle at the stop")
            break
        if len(steps) >= cap:
            raise IterationCapError(f"no minimizer reached within {cap} iterations")
        if budget is not None and len(steps) >= budget:
            raise BudgetExceededError(
                f"descent exceeded budget {budget}: no minimizer within "
                f"{budget} iterations")
        if strategy is StrategyKind.MINIMAL_DESCENT:
            mask = minimal_descent_set(deltas)
        elif strategy is StrategyKind.STEEPEST_MINIMAL:
            mask = minimal_minimizer_step(deltas)
        elif strategy is StrategyKind.FIRST_GP_MINIMAL:
            mask = first_gp_minimal(deltas, seed)
        else:
            mask = maximal_gp_minimal(deltas)
        mask = mask or 0  # nothing found: the Step below refuses the empty set
        q = chi_add(p, mask)
        after = g.fn(q)
        if (None if after is None else after - base) != deltas[mask]:
            raise ConvexityError("neighborhood table disagrees with the oracle at a step")
        steps.append(Step(p_before=p, chosen_mask=mask, g_before=base, g_after=after))
        p = q
        base = after
    trajectory = Trajectory(start=tuple(p0), steps=tuple(steps), p_final=p)
    return p, trajectory


def _changes(vals: list[int | None], base: int) -> list[int | None]:
    """Values less ``base``, None kept as None."""
    return [None if val is None else val - base for val in vals]
