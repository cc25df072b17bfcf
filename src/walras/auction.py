"""Auction-facing layer over the generic descent engine.

Runs the ascending auction as Lyapunov descent, whose trajectory is the
only per-step record, and certifies equilibria with explicit allocations.
The set-by-set overdemand and excess-demand predicates the auction is
defined by live in ``oracle``, where tests hold them against the descent's
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import sub
from typing import Iterator

from .demand import DemandCache, _check_price, _per_item_argmax
from .errors import (BudgetExceededError, ContractError, ConvexityError,
                     WalrasError)
from .instance import (DEFAULT_BUDGET, MULTI, UNIT, Bundle, Instance, ItemSet,
                       PriceVector, verify_mnat_exc)
from .itemsets import items_from_mask
from .lnat import StrategyKind, Trajectory, minimize
from .lyapunov import LyapunovOracle


@dataclass(frozen=True)
class UnitAllocation:
    """Assignment of bidders to items; 0 means the bidder buys nothing."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        taken = [a for a in self.assignment if a != 0]
        if len(taken) != len(set(taken)):
            raise ValueError("allocation assigns an item to two bidders")


@dataclass(frozen=True)
class MultiAllocation:
    """One bundle per bidder; a valid allocation sums exactly to the supply."""

    bundles: tuple[Bundle, ...]


Allocation = UnitAllocation | MultiAllocation


@dataclass(frozen=True)
class AuctionResult:
    p_min: PriceVector
    trajectory: Trajectory
    allocation: Allocation | None
    allocation_error: str | None = None


def ascending_auction(instance: Instance,
                      strategy: StrategyKind = StrategyKind.STEEPEST_MINIMAL,
                      p0: PriceVector | None = None, *,
                      seed: int = 0,
                      budget: int = DEFAULT_BUDGET,
                      oracle: LyapunovOracle | None = None) -> AuctionResult:
    """Run the ascending auction from p0 (default all-zero prices).

    The start must lie at or below the minimal equilibrium price; zero always
    does.  A final scan of unit price cuts within the support certifies that
    the result is minimal; a start above the minimal equilibrium price fails
    it and raises WalrasError.  The demand cache's table bidders are admitted
    only after passing the substitutes exchange check, since nothing below is
    guaranteed otherwise.  ``oracle``, the only state a run may share, must be
    built for this ``instance`` and ``budget`` (else ValueError); runs sharing
    one, as ``compare``'s strategies do, share its tables and one check.
    The budget also caps the descent's iterations: a run that needs more
    raises BudgetExceededError.  Allocation extraction, from demand state of
    its own, is best-effort: on budget exhaustion the result is still
    returned, with ``allocation_error`` set.
    """
    ly = oracle if oracle is not None else LyapunovOracle(instance, budget=budget)
    if ly.instance != instance or ly.demand.budget != budget:
        raise ValueError("oracle was built for another instance or budget")
    if not ly.admitted:
        for b in ly.demand.tables:
            bad = verify_mnat_exc(instance.valuations[b], budget=budget)
            if bad is not None:
                raise ConvexityError(
                    f"valuations[{b}] violates the substitutes exchange property: "
                    f"x={bad.x} y={bad.y} i={bad.i}")
        ly.admitted = True
    if p0 is None:
        p0 = (0,) * instance.n
    p0 = _check_price(instance, p0)
    g = ly.function_oracle()
    p_final, trajectory = minimize(g, p0, strategy, seed=seed, budget=budget,
                                   neighborhood=ly.neighborhood)
    # The ascent's stop only shows that no raise descends; from a start above
    # the minimal equilibrium price it stops above it, so certify from below.
    base = g.fn(p_final)
    for mask, val in _support_cuts(ly, p_final):
        if val <= base:
            raise WalrasError(
                f"final price {list(p_final)} is not the minimal equilibrium price: "
                f"lowering items {sorted(items_from_mask(mask))} does not raise the "
                "Lyapunov value (the start must not exceed the minimal equilibrium price)")
    allocation = None
    allocation_error = None
    try:
        allocation = extract_allocation(instance, p_final, budget=budget)
    except BudgetExceededError:
        allocation_error = "allocation search budget exceeded"
    return AuctionResult(p_min=p_final, trajectory=trajectory,
                         allocation=allocation, allocation_error=allocation_error)


# --- allocation extraction -------------------------------------------------


def _augment(left_adj: list[list[int]], right_size: int) -> tuple[list[int | None], int]:
    """Kuhn's augmenting-path maximum matching; returns (owner per right vertex, size)."""
    owner: list[int | None] = [None] * right_size

    def try_assign(left: int, seen: list[bool]) -> bool:
        for r in left_adj[left]:
            if not seen[r]:
                seen[r] = True
                if owner[r] is None or try_assign(owner[r], seen):
                    owner[r] = left
                    return True
        return False

    size = 0
    for left in range(len(left_adj)):
        if try_assign(left, [False] * right_size):
            size += 1
    return owner, size


def _combine_matchings(match_b: dict[int, int], m2: dict[int, int]) -> dict[int, int]:
    """Merge two matchings so items covered by the first and bidders covered
    by the second all stay covered (alternating-path exchange)."""
    item_owner = {i: b for b, i in match_b.items()}
    for b0 in sorted(m2):
        if b0 in match_b:
            continue
        b = b0
        while True:
            i = m2.get(b)
            if i is None:
                break
            prev = item_owner.get(i)
            match_b[b] = i
            item_owner[i] = b
            if prev is None:
                break
            del match_b[prev]
            b = prev
    return match_b


def _extract_unit(instance: Instance, p: PriceVector, dc: DemandCache) -> UnitAllocation | None:
    n, m = instance.n, instance.m
    dmasks = [dc.unit_demand_mask(b, p) for b in range(m)]
    priced = [i for i in range(1, n + 1) if p[i - 1] > 0]
    must_buy = [b for b in range(m) if not dmasks[b] & 1]
    # First matching covers every positively priced item.
    adj_items = [[b for b in range(m) if dmasks[b] >> i & 1] for i in priced]
    owner_b, size = _augment(adj_items, m)
    if size != len(priced):
        return None
    match_b = {b: priced[owner_b[b]] for b in range(m) if owner_b[b] is not None}
    # Second matching covers every bidder that cannot fall back to item 0.
    adj_bidders = [[i - 1 for i in range(1, n + 1) if dmasks[b] >> i & 1]
                   for b in must_buy]
    owner_i, size = _augment(adj_bidders, n)
    if size != len(must_buy):
        return None
    m2 = {}
    for i in range(n):
        if owner_i[i] is not None:
            m2[must_buy[owner_i[i]]] = i + 1
    match_b = _combine_matchings(match_b, m2)
    assignment = tuple(match_b.get(b, 0) for b in range(m))
    for b in range(m):
        if assignment[b] == 0 and not dmasks[b] & 1:
            raise ContractError("matching left a bidder without its fallback item")
    return UnitAllocation(assignment=assignment)


def _extract_multi(instance: Instance, p: PriceVector, dc: DemandCache,
                   budget: int) -> MultiAllocation | None:
    n, m, u = instance.n, instance.m, instance.u
    if m == 0:
        return None  # supply is positive, so nothing can clear it
    # A separable bidder's demand set is the product of its per-item argmax
    # ranges, which ties make exponentially large, so it is kept as the
    # ranges; any other bidder's demand set is listed.
    ranges = [_per_item_argmax(v, p) if b in dc.separable else None
              for b, v in enumerate(instance.valuations)]
    sets = [dc.demand_set(b, p) if ranges[b] is None else None for b in range(m)]
    maxs, mins = [], []
    for r, ds in zip(ranges, sets):
        if r is not None:
            maxs.append(tuple(ks[-1] for ks in r))
            mins.append(tuple(ks[0] for ks in r))
        else:
            maxs.append(tuple(max(x[j] for x in ds) for j in range(n)))
            mins.append(tuple(min(x[j] for x in ds) for j in range(n)))
    suffix_max = [(0,) * n] * (m + 1)
    suffix_min = [(0,) * n] * (m + 1)
    for k in range(m - 1, -1, -1):
        suffix_max[k] = tuple(maxs[k][j] + suffix_max[k + 1][j] for j in range(n))
        suffix_min[k] = tuple(mins[k][j] + suffix_min[k + 1][j] for j in range(n))
    chosen: list[Bundle | None] = [None] * m

    def options(k: int, remaining: tuple[int, ...]) -> Iterator[Bundle]:
        """Bidder k's demanded bundles, in lexicographic order, that leave a
        supply the later bidders can still clear: between their suffix
        bounds, item by item."""
        hi = suffix_max[k + 1]
        lo = suffix_min[k + 1]
        if ranges[k] is not None:
            return product(*([x for x in ks if r - h <= x <= r - l]
                             for ks, r, h, l in zip(ranges[k], remaining, hi, lo)))
        return (x for x in sets[k]
                if all(l <= r - c <= h for c, r, h, l in zip(x, remaining, hi, lo)))

    nodes = 0

    def count_node() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"allocation search exceeded budget {budget}")

    # Depth-first search with an explicit stack, one frame per bidder, so the
    # depth is not bounded by Python's recursion limit.  A frame holds the
    # supply still to clear and the bidder's bundles not yet tried.
    count_node()
    stack: list[tuple[tuple[int, ...], Iterator[Bundle]]] = [(u, options(0, u))]
    while stack:
        remaining, todo = stack[-1]
        x = next(todo, None)
        if x is None:
            stack.pop()
            continue
        k = len(stack) - 1
        chosen[k] = x
        count_node()
        if k + 1 == m:
            # Past the last bidder the suffix bounds are zero, so x clears
            # the supply.
            return MultiAllocation(bundles=tuple(chosen))  # type: ignore[arg-type]
        rest = tuple(map(sub, remaining, x))
        stack.append((rest, options(k + 1, rest)))
    return None


def extract_allocation(instance: Instance, p: PriceVector, *,
                       budget: int = DEFAULT_BUDGET) -> Allocation | None:
    """Find an allocation certifying p as an equilibrium price, or None.

    Unit model: augmenting-path matching where every positively priced item
    must be sold and unmatched bidders fall back to item 0.  Multi model:
    depth-first search over the product of demand sets with remaining-supply
    pruning.  Demand is read from a ``DemandCache`` of its own, shared with no
    run.  Budget exhaustion raises, distinct from a proven None.
    """
    p = _check_price(instance, p)
    dc = DemandCache(instance, budget=budget)
    if instance.model == UNIT:
        return _extract_unit(instance, p, dc)
    return _extract_multi(instance, p, dc, budget)


def _support_cuts(ly: LyapunovOracle, p: PriceVector):
    """``(mask, L(p - chi_X))`` for every nonempty X within the support of
    p, in increasing mask order: the finite entries of the downward scan."""
    vals = ly.shifted_values(p, -1)
    for mask in range(1, len(vals)):
        if vals[mask] is not None:
            yield mask, vals[mask]


@dataclass(frozen=True)
class DescentWitness:
    """A unit price move (raise for direction +1, cut for -1) that lowers
    the Lyapunov value, disproving equilibrium at the tested price."""

    direction: int
    items: ItemSet


@dataclass(frozen=True)
class EquilibriumVerdict:
    equilibrium: bool
    allocation: Allocation | None
    witness: DescentWitness | None


def verify_equilibrium(instance: Instance, p: PriceVector, *,
                       budget: int = DEFAULT_BUDGET) -> EquilibriumVerdict:
    """Decide whether p is an equilibrium price, with a certificate either way.

    Success carries an allocation; failure carries a unit price move that
    lowers the Lyapunov value (none exists only in the degenerate bidderless
    multi-unit case, where no allocation can clear a positive supply).
    Builds its own Lyapunov oracle, so no run's state enters the verdict.
    """
    p = _check_price(instance, p)
    allocation = extract_allocation(instance, p, budget=budget)
    if allocation is not None:
        return EquilibriumVerdict(equilibrium=True, allocation=allocation, witness=None)
    ly = LyapunovOracle(instance, budget=budget)
    vals = ly.shifted_values(p, 1)
    base = vals[0]
    for mask in range(1, len(vals)):
        if vals[mask] < base:
            return EquilibriumVerdict(False, None,
                                      DescentWitness(+1, items_from_mask(mask)))
    for mask, val in _support_cuts(ly, p):
        if val < base:
            return EquilibriumVerdict(False, None,
                                      DescentWitness(-1, items_from_mask(mask)))
    if instance.model == MULTI and instance.m == 0:
        return EquilibriumVerdict(False, None, None)
    raise ConvexityError(
        "price is locally optimal yet admits no allocation; "
        "valuations are outside the substitutes class")
