"""Auction-facing layer over the generic descent engine.

Runs the ascending auction as Lyapunov descent, whose trajectory is the
only per-step record, and certifies equilibria with explicit allocations.
The set-by-set overdemand and excess-demand predicates the auction is
defined by live in ``oracle``, where tests hold them against the descent's
tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .demand import DemandCache, _check_price
from .errors import (BudgetExceededError, ContractError, ConvexityError,
                     WalrasError)
from .instance import (DEFAULT_BUDGET, EXPLICIT_TABLE, MULTI, UNIT, Bundle,
                       Instance, ItemSet, PriceVector, verify_mnat_exc)
from .itemsets import chi_sub, items_from_mask
from .lnat import StrategyKind, Trajectory, minimize, neighborhood_values
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
    it and raises WalrasError.  Explicit-table valuations are admitted only
    after passing the substitutes exchange check, since nothing below is
    guaranteed otherwise.  The check runs once per Lyapunov oracle (``oracle``
    must belong to ``instance``): runs sharing one oracle, as ``compare``'s
    strategies do, repeat it only under a smaller budget than the one it
    passed within.
    The budget also caps the descent's iterations: a run that needs more
    raises BudgetExceededError.  Allocation extraction is best-effort: on
    budget exhaustion the result is still returned, with
    ``allocation_error`` set.
    """
    ly = oracle if oracle is not None else LyapunovOracle(instance, budget=budget)
    # A check that passed within some budget passes within any larger one.
    if ly.admitted_budget is None or budget < ly.admitted_budget:
        for b, v in enumerate(instance.valuations):
            if v.family == EXPLICIT_TABLE:
                bad = verify_mnat_exc(v, instance.u, budget=budget)
                if bad is not None:
                    raise ConvexityError(
                        f"valuations[{b}] violates the substitutes exchange property: "
                        f"x={bad.x} y={bad.y} i={bad.i}")
        ly.admitted_budget = budget
    if p0 is None:
        p0 = (0,) * instance.n
    p0 = _check_price(instance, p0)
    g = ly.function_oracle()
    p_final, trajectory = minimize(g, p0, strategy, seed=seed, budget=budget,
                                   neighborhood=ly.neighborhood)
    # The ascent's stop only shows that no raise descends; from a start above
    # the minimal equilibrium price it stops above it, so certify from below.
    base = g.fn(p_final)
    for mask, val in _support_cuts(g.fn, p_final):
        if val <= base:
            raise WalrasError(
                f"final price {list(p_final)} is not the minimal equilibrium price: "
                f"lowering items {sorted(items_from_mask(mask))} does not raise the "
                "Lyapunov value (the start must not exceed the minimal equilibrium price)")
    allocation = None
    allocation_error = None
    try:
        allocation = extract_allocation(instance, p_final,
                                        budget=budget, demand=ly.demand)
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
    sets = [dc.demand_set(b, p) for b in range(m)]
    maxs = [tuple(max(x[j] for x in ds) for j in range(n)) for ds in sets]
    mins = [tuple(min(x[j] for x in ds) for j in range(n)) for ds in sets]
    suffix_max = [(0,) * n] * (m + 1)
    suffix_min = [(0,) * n] * (m + 1)
    for k in range(m - 1, -1, -1):
        suffix_max[k] = tuple(maxs[k][j] + suffix_max[k + 1][j] for j in range(n))
        suffix_min[k] = tuple(mins[k][j] + suffix_min[k + 1][j] for j in range(n))
    chosen: list[Bundle | None] = [None] * m

    def rest_after(x: Bundle, remaining: tuple[int, ...], k: int) -> tuple[int, ...] | None:
        """Supply left once bidder k takes x, or None when the rest cannot clear it."""
        hi = suffix_max[k + 1]
        lo = suffix_min[k + 1]
        rest = []
        for j in range(n):
            r = remaining[j] - x[j]
            if r < 0 or r > hi[j] or r < lo[j]:
                return None
            rest.append(r)
        return tuple(rest)

    nodes = 0

    def count_node() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"allocation search exceeded budget {budget}")

    # Depth-first search with an explicit stack, one frame per bidder, so the
    # depth is not bounded by Python's recursion limit.  A frame holds the
    # supply still to clear and the index of the next bundle to try.
    count_node()
    stack: list[tuple[tuple[int, ...], int]] = [(u, 0)]
    while stack:
        k = len(stack) - 1
        remaining, i = stack[k]
        ds = sets[k]
        rest = None
        while rest is None and i < len(ds):
            rest = rest_after(ds[i], remaining, k)
            i += 1
        if rest is None:
            stack.pop()
            continue
        stack[k] = (remaining, i)
        chosen[k] = ds[i - 1]
        count_node()
        if k + 1 < m:
            stack.append((rest, 0))
        elif all(r == 0 for r in rest):
            return MultiAllocation(bundles=tuple(chosen))  # type: ignore[arg-type]
    return None


def extract_allocation(instance: Instance, p: PriceVector, *,
                       budget: int = DEFAULT_BUDGET,
                       demand: DemandCache | None = None) -> Allocation | None:
    """Find an allocation certifying p as an equilibrium price, or None.

    Unit model: augmenting-path matching where every positively priced item
    must be sold and unmatched bidders fall back to item 0.  Multi model:
    depth-first search over the product of demand sets with remaining-supply
    pruning.  Budget exhaustion raises, distinct from a proven None.
    """
    p = _check_price(instance, p)
    dc = demand if demand is not None else DemandCache(instance, budget=budget)
    if instance.model == UNIT:
        return _extract_unit(instance, p, dc)
    return _extract_multi(instance, p, dc, budget)


def _support_cuts(value, p: PriceVector):
    """``(mask, value(p - chi_X))`` for every nonempty X within the support
    of p, in increasing mask order."""
    supp = 0
    for k, c in enumerate(p):
        if c > 0:
            supp |= 1 << k
    mask = 0
    while True:
        mask = (mask - supp) & supp  # next submask of supp, ascending
        if mask == 0:
            return
        yield mask, value(chi_sub(p, mask))


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
                       budget: int = DEFAULT_BUDGET,
                       oracle: LyapunovOracle | None = None) -> EquilibriumVerdict:
    """Decide whether p is an equilibrium price, with a certificate either way.

    Success carries an allocation; failure carries a unit price move that
    lowers the Lyapunov value (none exists only in the degenerate bidderless
    multi-unit case, where no allocation can clear a positive supply).
    """
    p = _check_price(instance, p)
    ly = oracle if oracle is not None else LyapunovOracle(instance, budget=budget)
    allocation = extract_allocation(instance, p, budget=budget, demand=ly.demand)
    if allocation is not None:
        return EquilibriumVerdict(equilibrium=True, allocation=allocation, witness=None)
    vals = neighborhood_values(ly.function_oracle(), p)
    base = vals[0]
    for mask in range(1, len(vals)):
        if vals[mask] < base:
            return EquilibriumVerdict(False, None,
                                      DescentWitness(+1, items_from_mask(mask)))
    for mask, val in _support_cuts(ly.value, p):
        if val < base:
            return EquilibriumVerdict(False, None,
                                      DescentWitness(-1, items_from_mask(mask)))
    if instance.model == MULTI and instance.m == 0:
        return EquilibriumVerdict(False, None, None)
    raise ConvexityError(
        "price is locally optimal yet admits no allocation; "
        "valuations are outside the substitutes class")
