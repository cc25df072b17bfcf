"""Auction-facing layer over the generic descent engine.

Runs the ascending auction as Lyapunov descent, whose trajectory is the
only per-step record, and certifies equilibria with explicit allocations.
The set-by-set overdemand and excess-demand predicates the auction is
defined by live in ``oracle``, where tests hold them against the descent's
tables.
"""

from __future__ import annotations

from itertools import product
from operator import sub
from typing import Iterator, NamedTuple

from .demand import DemandCache, _check_price, _per_item_argmax
from .errors import BudgetExceededError, ConvexityError, WalrasError
from .instance import (DEFAULT_BUDGET, MULTI, UNIT, Bundle, Instance, ItemSet,
                       PriceVector, _Record, verify_mnat_exc)
from .itemsets import items_from_mask
from .lnat import StrategyKind, Trajectory, _corners, minimize
from .lyapunov import LyapunovOracle


class UnitAllocation(NamedTuple("UnitAllocation", [("assignment", tuple[int, ...])])):
    """Assignment of bidders to items; 0 means the bidder buys nothing."""

    __slots__ = ()

    def __new__(cls, assignment: tuple[int, ...]):
        taken = [a for a in assignment if a != 0]
        if len(taken) != len(set(taken)):
            raise ValueError("allocation assigns an item to two bidders")
        return super().__new__(cls, assignment)


class MultiAllocation(NamedTuple):
    """One bundle per bidder; a valid allocation sums exactly to the supply."""

    bundles: tuple[Bundle, ...]


Allocation = UnitAllocation | MultiAllocation


class AuctionResult(_Record):
    """A finished run: its final price and trajectory.

    ``allocation`` and ``allocation_error`` come from one extraction at
    ``p_min`` under the run's budget, made when either is first read and
    kept, so a caller that prints no allocation extracts none.  Extraction
    is best-effort: on budget exhaustion ``allocation`` is None and
    ``allocation_error`` says so.
    """

    __slots__ = ("p_min", "trajectory", "_instance", "_budget", "_extracted")
    _fields = __slots__[:4]

    def __init__(self, p_min: PriceVector, trajectory: Trajectory,
                 _instance: Instance, _budget: int):
        self._assign(p_min, trajectory, _instance, _budget, None)

    def _extract(self) -> tuple[Allocation | None, str | None]:
        if self._extracted is None:
            try:
                found = extract_allocation(self._instance, self.p_min, budget=self._budget), None
            except BudgetExceededError:
                found = None, "allocation search budget exceeded"
            object.__setattr__(self, "_extracted", found)
        return self._extracted

    @property
    def allocation(self) -> Allocation | None:
        return self._extract()[0]

    @property
    def allocation_error(self) -> str | None:
        return self._extract()[1]


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
    raises BudgetExceededError.  The result extracts its allocation, from
    demand state of its own, only when it is read.
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
                    f"x={bad.x} y={bad.y}")
        ly.admitted = True
    if p0 is None:
        p0 = (0,) * instance.n
    p0 = _check_price(instance, p0)
    g = ly.function_oracle()
    p_final, trajectory = minimize(g, p0, strategy, seed=seed, budget=budget,
                                   neighborhood=ly._change_table)
    # The ascent's stop only shows that no raise descends; from a start above
    # the minimal equilibrium price it stops above it, so certify from below.
    base = g.fn(p_final)
    for mask, val in _corners(g, p_final, base, -1):
        if val <= base:
            raise WalrasError(
                f"final price {list(p_final)} is not the minimal equilibrium price: "
                f"lowering items {sorted(items_from_mask(mask))} does not raise the "
                "Lyapunov value (the start must not exceed the minimal equilibrium price)")
    return AuctionResult(p_final, trajectory, instance, budget)


# --- allocation extraction -------------------------------------------------


def _augment(adj: list[list[int]], mate: list[int | None], required: list[bool],
             root: int) -> bool:
    """Cover the uncovered vertex ``root`` by an alternating path that keeps
    every required vertex the matching ``mate`` covers covered; False if
    there is none.

    The path ends at a free neighbour, or at a neighbour whose partner is
    not required, and that partner is dropped.  The search is depth-first
    with an explicit stack, one iterator per vertex of the root's side on
    the path, so the path's length is not bounded by Python's recursion
    limit.  ``path`` holds the neighbours the path has reached, each
    matched to the next vertex of the root's side on it."""
    seen = [False] * len(adj)
    todo, path = [iter(adj[root])], []
    while todo:
        for v in todo[-1]:
            if not seen[v]:
                break
        else:  # no unseen neighbour past the latest vertex: back up
            todo.pop()
            del path[-1:]
            continue
        seen[v] = True
        path.append(v)
        w = mate[v]
        if w is None or not required[w]:
            # Shift the matching along the path: each neighbour on it takes
            # the vertex before it, whose old partner moves on to the next.
            w = root
            for v in path:
                mate[v], mate[w], w = w, v, mate[v]
            if w is not None:
                mate[w] = None
            return True
        todo.append(iter(adj[w]))
    return False


def _extract_unit(instance: Instance, p: PriceVector, dc: DemandCache) -> UnitAllocation | None:
    n, m = instance.n, instance.m
    dmasks = dc.unit_masks(p)  # the unit model's bidders are all unit-demand, in order
    # Bidder b is vertex b and item i vertex m + i - 1.  A bidder must buy
    # when it cannot fall back to item 0, and a positively priced item must
    # be sold; one matching grown from each of them covers both sides
    # whenever each side can be covered alone (Mendelsohn and Dulmage, 1958).
    # The items are grown from first, then the bidders, each in ascending order.
    adj = [[m + i - 1 for i, bit in enumerate(bin(d)[:1:-1]) if i and bit == "1"]
           for d in dmasks] + [[] for _ in range(n)]
    for b in range(m):
        for v in adj[b]:
            adj[v].append(b)
    required = [not d & 1 for d in dmasks] + [c > 0 for c in p]
    mate: list[int | None] = [None] * (m + n)
    for root in [*range(m, m + n), *range(m)]:
        if required[root] and mate[root] is None and not _augment(adj, mate, required, root):
            return None
    return UnitAllocation(tuple(0 if v is None else v - m + 1 for v in mate[:m]))


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

    Unit model: one matching grown by alternating paths from its required
    vertices, every positively priced item and every bidder that cannot
    fall back to item 0; an unmatched bidder buys nothing.  Multi model:
    depth-first search over the product of demand sets with remaining-supply
    pruning.  Demand is read from a ``DemandCache`` of its own, shared with no
    run.  Budget exhaustion raises, distinct from a proven None.
    """
    p = _check_price(instance, p)
    dc = DemandCache(instance, budget=budget)
    if instance.model == UNIT:
        return _extract_unit(instance, p, dc)
    return _extract_multi(instance, p, dc, budget)


class DescentWitness(NamedTuple):
    """A unit price move (raise for direction +1, cut for -1) that lowers
    the Lyapunov value, disproving equilibrium at the tested price."""

    direction: int
    items: ItemSet


class EquilibriumVerdict(NamedTuple):
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
    g = LyapunovOracle(instance, budget=budget).function_oracle()
    base = g.fn(p)
    for direction in (+1, -1):
        for mask, val in _corners(g, p, base, direction):
            if val < base:
                return EquilibriumVerdict(False, None,
                                          DescentWitness(direction, items_from_mask(mask)))
    if instance.model == MULTI and instance.m == 0:
        return EquilibriumVerdict(False, None, None)
    raise ConvexityError(
        "price is locally optimal yet admits no allocation; "
        "valuations are outside the substitutes class")
