"""Brute-force ground truth and the definitional twins of the fast paths.

Everything here exists to check the production paths, so it deliberately
shares neither search logic nor state with the auction layer (a function
given an instance builds any ``DemandCache`` or ``LyapunovOracle`` itself):

* exhaustive Lyapunov minimization and definitional equilibrium enumeration
  over a bounded price box, and the closed-form minimal price of a market
  of separable bidders (``separable_p_min``), which needs no box.  One
  clearing search defines equilibrium for both models; the unit model passes
  its options as bundles, option 0 the zero bundle and option i chi_i;
* the unit model's definitions from Andersson, Andersson and Talman (2013):
  demand sets with the no-purchase item 0, one bidder at a time
  (``unit_demand_mask``, the twin of ``DemandCache.unit_masks``), the
  bidders demanding only or some items of a set, and
  overdemanded and excess-demand sets, with their multi-unit counterparts
  from minimum takes;
* the Lyapunov value by its definition, a box scan per bidder through
  ``evaluate`` (``lyapunov_value``), the twin of the oracle's per-item
  reads and kept scans;
* set-by-set forms of what the descent reads as tables (``is_gp_minimal``,
  ``deficiency``, ``lyapunov_step``) and the equilibrium conditions checked
  against an allocation (``allocation_certifies``).

Each definition is written once, over masks.  Where a whole table is also
wanted (``excess_demand_table``, ``gp_minimal_table``), it applies the same
definition set by set, after reading the bidders' demand once.

The solver modules never import this one.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from operator import mul

from .auction import Allocation, MultiAllocation, UnitAllocation
from .demand import DemandCache, _check_price
from .errors import BudgetExceededError, ConvexityError
from .instance import (DEFAULT_BUDGET, MULTI, SEPARABLE_CONCAVE, UNIT, Bundle,
                       Instance, ItemSet, PriceVector, box_volume, evaluate,
                       iter_box, max_total_value)
from .itemsets import chi_add, mask_from_items, proper_submasks, subset_sums
from .lnat import FunctionOracle
from .lyapunov import LyapunovOracle

#: Price-box volume up to which the minimizer scan cross-checks itself
#: against definitional equilibrium enumeration.
CROSS_CHECK_VOLUME = 1000


def price_cap(instance: Instance) -> PriceVector:
    """Componentwise bound below which every Lyapunov minimizer lives.

    Equals the largest worth any bidder assigns to the full supply; beyond it
    the Lyapunov value is strictly increasing in every coordinate.
    """
    return (max_total_value(instance),) * instance.n


def _scan_box(instance: Instance) -> tuple[int, tuple[range, ...]]:
    cap = max_total_value(instance)
    volume = (cap + 1) ** instance.n
    return volume, tuple(range(cap + 1) for _ in range(instance.n))


def all_lyapunov_minimizers(instance: Instance, *,
                            budget: int = DEFAULT_BUDGET) -> frozenset[PriceVector]:
    """All global minimizers of the Lyapunov function, by exhaustive scan."""
    volume, ranges = _scan_box(instance)
    if volume > budget:
        raise BudgetExceededError(
            f"price box volume {volume} exceeds budget {budget}")
    ly = LyapunovOracle(instance, budget=budget)
    best = None
    arg: list[PriceVector] = []
    for p in product(*ranges):
        val = ly.value(p)
        if best is None or val < best:
            best = val
            arg = [p]
        elif val == best:
            arg.append(p)
    return frozenset(arg)


def brute_force_min_equilibrium(instance: Instance, *,
                                budget: int = DEFAULT_BUDGET) -> PriceVector:
    """The meet of all Lyapunov minimizers, checked by ``certified_meet``."""
    minimizers = all_lyapunov_minimizers(instance, budget=budget)
    return certified_meet(instance, minimizers, budget=budget)


def separable_p_min(instance: Instance) -> PriceVector:
    """The minimal equilibrium price of a market of separable bidders alone,
    in closed form, with no descent and no box.

    L(p) = sum_j (u_j * p_j + sum_w max(0, w - p_j)) over item j's marginals
    w of every bidder, so L is minimized item by item, and the least
    minimizer of item j's term is the least price c with at most u_j
    marginals above it: the (u_j + 1)-th largest of them, or 0 when there
    are at most u_j.  Any other bidder raises ValueError.
    """
    if any(v.family != SEPARABLE_CONCAVE for v in instance.valuations):
        raise ValueError("separable_p_min reads markets of separable bidders alone")
    out = []
    for j, q in enumerate(instance.u):
        col = sorted((w for v in instance.valuations for w in v.marginals[j]), reverse=True)
        out.append(col[q] if len(col) > q else 0)
    return tuple(out)


def certified_meet(instance: Instance, minimizers: frozenset[PriceVector], *,
                   budget: int = DEFAULT_BUDGET) -> PriceVector:
    """Componentwise meet of the Lyapunov minimizer set ``minimizers``.

    The meet must itself be a minimizer; if not, the valuations are outside
    the substitutes class.  On small price boxes the minimizer set is also
    compared against equilibrium prices enumerated from the allocation
    definitions (skipped for the degenerate bidderless multi model, whose
    positive supply can never clear exactly).
    """
    meet = tuple(map(min, zip(*minimizers)))
    if meet not in minimizers:
        raise ConvexityError("minimizer set not meet-closed")
    volume, _ = _scan_box(instance)
    if volume <= CROSS_CHECK_VOLUME:
        if instance.model == UNIT or instance.m > 0:
            exact = equilibrium_prices_by_enumeration(instance, budget=budget)
            if exact != minimizers:
                raise ConvexityError(
                    "equilibrium prices by definition differ from Lyapunov minimizers")
        if instance.model == MULTI:
            relaxed = equilibrium_prices_by_enumeration(instance, unsold=True,
                                                        budget=budget)
            if relaxed != minimizers:
                raise ConvexityError(
                    "unsold-items equilibrium prices differ from Lyapunov minimizers")
    return meet


def allocation_certifies(instance: Instance, p: PriceVector,
                         allocation: Allocation) -> bool:
    """Check an allocation against the equilibrium conditions at p."""
    p = _check_price(instance, p)
    if instance.model == UNIT:
        if not isinstance(allocation, UnitAllocation) or len(allocation.assignment) != instance.m:
            return False
        sold = set()
        for b, a in enumerate(allocation.assignment):
            mask = unit_demand_mask(b, p, instance)
            if not mask >> a & 1:
                return False
            if a != 0:
                sold.add(a)
        return all(p[i - 1] == 0 for i in range(1, instance.n + 1) if i not in sold)
    if not isinstance(allocation, MultiAllocation) or len(allocation.bundles) != instance.m:
        return False
    dc = DemandCache(instance)
    for b, x in enumerate(allocation.bundles):
        if x not in dc.demand_set(b, p):
            return False
    total = tuple(sum(x[j] for x in allocation.bundles) for j in range(instance.n))
    return total == instance.u


# --- definitional equilibrium enumeration ---------------------------------


def _clearing(instance: Instance, sets, p: PriceVector, charge, unsold: bool) -> bool:
    """Does some choice of one bundle per bidder, bidder b's from ``sets[b]``,
    clear the supply at p?  With ``unsold`` the total may fall short
    wherever the price is zero.  Depth-first over bidders with an explicit
    stack; ``charge`` is called once per node."""
    m, n, u = instance.m, instance.n, instance.u
    if m == 0:
        return unsold and all(c == 0 for c in p)
    maxs = [tuple(max(x[j] for x in ds) for j in range(n)) for ds in sets]
    suffix_max = [(0,) * n] * (m + 1)
    for k in range(m - 1, -1, -1):
        suffix_max[k] = tuple(maxs[k][j] + suffix_max[k + 1][j] for j in range(n))

    def closes(remaining: tuple[int, ...]) -> bool:
        if unsold:
            return all(r == 0 or p[j] == 0 for j, r in enumerate(remaining))
        return all(r == 0 for r in remaining)

    def rest_after(x: Bundle, remaining: tuple[int, ...], k: int) -> tuple[int, ...] | None:
        hi = suffix_max[k + 1]
        rest = []
        for j in range(n):
            r = remaining[j] - x[j]
            if r < 0 or (r > hi[j] and not (unsold and p[j] == 0)):
                return None
            rest.append(r)
        return tuple(rest)

    charge()
    # One frame per bidder: the supply still to clear and the next bundle.
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
        charge()
        if k + 1 < m:
            stack.append((rest, 0))
        elif closes(rest):
            return True
    return False


def equilibrium_prices_by_enumeration(instance: Instance, *, unsold: bool = False,
                                      budget: int = DEFAULT_BUDGET) -> frozenset[PriceVector]:
    """Equilibrium prices straight from the definition, scanning [0, price_cap]:
    the prices at which some choice of one demanded bundle per bidder clears
    the supply.

    For the multi model, ``unsold=False`` demands the bundles sum exactly to
    the supply, while ``unsold=True`` allows leftovers on zero-priced items
    only.  The unit model reads its demanded options as bundles, and its
    definition already lets zero-priced items go unsold, so it always
    clears with ``unsold=True``.
    """
    volume, ranges = _scan_box(instance)
    if volume > budget:
        raise BudgetExceededError(
            f"price box volume {volume} exceeds budget {budget}")
    m, n = instance.m, instance.n
    if instance.model == UNIT:
        # Option 0, buying nothing, is the zero bundle and option i is chi_i,
        # built only once some bidder demands it.
        @cache
        def chi(i: int) -> Bundle:
            return tuple(int(j == i - 1) for j in range(n))

        def demanded(p: PriceVector) -> list[list[Bundle]]:
            return [[chi(i) for i in sorted(_unit_options(instance, b, p))] for b in range(m)]
        unsold = True
    else:
        dc = DemandCache(instance, budget=budget)

        def demanded(p: PriceVector) -> list[tuple[Bundle, ...]]:
            return [dc.demand_set(b, p) for b in range(m)]
    spent = 0

    def charge():
        nonlocal spent
        spent += 1
        if spent > budget:
            raise BudgetExceededError(
                f"definitional enumeration exceeded budget {budget}")

    return frozenset(p for p in product(*ranges)
                     if _clearing(instance, demanded(p), p, charge, unsold))


# --- local minimality, set by set ------------------------------------------


def _locally_minimal(value, mask: int) -> bool:
    """Whether the set ``mask`` is locally minimal for the entries
    ``value(sub)``: its entry is finite and below the entry of every proper
    subset (None, outside the domain, is never below)."""
    target = value(mask)
    return target is not None and all(
        val is None or val > target for val in map(value, proper_submasks(mask)))


def is_gp_minimal(g: FunctionOracle, p: PriceVector, X: ItemSet) -> bool:
    """True iff every proper subset raise lands strictly above the raise by X.

    With Y = {} this forces a strict descent, so such sets are always valid
    choices for the loop's raise step.  The definitional twin of
    ``lnat.first_gp_minimal``, which the descent reads.
    """
    p = tuple(p)
    mask = mask_from_items(X, g.n)
    if mask == 0:
        raise ValueError("X must be nonempty")
    return _locally_minimal(lambda sub: g.fn(chi_add(p, sub)), mask)


def gp_minimal_table(vals: list[int | None]) -> list[bool]:
    """``is_gp_minimal`` for every mask of a neighborhood table, set by set.

    The whole-table twin of ``lnat.first_gp_minimal``, which stops at the
    first locally-minimal set of its seeded order: that rule's choice is
    the first flagged mask of the same order.  Each set is compared with
    every proper subset, 3^n comparisons in all, so the twin shares no
    least-over-subsets bookkeeping with the rule it checks.
    """
    return [mask > 0 and _locally_minimal(vals.__getitem__, mask)
            for mask in range(len(vals))]


# --- unit-model definitions (Andersson, Andersson and Talman, 2013) ---------


def _check_bidder(instance: Instance, b: int) -> None:
    if isinstance(b, bool) or not isinstance(b, int) or not 0 <= b < instance.m:
        raise IndexError(f"bidder index out of range: {b!r} (m={instance.m})")


def unit_demand_mask(b: int, p: PriceVector, instance: Instance) -> int:
    """A unit-demand bidder's demand set at a checked price p as a bitmask,
    bit 0 being the no-purchase item and bit i item i: the items of largest
    payoff, with item 0 (payoff 0) among them when that payoff is not
    positive.  The per-bidder twin of ``DemandCache.unit_masks``, which
    reads every unit-demand bidder's mask from the cache's kept scan."""
    payoffs = [0] + [w - c for w, c in zip(instance.valuations[b].values, p)]
    best = max(payoffs)
    return sum(1 << i for i, pay in enumerate(payoffs) if pay == best)


def _unit_options(instance: Instance, b: int, p: PriceVector) -> frozenset[int]:
    """A unit-demand bidder's demanded options, 0 meaning "buy nothing"."""
    mask = unit_demand_mask(b, p, instance)
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _demand_masks(instance: Instance, p: PriceVector) -> list[int]:
    """Every unit-demand bidder's demand set at p as a bitmask, bit 0 being
    the no-purchase item: the one read of demand the definitions below take."""
    return [unit_demand_mask(b, p, instance) for b in range(instance.m)]


def only_demanders_mask(masks: list[int], items_mask: int) -> int:
    """O(Y): bitmask of the bidders, given by their demand ``masks``, whose
    whole demand set lies inside the item set (item 0 never does)."""
    blocked = ~(items_mask << 1)
    return sum(1 << b for b, d in enumerate(masks) if not d & blocked)


def some_demanders_mask(masks: list[int], items_mask: int) -> int:
    """U(Y): bitmask of the bidders, given by their demand ``masks``, who
    demand at least one item of the item set."""
    probe = items_mask << 1
    return sum(1 << b for b, d in enumerate(masks) if d & probe)


def unit_demand_set(b: int, p: PriceVector, instance: Instance) -> frozenset[int]:
    """Payoff-maximizing items for a unit-demand bidder, 0 meaning "buy nothing"."""
    if instance.model != UNIT:
        raise ValueError("unit_demand_set requires model 'unit'")
    _check_bidder(instance, b)
    p = _check_price(instance, p)
    return _unit_options(instance, b, p)


def bidders_only_demanding(Y: ItemSet, p: PriceVector, instance: Instance) -> frozenset[int]:
    """Bidders whose demand set is contained in Y (item 0 never is, by convention)."""
    if instance.model != UNIT:
        raise ValueError("bidders_only_demanding requires model 'unit'")
    p = _check_price(instance, p)
    mask = mask_from_items(Y, instance.n)
    out = only_demanders_mask(_demand_masks(instance, p), mask)
    return frozenset(b for b in range(instance.m) if out >> b & 1)


def bidders_demanding_some(Y: ItemSet, p: PriceVector, instance: Instance) -> frozenset[int]:
    """Bidders demanding at least one item of Y."""
    if instance.model != UNIT:
        raise ValueError("bidders_demanding_some requires model 'unit'")
    p = _check_price(instance, p)
    mask = mask_from_items(Y, instance.n)
    out = some_demanders_mask(_demand_masks(instance, p), mask)
    return frozenset(b for b in range(instance.m) if out >> b & 1)


# --- multi-unit demand, one bidder at a time ---------------------------------


def demand_set(b: int, p: PriceVector, instance: Instance, *,
               budget: int = DEFAULT_BUDGET) -> frozenset[Bundle]:
    """All payoff-maximizing bundles of a multi-demand bidder."""
    if instance.model != MULTI:
        raise ValueError("demand_set requires model 'multi'")
    _check_bidder(instance, b)
    p = _check_price(instance, p)
    return frozenset(DemandCache(instance, budget=budget).demand_set(b, p))


def mu(b: int, X: ItemSet, p: PriceVector, instance: Instance, *,
       budget: int = DEFAULT_BUDGET) -> int:
    """Minimum number of units bidder b takes from item set X across its demand set."""
    if instance.model != MULTI:
        raise ValueError("mu requires model 'multi'")
    _check_bidder(instance, b)
    p = _check_price(instance, p)
    mask = mask_from_items(X, instance.n)
    return DemandCache(instance, budget=budget).mu_vector(b, p)[mask]


# --- overdemand and excess demand -------------------------------------------


def is_overdemanded(X: ItemSet, p: PriceVector, instance: Instance) -> bool:
    """True when the minimal aggregate demand from X exceeds its supply."""
    p = _check_price(instance, p)
    mask = mask_from_items(X, instance.n)
    return LyapunovOracle(instance).deficiency_mask(mask, p) > 0


def is_excess_demand(X: ItemSet, p: PriceVector, instance: Instance) -> bool:
    """True when every nonempty part Z of X is strictly overdemanded: in the
    unit model |U(Z) & O(X)| > |Z|, in the multi model the extra units the
    bidders must take from Z exceed Z's supply."""
    p = _check_price(instance, p)
    mask = mask_from_items(X, instance.n)
    if mask == 0:
        raise ValueError("X must be nonempty")
    return _excess_demand(instance, p, [mask])[0]


def excess_demand_table(instance: Instance, p: PriceVector) -> list[bool]:
    """``is_excess_demand`` for every item subset, indexed by bitmask, from
    one read of the bidders' demand; the acceptance sweep reads it at every
    price of its boxes.  Index 0 is False by convention (excess-demand sets
    are nonempty)."""
    p = _check_price(instance, p)
    return [False] + _excess_demand(instance, p, range(1, 1 << instance.n))


def _excess_demand(instance: Instance, p: PriceVector, xs) -> list[bool]:
    """Whether each item set X of ``xs``, nonempty bitmasks, is an
    excess-demand set at p: the test holds for every nonempty Z in X.

    Unit model: |U(Z) & O(X)| > |Z|, the bidders who demand only inside X
    and some item of Z outnumber Z.  Multi model: the extra units the
    bidders must take from Z, the sum over b of mu_b(X) - mu_b(X - Z),
    exceed Z's supply.  The bidders' demand is read once for all of ``xs``.
    """
    if instance.model == UNIT:
        masks = _demand_masks(instance, p)
        some = [some_demanders_mask(masks, z) for z in range(1 << instance.n)]
        out = []
        for x in xs:
            only = only_demanders_mask(masks, x)
            out.append(all((some[z] & only).bit_count() > z.bit_count()
                           for z in _nonempty_submasks(x)))
        return out
    dc = DemandCache(instance)
    vectors = [dc.mu_vector(b, p) for b in range(instance.m)]
    supply = subset_sums(instance.u, instance.n)
    return [all(sum(vec[x] - vec[x ^ z] for vec in vectors) > supply[z]
                for z in _nonempty_submasks(x)) for x in xs]


def _nonempty_submasks(mask: int):
    """Every nonempty submask of ``mask``, itself first."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


# --- Lyapunov values and deficiency, set by set ------------------------------


def lyapunov_value(p: PriceVector, instance: Instance, *, budget: int = DEFAULT_BUDGET) -> int:
    """Lyapunov value at p by the definition: each bidder's best payoff
    max_x (v(x) - p.x) over the bundle box, every worth read by
    ``evaluate``, plus the revenue at full supply.  It is the twin of
    ``LyapunovOracle.value``'s per-item reads and kept scans and shares
    none of them.  A market with bidders is bounded by the bundle-box
    budget like every box scan."""
    p = _check_price(instance, p)
    revenue = sum(map(mul, p, instance.u))
    if not instance.valuations:
        return revenue
    volume = box_volume(instance.u)
    if volume > budget:
        raise BudgetExceededError(f"bundle box volume {volume} exceeds budget {budget}")
    box = list(iter_box(instance.u))
    costs = [sum(map(mul, p, x)) for x in box]
    return revenue + sum(max(evaluate(v, x) - c for x, c in zip(box, costs))
                         for v in instance.valuations)


def lyapunov_step(X: ItemSet, p: PriceVector, instance: Instance, *,
                  budget: int = DEFAULT_BUDGET) -> int:
    """lyapunov_value(p + chi_X) - lyapunov_value(p); equals -deficiency(X, p)
    for valid inputs."""
    mask = mask_from_items(X, instance.n)
    p = tuple(p)
    return (lyapunov_value(chi_add(p, mask), instance, budget=budget)
            - lyapunov_value(p, instance, budget=budget))


def deficiency(X: ItemSet, p: PriceVector, instance: Instance, *,
               budget: int = DEFAULT_BUDGET) -> int:
    """Deficiency of X at p, from demand primitives (never from Lyapunov values)."""
    mask = mask_from_items(X, instance.n)
    return LyapunovOracle(instance, budget=budget).deficiency_mask(
        mask, _check_price(instance, p))
