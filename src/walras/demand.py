"""Demand oracles for both auction models.

Multi-unit demand sets dispatch per valuation family: a separable bidder's
demand set is the product of its per-item argmax sets (and its minimum take
from an item set the sum of per-item least argmaxes), and explicit tables
(and unit-demand valuations under the multi model) scan the bundle box.  The
two routes agree on separable bidders, tuples, order and minimum takes
included; that is test-enforced.  The bundle box is built, and checked
against the budget, only when a scan first needs it; deficiency tables in
both models ((m + 1) * 2^n entries) are checked against the same budget.
A greedy single-improvement fast path exists as a test-gated optimization.
The unit model has its own oracle around the artificial no-purchase item 0
and never routes through the multi-model code.
"""

from __future__ import annotations

from itertools import product
from operator import sub

from .errors import BudgetExceededError
from .instance import (DEFAULT_BUDGET, MULTI, SEPARABLE_CONCAVE, UNIT,
                       UNIT_DEMAND, Bundle, Instance, ItemSet, PriceVector,
                       Valuation, box_volume, evaluate)
from .itemsets import mask_from_items, subset_sums


def _check_bidder(instance: Instance, b: int) -> None:
    if isinstance(b, bool) or not isinstance(b, int) or not 0 <= b < instance.m:
        raise IndexError(f"bidder index out of range: {b!r} (m={instance.m})")


def _check_price(instance: Instance, p) -> PriceVector:
    t = tuple(p)
    if len(t) != instance.n:
        raise ValueError(f"price vector must have {instance.n} components")
    for i, c in enumerate(t):
        if isinstance(c, bool) or not isinstance(c, int) or c < 0:
            raise ValueError(f"price p[{i}] must be a nonnegative integer")
    return t


class DemandCache:
    """Per-instance demand computations with memoization.

    Instances are immutable, so cached answers never go stale.  One cache may
    be shared freely by the Lyapunov oracle, the auction layer and sweeps.
    Box scans read each bundle's cost p.x from one list per price vector,
    shared by every bidder and kept for the latest price only.
    """

    def __init__(self, instance: Instance, *, budget: int = DEFAULT_BUDGET):
        self.instance = instance
        self.budget = budget
        self._n = instance.n
        self._bundles: tuple[Bundle, ...] | None = None
        self._values: dict[int, list[int]] = {}
        self._costs: tuple[PriceVector | None, list[int]] = (None, [])
        self._unit_masks: dict[tuple[int, PriceVector], int] = {}
        self._mu_vectors: tuple[PriceVector | None, dict[int, tuple[int, ...]]] = (None, {})
        self._demand_sets: dict[tuple[int, PriceVector], tuple[Bundle, ...]] = {}

    # -- shared ------------------------------------------------------------

    def _bundle_box(self) -> tuple[Bundle, ...]:
        """Every bundle in [0, u], built on the first box scan, within budget."""
        if self._bundles is None:
            volume = box_volume(self.instance.u)
            if volume > self.budget:
                raise BudgetExceededError(
                    f"bundle box volume {volume} exceeds budget {self.budget}")
            self._bundles = tuple(product(*(range(c + 1) for c in self.instance.u)))
        return self._bundles

    def _check_table_budget(self) -> None:
        """A deficiency table, and the minimum-take tables behind it in the
        multi model, hold one entry per item subset per bidder and one more
        for the table itself."""
        entries = (self.instance.m + 1) << self._n
        if entries > self.budget:
            raise BudgetExceededError(
                f"deficiency tables over {1 << self._n} item sets for "
                f"{self.instance.m} bidders need {entries} entries, "
                f"budget is {self.budget}")

    def _box_costs(self, p: PriceVector) -> list[int]:
        """``p.x`` for every bundle of the box, in box order; kept for the
        latest price only."""
        price, costs = self._costs
        if p != price:
            costs = [0]
            for c, cap in zip(p, self.instance.u):
                costs = [t + k * c for t in costs for k in range(cap + 1)]
            self._costs = (p, costs)
        return costs

    def _bidder_values(self, b: int) -> list[int]:
        vals = self._values.get(b)
        if vals is None:
            v = self.instance.valuations[b]
            vals = [evaluate(v, x) for x in self._bundle_box()]
            self._values[b] = vals
        return vals

    # -- unit model ----------------------------------------------------------

    def unit_demand_mask(self, b: int, p: PriceVector) -> int:
        """Demand set as a bitmask: bit 0 is the artificial item, bit i item i."""
        key = (b, p)
        mask = self._unit_masks.get(key)
        if mask is None:
            values = self.instance.valuations[b].values
            best = 0
            for w, c in zip(values, p):
                if w - c > best:
                    best = w - c
            mask = 1 if best == 0 else 0
            for i, (w, c) in enumerate(zip(values, p)):
                if w - c == best:
                    mask |= 1 << (i + 1)
            self._unit_masks[key] = mask
        return mask

    def unit_demand_set(self, b: int, p: PriceVector) -> frozenset[int]:
        mask = self.unit_demand_mask(b, p)
        out = set()
        i = 0
        while mask:
            if mask & 1:
                out.add(i)
            mask >>= 1
            i += 1
        return frozenset(out)

    def only_demanders_mask(self, items_mask: int, p: PriceVector) -> int:
        """Bitmask of bidders whose whole demand set lies inside the item set."""
        blocked = ~(items_mask << 1)
        out = 0
        for b in range(self.instance.m):
            if self.unit_demand_mask(b, p) & blocked == 0:
                out |= 1 << b
        return out

    def some_demanders_mask(self, items_mask: int, p: PriceVector) -> int:
        """Bitmask of bidders demanding at least one item of the item set."""
        probe = items_mask << 1
        out = 0
        for b in range(self.instance.m):
            if self.unit_demand_mask(b, p) & probe:
                out |= 1 << b
        return out

    def only_demanders_table(self, p: PriceVector) -> list[int]:
        """``only_demanders_mask`` for every item subset at once.

        Walks each bidder's supersets instead of re-testing all subsets;
        agrees with the per-set method (equality is test-enforced).
        """
        size = 1 << self._n
        full = size - 1
        out = [0] * size
        for b in range(self.instance.m):
            dm = self.unit_demand_mask(b, p)
            if dm & 1:
                continue  # the no-purchase option never lies inside an item set
            d = dm >> 1
            bit = 1 << b
            s = d
            while True:
                out[s] |= bit
                if s == full:
                    break
                s = (s + 1) | d
        return out

    def some_demanders_table(self, p: PriceVector) -> list[int]:
        """``some_demanders_mask`` for every item subset at once."""
        size = 1 << self._n
        full = size - 1
        miss = [0] * size
        base = 0
        for b in range(self.instance.m):
            d = self.unit_demand_mask(b, p) >> 1
            if d == 0:
                continue
            bit = 1 << b
            base |= bit
            w = full ^ d
            t = w
            while True:
                miss[t] |= bit
                if t == 0:
                    break
                t = (t - 1) & w
        return [base ^ miss[s] for s in range(size)]

    def deficiency_table(self, p: PriceVector) -> list[int]:
        """Deficiency of every item subset at once, indexed by subset bitmask."""
        inst = self.instance
        size = 1 << self._n
        self._check_table_budget()
        if inst.model == UNIT:
            only = self.only_demanders_table(p)
            return [only[s].bit_count() - s.bit_count() for s in range(size)]
        vectors = [self.mu_vector(b, p) for b in range(inst.m)]
        supply = subset_sums(inst.u, self._n)
        return [sum(vec[s] for vec in vectors) - supply[s] for s in range(size)]

    # -- multi model -----------------------------------------------------------

    def demand_set(self, b: int, p: PriceVector) -> tuple[Bundle, ...]:
        """All payoff-maximizing bundles, in lexicographic order.

        Separable bidders' demand sets are products of per-item argmax sets;
        every other family scans the bundle box.
        """
        key = (b, p)
        cached = self._demand_sets.get(key)
        if cached is None:
            v = self.instance.valuations[b]
            if v.family == SEPARABLE_CONCAVE:
                cached = tuple(product(*_per_item_argmax(v, p)))
            else:
                cached = self.demand_set_enum(b, p)
            self._demand_sets[key] = cached
        return cached

    def demand_set_enum(self, b: int, p: PriceVector) -> tuple[Bundle, ...]:
        """Payoff-maximizing bundles by full enumeration of the bundle box."""
        payoffs = list(map(sub, self._bidder_values(b), self._box_costs(p)))
        best = max(payoffs)
        return tuple(x for x, pay in zip(self._bundle_box(), payoffs) if pay == best)

    def mu_vector(self, b: int, p: PriceVector) -> tuple[int, ...]:
        """Minimum take from every item subset, indexed by subset bitmask.

        A separable bidder's demand set is a product over items, so its
        minimum take from X is the sum of each item's least argmax; that
        avoids building the product, which ties make exponentially large.
        Vectors are kept for the latest price only, so a descent holds one
        table's worth of them rather than one per step.
        """
        price, vectors = self._mu_vectors
        if p != price:
            self._check_table_budget()
            vectors = {}
            self._mu_vectors = (p, vectors)
        cached = vectors.get(b)
        if cached is None:
            v = self.instance.valuations[b]
            n = self._n
            if v.family == SEPARABLE_CONCAVE:
                least = tuple(ks[0] for ks in _per_item_argmax(v, p))
                cached = tuple(subset_sums(least, n))
            else:
                size = 1 << n
                mins = [None] * size
                for x in self.demand_set_enum(b, p):
                    sums = subset_sums(x, n)
                    for mask in range(size):
                        cur = mins[mask]
                        if cur is None or sums[mask] < cur:
                            mins[mask] = sums[mask]
                cached = tuple(mins)
            vectors[b] = cached
        return cached

    def indirect_utility(self, b: int, p: PriceVector) -> int:
        """Best payoff max(v(x) - p.x); per-family shortcut where one exists."""
        v = self.instance.valuations[b]
        if v.family == SEPARABLE_CONCAVE:
            total = 0
            for j, row in enumerate(v._prefix):
                c = p[j]
                total += max(w - k * c for k, w in enumerate(row))
            return total
        if v.family == UNIT_DEMAND:
            best = 0
            for w, c in zip(v.values, p):
                if w - c > best:
                    best = w - c
            return best
        return self.indirect_utility_enum(b, p)

    def indirect_utility_enum(self, b: int, p: PriceVector) -> int:
        """Best payoff by full enumeration of the bundle box (canonical path)."""
        return max(map(sub, self._bidder_values(b), self._box_costs(p)))

    # -- deficiency ------------------------------------------------------------

    def deficiency_mask(self, X_mask: int, p: PriceVector) -> int:
        """Demanded units from X minus supplied units, from demand primitives."""
        inst = self.instance
        if inst.model == UNIT:
            return self.only_demanders_mask(X_mask, p).bit_count() - X_mask.bit_count()
        demanded = sum(self.mu_vector(b, p)[X_mask] for b in range(inst.m))
        supply = 0
        mask = X_mask
        k = 0
        while mask:
            if mask & 1:
                supply += inst.u[k]
            mask >>= 1
            k += 1
        return demanded - supply


def _per_item_argmax(v: Valuation, p: PriceVector) -> list[list[int]]:
    """A separable valuation's payoff-maximizing unit counts per item, ascending."""
    out = []
    for row, c in zip(v._prefix, p):
        payoffs = [w - k * c for k, w in enumerate(row)]
        top = max(payoffs)
        out.append([k for k, pay in enumerate(payoffs) if pay == top])
    return out


# --- free-function oracle surface ----------------------------------------


def unit_demand_set(b: int, p: PriceVector, instance: Instance) -> frozenset[int]:
    """Payoff-maximizing items for a unit-demand bidder, 0 meaning "buy nothing"."""
    if instance.model != UNIT:
        raise ValueError("unit_demand_set requires model 'unit'")
    _check_bidder(instance, b)
    p = _check_price(instance, p)
    return DemandCache(instance).unit_demand_set(b, p)


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


def bidders_only_demanding(Y: ItemSet, p: PriceVector, instance: Instance) -> frozenset[int]:
    """Bidders whose demand set is contained in Y (item 0 never is, by convention)."""
    if instance.model != UNIT:
        raise ValueError("bidders_only_demanding requires model 'unit'")
    p = _check_price(instance, p)
    mask = mask_from_items(Y, instance.n)
    out = DemandCache(instance).only_demanders_mask(mask, p)
    return frozenset(b for b in range(instance.m) if out >> b & 1)


def bidders_demanding_some(Y: ItemSet, p: PriceVector, instance: Instance) -> frozenset[int]:
    """Bidders demanding at least one item of Y."""
    if instance.model != UNIT:
        raise ValueError("bidders_demanding_some requires model 'unit'")
    p = _check_price(instance, p)
    mask = mask_from_items(Y, instance.n)
    out = DemandCache(instance).some_demanders_mask(mask, p)
    return frozenset(b for b in range(instance.m) if out >> b & 1)


def greedy_demand_bundle(b: int, p: PriceVector, instance: Instance) -> Bundle:
    """One payoff-maximizing bundle by greedy unit increments.

    Correct for gross-substitutes valuations; the equality of its payoff with
    the enumeration maximum is enforced by tests, not assumed here.
    """
    if instance.model != MULTI:
        raise ValueError("greedy_demand_bundle requires model 'multi'")
    _check_bidder(instance, b)
    p = _check_price(instance, p)
    v = instance.valuations[b]
    u = instance.u
    x = [0] * instance.n
    worth = evaluate(v, tuple(x))
    while True:
        best_gain = 0
        best_j = None
        for j in range(instance.n):
            if x[j] < u[j]:
                x[j] += 1
                gain = evaluate(v, tuple(x)) - worth - p[j]
                x[j] -= 1
                if gain > best_gain:
                    best_gain = gain
                    best_j = j
        if best_j is None:
            return tuple(x)
        x[best_j] += 1
        worth += best_gain + p[best_j]
