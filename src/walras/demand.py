"""Demand oracles, one path for both auction models.

A bidder's demand set and its minimum take from each item set dispatch on
its valuation family, not on the model: a separable bidder's demand set is
the product of its per-item argmax sets and its minimum take the sum of
per-item least argmaxes; a unit-demand bidder demands single items, read as
a bitmask with the artificial no-purchase item 0 at bit 0; explicit tables
scan the bundle box.  The deficiency table, demanded minus supplied units
for every item set, adds each bidder's minimum take to minus the supply
family by family; the unit model is the case where every bidder is
unit-demand and the supply is one of each item.  The bundle box is built,
and checked against the budget, only when a scan first needs it; deficiency
tables ((m + 1) * 2^n entries) are checked against the same budget.
"""

from __future__ import annotations

from itertools import product
from operator import add, sub

from .errors import BudgetExceededError
from .instance import (DEFAULT_BUDGET, EXPLICIT_TABLE, SEPARABLE_CONCAVE,
                       UNIT_DEMAND, Bundle, Instance, PriceVector, Valuation,
                       _box_worths, box_volume, iter_box)
from .itemsets import subset_sums


def _check_price(instance: Instance, p) -> PriceVector:
    t = tuple(p)
    if len(t) != instance.n:
        raise ValueError(f"price vector must have {instance.n} components")
    for i, c in enumerate(t):
        if isinstance(c, bool) or not isinstance(c, int) or c < 0:
            raise ValueError(f"price p[{i}] must be a nonnegative integer")
    return t


class DemandCache:
    """Per-instance demand computations.

    Instances are immutable, so kept answers never go stale.  One cache may
    be shared freely by the Lyapunov oracle, the auction layer and sweeps.
    It keeps the bundle box and each box-scanned bidder's worth of every
    bundle; the only per-price state is the box scans' bundle costs p.x,
    kept for the latest price only, which every scan at that price re-reads.
    Unit-demand masks, demand sets and minimum-take vectors are computed
    afresh at each call.
    """

    def __init__(self, instance: Instance, *, budget: int = DEFAULT_BUDGET):
        self.instance = instance
        self.budget = budget
        self._n = instance.n
        self._bundles: tuple[Bundle, ...] | None = None
        self._values: dict[int, list[int]] = {}
        self._costs: tuple[PriceVector | None, list[int]] = (None, [])

    # -- shared ------------------------------------------------------------

    def _bundle_box(self) -> tuple[Bundle, ...]:
        """Every bundle in [0, u], built on the first box scan, within budget."""
        if self._bundles is None:
            volume = box_volume(self.instance.u)
            if volume > self.budget:
                raise BudgetExceededError(
                    f"bundle box volume {volume} exceeds budget {self.budget}")
            self._bundles = tuple(iter_box(self.instance.u))
        return self._bundles

    def _check_table_budget(self) -> None:
        """A deficiency table, and the minimum-take tables behind it, hold
        one entry per item subset per bidder and one more for the table
        itself."""
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
        """Bidder b's worth of every bundle in box order, after the box's budget check."""
        vals = self._values.get(b)
        if vals is None:
            self._bundle_box()
            vals = _box_worths(self.instance.valuations[b], self.instance.u)
            self._values[b] = vals
        return vals

    # -- demand sets -----------------------------------------------------------

    def unit_demand_mask(self, b: int, p: PriceVector) -> int:
        """A unit-demand bidder's demand set as a bitmask: bit 0 is the
        artificial no-purchase item, bit i item i."""
        payoffs = list(map(sub, self.instance.valuations[b].values, p))
        best = max(payoffs)
        if best < 0:
            return 1
        mask = 1 if best == 0 else 0
        i = -1
        for _ in range(payoffs.count(best)):
            i = payoffs.index(best, i + 1)
            mask |= 2 << i
        return mask

    def demand_set(self, b: int, p: PriceVector) -> tuple[Bundle, ...]:
        """All payoff-maximizing bundles, in lexicographic order.

        Separable bidders' demand sets are products of per-item argmax sets;
        every other family scans the bundle box.
        """
        v = self.instance.valuations[b]
        if v.family == SEPARABLE_CONCAVE:
            return tuple(product(*_per_item_argmax(v, p)))
        return self.demand_set_enum(b, p)

    def demand_set_enum(self, b: int, p: PriceVector) -> tuple[Bundle, ...]:
        """Payoff-maximizing bundles by full enumeration of the bundle box."""
        payoffs = list(map(sub, self._bidder_values(b), self._box_costs(p)))
        best = max(payoffs)
        return tuple(x for x, pay in zip(self._bundle_box(), payoffs) if pay == best)

    # -- minimum takes -----------------------------------------------------------

    def mu_vector(self, b: int, p: PriceVector) -> tuple[int, ...]:
        """Minimum take from every item subset, indexed by subset bitmask.

        A separable bidder's demand set is a product over items, so its
        minimum take from X is the sum of each item's least argmax; that
        avoids building the product, which ties make exponentially large.
        Every other family takes the least subset sum over its box scan.
        """
        self._check_table_budget()
        v = self.instance.valuations[b]
        n = self._n
        if v.family == SEPARABLE_CONCAVE:
            least = tuple(ks[0] for ks in _per_item_argmax(v, p))
            return tuple(subset_sums(least, n))
        size = 1 << n
        mins = [None] * size
        for x in self.demand_set_enum(b, p):
            sums = subset_sums(x, n)
            for mask in range(size):
                cur = mins[mask]
                if cur is None or sums[mask] < cur:
                    mins[mask] = sums[mask]
        return tuple(mins)

    def deficiency_table(self, p: PriceVector) -> list[int]:
        """Demanded minus supplied units of every item subset, indexed by
        subset bitmask.

        Starts from minus the supply and adds each bidder's minimum take by
        family.  A separable bidder's is modular, so its per-item least
        argmaxes join the supply in one subset-sum pass, and so does a
        unit-demand bidder demanding exactly one item i, which takes one
        unit from every set holding i.  A unit-demand bidder tied between
        several items takes one unit from every superset of them, and none
        when buying nothing is demanded.  A table bidder adds its
        ``mu_vector``.  ``LyapunovOracle.deficiency_mask`` is the per-set
        twin; equality is test-enforced.
        """
        self._check_table_budget()
        inst = self.instance
        takes = [-c for c in inst.u]
        tied = []
        for b, v in enumerate(inst.valuations):
            if v.family == SEPARABLE_CONCAVE:
                for j, ks in enumerate(_per_item_argmax(v, p)):
                    takes[j] += ks[0]
            elif v.family == UNIT_DEMAND:
                dm = self.unit_demand_mask(b, p)
                if dm & 1:
                    continue
                d = dm >> 1
                if d & (d - 1):
                    tied.append(d)
                else:
                    takes[d.bit_length() - 1] += 1
        out = subset_sums(takes, self._n)
        full = len(out) - 1
        for d in tied:
            s = d
            while True:  # every superset of d, in increasing order
                out[s] += 1
                if s == full:
                    break
                s = (s + 1) | d
        for b, v in enumerate(inst.valuations):
            if v.family == EXPLICIT_TABLE:
                out = list(map(add, out, self.mu_vector(b, p)))
        return out

    # -- indirect utility --------------------------------------------------------

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


def _per_item_argmax(v: Valuation, p: PriceVector) -> list[list[int]]:
    """A separable valuation's payoff-maximizing unit counts per item, ascending."""
    out = []
    for row, c in zip(v._prefix, p):
        payoffs = [w - k * c for k, w in enumerate(row)]
        top = max(payoffs)
        out.append([k for k, pay in enumerate(payoffs) if pay == top])
    return out
