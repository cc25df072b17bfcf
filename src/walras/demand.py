"""Demand oracles, one path for both auction models.

``DemandCache.__init__`` is the one place a valuation family decides how a
bidder is read: it sorts the bidders, once, into a separable group, a
unit-demand group and a box-scanned group, and every other reader, here,
in the Lyapunov oracle and in the auction layer, branches on those groups.
A separable bidder's demand set is the product of its per-item argmax sets
and its minimum take the sum of per-item least argmaxes; a unit-demand
bidder demands single items, read as a bitmask with the artificial
no-purchase item 0 at bit 0; a box-scanned (table) bidder scans the bundle
box.  The deficiency table, demanded minus supplied units for every item
set, adds each bidder's minimum take to minus the supply group by group;
the unit model is the case where every bidder is unit-demand and the
supply is one of each item.  The table depends on the price only through
the bidders' demand state, so it is built in two parts:
``DemandCache.demand_key`` reads that state as a hashable key, and
``DemandCache.deficiency_from_key`` builds the table from the key alone,
which lets a caller keep one table per state.

Separable bidders are read per item, not per bidder: item j's total least
take and total indirect utility over all of them depend only on the
multiset of their marginals for j (the count of marginals above the price,
and the sum of each marginal's excess over it), so the cache sorts that
multiset once into one column per item and reads both with one bisection.
``indirect_utility`` is the definition, a bidder's best payoff over its
bundle box whatever its family, and ``oracle.lyapunov`` reads every bidder
through it.  The bundle box is built, and checked against the budget, only
when a scan first needs it; deficiency tables ((m + 1) * 2^n entries) are
checked against the same budget.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, product
from operator import add, sub

from .errors import BudgetExceededError
from .instance import (DEFAULT_BUDGET, SEPARABLE_CONCAVE, UNIT_DEMAND, Bundle,
                       Instance, PriceVector, Valuation, _box_worths,
                       box_volume, iter_box)
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

    Instances are immutable, so kept answers never go stale.  Each Lyapunov
    oracle owns one, and every other reader builds its own.
    ``__init__`` alone reads the bidders' valuation families, once: it
    records the groups ``separable`` (a frozenset, for constant-time
    membership), ``units`` and ``tables`` (indices in order), which every
    other read branches on, and puts every separable bidder's marginals of
    each item into one ascending column per item, with its suffix sums,
    which ``demand_key`` and ``item_utility`` read per item.  It keeps the
    bundle box and each box-scanned bidder's worth of every bundle; the
    only per-price state is the box scans' bundle costs p.x, kept for the
    latest price only, which every scan at that price re-reads.
    Unit-demand masks, demand sets, minimum-take vectors and demand keys are
    computed afresh at each call; keeping deficiency tables by demand key is
    left to the caller (``LyapunovOracle.neighborhood`` does).
    """

    def __init__(self, instance: Instance, *, budget: int = DEFAULT_BUDGET):
        self.instance = instance
        self.budget = budget
        self._n = instance.n
        self._bundles: tuple[Bundle, ...] | None = None
        self._values: dict[int, list[int]] = {}
        self._costs: tuple[PriceVector | None, list[int]] = (None, [])
        columns = [[] for _ in range(self._n)]
        separable, units, tables = [], [], []
        for b, v in enumerate(instance.valuations):
            if v.family == SEPARABLE_CONCAVE:
                separable.append(b)
                for col, row in zip(columns, v.marginals):
                    col.extend(row)
            elif v.family == UNIT_DEMAND:
                units.append(b)
            else:
                tables.append(b)
        self._columns = tuple(tuple(sorted(col)) for col in columns)
        self._tails = tuple(tuple(accumulate(reversed(col), initial=0))[::-1]
                            for col in self._columns)
        self.separable = frozenset(separable)
        self.units = tuple(units)
        self.tables = tuple(tables)

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
            vals = _box_worths(self.instance.valuations[b])
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

        A separable bidder's demand set is the product of its per-item
        argmax sets, never limited by the box budget; every other bidder's
        is a scan of the bundle box.
        """
        if b in self.separable:
            return tuple(product(*_per_item_argmax(self.instance.valuations[b], p)))
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
        Every other bidder takes the least subset sum over its box scan.
        """
        self._check_table_budget()
        if b in self.separable:
            least = tuple(ks[0] for ks in _per_item_argmax(self.instance.valuations[b], p))
            return tuple(subset_sums(least, self._n))
        return tuple(_least_takes(self.demand_set_enum(b, p), self._n))

    def demand_key(self, p: PriceVector) -> tuple:
        """The bidders' demand state at p, which alone determines the
        deficiency table: ``(takes, tied, tables)``.

        ``takes`` holds the modular per-item takes: minus the supply, plus
        the separable bidders' least argmaxes, read per item as the number
        of the item's marginals above its price, plus one unit of item i for
        each unit-demand bidder demanding exactly i.  ``tied`` holds the
        sorted item masks of the unit-demand bidders tied between several
        items; one for whom buying nothing is demanded takes nothing.
        ``tables`` holds each table bidder's demand set.  Equal keys give
        equal tables, so a caller may keep tables by key; the table budget
        is checked here, on every call.
        """
        self._check_table_budget()
        u = self.instance.u
        if self.separable:
            takes = [len(col) - bisect_right(col, c) - q
                     for col, c, q in zip(self._columns, p, u)]
        else:
            takes = [-q for q in u]
        tied = []
        for b in self.units:
            dm = self.unit_demand_mask(b, p)
            if dm & 1:
                continue
            d = dm >> 1
            if d & (d - 1):
                tied.append(d)
            else:
                takes[d.bit_length() - 1] += 1
        tables = tuple(self.demand_set_enum(b, p) for b in self.tables)
        return tuple(takes), tuple(sorted(tied)), tables

    def deficiency_from_key(self, key: tuple) -> list[int]:
        """Demanded minus supplied units of every item subset, indexed by
        subset bitmask, built from a ``demand_key``.

        The modular takes go through one subset-sum pass: a separable
        bidder's minimum take is the sum of its per-item least argmaxes, and
        a unit-demand bidder demanding exactly item i takes one unit from
        every set holding i.  A tied unit-demand bidder takes one unit from
        every superset of its items, and a table bidder its least subset sum
        over its demand set.
        """
        takes, tied, tables = key
        n = self._n
        out = subset_sums(takes, n)
        full = len(out) - 1
        for d in tied:
            s = d
            while True:  # every superset of d, in increasing order
                out[s] += 1
                if s == full:
                    break
                s = (s + 1) | d
        for demand in tables:
            out = list(map(add, out, _least_takes(demand, n)))
        return out

    # -- indirect utility --------------------------------------------------------

    def item_utility(self, j: int, c: int) -> int:
        """The separable bidders' total best payoff from item j at price c:
        the sum of max(0, w - c) over every separable marginal w of item j,
        read from the item's sorted column and its suffix sums."""
        col = self._columns[j]
        i = bisect_right(col, c)
        return self._tails[j][i] - c * (len(col) - i)

    def indirect_utility(self, b: int, p: PriceVector) -> int:
        """Best payoff max_x (v(x) - p.x) by a scan of the bundle box, for a
        bidder of any family: the Lyapunov oracle reads table bidders so, and
        ``oracle.lyapunov`` every bidder."""
        return max(map(sub, self._bidder_values(b), self._box_costs(p)))


def _least_takes(demand: tuple[Bundle, ...], n: int) -> list[int]:
    """Least subset sum over the bundles of a demand set, for every item
    subset, indexed by subset bitmask."""
    mins = None
    for x in demand:
        sums = subset_sums(x, n)
        mins = sums if mins is None else list(map(min, mins, sums))
    return mins


def _per_item_argmax(v: Valuation, p: PriceVector) -> list[list[int]]:
    """A separable valuation's payoff-maximizing unit counts per item, ascending."""
    out = []
    for row, c in zip(v._prefix, p):
        payoffs = [w - k * c for k, w in enumerate(row)]
        top = max(payoffs)
        out.append([k for k, pay in enumerate(payoffs) if pay == top])
    return out
