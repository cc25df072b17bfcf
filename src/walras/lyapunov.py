"""The Lyapunov function of a market, one oracle for both auction models.

The Lyapunov value of a price vector is the bidders' total indirect utility
plus the revenue term, L(p) = sum_b max_x (v_b(x) - p.x) + p.u; its
minimizers are exactly the equilibrium prices.  The unit model is the case
where every bidder is unit-demand and u = 1, so one formula serves both
models: the oracle reads the bidders by the groups ``DemandCache`` sorted
them into and tests no model or family itself.  Separable bidders are read
per item, not per bidder: their total indirect utility is a sum over items
of one-variable functions of the item's price, each read from the item's
sorted column of marginals (``DemandCache.item_utility``); every other
bidder is read on its own.
The descent reads its one-step changes from the demand side, minus the
deficiency of every item set at once (``LyapunovOracle.neighborhood``), and
Lyapunov values certify each chosen step and the final stop.  That table
depends on the price only through the bidders' demand state, which an
ascending run keeps returning to, so the oracle builds it once per
``DemandCache.demand_key`` and keeps it.  Deficiencies come from minimum
takes, never from Lyapunov values, so the identity
``L(p + chi_X) - L(p) == -deficiency_mask(X, p)`` cross-validates the two
routes instead of holding by construction.  The two certificate scans, of
L(p + chi_X) at the stop and of L(p - chi_X) for minimality, read
``LyapunovOracle.shifted_values``: every item set's value in a few
whole-list passes built from each bidder's indirect utility, so they still
check the change table against values.
"""

from __future__ import annotations

from operator import add, mul, neg, sub

from .demand import DemandCache, _check_price
from .instance import DEFAULT_BUDGET, Instance, PriceVector
from .itemsets import mask_weight, subset_sums
from .lnat import FunctionOracle


class LyapunovOracle:
    """Lyapunov function of one instance, for both auction models.

    ``value`` reads the bidders by the groups ``DemandCache`` sorted them
    into, so one formula serves the unit model (every bidder unit-demand,
    one of each item) and the multi model, and keeps no value once read.
    ``admitted_budget`` is the budget within which ``ascending_auction``
    found every explicit table to pass the exchange check, None until then.
    ``shifted_values`` keeps its latest table for each shift, which
    ``compare``'s strategies, stopping at the same price, read again.
    ``neighborhood`` keeps its change tables by demand key, at most
    ``budget`` entries in all (2^n per table), cleared when full; runs
    sharing the oracle share them.
    """

    def __init__(self, instance: Instance, *, demand: DemandCache | None = None,
                 budget: int = DEFAULT_BUDGET):
        self.instance = instance
        self.demand = demand if demand is not None else DemandCache(instance, budget=budget)
        self.budget = budget
        self._shifted: dict[int, tuple[PriceVector, tuple[int | None, ...]]] = {}
        self._tables: dict[tuple, tuple[int, ...]] = {}
        self.admitted_budget: int | None = None

    def value(self, p: PriceVector) -> int:
        """L(p): the revenue term p.u, then the separable bidders per item,
        each unit-demand bidder's best payoff (0 for buying nothing), and
        each box-scanned bidder's indirect utility."""
        t = _check_price(self.instance, p)
        dc = self.demand
        total = sum(map(mul, t, self.instance.u))
        if dc.separable:
            total += sum(map(dc.item_utility, range(len(t)), t))
        valuations = self.instance.valuations
        for b in dc.units:
            best = 0
            for w, c in zip(valuations[b].values, t):
                if w - c > best:
                    best = w - c
            total += best
        for b in dc.tables:
            total += dc.indirect_utility(b, t)
        return total

    def deficiency_mask(self, X_mask: int, p: PriceVector) -> int:
        """Demanded units from X minus supply of X, bidder by bidder from
        minimum takes; the per-set twin of ``neighborhood``."""
        p = tuple(p)
        dc = self.demand
        demanded = sum(dc.mu_vector(b, p)[X_mask] for b in range(self.instance.m))
        return demanded - mask_weight(X_mask, self.instance.u)

    def shifted_values(self, p: PriceVector, s: int) -> list[int | None]:
        """``L(p + s * chi_X)`` for every item subset X, indexed by bitmask,
        None where a price would go negative; the batch twin of ``value``.

        Built from indirect utilities in whole-list passes: the revenue term
        and the separable bidders, read together per item through
        ``DemandCache.item_utility``, change item by item, so their per-item
        differences go through one subset-sum pass; a unit-demand bidder's
        best payoff is a running max over items, doubled one item at a time;
        a table bidder is read per point through
        ``DemandCache.indirect_utility``.
        """
        t = _check_price(self.instance, p)
        kept = self._shifted.get(s)
        if kept is not None and kept[0] == t:
            return list(kept[1])
        inst = self.instance
        dc = self.demand
        blocked = 0
        for k, c in enumerate(t):
            if c + s < 0:
                blocked |= 1 << k
        base = sum(c * q for c, q in zip(t, inst.u))
        steps = [s * q for q in inst.u]
        for j, c in enumerate(t):
            here = dc.item_utility(j, c)
            base += here
            if not blocked >> j & 1:
                steps[j] += dc.item_utility(j, c + s) - here
        total = [x + base for x in subset_sums(steps, inst.n)]
        for b in dc.units:
            best = [0]
            for a in map(sub, inst.valuations[b].values, t):
                moved = a - s
                best = ([x if x > a else a for x in best]
                        + [x if x > moved else moved for x in best])
            total = list(map(add, total, best))
        if blocked:
            total = [None if mask & blocked else x for mask, x in enumerate(total)]
        if dc.tables:
            for mask, x in enumerate(total):
                if x is not None:
                    q = tuple(c + s * (mask >> k & 1) for k, c in enumerate(t))
                    total[mask] = x + sum(dc.indirect_utility(b, q) for b in dc.tables)
        self._shifted[s] = (t, tuple(total))
        return total

    def neighborhood(self, p: PriceVector) -> tuple[int, ...]:
        """``L(p + chi_X) - L(p)`` for every item subset X, indexed by bitmask.

        Read as ``-deficiency(X, p)`` from one deficiency table, with no
        Lyapunov evaluation; ``minimize`` hands it to the selection rule as
        it is and checks only the chosen step and the stop against values.
        The table is built once per demand key and kept, and handed out
        as the kept tuple itself.
        """
        dc = self.demand
        key = dc.demand_key(_check_price(self.instance, p))
        tables = self._tables
        table = tables.get(key)
        if table is None:
            table = tuple(map(neg, dc.deficiency_from_key(key)))
            room = self.budget >> self.instance.n  # tables of 2^n entries
            if room:
                if len(tables) >= room:
                    tables.clear()
                tables[key] = table
        return table

    def function_oracle(self) -> FunctionOracle:
        """Adapter for the generic lattice-minimization engine.

        Defined on every nonnegative price vector, so it declares no box;
        queries with a negative price read as +infinity.  Zero is a valid
        floor since the value dominates p.u >= 0.  Its ``scan`` is
        ``shifted_values`` with s = 1.
        """
        def fn(q: PriceVector) -> int | None:
            if any(c < 0 for c in q):
                return None
            return self.value(q)

        return FunctionOracle(n=self.instance.n, fn=fn, value_floor=0,
                              scan=lambda q: self.shifted_values(q, 1))
