"""The Lyapunov function of a market, one oracle for both auction models.

The Lyapunov value of a price vector is the bidders' total indirect utility
plus the revenue term; its minimizers are exactly the equilibrium prices.
The descent reads its one-step changes from the demand side, minus the
deficiency of every item set at once (``LyapunovOracle.neighborhood``), and
Lyapunov values certify each chosen step and the final stop.  Deficiencies
come from minimum takes, never from Lyapunov values, so the identity
``L(p + chi_X) - L(p) == -deficiency_mask(X, p)`` cross-validates the two
routes instead of holding by construction.  The two certificate scans, of
L(p + chi_X) at the stop and of L(p - chi_X) for minimality, read
``LyapunovOracle.shifted_values``: every item set's value in a few
whole-list passes built from each bidder's indirect utility, so they still
check the change table against values.
"""

from __future__ import annotations

from operator import add, sub

from .demand import DemandCache, _check_price
from .instance import (DEFAULT_BUDGET, SEPARABLE_CONCAVE, UNIT, UNIT_DEMAND,
                       Instance, PriceVector)
from .itemsets import mask_weight, subset_sums
from .lnat import FunctionOracle


class LyapunovOracle:
    """Memoized Lyapunov function of one instance.

    The memo is keyed by exact price vector; values never change across
    calls.  It holds at most ``budget`` entries: an insert that finds it
    full clears it first, so memory stays bounded and only repeat reads
    pay again.  Reads and inserts are safe under CPython's GIL.
    ``admitted_budget`` is the budget within which ``ascending_auction``
    found every explicit table to pass the exchange check, None until then.
    ``shifted_values`` keeps its latest table for each shift, which
    ``compare``'s strategies, stopping at the same price, read again.
    """

    def __init__(self, instance: Instance, *, demand: DemandCache | None = None,
                 budget: int = DEFAULT_BUDGET):
        self.instance = instance
        self.demand = demand if demand is not None else DemandCache(instance, budget=budget)
        self.budget = budget
        self._memo: dict[PriceVector, int] = {}
        self._shifted: dict[int, tuple[PriceVector, tuple[int | None, ...]]] = {}
        self.admitted_budget: int | None = None

    def value(self, p: PriceVector) -> int:
        t = tuple(p)
        hit = self._memo.get(t)
        if hit is not None:
            return hit
        t = _check_price(self.instance, t)
        inst = self.instance
        if inst.model == UNIT:
            total = sum(t)
            for v in inst.valuations:
                best = 0
                for w, c in zip(v.values, t):
                    if w - c > best:
                        best = w - c
                total += best
        else:
            dc = self.demand
            total = sum(c * q for c, q in zip(t, inst.u))
            for b in range(inst.m):
                total += dc.indirect_utility(b, t)
        memo = self._memo
        if len(memo) >= self.budget:
            memo.clear()
        memo[t] = total
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

        Built from each bidder's own indirect utility in whole-list passes:
        the revenue term and every separable bidder change item by item, so
        their per-item differences go through one subset-sum pass; a
        unit-demand bidder's best payoff is a running max over items,
        doubled one item at a time; a table bidder is read per point
        through ``DemandCache.indirect_utility``.
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
        units = []
        tables = []
        for b, v in enumerate(inst.valuations):
            if v.family == SEPARABLE_CONCAVE:
                for j, row in enumerate(v._prefix):
                    c = t[j]
                    here = max(w - k * c for k, w in enumerate(row))
                    base += here
                    if not blocked >> j & 1:
                        c += s
                        steps[j] += max(w - k * c for k, w in enumerate(row)) - here
            elif v.family == UNIT_DEMAND:
                units.append(v.values)
            else:
                tables.append(b)
        total = [x + base for x in subset_sums(steps, inst.n)]
        for values in units:
            best = [0]
            for a in map(sub, values, t):
                moved = a - s
                best = ([x if x > a else a for x in best]
                        + [x if x > moved else moved for x in best])
            total = list(map(add, total, best))
        if blocked:
            total = [None if mask & blocked else x for mask, x in enumerate(total)]
        if tables:
            for mask, x in enumerate(total):
                if x is not None:
                    q = tuple(c + s * (mask >> k & 1) for k, c in enumerate(t))
                    total[mask] = x + sum(dc.indirect_utility(b, q) for b in tables)
        self._shifted[s] = (t, tuple(total))
        return total

    def neighborhood(self, p: PriceVector) -> list[int]:
        """``L(p + chi_X) - L(p)`` for every item subset X, indexed by bitmask.

        Read as ``-deficiency(X, p)`` from one deficiency table, with no
        Lyapunov evaluation; ``minimize`` hands it to the selection rule as
        it is and checks only the chosen step and the stop against values.
        """
        return [-d for d in self.demand.deficiency_table(_check_price(self.instance, p))]

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
