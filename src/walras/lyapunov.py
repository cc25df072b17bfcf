"""The Lyapunov function of a market, one oracle for both auction models.

The Lyapunov value of a price vector is the bidders' total indirect utility
plus the revenue term; its minimizers are exactly the equilibrium prices.
The descent reads its one-step changes from the demand side, minus the
deficiency of every item set at once (``LyapunovOracle.neighborhood``), and
Lyapunov values certify each chosen step and the final stop.  Deficiencies
come from minimum takes, never from Lyapunov values, so the identity
``L(p + chi_X) - L(p) == -deficiency_mask(X, p)`` cross-validates the two
routes instead of holding by construction.
"""

from __future__ import annotations

from .demand import DemandCache, _check_price
from .instance import DEFAULT_BUDGET, UNIT, Instance, PriceVector
from .itemsets import mask_weight
from .lnat import FunctionOracle


class LyapunovOracle:
    """Memoized Lyapunov function of one instance.

    The memo is keyed by exact price vector; values never change across
    calls.  It holds at most ``budget`` entries: an insert that finds it
    full clears it first, so memory stays bounded and only repeat reads
    pay again.  Reads and inserts are safe under CPython's GIL.
    ``admitted_budget`` is the budget within which ``ascending_auction``
    found every explicit table to pass the exchange check, None until then.
    """

    def __init__(self, instance: Instance, *, demand: DemandCache | None = None,
                 budget: int = DEFAULT_BUDGET):
        self.instance = instance
        self.demand = demand if demand is not None else DemandCache(instance, budget=budget)
        self.budget = budget
        self._memo: dict[PriceVector, int] = {}
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
        floor since the value dominates p.u >= 0.
        """
        def fn(q: PriceVector) -> int | None:
            if any(c < 0 for c in q):
                return None
            return self.value(q)

        return FunctionOracle(n=self.instance.n, fn=fn, value_floor=0)

