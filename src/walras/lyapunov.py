"""The Lyapunov function of a market, one oracle for both auction models.

The Lyapunov value of a price vector is the bidders' total indirect utility
plus the revenue term, L(p) = sum_b max_x (v_b(x) - p.x) + p.u; its
minimizers are exactly the equilibrium prices.  The unit model is the case
where every bidder is unit-demand and u = 1, so one formula serves both
models: the oracle reads the bidders by the groups ``DemandCache`` sorted
them into and tests no model or family itself.  Separable bidders are read
per item, not per bidder: their total indirect utility is a sum over items
of one-variable functions of the item's price, each read from the item's
sorted column of marginals (``DemandCache.item_utility``).  The unit-demand
and table bidders' best payoffs come from the one record per price the
cache keeps (``DemandCache.scan``), a unit-demand bidder's over the options
0..n with option 0 buying nothing; the next change table's demand key at
that price reads the same record.
The descent reads its one-step changes from the demand side, minus the
deficiency of every item set at once (``LyapunovOracle.neighborhood``), and
Lyapunov values certify each chosen step and the final stop.  That table
depends on the price only through the bidders' demand state, which an
ascending run keeps returning to, so the oracle builds it once per
``DemandCache.demand_key`` and keeps it; on a market with unit-demand
bidders and no table bidders it also bounds how many raises of one set keep
that key (``DemandCache.run_length``), so the descent can take a whole run
of such raises, or of a repeating cycle of disjoint sets, at once.
Deficiencies come from minimum takes, never from Lyapunov values, so the
identity ``L(p + chi_X) - L(p) == -deficiency_mask(X, p)`` cross-validates
the two routes instead of holding by construction.  In a market of separable
bidders alone L is a sum of one-variable functions, one per item, and the
oracle's adapter declares it: every rule but the seeded one then reads the
n per-item changes, minus ``DemandCache.item_takes``, and the certificates
read the per-item terms, never a 2^n table.

Values over a whole price grid, the product of one price list per item,
come from ``LyapunovOracle.grid_values`` in whole-list passes: the revenue
term and the separable bidders as an outer sum of per-item columns, and each
table bidder as its discrete Legendre-Fenchel conjugate taken one coordinate
at a time (``DemandCache.utility_grid``).  A unit-demand bidder is read
through its floor and lifted items (``LyapunovOracle._grid``): still a max
over its options, pruned by a lower bound, reading no demand set.  The two
certificate scans, of L(p + chi_X) at the stop and of
L(p - chi_X) for minimality, read the grid on the axes (p_j, p_j +- 1)
through ``lnat.neighborhood_values``, so they still check the change table
against values, and ``walras verify``'s L♮ check reads its whole box in one
call.  The oracle keeps its latest two grids by their axes: runs that share
it and stop at one price, as ``walras compare``'s do, build the two
certificate grids there once.  Kept grids hold values only, never change
tables, so each run still checks its own table against them.
"""

from __future__ import annotations

from operator import add, mul, neg, sub

from .demand import DemandCache, _check_price
from .instance import DEFAULT_BUDGET, Instance, PriceVector
from .itemsets import mask_weight
from .lnat import FunctionOracle


class LyapunovOracle:
    """Lyapunov function of one instance, for both auction models.

    The one handle the library shares between calls: built from
    ``(instance, budget)`` alone, it owns its ``DemandCache``, which holds
    the budget; only runs of that instance under that budget may share it.
    ``value`` reads the bidders by the groups ``DemandCache`` sorted them
    into, so one formula serves the unit model (every bidder unit-demand,
    one of each item) and the multi model, and keeps no value once read.
    ``admitted`` is set when ``ascending_auction`` admits the explicit tables.
    ``grid_values`` reads L over a whole price grid and keeps the latest
    two, by their axes.
    ``neighborhood`` keeps its change tables by demand key, at most
    ``budget`` entries in all (2^n per table), cleared when full; runs
    sharing the oracle share them.
    """

    def __init__(self, instance: Instance, *, budget: int = DEFAULT_BUDGET):
        self.instance = instance
        self.demand = DemandCache(instance, budget=budget)
        self._tables: dict[tuple, tuple[int, ...]] = {}
        self._grids: dict[tuple, list[int | None]] = {}
        self.admitted = False

    def value(self, p: PriceVector) -> int:
        """L(p): the revenue term p.u, then the separable bidders per item,
        and the unit-demand bidders' best payoffs (option 0, buying nothing,
        among their options) and the table bidders' best payoffs from the
        cache's record at p, ``DemandCache.scan``."""
        t = _check_price(self.instance, p)
        dc = self.demand
        total = sum(map(mul, t, self.instance.u))
        if dc.separable:
            total += sum(map(dc.item_utility, range(len(t)), t))
        if dc.units or dc.tables:
            _, _, unit_bests, _, table_bests = dc.scan(t)
            total += sum(unit_bests) + sum(table_bests)
        return total

    def deficiency_mask(self, X_mask: int, p: PriceVector) -> int:
        """Demanded units from X minus supply of X, bidder by bidder from
        minimum takes; the per-set twin of ``neighborhood``."""
        p = tuple(p)
        dc = self.demand
        demanded = sum(dc.mu_vector(b, p)[X_mask] for b in range(self.instance.m))
        return demanded - mask_weight(X_mask, self.instance.u)

    def grid_values(self, axes) -> list[int | None]:
        """L at every point of the product of the per-item price lists
        ``axes``, in lexicographic order (item 1's price slowest), None where
        a price is negative; the grid twin of ``value``, which reads no
        bidder when no point is in the domain.  The latest two grids built
        are kept by their axes, and a kept grid is handed out as a copy.
        """
        inst = self.instance
        if len(axes) != inst.n:
            raise ValueError(f"price grid must have {inst.n} axes")
        key = tuple(map(tuple, axes))
        for j, axis in enumerate(key):
            for c in axis:
                if isinstance(c, bool) or not isinstance(c, int):
                    raise ValueError(f"price axis {j} must hold integers")
        grids = self._grids
        vals = grids.get(key)
        if vals is None:
            vals = self._grid([[c for c in axis if c >= 0] for axis in key])
            if any(c < 0 for axis in key for c in axis):
                # The nonnegative points, in the same order, are the grid of
                # the nonnegative prices; the rest are None.
                priced = [True]
                for axis in reversed(key):
                    priced = [c >= 0 and x for c in axis for x in priced]
                it = iter(vals)
                vals = [next(it) if ok else None for ok in priced]
            if len(grids) >= 2:
                del grids[next(iter(grids))]
            grids[key] = vals
        return list(vals)

    def _grid(self, axes) -> list[int]:
        """L at every point of the product of the nonnegative price lists
        ``axes``, built in whole-list passes: the revenue term and the
        separable bidders are an outer sum of one column per item, its
        ``_term`` at each price of its axis; a table bidder's best
        payoff is its conjugate grid, ``DemandCache.utility_grid``, which
        reads the bundle box within the budget as ``value`` does.  A
        unit-demand bidder gets at least its floor, the best of 0 and of
        w_j - max(axis_j) over items j, everywhere, and only a lifted item,
        one with w_j - min(axis_j) above the floor, can pay it more, so its
        best payoff is the larger of the floor and the lifted items'
        w_j - p_j.  With no item lifted the floor is a constant; with one,
        the larger of the floor and w_j - c joins item j's column; with
        more, a max from the floor runs on the lifted items' own sub-grid,
        and each other item's axis repeats the block of the lifted axes
        after it."""
        inst = self.instance
        if not all(axes):
            return []
        dc = self.demand
        cols = [[self._term(j, c) for c in axis] for j, axis in enumerate(axes)]
        highs = list(map(max, axes))
        lows = list(map(min, axes))
        floors = 0
        several = []
        for b in dc.units:
            worths = inst.valuations[b].values
            floor = max(0, *map(sub, worths, highs))
            lifted = [w - c > floor for w, c in zip(worths, lows)]
            if lifted.count(True) > 1:
                several.append((floor, worths, lifted))
            elif True in lifted:
                j = lifted.index(True)
                w = worths[j]
                cols[j] = [t + (w - c if w - c > floor else floor)
                           for t, c in zip(cols[j], axes[j])]
            else:
                floors += floor
        # The columns are summed from the last item to the first, each new
        # axis the slowest, which is lexicographic order.
        total = [floors]
        for col in reversed(cols):
            total = [t + y for y in col for t in total]
        for floor, worths, lifted in several:
            best, slow = [floor], 1
            for w, axis, up in zip(reversed(worths), reversed(axes), reversed(lifted)):
                if up:
                    out = []
                    for c in axis:
                        y = w - c
                        out += [x if x > y else y for x in best] * slow
                    best, slow = out, 1
                else:
                    slow *= len(axis)
            total = list(map(add, total, best * slow))
        for b in dc.tables:
            total = list(map(add, total, dc.utility_grid(b, axes)))
        return total

    def neighborhood(self, p: PriceVector) -> tuple[int, ...]:
        """``L(p + chi_X) - L(p)`` for every item subset X, indexed by bitmask.

        Read as ``-deficiency(X, p)`` from one deficiency table, with no
        Lyapunov evaluation; ``minimize`` hands it to the selection rule as
        it is and checks only the chosen step and the stop against values.
        The table is built once per demand key, kept (``demand_key`` took
        (m + 1) * 2^n entries within the budget, so one always fits) and
        handed out as the kept tuple itself.
        """
        return self._change_table(_check_price(self.instance, p))

    def _change_table(self, p: PriceVector) -> tuple[int, ...]:
        """``neighborhood`` at a price already checked.  ``ascending_auction``
        hands it to the descent, which reads it at the checked start and at
        each step's price, just checked by the step's ``value`` read."""
        dc = self.demand
        key = dc.demand_key(p)
        tables = self._tables
        table = tables.get(key)
        if table is None:
            table = tuple(map(neg, dc.deficiency_from_key(key)))
            if len(tables) >= self.demand.budget >> self.instance.n:
                tables.clear()
            tables[key] = table
        return table

    def _item_changes(self, p: PriceVector) -> list[int]:
        """``L(p + chi_j) - L(p)`` for every item j of a market of separable
        bidders alone: minus the item's take, ``DemandCache.item_takes``,
        read at a price the descent has checked by its value read."""
        return [-t for t in self.demand.item_takes(p)]

    def _term(self, j: int, c: int) -> int | None:
        """Item j's revenue term c * u_j plus the separable bidders' best
        payoff from the item at price c (0 in a market without them); None
        below 0.  In a market of separable bidders alone L is their sum."""
        if c < 0:
            return None
        return c * self.instance.u[j] + self.demand.item_utility(j, c)

    def function_oracle(self) -> FunctionOracle:
        """Adapter for the generic lattice-minimization engine.

        Defined on every nonnegative price vector, so it declares no box;
        queries with a negative price read as +infinity.  Zero is a valid
        floor since the value dominates p.u >= 0.  Its ``grid`` is
        ``grid_values``.  When no bidder is unit-demand or a table, L is the
        sum of its per-item terms, and the adapter declares them: ``terms``
        reads them as ``value`` does, and ``items`` reads the per-item
        changes from the demand side.  When some bidder is unit-demand and
        none is a table, it declares ``runs``, ``DemandCache.run_length``:
        the change table is a function of the demand key, and the cache
        bounds how many raises of a set keep the key in closed form from
        its record at the price read and the separable columns: at the
        step's price the record its key read kept, at a period's earlier
        phase prices a new scan.  Table bidders have no such bound here,
        so a table market steps one raise at a time; a market of separable
        bidders alone takes the per-item route, which has no runs.
        """
        def fn(q: PriceVector) -> int | None:
            if any(c < 0 for c in q):
                return None
            return self.value(q)

        dc = self.demand
        separable = not (dc.units or dc.tables)
        return FunctionOracle(n=self.instance.n, fn=fn, value_floor=0, grid=self.grid_values,
                              terms=self._term if separable else None,
                              items=self._item_changes if separable else None,
                              runs=dc.run_length if dc.units and not dc.tables else None)
