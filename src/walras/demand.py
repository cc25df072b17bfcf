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
``indirect_utility`` reads a bidder's best payoff over its bundle box
whatever its family, and ``utility_grid`` reads it at every point of a
price grid at once, as its discrete Legendre-Fenchel conjugate taken one
coordinate at a time.  The bundle box is built, and checked
against the budget, only when a scan first needs it; deficiency tables
((m + 1) * 2^n entries) are checked against the same budget.

The table bidders are scanned together, once per price: ``table_scan``
keeps each one's payoff of every bundle and its best payoff for the latest
price; the Lyapunov value reads the bests, and ``indirect_utility``,
``demand_set`` and ``demand_key`` read the same scan, so a descent
step's value read and the next step's demand key share it.  A table bidder
demanding one bundle x takes x(X) from X, which is modular, so
``demand_key`` adds x to the per-item takes; only a tied one is keyed by
its demand set.  The unit-demand bidders are scanned together too:
``unit_scan`` keeps each one's item payoffs and best payoff for the latest
price; the Lyapunov value reads the bests, ``demand_key`` reads the kept
payoffs themselves, building a demand mask only for a bidder tied between
items, and the unit allocation reads the masks ``unit_masks`` derives from
them, so a value read at a price that no demand read follows pays for no
mask.  A tied table bidder's least takes depend only on its demand set, so
they are kept by demand set, within the budget, and cleared when full.
Any other bidder read through the box is scanned afresh at each read.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, product
from operator import add, sub

from .errors import BudgetExceededError
from .instance import (DEFAULT_BUDGET, SEPARABLE_CONCAVE, UNIT_DEMAND, Bundle,
                       Instance, PriceVector, Valuation, _box_worths,
                       box_volume, iter_box)
from .itemsets import strides, subset_sums


def _check_price(instance: Instance, p) -> PriceVector:
    """``p`` as a tuple of n nonnegative ints.  A price of exact ints, the
    common case, passes one test per entry; any other is read again, to
    name its first bad entry."""
    t = tuple(p)
    if len(t) != instance.n:
        raise ValueError(f"price vector must have {instance.n} components")
    for c in t:
        if type(c) is not int or c < 0:
            break
    else:
        return t
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
    bundle box and each box-scanned bidder's worth of every bundle.  The
    only per-price state is kept for the latest price only: every table
    bidder's payoff of every bundle with its best (``table_scan``), and
    every unit-demand bidder's item payoffs and best payoff
    (``unit_scan``), which the value, demand-key, demand-set and allocation
    reads at that price share.  Least-take vectors are kept by demand set,
    as the bundles' box indices, charged 2^n plus the set's size each
    against the budget and cleared when it would be exceeded.  Demand keys
    are built afresh at each call; keeping deficiency tables by demand key
    is left to the caller (``LyapunovOracle.neighborhood`` does).
    """

    def __init__(self, instance: Instance, *, budget: int = DEFAULT_BUDGET):
        self.instance = instance
        self.budget = budget
        self._n = instance.n
        self._bundles: tuple[Bundle, ...] | None = None
        self._values: dict[int, list[int]] = {}
        self._table_scan: tuple[PriceVector | None, list[list[int]], list[int]] = (None, [], [])
        self._unit_scan: tuple[PriceVector | None, list[list[int]], list[int]] = (None, [], [])
        self._least: dict[tuple[int, ...], list[int]] = {}
        self._least_size = 0
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
        self._table_at = {b: i for i, b in enumerate(tables)}

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

    def _scan(self, b: int, p: PriceVector) -> tuple[list[int], int]:
        """Bidder b's payoff v(x) - p.x of every bundle, in box order, and
        the best of them: a table bidder's from the kept ``table_scan``,
        any other's scanned afresh."""
        i = self._table_at.get(b)
        if i is not None:
            payoffs, bests = self.table_scan(p)
            return payoffs[i], bests[i]
        payoffs = list(map(sub, self._bidder_values(b), _box_costs(p, self.instance.u)))
        return payoffs, max(payoffs)

    def _bidder_values(self, b: int) -> list[int]:
        """Bidder b's worth of every bundle in box order, after the box's budget check."""
        vals = self._values.get(b)
        if vals is None:
            self._bundle_box()
            vals = _box_worths(self.instance.valuations[b])
            self._values[b] = vals
        return vals

    # -- demand sets -----------------------------------------------------------

    def unit_scan(self, p: PriceVector) -> tuple[list[list[int]], list[int]]:
        """The unit-demand bidders' payoffs w_i - p_i of every item and
        their best payoffs, 0 when buying nothing is best, in ``units``
        order; one scan per price, kept for the latest price only."""
        price, payoffs, bests = self._unit_scan
        if p != price:
            valuations = self.instance.valuations
            payoffs = [list(map(sub, valuations[b].values, p)) for b in self.units]
            bests = [best if best > 0 else 0 for best in map(max, payoffs)]
            self._unit_scan = (p, payoffs, bests)
        return payoffs, bests

    def table_scan(self, p: PriceVector) -> tuple[list[list[int]], list[int]]:
        """The table bidders' payoffs v(x) - p.x of every bundle, in box
        order, and their best payoffs, in ``tables`` order; one scan per
        price, kept for the latest price only."""
        price, payoffs, bests = self._table_scan
        if p != price:
            worths = [self._bidder_values(b) for b in self.tables]
            costs = _box_costs(p, self.instance.u) if worths else []
            payoffs = [list(map(sub, vals, costs)) for vals in worths]
            bests = list(map(max, payoffs))
            self._table_scan = (p, payoffs, bests)
        return payoffs, bests

    def unit_masks(self, p: PriceVector) -> list[int]:
        """The unit-demand bidders' demand sets at p as bitmasks, bit 0 the
        artificial no-purchase item and bit i item i, in ``units`` order,
        read from the kept scan at p."""
        return list(map(_demand_mask, *self.unit_scan(p)))

    def demand_set(self, b: int, p: PriceVector) -> tuple[Bundle, ...]:
        """All payoff-maximizing bundles, in lexicographic order.

        A separable bidder's demand set is the product of its per-item
        argmax sets, never limited by the box budget; every other bidder's
        is read from a scan of the bundle box (``_scan``).
        """
        if b in self.separable:
            return tuple(product(*_per_item_argmax(self.instance.valuations[b], p)))
        box = self._bundle_box()
        return tuple(box[i] for i in _argmaxes(*self._scan(b, p)))

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
        return tuple(self._least_takes_of(_argmaxes(*self._scan(b, p))))

    def _least_takes_of(self, demand: tuple[int, ...]) -> list[int]:
        """``_least_takes`` of a box-scanned demand set, given by its
        bundles' box indices and kept by them.  An entry is charged its 2^n
        takes plus the set's size; the memo is cleared when the next entry
        would take it past the budget, and an entry larger than the budget
        is not kept."""
        least = self._least.get(demand)
        if least is None:
            box = self._bundle_box()
            least = _least_takes(tuple(box[i] for i in demand), self._n)
            charge = len(least) + len(demand)
            if self._least_size + charge > self.budget:
                self._least.clear()
                self._least_size = 0
            if charge <= self.budget:
                self._least[demand] = least
                self._least_size += charge
        return least

    def demand_key(self, p: PriceVector) -> tuple:
        """The bidders' demand state at p, which alone determines the
        deficiency table: ``(takes, tied, tables)``.

        ``takes`` holds the modular per-item takes: ``item_takes`` (minus
        the supply plus the separable bidders' least argmaxes), plus one
        unit of item i for each unit-demand bidder demanding exactly i,
        plus the bundle x of each table bidder demanding x alone, whose
        least take x(X) is modular too.  ``tied`` holds the sorted item
        masks of the unit-demand bidders tied between several items; one
        for whom buying nothing is demanded takes nothing.  ``tables``
        holds the demand set of each table bidder tied between several
        bundles, as the bundles' box indices, in ``tables`` order.  Both
        table kinds are read from the kept ``table_scan`` at p, and the
        unit-demand bidders from the kept ``unit_scan``: one whose best
        payoff is 0 is skipped, one with a single best item adds it to
        ``takes``, and only a tied one's item mask is built.  Equal keys
        give equal tables, so a caller may keep tables by key; the table
        budget is checked here, on every call.
        """
        self._check_table_budget()
        takes = self.item_takes(p)
        tied = []
        if self.units:
            for pay, best in zip(*self.unit_scan(p)):
                if not best:
                    continue
                i = pay.index(best)
                k = pay.count(best)
                if k == 1:
                    takes[i] += 1
                    continue
                d = 1 << i  # tied: its items, as ``_demand_mask`` reads them, less bit 0
                for _ in range(k - 1):
                    i = pay.index(best, i + 1)
                    d |= 1 << i
                tied.append(d)
        tables = []
        if self.tables:
            box = self._bundle_box()
            for payoffs, best in zip(*self.table_scan(p)):
                if payoffs.count(best) == 1:
                    takes = list(map(add, takes, box[payoffs.index(best)]))
                else:
                    tables.append(_argmaxes(payoffs, best))
        return tuple(takes), tuple(sorted(tied)), tuple(tables)

    def item_takes(self, p: PriceVector) -> list[int]:
        """Minus each item's supply plus the separable bidders' least takes
        of it at p: the count of the item's marginals above its price, one
        bisection of its sorted column.  In a market of separable bidders
        alone these are the deficiencies of the single items, and every
        item set's is their sum; no table is built or charged here."""
        u = self.instance.u
        if self.separable:
            return [len(col) - bisect_right(col, c) - q
                    for col, c, q in zip(self._columns, p, u)]
        return [-q for q in u]

    def deficiency_from_key(self, key: tuple) -> list[int]:
        """Demanded minus supplied units of every item subset, indexed by
        subset bitmask, built from a ``demand_key``.

        The modular takes go through one subset-sum pass: a separable
        bidder's minimum take is the sum of its per-item least argmaxes, and
        a unit-demand bidder demanding exactly item i takes one unit from
        every set holding i.  A tied unit-demand bidder takes one unit from
        every superset of its items, and a tied table bidder its least
        subset sum over its demand set, kept by demand set.
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
            out = list(map(add, out, self._least_takes_of(demand)))
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
        bidder of any family, read from the kept ``table_scan`` for a table
        bidder.  No library code calls it; it stays because the benchmark's
        span tracer patches it."""
        return self._scan(b, p)[1]

    def utility_grid(self, b: int, axes) -> list[int]:
        """Bidder b's best payoff ``max_x (v(x) - p.x)`` at every point p of
        the product of the per-item price lists ``axes``, in lexicographic
        order (item 1's price slowest); the grid twin of ``indirect_utility``.

        The payoff is the discrete Legendre-Fenchel conjugate of the box
        worths, which separates by coordinate (Murota, *Discrete Convex
        Analysis*, SIAM 2003, ch. 8): pass j replaces the bundle axis x_j
        by the price axis ``axes[j]``, taking for each price c the
        elementwise max over x_j of the worths' slice minus c * x_j.  The
        passes whose price axis is no longer than u_j + 1 run first, so no
        list is longer than the larger of the box and the grid.
        """
        u = self.instance.u
        sizes = [len(axis) for axis in axes]
        order = sorted(range(self._n), key=lambda j: sizes[j] > u[j] + 1)
        moved = order != list(range(self._n))
        vals = self._bidder_values(b)
        if moved:
            vals = _permute_axes(vals, [q + 1 for q in u], order)
        # Each pass consumes the leading axis and appends its price axis
        # last, so after all n the axes are back in the order they started.
        for j in order:
            vals = _conjugate_pass(vals, u[j], axes[j])
        if moved:
            vals = _permute_axes(vals, [sizes[j] for j in order],
                                 [order.index(j) for j in range(self._n)])
        return vals


def _conjugate_pass(vals: list[int], cap: int, prices) -> list[int]:
    """One coordinate's conjugate: ``vals`` holds a grid whose leading axis
    is a bundle axis 0..cap; the result drops it and appends the price axis
    ``prices`` as the trailing one, holding max_k (vals[k, r] - c * k) at
    (r, c)."""
    rest = len(vals) // (cap + 1)
    rows = [vals[k * rest:(k + 1) * rest] for k in range(cap + 1)]
    width = len(prices)
    out = [0] * (rest * width)
    for i, c in enumerate(prices):
        best = rows[0]
        for k in range(1, cap + 1):
            ck = c * k
            best = [a if a >= x - ck else x - ck for a, x in zip(best, rows[k])]
        out[i::width] = best
    return out


def _permute_axes(vals: list[int], radices: list[int], order: list[int]) -> list[int]:
    """The grid ``vals``, of ``radices[a]`` entries along axis a, with its
    axes reordered so that axis ``order[i]`` is the i-th slowest."""
    stride = strides(radices)
    index = [0]
    for a in order:
        s = stride[a]
        index = [i + s * k for i in index for k in range(radices[a])]
    return [vals[i] for i in index]


def _demand_mask(payoffs: list[int], best: int) -> int:
    """A unit-demand bidder's demand set as a bitmask, from its item payoffs
    and its best payoff ``best`` >= 0: the items paying ``best``, and the
    artificial no-purchase item at bit 0 when ``best`` is 0."""
    mask = 0 if best else 1
    i = -1
    for _ in range(payoffs.count(best)):
        i = payoffs.index(best, i + 1)
        mask |= 2 << i
    return mask


def _least_takes(demand: tuple[Bundle, ...], n: int) -> list[int]:
    """Least subset sum over the bundles of a demand set, for every item
    subset, indexed by subset bitmask, in one elementwise ``min`` pass."""
    sums = [subset_sums(x, n) for x in demand]
    return list(map(min, *sums)) if len(sums) > 1 else sums[0]


def _argmaxes(payoffs: list[int], best: int) -> tuple[int, ...]:
    """The indices of the entries of ``payoffs`` equal to ``best``, ascending."""
    out = []
    i = -1
    for _ in range(payoffs.count(best)):
        i = payoffs.index(best, i + 1)
        out.append(i)
    return tuple(out)


def _box_costs(p: PriceVector, u) -> list[int]:
    """``p.x`` for every bundle x of the box [0, u], in box order."""
    costs = [0]
    for c, cap in zip(p, u):
        steps = [k * c for k in range(cap + 1)]
        costs = [t + x for t in costs for x in steps]
    return costs


def _per_item_argmax(v: Valuation, p: PriceVector) -> list[list[int]]:
    """A separable valuation's payoff-maximizing unit counts per item, ascending."""
    out = []
    for row, c in zip(v._prefix, p):
        payoffs = [w - k * c for k, w in enumerate(row)]
        top = max(payoffs)
        out.append([k for k, pay in enumerate(payoffs) if pay == top])
    return out
