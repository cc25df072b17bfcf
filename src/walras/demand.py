"""Demand oracles, one path for both auction models.

``DemandCache.__init__`` is the one place a valuation family decides how a
bidder is read: it sorts the bidders, once, into a separable group, a
unit-demand group and a table group, and every other reader, here, in the
Lyapunov oracle and in the auction layer, branches on those groups.  A
separable bidder's demand set is the product of its per-item argmax sets
and its minimum take the sum of per-item least argmaxes; a unit-demand
bidder demands single items, read as a bitmask with the artificial
no-purchase item 0 at bit 0; a table bidder's is read from its bundle
box.  The deficiency table, demanded minus supplied units for every item
set, adds each bidder's minimum take to minus the supply group by group;
the unit model is the case where every bidder is unit-demand and the
supply is one of each item.  The table depends on the price only through
the bidders' demand state, so it is built in two parts:
``DemandCache.demand_key`` reads that state as a hashable key, and
``DemandCache.deficiency_from_key`` builds the table from the key alone,
which lets a caller keep one table per state.  It builds it in one
doubling pass over the items, and adds a unit-demand bidder tied between
items during its top item's doubling, on the item sets below that item
alone; the later doublings copy the unit onto the rest.

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

The unit-demand and table bidders are scanned together, once per price:
``scan`` keeps one record for the latest price, each unit-demand bidder's
payoff of every option 0..n, where option 0 is buying nothing at payoff 0
(Andersson, Andersson and Talman, 2013), with their best payoffs, and each
table bidder's best payoff and argmaxes.  A table bidder is read from its
candidate bundles at p, those that no one-unit drop or add beats
(v(y) - v(y - e_j) >= p_j where y_j >= 1, v(y + e_j) - v(y) <= p_j where
y_j < u_j): every demanded bundle of any valuation is one, so the best
payoff and the argmaxes over the candidates are those over the box
(Murota, *Discrete Convex Analysis*, SIAM 2003, ch. 6).  The cache builds
one index over every table bidder's bundles on its first table scan, a
bitmask of candidates per item and price interval
(``DemandCache._candidate_index``); a scan is one bisection and one AND
per item, and one payoff read per candidate.  The Lyapunov value reads the
bests; ``demand_key``, ``run_length`` and the unit allocation's
``unit_masks`` read the same record, so a descent step's value read and the
next step's demand key share it, and a value read at a price that no
demand read follows pays for no mask.  ``demand_key`` reads every
unit-demand and table bidder by one rule: a bidder whose demand set
has a least bundle x, below every other demanded bundle componentwise,
takes x(X) from every item set X, which is modular, so x joins the
per-item takes; only a bidder without one is keyed by its demand set.  A
unit-demand bidder whose first best option is 0 has least bundle 0, one
with a single best item i has chi_i, and one tied between items has none.
A table bidder's least bundle, when there is one, is its first argmax in
box order.  The least takes of a table bidder without one depend only on
its demand set, so they are kept by demand set, within the budget, and
cleared when full, for ``deficiency_from_key``.  The record, the index and
the kept least takes serve these whole-market reads alone: a single
bidder's ``demand_set``, ``mu_vector`` or ``indirect_utility`` scans its
bundle box whole, afresh at each read, but a separable bidder's demand set
and least takes, read per item.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import accumulate, chain, compress, islice, product, repeat
from operator import add, le, mul, sub

from .errors import BudgetExceededError
from .instance import (DEFAULT_BUDGET, SEPARABLE_CONCAVE, UNIT_DEMAND, Bundle,
                       Instance, PriceVector, Valuation, _box_worths,
                       box_volume, iter_box)
from .itemsets import strides, subset_sums


def _check_price(instance: Instance, p) -> PriceVector:
    """``p`` as a tuple of n nonnegative ints, in one walk: a component
    that fails the exact-type test is checked again on its own, which
    accepts an int subclass and names any other."""
    t = tuple(p)
    if len(t) != instance.n:
        raise ValueError(f"price vector must have {instance.n} components")
    for i, c in enumerate(t):
        if type(c) is not int or c < 0:
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
    which ``demand_key`` and ``item_utility`` read per item.  It keeps each
    unit-demand bidder's worths as the row (0, w_1, ..., w_n), option 0
    buying nothing, the bundle box and each box-read bidder's worth of
    every bundle, and, from the first table scan on, the table bidders'
    worth lists in ``tables`` order and their candidate index: per item at
    most 65 masks of (table bidders) * |box| bits, built in time linear in
    that width per interval.  The only per-price state is one record for
    the latest price (``scan``): the unit-demand bidders' option payoffs
    with their bests, and the table bidders' best payoffs and argmaxes,
    which the value, demand-key, run-length and unit-allocation reads at
    that price share; no single-bidder read moves it.  The least-take
    vectors of demand sets without a least bundle are kept by demand set,
    for ``deficiency_from_key``, as the bundles' box indices, charged 2^n
    plus the set's size each against the budget and cleared when it would
    be exceeded.  Demand keys are built afresh at each call; the caller
    may keep tables by them, as ``LyapunovOracle._change_table`` does.
    """

    def __init__(self, instance: Instance, *, budget: int = DEFAULT_BUDGET):
        self.instance = instance
        self.budget = budget
        self._n = instance.n
        self._bundles: tuple[Bundle, ...] | None = None
        self._values: dict[int, list[int]] = {}
        self._worths: list[list[int]] | None = None
        self._index: list[tuple[list[int], list[int]]] | None = None
        self._latest: tuple = (None, [], [], [], [])
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
        self._rows = tuple((0, *instance.valuations[b].values) for b in units)

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

    def _demand(self, b: int, p: PriceVector) -> tuple[int, tuple[int, ...]]:
        """Bidder b's best payoff v(x) - p.x and its argmaxes' box indices,
        ascending, from a scan of the whole box."""
        payoffs = list(map(sub, self._bidder_values(b), _box_costs(p, self.instance.u)))
        best = max(payoffs)
        return best, tuple(i for i, pay in enumerate(payoffs) if pay == best)

    def _bidder_values(self, b: int) -> list[int]:
        """Bidder b's worth of every bundle in box order, after the box's budget check."""
        vals = self._values.get(b)
        if vals is None:
            self._bundle_box()
            vals = _box_worths(self.instance.valuations[b])
            self._values[b] = vals
        return vals

    # -- demand sets -----------------------------------------------------------

    def scan(self, p: PriceVector) -> tuple:
        """The record ``(p, unit payoffs, unit bests, table bests, table
        argmaxes)``: each unit-demand bidder's payoff of every option, 0 for
        buying nothing and w_i - p_i for item i, in ``units`` order, with
        the best of each row, and each table bidder's best payoff
        v(x) - p.x and its argmaxes' box indices, ascending, in ``tables``
        order, read from its candidate bundles (``_candidate_index``).  One
        scan per price, kept for the latest price only."""
        kept = self._latest
        if p != kept[0]:
            offset = (0, *p)
            units = [list(map(sub, row, offset)) for row in self._rows]
            bests, argmaxes = [], []
            if self.tables:
                index = self._index or self._candidate_index()
                mask = -1
                for (bounds, masks), c in zip(index, p):
                    mask &= masks[bisect_right(bounds, c)]
                bests, argmaxes = _candidate_bests(mask, self._worths, self._bundles, p)
            kept = self._latest = (p, units, list(map(max, units)), bests, argmaxes)
        return kept

    def _candidate_index(self) -> list[tuple[list[int], list[int]]]:
        """The table bidders' candidate masks, built on the first table
        scan and kept: per item j, the sorted price bounds where a bundle's
        drop or add test of j changes, and one mask per interval between
        them.  Bundle i of the b-th table bidder is bit b * |box| + i.  A
        bundle y passes the drop test of j at price c if y_j = 0 or
        v(y) - v(y - e_j) >= c, and the add test if y_j = u_j or
        v(y + e_j) - v(y) <= c; a demanded bundle passes both at p_j, for
        every j, whatever the valuation.  An interval's mask holds the
        bundles passing the drop test at its low end and the add test at
        its high end, so it holds every bundle passing both anywhere in it.
        An item keeps at most 64 bounds, every ceil(L / 64)-th of L; fewer
        bounds only widen the masks, which leaves the bests and argmaxes
        read from them exact.

        The marginals of item j pair each bundle with the one a unit of j
        above it, stride s apart in box order.  With ``ends`` the intervals'
        low ends, 0 and the bounds, each marginal v is coded, one byte per
        bundle, as the count of ends below v plus the count at most v: so
        v < ends[k] reads as a code of at most 2k, and v <= ends[k] as one
        of at most 2k + 1.  One ``translate`` per interval k reads the
        bundles whose add test passes at its high end, ends[k + 1] - 1
        (code <= 2k + 2); shifted up by s bits, the set read for interval
        k - 1 is the complement of interval k's drop test at its low end,
        ends[k] (code <= 2k).  The bundles with y_j = u_j (no add test) or
        y_j = 0 (no drop test) repeat every s * (u_j + 1) and are joined in
        as fixed masks."""
        box = self._bundle_box()
        worths = self._worths = [self._bidder_values(b) for b in self.tables]
        volume = len(box)
        width = volume * len(worths)
        full = (1 << width) - 1
        index = []
        for s, q in zip(strides([c + 1 for c in self.instance.u]), self.instance.u):
            blocks = width // (s * (q + 1))
            # v(y + e_j) - v(y) at y's bit; no marginal where y_j = u_j
            diffs = list(map(sub, islice(chain.from_iterable(worths), s, None),
                             chain.from_iterable(worths)))
            marginals = set(compress(diffs, (b"\1" * (s * q) + b"\0" * s) * blocks))
            bounds = sorted({c for v in marginals for c in (v, v + 1) if c > 0})
            if len(bounds) > 64:
                step = -(-len(bounds) // 64)
                bounds = bounds[step - 1::step]
            ends = [0, *bounds]
            # a pair across a block edge is no marginal: the fixed masks
            # cover its bits, so its code, 0, does not matter
            code = defaultdict(int, {v: bisect_left(ends, v) + bisect_right(ends, v)
                                     for v in marginals}).__getitem__
            # most significant first, as ``int(_, 2)`` reads them
            codes = (bytes(map(code, diffs)) + bytes(s))[::-1]

            def coded(c: int) -> int:
                """The bits whose code is at most c."""
                return int(codes.translate(b"1" * (c + 1) + b"0" * (255 - c)), 2)

            top = int(("1" * s + "0" * (s * q)) * blocks, 2)
            bottom = int(("0" * (s * q) + "1" * s) * blocks, 2)
            masks, below = [], coded(0)
            for k in range(len(ends)):
                adds = coded(2 * k + 2)
                drops = ((full ^ below) << s) & full
                masks.append((adds | top) & (drops | bottom))
                below = adds
            index.append((bounds, masks))
        self._index = index
        return index

    def unit_masks(self, p: PriceVector) -> list[int]:
        """The unit-demand bidders' demand sets at p as bitmasks, bit 0 the
        artificial no-purchase item and bit i item i, in ``units`` order:
        the argmaxes of the kept ``scan`` at p."""
        _, payoffs, bests, _, _ = self.scan(p)
        return [sum([1 << i for i, x in enumerate(pay) if x == best])
                for pay, best in zip(payoffs, bests)]

    def demand_set(self, b: int, p: PriceVector) -> tuple[Bundle, ...]:
        """All payoff-maximizing bundles, in lexicographic order.

        A separable bidder's demand set is the product of its per-item
        argmax sets, never limited by the box budget; every other bidder's
        is read from the bundle box (``_demand``).
        """
        if b in self.separable:
            return tuple(product(*_per_item_argmax(self.instance.valuations[b], p)))
        box = self._bundle_box()
        return tuple(box[i] for i in self._demand(b, p)[1])

    # -- minimum takes -----------------------------------------------------------

    def mu_vector(self, b: int, p: PriceVector) -> tuple[int, ...]:
        """Minimum take from every item subset, indexed by subset bitmask.

        A separable bidder's demand set is a product over items, so its
        minimum take from X is the sum of each item's least argmax; that
        avoids building the product, which ties make exponentially large.
        Every other bidder takes the least subset sum over its demand set,
        read from the bundle box (``demand_set``) and kept nowhere.
        """
        self._check_table_budget()
        if b in self.separable:
            least = tuple(ks[0] for ks in _per_item_argmax(self.instance.valuations[b], p))
            return tuple(subset_sums(least, self._n))
        return tuple(_least_takes(self.demand_set(b, p), self._n))

    def _least_takes_of(self, demand: tuple[int, ...]) -> list[int]:
        """``_least_takes`` of a demand set given by its bundles' box
        indices, and kept by them.  An entry is charged its 2^n
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

        A bidder whose demand set D has a least bundle x (x <= y
        componentwise for every y in D) takes min over D of y(X) = x(X)
        from every item set X, which is modular.  So ``takes`` holds the
        modular per-item takes: ``item_takes`` (minus the supply plus the
        separable bidders' least argmaxes), plus the least bundle of every
        unit-demand and table bidder that has one.  ``tied`` holds the
        sorted item masks of the unit-demand bidders tied between several
        items, which have none.  ``tables`` holds the demand set of each
        table bidder without one, as the bundles' box indices, in
        ``tables`` order.  Every bidder is read from the kept ``scan`` at
        p: a unit-demand bidder whose first best option is 0, buying
        nothing, takes nothing, one with a single best item adds it to
        ``takes``, and only a tied one's mask is built, its ``unit_masks``
        mask shifted down past bit 0.  A table bidder's least bundle, if
        any, is its first argmax in box order, which is lexicographically
        least; its other argmaxes, kept by the scan, are compared with it
        up to the first that is not above it.  The least bundles are summed
        into ``takes`` once.  Equal keys give equal tables, so a caller may
        keep tables by key; the table budget is checked here, on every
        call.
        """
        self._check_table_budget()
        takes = self.item_takes(p)
        _, unit_payoffs, unit_bests, _, table_argmaxes = self.scan(p)
        tied = []
        for pay, best in zip(unit_payoffs, unit_bests):
            i = pay.index(best)
            if not i:
                continue
            k = pay.count(best)
            if k == 1:
                takes[i - 1] += 1
                continue
            d = 1 << i
            for _ in range(k - 1):
                i = pay.index(best, i + 1)
                d |= 1 << i
            tied.append(d >> 1)
        tables = []
        if self.tables:
            box = self._bundles
            least = []
            for demand in table_argmaxes:
                x = box[demand[0]]
                for i in demand[1:]:
                    if not all(map(le, x, box[i])):
                        tables.append(demand)
                        break
                else:
                    least.append(x)
            if least:
                takes = list(map(sum, zip(takes, *least)))
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

    def run_length(self, p: PriceVector, mask: int) -> int | None:
        """A lower bound t >= 1 on the raises of the item set ``mask`` from
        p that keep ``demand_key`` in a market without table bidders: every
        p + s * chi_X, 0 <= s < t, has the key of p.  None when every raise
        keeps it.

        The key holds each unit-demand bidder's demand set while its best
        payoff is above 0, and each item's take, the count of the separable
        marginals above its price.  A unit-demand bidder's payoffs of the
        items in X fall by one per raise and the rest stay.  With a_in its
        best payoff over X and a_out its best over the other options, option
        0 (buying nothing) always among them, it bounds t by a_in - a_out
        when a_in > a_out (its demand set lies in X until the tie), by 1 on
        a tie above 0, and not at all otherwise (it demands no item of X, or
        its best payoff stays 0).  Item j of X bounds t by its next marginal
        above p_j, minus p_j.  The payoffs are read from the kept ``scan``,
        so right after a demand key at p this reads no scan; p must be a
        checked price.
        """
        inside = [0, *(mask >> j & 1 for j in range(self._n))]
        outside = [not x for x in inside]
        bounds = []
        for pay in self.scan(p)[1]:
            a_in = max(compress(pay, inside))
            a_out = max(compress(pay, outside))
            if a_in > a_out:
                bounds.append(a_in - a_out)
            elif a_in == a_out > 0:
                return 1
        for col, c in compress(zip(self._columns, p), inside[1:]):
            i = bisect_right(col, c)
            if i < len(col):
                bounds.append(col[i] - c)
        return min(bounds, default=None)

    def deficiency_from_key(self, key: tuple) -> list[int]:
        """Demanded minus supplied units of every item subset, indexed by
        subset bitmask, built from a ``demand_key``.

        The modular takes go through one subset-sum pass, which doubles the
        table once per item, by a plain copy where the item's take is 0 (one
        bidder alone demanding its one unit, say): a separable bidder's
        minimum take is the sum of its per-item least argmaxes, and a
        unit-demand bidder demanding exactly item i takes one unit from every
        set holding i.  A tied unit-demand bidder takes one unit from every
        superset of its items d.  With k its top item, that unit is added
        during item k's doubling, to the new half's entries X + {k} for the X
        below k that hold d - {k}, and the later doublings copy it onto every
        other superset of d: 2^(k - |d|) entries instead of 2^(n - |d|),
        counting items from 1.  A table bidder without a least bundle takes its
        least subset sum over its demand set, kept by demand set.
        """
        takes, tied, tables = key
        out = [0]
        i = 0
        for c in takes:
            half = len(out)
            if c:
                out += [t + c for t in out]
            else:
                out *= 2
            # ``tied`` is ascending, so the masks whose top item is this one
            # come next: half <= d < 2 * half.
            while i < len(tied) and tied[i] < 2 * half:
                low = tied[i] ^ half
                s = low
                while True:  # every superset of low below half, in increasing order
                    out[half + s] += 1
                    if s == half - 1:
                        break
                    s = (s + 1) | low
                i += 1
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
        """Best payoff max_x (v(x) - p.x) for a bidder of any family, by a
        scan of the bundle box.  No library code calls it; it stays because
        the benchmark's span tracer patches it."""
        return self._demand(b, p)[0]

    def utility_grid(self, b: int, axes) -> list[int]:
        """Bidder b's best payoff ``max_x (v(x) - p.x)`` at every point p of
        the product of the per-item price lists ``axes``, in lexicographic
        order (item 1's price slowest); the grid twin of ``indirect_utility``.

        The payoff is the discrete Legendre-Fenchel conjugate of the box
        worths, which separates by coordinate (Murota, *Discrete Convex
        Analysis*, SIAM 2003, ch. 8): pass j replaces the bundle axis x_j
        by the price axis ``axes[j]``, taking for each price c the
        elementwise max over x_j of the worths' slice minus c * x_j, at
        c = 0 the slice x_j = u_j: an ``Instance``'s worths are
        nondecreasing, and stay so along the bundle axes each pass leaves.
        The passes whose price axis is no longer than u_j + 1 run first, so
        no list is longer than the larger of the box and the grid.
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
    is a bundle axis 0..cap, nondecreasing along it; the result drops it and
    appends the price axis ``prices`` as the trailing one, holding
    max_k (vals[k, r] - c * k) at (r, c), vals[cap, r] at c = 0."""
    rest = len(vals) // (cap + 1)
    rows = [vals[k * rest:(k + 1) * rest] for k in range(cap + 1)]
    width = len(prices)
    out = [0] * (rest * width)
    for i, c in enumerate(prices):
        best = rows[cap]
        if c:
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


def _least_takes(demand: tuple[Bundle, ...], n: int) -> list[int]:
    """Least subset sum over the bundles of a demand set, for every item
    subset, indexed by subset bitmask, in one elementwise ``min`` pass."""
    sums = [subset_sums(x, n) for x in demand]
    return list(map(min, *sums)) if len(sums) > 1 else sums[0]


def _candidate_bests(mask: int, worths: list[list[int]], box: tuple[Bundle, ...],
                     p: PriceVector) -> tuple[list[int], list[tuple[int, ...]]]:
    """Each table bidder's best payoff and argmaxes' box indices, ascending,
    over the bundles whose bits ``mask`` sets, bit b * |box| + i for bundle
    i of the b-th bidder: one payoff read per set bit.  The set bits are
    read off one binary string, from its end, in time linear in its
    length plus their count; every bidder has one, its best bundle."""
    volume = len(box)
    bits = f"{mask:b}"
    top = len(bits) - 1
    bests, argmaxes = [], []
    at = bits.rfind("1")
    while at >= 0:
        b, i = divmod(top - at, volume)
        pay = worths[b][i] - sum(map(mul, p, box[i]))
        if b == len(bests):
            bests.append(pay)
            argmaxes.append([i])
        elif pay > bests[b]:
            bests[b] = pay
            argmaxes[b] = [i]
        elif pay == bests[b]:
            argmaxes[b].append(i)
        at = bits.rfind("1", 0, at)
    return bests, list(map(tuple, argmaxes))


def _box_costs(p: PriceVector, u) -> list[int]:
    """``p.x`` for every bundle x of the box [0, u], in box order, built
    from the last item to the first: item j's k-th block is the costs of
    the later items plus k * p_j."""
    costs = [0]
    for c, cap in zip(reversed(p), reversed(u)):
        out = costs.copy()
        for k in range(1, cap + 1):
            out += map(add, costs, repeat(k * c))
        costs = out
    return costs


def _per_item_argmax(v: Valuation, p: PriceVector) -> list[list[int]]:
    """A separable valuation's payoff-maximizing unit counts per item, ascending."""
    out = []
    for row, c in zip(v._prefix, p):
        payoffs = [w - k * c for k, w in enumerate(row)]
        top = max(payoffs)
        out.append([k for k, pay in enumerate(payoffs) if pay == top])
    return out
