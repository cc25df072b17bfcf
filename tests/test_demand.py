"""Demand oracles: argmax sets, bidder sets, minimum-take statistics."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (box_demand_set, column_markets, column_prices, make_ex21,
                      random_multi_instance, random_separable_valuation,
                      random_unit_instance, tabulate)
from walras import (BudgetExceededError, Instance, LyapunovOracle, StrategyKind,
                    max_total_value,
                    Valuation, ascending_auction, bidders_demanding_some,
                    bidders_only_demanding, demand_set, mu, unit_demand_set)
from walras.auction import _extract_multi, _extract_unit
from walras.demand import DemandCache, _per_item_argmax
from walras.instance import DEFAULT_BUDGET, UNIT, UNIT_DEMAND, box_volume, iter_box
from walras.itemsets import items_from_mask, subset_sums
from walras.oracle import (deficiency, lyapunov_value, only_demanders_mask,
                           some_demanders_mask, unit_demand_mask)


class TestUnitDemandSets:
    def test_worked_example_at_zero(self, ex21):
        p = (0, 0, 0)
        assert unit_demand_set(0, p, ex21) == {1}
        assert unit_demand_set(1, p, ex21) == {1}
        for b in (2, 3, 4):
            assert unit_demand_set(b, p, ex21) == {2, 3}
        assert unit_demand_set(5, p, ex21) == {1, 2}

    def test_all_tie_with_outside_option(self, ex21):
        assert unit_demand_set(0, (1, 0, 0), ex21) == {0, 1, 2, 3}

    def test_bidder_out_of_range(self, ex21):
        with pytest.raises(IndexError, match="bidder index out of range"):
            unit_demand_set(6, (0, 0, 0), ex21)

    def test_model_mismatch(self, two_bidder_multi):
        with pytest.raises(ValueError, match="model 'unit'"):
            unit_demand_set(0, (0,), two_bidder_multi)


class TestMultiDemandSets:
    def test_unique_maximum(self, two_bidder_multi):
        assert demand_set(0, (0,), two_bidder_multi) == {(2,)}

    def test_tied_maximum(self, two_bidder_multi):
        assert demand_set(0, (2,), two_bidder_multi) == {(1,), (2,)}

    def test_zero_valuation_at_positive_prices(self):
        inst = Instance(model="multi", n=2, u=(1, 1),
                        valuations=(Valuation.separable([[0], [0]]),))
        assert demand_set(0, (1, 2), inst) == {(0, 0)}

    def test_budget_exceeded(self):
        """The budget guards every scan of the bundle box; a separable
        bidder's per-item demand set never builds the box."""
        inst = Instance(model="multi", n=4, u=(40, 40, 40, 40),
                        valuations=(Valuation.separable([[1] * 40] * 4),))
        p = (0, 0, 0, 0)
        assert demand_set(0, p, inst, budget=10_000) == {(40, 40, 40, 40)}
        with pytest.raises(BudgetExceededError):
            DemandCache(inst, budget=10_000).indirect_utility(0, p)

    def test_deficiency_tables_within_budget(self):
        """Minimum-take tables hold (m + 1) * 2^n entries; past the budget
        they are refused before any is built."""
        inst = Instance(model="multi", n=12, u=(1,) * 12,
                        valuations=tuple(Valuation.separable([[3]] * 12) for _ in range(3)))
        p = (1,) * 12
        dc = DemandCache(inst, budget=4 << 12)
        assert len(dc.deficiency_from_key(dc.demand_key(p))) == 1 << 12
        tight = DemandCache(inst, budget=(4 << 12) - 1)
        with pytest.raises(BudgetExceededError, match="deficiency tables"):
            tight.deficiency_from_key(tight.demand_key(p))
        with pytest.raises(BudgetExceededError, match="deficiency tables"):
            tight.mu_vector(0, p)

    def test_revisited_prices_give_the_same_answers(self):
        """Going back to an earlier price gives what a fresh cache gives,
        for every per-price answer, while the bundle costs kept for the
        latest price change under it."""
        rng = random.Random(17)
        for _ in range(20):
            inst = random_multi_instance(rng, n_max=3, u_max=2, m_max=3, value_max=5)
            prices = [tuple(rng.randint(0, 4) for _ in range(inst.n)) for _ in range(3)]
            dc = DemandCache(inst)
            for p in prices + prices[::-1]:
                fresh = DemandCache(inst)
                assert dc.deficiency_from_key(dc.demand_key(p)) == \
                    fresh.deficiency_from_key(fresh.demand_key(p))
                for b in range(inst.m):
                    assert dc.mu_vector(b, p) == fresh.mu_vector(b, p)
                    assert dc.demand_set(b, p) == fresh.demand_set(b, p)
                    assert dc.indirect_utility(b, p) == fresh.indirect_utility(b, p)
                assert dc.unit_scan(p) == fresh.unit_scan(p)
                assert dc.unit_masks(p) == [unit_demand_mask(b, p, inst) for b in dc.units]

    def test_long_descent_keeps_no_per_step_state(self):
        """After a descent of hundreds of steps the cache holds the
        per-item columns and the bidder groups exactly as built, the bundle
        box, at most one worth list per bidder, the table bidders' payoffs
        and best payoffs and the unit-demand bidders' payoffs and best
        payoffs, each at one price, and least takes kept by demand set
        within the budget: nothing per step."""
        unit = Instance(model="unit", n=2, u=(1, 1), valuations=tuple(
            Valuation.unit_demand(v) for v in ([300, 250], [280, 260], [200, 290])))
        mixed = Instance(model="multi", n=2, u=(1, 1), valuations=(
            Valuation.unit_demand([300, 250]), Valuation.separable([[280], [260]]),
            tabulate(Valuation.unit_demand([200, 290]))))
        groups = {unit: (frozenset(), (0, 1, 2), ()), mixed: (frozenset({1}), (0,), (2,))}
        for inst in (unit, mixed):
            ly = LyapunovOracle(inst)
            dc = ly.demand
            assert (dc.separable, dc.units, dc.tables) == groups[inst]
            # immutable, so a copy
            built = (dc._columns, dc._tails, dc.separable, dc.units, dc.tables)
            res = ascending_auction(inst, StrategyKind.STEEPEST_MINIMAL, oracle=ly)
            assert res.p_min == (280, 260) and len(res.trajectory) >= 100
            assert ly.demand is dc
            assert set(vars(dc)) == {"instance", "budget", "_n", "_bundles", "_values",
                                     "_table_scan", "_unit_scan", "_least", "_least_size",
                                     "_columns", "_tails", "separable", "units", "tables",
                                     "_table_at"}
            assert dc._table_at == {b: i for i, b in enumerate(dc.tables)}
            # one price, the final one the stop read, and one entry per
            # unit-demand bidder
            kept = price, payoffs, bests = dc._unit_scan
            assert price == res.p_min
            assert len(payoffs) == len(bests) == len(dc.units)
            assert all(len(row) == inst.n for row in payoffs)
            assert dc.unit_masks(price) == [unit_demand_mask(b, price, inst) for b in dc.units]
            assert dc._unit_scan is kept
            assert (dc._columns, dc._tails, dc.separable, dc.units, dc.tables) == built
            assert len(dc._values) <= inst.m
            # one price, the final one the allocation read, and one payoff
            # list of the 4 bundles per table bidder; none read without one
            price, payoffs, bests = dc._table_scan
            assert price == (res.p_min if dc.tables else None)
            assert len(payoffs) == len(bests) == len(dc.tables)
            assert all(len(row) == 4 for row in payoffs)
            assert bests == list(map(max, payoffs))
            assert dc._least_size == sum(len(d) + len(t) for d, t in dc._least.items())
            assert dc._least_size <= dc.budget
            assert bool(dc._least) == bool(dc.tables)
        assert dc._table_scan[0] is not None  # the table bidder's reads kept it


def _has_unit_bidder(inst):
    return any(v.family == UNIT_DEMAND for v in inst.valuations)


def _extracted(inst, p, dc):
    """The allocation extracted at p from the demand cache ``dc``."""
    if inst.model == UNIT:
        return _extract_unit(inst, p, dc)
    return _extract_multi(inst, p, dc, DEFAULT_BUDGET)


class TestUnitScan:
    @given(st.data())
    def test_interleaved_reads_match_a_fresh_cache(self, data):
        """Lyapunov values, demand keys and allocations read through one
        oracle at prices p, q, p, in a drawn order, equal a fresh cache's
        answers; the unit-demand scan the cache keeps, of one of those
        prices, gives the per-bidder twin's masks and best payoffs without
        a new scan."""
        inst = data.draw(column_markets().filter(_has_unit_bidder))
        p, q = data.draw(column_prices(inst)), data.draw(column_prices(inst))
        reads = data.draw(st.permutations(("value", "key", "extract")))
        ly = LyapunovOracle(inst)
        dc = ly.demand
        for price in (p, q, p):
            for read in reads:
                fresh = LyapunovOracle(inst)
                if read == "value":
                    assert ly.value(price) == fresh.value(price) == lyapunov_value(price, inst)
                elif read == "key":
                    assert dc.demand_key(price) == fresh.demand.demand_key(price)
                else:
                    assert _extracted(inst, price, dc) == _extracted(inst, price, fresh.demand)
                scan = kept, _, bests = dc._unit_scan
                if kept is not None:
                    assert kept in (p, q)
                    assert dc.unit_masks(kept) == [unit_demand_mask(b, kept, inst)
                                                   for b in dc.units]
                    assert bests == [max(0, *(w - c for w, c in zip(
                        inst.valuations[b].values, kept))) for b in dc.units]
                    assert dc._unit_scan is scan

    def test_one_payoff_scan_per_price_read(self, monkeypatch):
        """A descent and its allocation scan the unit-demand payoffs once
        each time the price read changes: a step's value read and the next
        step's demand key share one scan, and so do the stop's reads."""
        reads, scans = [], []
        read = DemandCache.unit_scan

        def counted_read(self, p):
            kept = self._unit_scan
            reads.append((self, p))  # the cache itself, so no id is reused
            out = read(self, p)
            if self._unit_scan is not kept:
                scans.append(p)
            return out

        monkeypatch.setattr(DemandCache, "unit_scan", counted_read)
        mixed = Instance(model="multi", n=2, u=(1, 1), valuations=(
            Valuation.unit_demand([30, 25]), Valuation.separable([[28], [26]]),
            Valuation.unit_demand([20, 29])))
        for inst in (make_ex21(), mixed, random_unit_instance(random.Random(5), n_max=4)):
            for kind in StrategyKind:
                reads.clear()
                scans.clear()
                res = ascending_auction(inst, kind)
                assert res.allocation is not None
                changes = [r for i, r in enumerate(reads) if i == 0 or r != reads[i - 1]]
                assert scans == [p for _, p in changes]
                assert len(reads) > len(changes) > len(res.trajectory)


class TestMu:
    def test_empty_set(self, two_bidder_multi):
        assert mu(0, frozenset(), (0,), two_bidder_multi) == 0
        assert mu(0, frozenset(), (2,), two_bidder_multi) == 0

    def test_unique_demand(self, two_bidder_multi):
        assert mu(0, {1}, (0,), two_bidder_multi) == 2

    def test_min_over_ties(self, two_bidder_multi):
        assert mu(0, {1}, (2,), two_bidder_multi) == 1

    def test_unit_model_not_routed(self, ex21):
        with pytest.raises(ValueError, match="model 'multi'"):
            mu(0, {1}, (0, 0, 0), ex21)


class TestBidderSets:
    def test_only_demanding(self, ex21):
        p = (0, 0, 0)
        assert bidders_only_demanding({1, 2}, p, ex21) == {0, 1, 5}
        assert bidders_only_demanding({2}, p, ex21) == frozenset()
        assert bidders_only_demanding(frozenset(), p, ex21) == frozenset()

    def test_demanding_some(self, ex21):
        p = (0, 0, 0)
        assert bidders_demanding_some({2}, p, ex21) == {2, 3, 4, 5}
        assert bidders_demanding_some({3}, p, ex21) == {2, 3, 4}
        assert bidders_demanding_some(frozenset(), p, ex21) == frozenset()

    def test_full_tables_match_worked_example(self, ex21):
        p = (0, 0, 0)
        O = {(): set(), (2,): set(), (3,): set(),
             (1,): {0, 1}, (1, 3): {0, 1}, (1, 2): {0, 1, 5},
             (2, 3): {2, 3, 4}, (1, 2, 3): {0, 1, 2, 3, 4, 5}}
        U = {(): set(), (1,): {0, 1, 5}, (2,): {2, 3, 4, 5}, (3,): {2, 3, 4},
             (2, 3): {2, 3, 4, 5}, (1, 2): {0, 1, 2, 3, 4, 5},
             (1, 3): {0, 1, 2, 3, 4, 5}, (1, 2, 3): {0, 1, 2, 3, 4, 5}}
        for items, bidders in O.items():
            assert bidders_only_demanding(frozenset(items), p, ex21) == bidders
        for items, bidders in U.items():
            assert bidders_demanding_some(frozenset(items), p, ex21) == bidders


def _unit_prices(rng, inst, cap):
    return tuple(rng.randint(0, cap) for _ in range(inst.n))


def _bidder_sets(inst, p):
    """O(X) and U(X) for every item set X, as bidder bitmasks, by the
    per-mask forms over one read of the bidders' demand masks."""
    masks = [unit_demand_mask(b, p, inst) for b in range(inst.m)]
    size = 1 << inst.n
    return ([only_demanders_mask(masks, x) for x in range(size)],
            [some_demanders_mask(masks, x) for x in range(size)])


def _bits(bidders):
    return sum(1 << b for b in bidders)


class TestSetIdentities:
    def test_identity_on_worked_example(self, ex21):
        self._check_identity(ex21, (0, 0, 0))
        self._check_identity(ex21, (1, 0, 0))

    @given(st.integers(0, 2**32 - 1))
    def test_containment_and_identity_random(self, seed):
        rng = random.Random(seed)
        inst = random_unit_instance(rng, n_max=6, m_max=5, value_max=3)
        p = _unit_prices(rng, inst, 3)
        self._check_identity(inst, p)

    @staticmethod
    def _check_identity(inst, p):
        size = 1 << inst.n
        only, some = _bidder_sets(inst, p)
        for x in range(size):
            assert only[x] & some[x] == only[x]  # O(Y,p) is contained in U(Y,p)
            z = x
            while z:
                if z:
                    lhs = some[z] & only[x]
                    rhs = only[x] & ~only[x ^ z]
                    assert lhs == rhs, (p, x, z)
                z = (z - 1) & x

    @given(st.integers(0, 2**32 - 1))
    def test_tables_agree_with_single_set_ops(self, seed):
        """The per-mask O(X) and U(X) are the bidders whose demand set lies
        inside X and meets X, and the deficiency table's superset walk counts
        O(X), less |X|, as the unit model defines deficiency."""
        rng = random.Random(seed)
        inst = random_unit_instance(rng, n_max=4, m_max=5, value_max=3)
        p = _unit_prices(rng, inst, 3)
        dc = DemandCache(inst)
        only, some = _bidder_sets(inst, p)
        demand = [unit_demand_set(b, p, inst) for b in range(inst.m)]
        deficiency = dc.deficiency_from_key(dc.demand_key(p))
        for mask in range(1 << inst.n):
            items = items_from_mask(mask)
            assert only[mask] == _bits(b for b, d in enumerate(demand) if d <= items)
            assert some[mask] == _bits(b for b, d in enumerate(demand) if d & items)
            assert deficiency[mask] == only[mask].bit_count() - mask.bit_count()

    @given(st.integers(0, 2**32 - 1))
    def test_subset_sums_match_the_definition(self, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 6)
        vec = tuple(rng.randint(-5, 9) for _ in range(n))
        assert subset_sums(vec, n) == [sum(vec[k] for k in range(n) if mask >> k & 1)
                                       for mask in range(1 << n)]

    @given(st.integers(0, 2**32 - 1))
    def test_mu_monotone_in_items(self, seed):
        rng = random.Random(seed)
        inst = random_multi_instance(rng, n_max=3, u_max=2, m_max=2, value_max=4)
        p = tuple(rng.randint(0, 4) for _ in range(inst.n))
        dc = DemandCache(inst)
        for b in range(inst.m):
            vec = dc.mu_vector(b, p)
            for mask in range(1, 1 << inst.n):
                low = mask & -mask
                assert vec[mask ^ low] <= vec[mask]


class TestFastPaths:
    @given(st.data())
    def test_demand_key_takes_match_per_bidder_least_argmaxes(self, data):
        """``demand_key`` reads separable bidders per item from sorted
        columns; its takes equal minus the supply plus each bidder's own
        least argmaxes, and a unit for each unit-demand bidder demanding
        exactly one item, and the bundle of each table bidder demanding
        exactly one bundle.  Only the other bidders reach the tied masks and
        the tied table bidders' demand sets, as box indices."""
        inst = data.draw(column_markets())
        p = data.draw(column_prices(inst))
        dc = DemandCache(inst)
        box = list(product(*(range(q + 1) for q in inst.u)))
        takes = [-q for q in inst.u]
        tied = []
        tables = []
        for b, v in enumerate(inst.valuations):
            if v.family == "separable_concave":
                for j, ks in enumerate(_per_item_argmax(v, p)):
                    takes[j] += ks[0]
            elif v.family == "unit_demand":
                dm = unit_demand_mask(b, p, inst)
                d = dm >> 1
                if dm & 1:
                    continue
                if d & (d - 1):
                    tied.append(d)
                else:
                    takes[d.bit_length() - 1] += 1
            else:
                demand = box_demand_set(inst, b, p)
                if len(demand) == 1:
                    for j, k in enumerate(demand[0]):
                        takes[j] += k
                else:
                    tables.append(tuple(map(box.index, demand)))
        assert dc.demand_key(p) == (tuple(takes), tuple(sorted(tied)), tuple(tables)), (inst, p)

    def test_separable_demand_sets_match_box_scan(self):
        """Per-item products equal the box scan, tuples and order included.

        Prices are drawn from the bidders' own marginals and zero marginals
        are common, so ties within an item are the usual case.
        """
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(1, 4)
            u = tuple(rng.randint(1, 3) for _ in range(n))
            vals = tuple(
                Valuation.separable([sorted((rng.choice((0, rng.randint(0, 6)))
                                             for _ in range(cap)), reverse=True)
                                     for cap in u])
                for _ in range(rng.randint(1, 3)))
            inst = Instance(model="multi", n=n, u=u, valuations=vals)
            dc = DemandCache(inst)
            for b, v in enumerate(vals):
                levels = sorted({w for row in v.marginals for w in row} | {0, 7})
                for _ in range(4):
                    p = tuple(rng.choice(levels) for _ in range(n))
                    box = box_demand_set(inst, b, p)
                    assert dc.demand_set(b, p) == box
                    vec = dc.mu_vector(b, p)
                    for mask in range(1 << n):
                        assert vec[mask] == min(subset_sums(x, n)[mask] for x in box)


@st.composite
def table_markets(draw) -> Instance:
    """Multi markets of at most 4 items and 2 units of each, holding at
    least one table bidder: tabulated separable ones and, where every item
    has one unit, tabulated unit-demand ones.  Mixed markets add separable
    and (with one unit of each item) unit-demand bidders, in any order."""
    n = draw(st.integers(1, 4))
    ones = draw(st.booleans())
    u = (1,) * n if ones else tuple(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))
    separable = st.tuples(*(
        st.lists(st.integers(0, 6), min_size=cap, max_size=cap).map(
            lambda r: sorted(r, reverse=True)) for cap in u)).map(Valuation.separable)
    tables, others = [separable.map(tabulate)], [separable]
    if ones:
        unit = st.lists(st.integers(0, 6), min_size=n, max_size=n).map(Valuation.unit_demand)
        tables.append(unit.map(tabulate))
        others.append(unit)
    vals = draw(st.lists(st.one_of(*tables), min_size=1, max_size=3))
    if draw(st.booleans()):
        vals += draw(st.lists(st.one_of(*others), min_size=1, max_size=2))
    return Instance(model="multi", n=n, u=u, valuations=tuple(draw(st.permutations(vals))))


class TestSharedCache:
    """A cache shared along a price walk, as a descent and ``compare``'s
    strategies share one, keeps payoff scans for the latest price and least
    takes by demand set; every answer must equal a fresh cache's."""

    @settings(max_examples=60)
    @given(st.data())
    def test_answers_match_a_fresh_cache(self, data):
        inst = data.draw(table_markets())
        n, m = inst.n, inst.m
        # The tightest budget the tables and the box admit keeps the least
        # takes of only a few demand sets, so the walk clears them often.
        tight = data.draw(st.booleans())
        budget = max((m + 1) << n, box_volume(inst.u)) if tight else DEFAULT_BUDGET
        ly = LyapunovOracle(inst, budget=budget)
        dc = ly.demand
        top = max_total_value(inst) + 1
        p = [0] * n
        moves = st.tuples(st.integers(0, n - 1), st.sampled_from((1, 1, -1)), st.booleans())
        for j, step, value_first in data.draw(st.lists(moves, min_size=1, max_size=20)):
            p[j] = min(max(p[j] + step, 0), top)
            q = tuple(p)
            if value_first:  # as a step's value read precedes the next demand key
                ly.value(q)
            fresh = DemandCache(inst, budget=budget)
            key = dc.demand_key(q)
            assert key == fresh.demand_key(q), (inst, q)
            assert dc.deficiency_from_key(key) == fresh.deficiency_from_key(key), (inst, q)
            for b in range(m):
                assert dc.indirect_utility(b, q) == fresh.indirect_utility(b, q), (inst, q, b)
                assert dc.demand_set(b, q) == fresh.demand_set(b, q) == \
                    box_demand_set(inst, b, q), (inst, q, b)
            assert ly.neighborhood(q) == LyapunovOracle(inst, budget=budget).neighborhood(q)
            assert dc._least_size == sum(len(d) + len(t) for d, t in dc._least.items())
            assert dc._least_size <= budget

    def test_tight_budget_clears_the_least_takes(self):
        """At the tightest budget the memo is cleared along the walk, never
        holds more than the budget, and the answers stay a fresh cache's."""
        rng = random.Random(41)
        u = (2, 2)
        vals = tuple(tabulate(Valuation.separable(
            [sorted((rng.randint(0, 9) for _ in range(cap)), reverse=True) for cap in u]))
            for _ in range(3))
        inst = Instance(model="multi", n=2, u=u, valuations=vals)
        budget = (inst.m + 1) << inst.n
        dc = DemandCache(inst, budget=budget)
        sizes = []
        for p in product(range(11), repeat=2):
            key = dc.demand_key(p)
            assert dc.deficiency_from_key(key) == \
                DemandCache(inst, budget=budget).deficiency_from_key(key), p
            sizes.append(dc._least_size)
        assert max(sizes) <= budget
        assert any(b < a for a, b in zip(sizes, sizes[1:]))

    def test_least_takes_larger_than_the_budget_are_not_kept(self):
        """A worthless table bidder demands its whole box at price 0; its
        least takes and the box outweigh the budget, so none is kept."""
        inst = Instance(model="multi", n=1, u=(3,), valuations=(
            Valuation.from_table({(k,): 0 for k in range(4)}),))
        dc = DemandCache(inst, budget=4)
        key = dc.demand_key((0,))
        assert key[2] == ((0, 1, 2, 3),)
        assert dc.deficiency_from_key(key) == [0, -3]
        assert dc._least == {} and dc._least_size == 0


class TestTableScan:
    def test_interleaved_reads_match_a_fresh_cache(self):
        """Lyapunov values, demand sets, demand keys and deficiency tables
        read through one oracle at prices p, q, p, in a drawn order, equal a
        fresh cache's answers, and each deficiency equals the oracle twin's,
        set by set; the table scan the cache keeps is of the latest price
        read.  Prices near the tables' worths make ties common: table
        bidders demanding one bundle, which fold into the takes, and tied
        ones, which the key holds, must both be seen."""
        seen = set()

        @settings(max_examples=60, deadline=None)
        @given(st.data())
        def check(data):
            inst = data.draw(table_markets())
            prices = st.tuples(*[st.integers(0, 7)] * inst.n)
            p, q = data.draw(prices), data.draw(prices)
            reads = data.draw(st.permutations(("value", "sets", "key")))
            ly = LyapunovOracle(inst)
            dc = ly.demand
            for price in (p, q, p):
                for read in reads:
                    fresh = LyapunovOracle(inst)
                    if read == "value":
                        assert ly.value(price) == fresh.value(price) == \
                            lyapunov_value(price, inst)
                    elif read == "sets":
                        sets = [dc.demand_set(b, price) for b in range(inst.m)]
                        assert sets == [fresh.demand.demand_set(b, price)
                                        for b in range(inst.m)]
                        seen.update(len(sets[b]) > 1 for b in dc.tables)
                    else:
                        key = dc.demand_key(price)
                        assert key == fresh.demand.demand_key(price)
                        assert dc.deficiency_from_key(key) == \
                            [deficiency(items_from_mask(x), price, inst)
                             for x in range(1 << inst.n)]
                    kept, payoffs, bests = dc._table_scan
                    assert kept == price
                    assert bests == list(map(max, payoffs))

        check()
        assert seen == {False, True}

    def test_one_table_scan_per_price_read(self, monkeypatch):
        """A descent and its allocation scan the table bidders' payoffs once
        each time the price read changes, all table bidders together, and
        scan no table bidder on its own: every bundle-cost list the cache
        builds is a table scan's, but for one per unit-demand bidder of a
        multi market, whose demand set the allocation reads from the box."""
        import walras.demand as demand

        reads, scans, costs = [], [], []
        read, box_costs = DemandCache.table_scan, demand._box_costs

        def counted_read(self, p):
            kept = self._table_scan
            reads.append((self, p))  # the cache itself, so no id is reused
            out = read(self, p)
            if self._table_scan is not kept:
                scans.append(p)
            return out

        def counted_costs(p, u):
            costs.append(p)
            return box_costs(p, u)

        monkeypatch.setattr(DemandCache, "table_scan", counted_read)
        monkeypatch.setattr(demand, "_box_costs", counted_costs)
        rng = random.Random(13)
        tables = Instance(model="multi", n=3, u=(2, 2, 2), valuations=tuple(
            tabulate(random_separable_valuation(rng, (2, 2, 2), value_max=9))
            for _ in range(4)))
        mixed = Instance(model="multi", n=2, u=(1, 1), valuations=(
            Valuation.unit_demand([30, 25]), Valuation.separable([[28], [26]]),
            tabulate(Valuation.unit_demand([20, 29]))))
        for inst in (tables, mixed):
            for kind in StrategyKind:
                reads.clear()
                scans.clear()
                costs.clear()
                res = ascending_auction(inst, kind)
                assert res.allocation is not None
                changes = [r for i, r in enumerate(reads) if i == 0 or r != reads[i - 1]]
                assert scans == [p for _, p in changes]
                units = sum(v.family == UNIT_DEMAND for v in inst.valuations)
                assert costs == scans + [res.p_min] * units
                assert len(reads) > len(changes) > len(res.trajectory)


class TestDeterminism:
    def test_demand_set_order_is_lexicographic(self, two_bidder_multi):
        dc = DemandCache(two_bidder_multi)
        assert dc.demand_set(0, (2,)) == ((1,), (2,))

    def test_caches_are_stable(self, ex21):
        dc = DemandCache(ex21)
        a = dc.unit_masks((0, 0, 0))
        b = dc.unit_masks((0, 0, 0))
        assert a == b and a[0] == unit_demand_mask(0, (0, 0, 0), ex21)


def _key_twin(inst, dc, p):
    """``demand_key`` rebuilt bidder by bidder, the unit-demand ones from
    ``oracle.unit_demand_mask``: one for whom buying nothing is demanded
    takes nothing, one demanding one item takes it, and a tied one is kept
    by its items.  A table bidder demanding one bundle takes it, and a tied
    one is kept by its demand set's box indices."""
    takes, tied, tables = dc.item_takes(p), [], []
    for b in dc.units:
        mask = unit_demand_mask(b, p, inst)
        if mask & 1:
            continue
        d = mask >> 1
        if d & (d - 1):
            tied.append(d)
        else:
            takes[d.bit_length() - 1] += 1
    box = list(iter_box(inst.u))
    for b in dc.tables:
        demand = box_demand_set(inst, b, p)
        if len(demand) == 1:
            takes = [t + x for t, x in zip(takes, demand[0])]
        else:
            tables.append(tuple(map(box.index, demand)))
    return tuple(takes), tuple(sorted(tied)), tuple(tables)


class TestUnitDemandKey:
    def test_key_matches_the_per_bidder_masks(self):
        """On random unit markets and mixed markets (unit-demand, separable
        and tabulated bidders, one unit of each item) at prices near the
        unit worths, ``demand_key`` reads the unit-demand bidders as their
        per-bidder masks say, at a fresh price and at the kept one.  The
        prices meet bidders whose best payoff 0 ties with an item and
        bidders tied between items."""
        rng = random.Random(28)
        seen = {"zero tied with an item": 0, "tied items": 0, "one item": 0, "nothing": 0}
        for trial in range(300):
            n = rng.randint(1, 4)
            units = [Valuation.unit_demand([rng.randint(0, 5) for _ in range(n)])
                     for _ in range(rng.randint(1, 5))]
            if trial % 2:
                others = [random_separable_valuation(rng, (1,) * n, value_max=5)
                          for _ in range(rng.randint(0, 2))]
                others.append(tabulate(Valuation.unit_demand(
                    [rng.randint(0, 5) for _ in range(n)])))
                vals = units + others
                rng.shuffle(vals)
                inst = Instance(model="multi", n=n, u=(1,) * n, valuations=tuple(vals))
            else:
                inst = Instance(model="unit", n=n, u=(1,) * n, valuations=tuple(units))
            dc = DemandCache(inst)
            for _ in range(4):
                p = tuple(rng.randint(0, 6) for _ in range(n))
                for read in range(2):
                    key = dc.demand_key(p)
                    assert key == _key_twin(inst, DemandCache(inst), p), (inst, p, read)
                for b in dc.units:
                    mask = unit_demand_mask(b, p, inst)
                    kind = ("zero tied with an item" if mask & 1 and mask > 1 else
                            "nothing" if mask & 1 else
                            "tied items" if mask & (mask - 2) else "one item")
                    seen[kind] += 1
        assert min(seen.values()) > 50, seen
