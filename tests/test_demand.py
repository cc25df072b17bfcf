"""Demand oracles: argmax sets, bidder sets, minimum-take statistics."""

import random
from itertools import product
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (Drawn, box_demand_set, column_markets, column_prices, make_ex21,
                      random_multi_instance, random_separable_valuation,
                      random_unit_instance, tabulate)
from walras import (BudgetExceededError, Instance, LyapunovOracle, StrategyKind,
                    evaluate, max_total_value,
                    Valuation, ascending_auction, bidders_demanding_some,
                    bidders_only_demanding, demand_set, mu, unit_demand_set)
from walras.auction import _extract_multi, _extract_unit
from walras.demand import DemandCache, _per_item_argmax
from walras.instance import (DEFAULT_BUDGET, EXPLICIT_TABLE, MULTI, SEPARABLE_CONCAVE, UNIT,
                             UNIT_DEMAND, box_volume, iter_box)
from walras.itemsets import chi_add, items_from_mask, subset_sums
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
                assert dc.scan(p) == fresh.scan(p)
                assert dc.unit_masks(p) == [unit_demand_mask(b, p, inst) for b in dc.units]

    def test_long_descent_keeps_no_per_step_state(self):
        """After a descent of hundreds of steps the cache holds the
        per-item columns, the bidder groups and the unit-demand rows exactly
        as built, the bundle box, at most one worth list per bidder, one
        record of the unit-demand bidders' option payoffs and the table
        bidders' best payoffs and argmaxes, at one price, the table bidders'
        worth lists and candidate index (one entry per item, built once),
        and least takes kept by demand set within the budget: nothing per
        step.  The table bidder is tied between its two items on the way, a
        demand set with no least bundle, so its least takes are kept."""
        unit = Instance(model="unit", n=2, u=(1, 1), valuations=tuple(
            Valuation.unit_demand(v) for v in ([300, 250], [280, 260], [200, 290])))
        mixed = Instance(model="multi", n=2, u=(1, 1), valuations=(
            Valuation.unit_demand([300, 250]), Valuation.separable([[280], [260]]),
            tabulate(Valuation.unit_demand([290, 270]))))
        groups = {unit: (frozenset(), (0, 1, 2), ()), mixed: (frozenset({1}), (0,), (2,))}
        for inst in (unit, mixed):
            ly = LyapunovOracle(inst)
            dc = ly.demand
            assert (dc.separable, dc.units, dc.tables) == groups[inst]
            # immutable, so a copy
            built = (dc._columns, dc._tails, dc.separable, dc.units, dc.tables, dc._rows)
            res = ascending_auction(inst, StrategyKind.STEEPEST_MINIMAL, oracle=ly)
            assert res.p_min == (280, 260) and len(res.trajectory) >= 100
            assert ly.demand is dc
            assert set(vars(dc)) == {"instance", "budget", "_n", "_bundles", "_values",
                                     "_worths", "_index", "_latest", "_least", "_least_size",
                                     "_columns", "_tails", "separable", "units", "tables",
                                     "_rows"}
            assert dc._rows == tuple((0, *inst.valuations[b].values) for b in dc.units)
            # one price, the final one the stop read; one list of the
            # n + 1 options per unit-demand bidder, option 0 paying 0, and
            # one best payoff with its argmaxes among the 4 bundles per
            # table bidder
            kept = price, unit_payoffs, unit_bests, table_bests, table_argmaxes = dc._latest
            assert price == res.p_min
            assert len(unit_payoffs) == len(unit_bests) == len(dc.units)
            assert all(len(row) == inst.n + 1 and row[0] == 0 for row in unit_payoffs)
            assert unit_bests == list(map(max, unit_payoffs))
            assert dc.unit_masks(price) == [unit_demand_mask(b, price, inst) for b in dc.units]
            assert len(table_bests) == len(table_argmaxes) == len(dc.tables)
            assert all(0 <= i < 4 for row in table_argmaxes for i in row)
            assert kept == _record_twin(inst, price)
            assert dc._latest is kept
            assert (dc._columns, dc._tails, dc.separable, dc.units, dc.tables,
                    dc._rows) == built
            assert len(dc._values) <= inst.m
            if dc.tables:
                assert dc._worths == [dc._values[b] for b in dc.tables]
                assert len(dc._index) == inst.n
                assert all(len(masks) == len(bounds) + 1 for bounds, masks in dc._index)
            else:
                assert dc._worths is None and dc._index is None
            assert dc._least_size == sum(len(d) + len(t) for d, t in dc._least.items())
            assert dc._least_size <= dc.budget
            assert bool(dc._least) == bool(dc.tables)
        assert dc._latest[4]  # the table bidder's reads kept its argmaxes


def _record_twin(inst, p):
    """``DemandCache.scan``'s record at p by the definition: each
    unit-demand bidder's payoff of every option, 0 for buying nothing, with
    the best of each row, then each table bidder's best payoff over the
    whole bundle box, read with ``evaluate``, and its argmaxes' box
    indices, ascending."""
    box = list(iter_box(inst.u))
    rows, bests, argmaxes = [], [], []
    for v in inst.valuations:
        if v.family == UNIT_DEMAND:
            rows.append([0, *(w - c for w, c in zip(v.values, p))])
        elif v.family == EXPLICIT_TABLE:
            payoffs = [evaluate(v, x) - sum(map(mul, p, x)) for x in box]
            best = max(payoffs)
            bests.append(best)
            argmaxes.append(tuple(i for i, pay in enumerate(payoffs) if pay == best))
    return p, rows, list(map(max, rows)), bests, argmaxes


def _extracted(inst, p, dc):
    """The allocation extracted at p from the demand cache ``dc``."""
    if inst.model == UNIT:
        return _extract_unit(inst, p, dc)
    return _extract_multi(inst, p, dc, DEFAULT_BUDGET)


@st.composite
def scan_markets(draw) -> Instance:
    """Multi markets of at most 3 items, one unit of each, holding both
    groups ``DemandCache.scan`` reads: unit-demand bidders and table bidders
    (tabulated separable or unit-demand ones), at times with a separable
    bidder, in any order.  Worths of at most 6 tie often at prices up to 7."""
    n = draw(st.integers(1, 3))
    worths = st.lists(st.integers(0, 6), min_size=n, max_size=n)
    unit = worths.map(Valuation.unit_demand)
    separable = worths.map(lambda row: Valuation.separable([[w] for w in row]))
    vals = draw(st.lists(unit, min_size=1, max_size=3))
    vals += draw(st.lists(st.one_of(unit.map(tabulate), separable.map(tabulate)),
                          min_size=1, max_size=2))
    vals += draw(st.lists(separable, max_size=1))
    return Instance(model="multi", n=n, u=(1,) * n, valuations=tuple(draw(st.permutations(vals))))


def _has_unit_bidder(inst):
    return any(v.family == UNIT_DEMAND for v in inst.valuations)


def _interleaved_reads(data, markets, seen):
    """Read Lyapunov values, demand sets, demand keys with their deficiency
    tables, and allocations through one oracle at prices p, q, p, in a
    drawn order, on a market drawn from ``markets``; each read equals a
    fresh cache's answer and the per-set twin's.  After a value or key
    read, and a unit market's allocation read, the one record the cache
    keeps is of the latest price read.  A demand-set read, and a multi
    market's allocation read, read every bidder from the bundle box or
    per item: the record, the candidate index and the kept least takes
    stay as they were.  The caller's reads of the record scan nothing.
    Yields the market, the cache and the kept price after each read once a
    price is kept; whether each table bidder's demand set holds more than
    one bundle goes into ``seen``."""
    inst = data.draw(markets)
    prices = st.tuples(*[st.integers(0, 7)] * inst.n)
    p, q = data.draw(prices), data.draw(prices)
    ly = LyapunovOracle(inst)
    dc = ly.demand
    kinds = ("value", "sets", "key", "extract") if dc.tables else ("value", "key", "extract")
    reads = data.draw(st.permutations(kinds))
    for price in (p, q, p):
        for read in reads:
            fresh = LyapunovOracle(inst)
            before = dc._latest, dc._index, dc._least, dict(dc._least)
            if read == "value":
                assert ly.value(price) == fresh.value(price) == lyapunov_value(price, inst)
            elif read == "sets":
                sets = [dc.demand_set(b, price) for b in range(inst.m)]
                assert sets == [fresh.demand.demand_set(b, price) for b in range(inst.m)]
                seen.update(("table", len(sets[b]) > 1) for b in dc.tables)
            elif read == "key":
                key = dc.demand_key(price)
                assert key == fresh.demand.demand_key(price)
                assert dc.deficiency_from_key(key) == \
                    [deficiency(items_from_mask(x), price, inst) for x in range(1 << inst.n)]
            else:
                assert _extracted(inst, price, dc) == _extracted(inst, price, fresh.demand)
            record = dc._latest
            if read == "sets" or (read == "extract" and inst.model == MULTI):
                latest, index, least, kept = before
                assert record is latest and dc._index is index
                assert dc._least is least and dc._least == kept
            else:
                assert record[0] == price
            if record[0] is not None:
                yield inst, dc, record[0]
                assert dc._latest is record


class TestUnitScan:
    def test_interleaved_reads_match_a_fresh_cache(self):
        """Interleaved reads (``_interleaved_reads``) on unit markets and on
        multi markets of unit-demand and table bidders match a fresh cache.
        The unit-demand half of the kept record has option 0 paying 0 in
        every row and bests equal to the rows' maxima; the whole record, its
        table half included, is the definitional one (``_record_twin``), and
        it gives the per-bidder twin's masks without a new scan.
        Bidders for whom buying nothing is demanded and ones tied between
        items must both be seen."""
        seen = set()

        @settings(max_examples=60, deadline=None)
        @given(st.data())
        @example(data=Drawn(  # an allocation read first on a multi market
            Instance(model="multi", n=1, u=(1,), valuations=(Valuation.unit_demand([0]),)),
            (0,), (0,), ("extract", "key", "value")))
        @example(data=Drawn(  # tied between items at p, buying nothing alone at q
            Instance(model="unit", n=2, u=(1, 1), valuations=(Valuation.unit_demand([5, 5]),)),
            (0, 0), (6, 6), ("value", "key", "extract")))
        def check(data):
            markets = st.one_of(scan_markets(), column_markets().filter(_has_unit_bidder))
            for inst, dc, kept in _interleaved_reads(data, markets, seen):
                _, unit_payoffs, unit_bests, _, _ = dc._latest
                assert all(row[0] == 0 for row in unit_payoffs)
                assert unit_bests == list(map(max, unit_payoffs))
                assert dc._latest == _record_twin(inst, kept)
                masks = dc.unit_masks(kept)
                assert masks == [unit_demand_mask(b, kept, inst) for b in dc.units]
                seen.update(("unit", mask & 1, mask & (mask - 1) > 1) for mask in masks)

        check()
        assert {("unit", 1, False), ("unit", 0, True)} <= seen, seen

    def test_one_payoff_scan_per_price_read(self, monkeypatch):
        """On markets without table bidders a descent and its allocation
        scan the unit-demand bidders once each time the price read changes
        (``_count_scans``), build a bundle-cost list only for each
        unit-demand bidder of a multi market, whose demand set the
        allocation reads from the box, and in all scan fewer times than
        they step."""
        count = _count_scans(monkeypatch)
        mixed = Instance(model="multi", n=2, u=(1, 1), valuations=(
            Valuation.unit_demand([30, 25]), Valuation.separable([[28], [26]]),
            Valuation.unit_demand([20, 29])))
        total = {"scans": 0, "steps": 0}
        for inst in (make_ex21(), mixed, random_unit_instance(random.Random(5), n_max=4)):
            assert not DemandCache(inst).tables
            for kind in StrategyKind:
                res, scans, costs, candidates = count(inst, kind)
                assert costs == [res.p_min] * _boxed_bidders(inst)
                assert candidates == []
                total["scans"] += len(scans)
                total["steps"] += len(res.trajectory)
        assert total["scans"] < total["steps"], total


class TestTableScan:
    def test_interleaved_reads_match_a_fresh_cache(self):
        """Interleaved reads (``_interleaved_reads``) on multi markets of
        unit-demand and table bidders match a fresh cache, every deficiency
        equal to the oracle twin's, set by set.  The table half of the kept
        record, read from the bidders' candidate bundles, holds each table
        bidder's best payoff and argmaxes over the whole box, as the
        definitional record does (``_record_twin``).  Prices near the
        tables' worths make ties common: table bidders demanding one
        bundle, which fold into the takes, and tied ones, which the key
        holds, must both be seen."""
        seen = set()

        @settings(max_examples=60, deadline=None)
        @given(st.data())
        def check(data):
            for inst, dc, kept in _interleaved_reads(data, scan_markets(), seen):
                assert dc._latest == _record_twin(inst, kept)

        check()
        assert {("table", False), ("table", True)} <= seen, seen

    def test_one_table_scan_per_price_read(self, monkeypatch):
        """On markets with table bidders a descent scans all bidders
        together once each time the price read changes (``_count_scans``),
        each scan reading the table bidders' candidates once, at its price,
        through the one candidate index of the run, and scans no bidder on
        its own.  The allocation scans nothing: it builds one bundle-cost
        list at ``p_min`` per unit-demand and table bidder, whose demand
        sets it reads from the box, and no index.  A table market steps one
        raise at a time, so it scans more often than it steps."""
        count = _count_scans(monkeypatch)
        rng = random.Random(13)
        tables = Instance(model="multi", n=3, u=(2, 2, 2), valuations=tuple(
            tabulate(random_separable_valuation(rng, (2, 2, 2), value_max=9))
            for _ in range(4)))
        both = Instance(model="multi", n=2, u=(1, 1), valuations=(
            Valuation.unit_demand([30, 25]), Valuation.separable([[28], [26]]),
            tabulate(Valuation.unit_demand([20, 29]))))
        for inst in (tables, both):
            assert DemandCache(inst).tables
            for kind in StrategyKind:
                res, scans, costs, candidates = count(inst, kind)
                assert costs == [res.p_min] * _boxed_bidders(inst)
                assert candidates == scans
                assert len(scans) > len(res.trajectory)

    def test_single_bidder_reads_leave_the_descent_state(self):
        """``demand_set``, ``mu_vector`` and ``indirect_utility`` of a table
        bidder read the bundle box: at a price the cache has not scanned,
        after a descent whose record, candidate index and kept least takes
        are all built, each read gives the box twin's answer and leaves those
        three the same objects, the least takes with the same entries.  The
        tabulated unit-demand bidder ties between its items on the way, so
        least takes are kept."""
        inst = Instance(model="multi", n=2, u=(1, 1), valuations=(
            Valuation.unit_demand([30, 25]), tabulate(Valuation.separable([[28], [26]])),
            tabulate(Valuation.unit_demand([29, 29]))))
        ly = LyapunovOracle(inst)
        ascending_auction(inst, StrategyKind.STEEPEST_MINIMAL, oracle=ly)
        dc = ly.demand
        latest, index, least, kept = dc._latest, dc._index, dc._least, dict(dc._least)
        assert latest[0] is not None and index and kept
        box = list(iter_box(inst.u))
        for q in [(3, 3), (29, 29), (0, 30)]:
            assert q != latest[0]
            for b in dc.tables:
                demand = box_demand_set(inst, b, q)
                assert dc.demand_set(b, q) == demand
                assert dc.mu_vector(b, q) == tuple(
                    min(sum(c for j, c in enumerate(x) if mask >> j & 1) for x in demand)
                    for mask in range(1 << inst.n))
                assert dc.indirect_utility(b, q) == max(
                    evaluate(inst.valuations[b], x) - sum(map(mul, q, x)) for x in box)
                assert dc._latest is latest and dc._index is index
                assert dc._least is least and dc._least == kept


def _capped_table(u, raises) -> Valuation:
    """A normalized monotone table over [0, u], worth at most 9: each
    bundle's worth is the best of its one-unit-smaller bundles' plus its
    entry of ``raises``, capped at 9.  Substitutes or not."""
    worth = {}
    for x, up in zip(iter_box(u), raises):
        below = [worth[x[:j] + (c - 1,) + x[j + 1:]] for j, c in enumerate(x) if c]
        worth[x] = min(max(below) + up, 9) if below else 0
    return Valuation.from_table(worth)


@st.composite
def candidate_markets(draw):
    """A multi market of at most 3 items and 3 units of each with one to
    three tables from ``_capped_table``, all-zero ones among them, and at
    times separable bidders and, where every item has one unit,
    unit-demand ones, in any order; with one to four prices, each item's 0,
    past every worth, or drawn in [0, 10], where ties are common."""
    n = draw(st.integers(1, 3))
    u = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    volume = box_volume(u)
    raises = st.one_of(st.lists(st.integers(0, 4), min_size=volume, max_size=volume),
                       st.just([0] * volume))
    vals = draw(st.lists(raises.map(lambda r: _capped_table(u, r)), min_size=1, max_size=3))
    others = [st.tuples(*(st.lists(st.integers(0, 9), min_size=cap, max_size=cap).map(
        lambda r: sorted(r, reverse=True)) for cap in u)).map(Valuation.separable)]
    if u == (1,) * n:
        others.append(st.lists(st.integers(0, 9), min_size=n, max_size=n).map(
            Valuation.unit_demand))
    vals += draw(st.lists(st.one_of(*others), max_size=2))
    inst = Instance(model="multi", n=n, u=u, valuations=tuple(draw(st.permutations(vals))))
    price = st.one_of(st.just(0), st.just(max_total_value(inst) + 1), st.integers(0, 10))
    return inst, draw(st.lists(st.tuples(*[price] * n), min_size=1, max_size=4))


def _coarse_market() -> Instance:
    """One item of 40 units and two table bidders, one with the distinct
    marginals 81, 79, ..., 3, the other with 80, 77, ..., 5 and then 3.
    Each marginal v gives the bounds v and v + 1, so the item has more than
    64 and keeps every second."""
    rows = ([81 - 2 * k for k in range(40)], [max(80 - 3 * k, 3) for k in range(40)])
    return Instance(model="multi", n=1, u=(40,), valuations=tuple(
        tabulate(Valuation.separable([row])) for row in rows))


class TestCandidateScan:
    """``scan`` reads each table bidder's best payoff and argmaxes from its
    candidate bundles, those that no one-unit drop or add beats, through
    the cache's candidate index; the full scan of the box reads them from
    every bundle.  Both must agree, and so must the demand keys and tables
    built on them."""

    @settings(max_examples=200)
    @given(candidate_markets())
    @example((_coarse_market(), [(0,), (4,), (5,), (41,), (82,)]))
    def test_candidates_give_the_full_scan(self, market):
        inst, prices = market
        dc = DemandCache(inst)
        for p in prices:
            assert dc.scan(p) == _record_twin(inst, p), (inst, p)
            key = dc.demand_key(p)
            assert key == _key_twin(inst, DemandCache(inst), p), (inst, p)
            assert dc.deficiency_from_key(key) == _definitional_deficiency(inst, p), (inst, p)

    def test_an_item_past_64_bounds_reads_exactly(self):
        """On ``_coarse_market`` the item's 80 bounds, 3 to 82, exceed 64,
        so the index keeps every second, 4, 6, ..., 82, and each mask
        widens to a superset of its interval's candidates; at every price
        from 0 to past the top marginal the record and the key are still
        the full scan's."""
        inst = _coarse_market()
        dc = DemandCache(inst)
        for c in range(85):
            assert dc.scan((c,)) == _record_twin(inst, (c,)), c
            assert dc.demand_key((c,)) == _key_twin(inst, DemandCache(inst), (c,)), c
        (bounds, masks), = dc._index
        assert bounds == list(range(4, 83, 2)) and len(masks) == 41

    def test_the_index_is_bounded_after_a_descent(self):
        """After a descent, the index the cache kept holds, per item, at
        most 64 ascending positive bounds and one mask more, so at most
        65 * n masks, each of at most m * |box| bits: the table bidders'
        count times the box volume."""
        rng = random.Random(47)
        markets = [_coarse_market(), Instance(model="multi", n=3, u=(2, 2, 2), valuations=tuple(
            tabulate(random_separable_valuation(rng, (2, 2, 2), value_max=12))
            for _ in range(5)))]
        markets.append(Instance(model="multi", n=3, u=(1, 1, 1), valuations=(
            Valuation.unit_demand([9, 4, 7]), Valuation.separable([[8], [3], [5]]),
            tabulate(Valuation.unit_demand([6, 8, 2])),
            tabulate(Valuation.separable([[7], [6], [1]])))))
        for inst in markets:
            ly = LyapunovOracle(inst)
            ascending_auction(inst, StrategyKind.STEEPEST_MINIMAL, oracle=ly)
            dc = ly.demand
            width = len(dc.tables) * box_volume(inst.u)
            assert len(dc._index) == inst.n
            assert sum(len(masks) for _, masks in dc._index) <= 65 * inst.n
            for bounds, masks in dc._index:
                assert len(masks) == len(bounds) + 1 <= 65
                assert bounds == sorted(set(bounds)) and min(bounds, default=1) > 0
                assert all(0 <= mask < 1 << width for mask in masks)
            assert width <= inst.m * box_volume(inst.u)


def _boxed_bidders(inst):
    """The bidders whose demand set the allocation reads from the bundle
    box: the unit-demand and table bidders of a multi market."""
    if inst.model != MULTI:
        return 0
    return sum(v.family != SEPARABLE_CONCAVE for v in inst.valuations)


def _count_scans(monkeypatch):
    """Count ``DemandCache.scan`` reads, new scans, bundle-cost lists,
    candidate reads, candidate index builds and demand-key reads; return
    ``count(inst, kind)``, which runs the auction and checks that it scans
    once each time the price read changes: a value read and the next
    demand key share one scan, a run's length reads the scan its key read,
    and the stop's reads share one.  A run of one set reads at most two
    prices, and a period run of k phases 3k - 1 (run lengths at k - 1
    earlier prices, values at 2k) for its one key; the descents counted
    here still scan at most twice per demand key they read, a unit
    allocation's scan included.  It also checks that on a market with
    table bidders the candidate index is built exactly once, by the run's
    oracle, and never otherwise: the allocation's own cache reads every
    bidder of a multi market from the box or per item.  ``count`` returns
    the result, the scanned prices, the bundle-cost lists' prices and the
    candidate reads' prices."""
    import walras.demand as demand

    reads, scans, costs, candidates, keys, builds = [], [], [], [], [0], [0]
    read, box_costs, demand_key = DemandCache.scan, demand._box_costs, DemandCache.demand_key
    best_of, build = demand._candidate_bests, DemandCache._candidate_index

    def counted_read(self, p):
        kept = self._latest
        reads.append((self, p))  # the cache itself, so no id is reused
        out = read(self, p)
        if self._latest is not kept:
            scans.append(p)
        return out

    def counted_costs(p, u):
        costs.append(p)
        return box_costs(p, u)

    def counted_candidates(mask, worths, box, p):
        candidates.append(p)
        return best_of(mask, worths, box, p)

    def counted_build(self):
        builds[0] += 1
        return build(self)

    def keyed(self, p):
        keys[0] += 1
        return demand_key(self, p)

    monkeypatch.setattr(DemandCache, "scan", counted_read)
    monkeypatch.setattr(demand, "_box_costs", counted_costs)
    monkeypatch.setattr(demand, "_candidate_bests", counted_candidates)
    monkeypatch.setattr(DemandCache, "_candidate_index", counted_build)
    monkeypatch.setattr(DemandCache, "demand_key", keyed)

    def count(inst, kind):
        reads.clear()
        scans.clear()
        costs.clear()
        candidates.clear()
        keys[0] = builds[0] = 0
        res = ascending_auction(inst, kind)
        assert res.allocation is not None
        changes = [r for i, r in enumerate(reads) if i == 0 or r != reads[i - 1]]
        assert scans == [p for _, p in changes]
        assert len(reads) > len(changes) <= 2 * keys[0]
        assert builds[0] == (1 if DemandCache(inst).tables else 0)
        return res, list(scans), list(costs), list(candidates)

    return count


class TestRunLength:
    @given(st.data())
    def test_keys_hold_along_a_run(self, data):
        """``run_length(p, X)`` is a lower bound on the raises of X that keep
        the demand key: every p + s * chi_X with 0 <= s < t has p's key, on
        markets without table bidders (unit, separable, mixed, bidderless),
        at prices on the value reads' edges.  None means no raise changes
        the key, checked up to prices past every worth."""
        inst = data.draw(column_markets().filter(lambda i: not DemandCache(i).tables))
        p = data.draw(column_prices(inst))
        mask = data.draw(st.integers(1, (1 << inst.n) - 1))
        dc = DemandCache(inst)
        t = dc.run_length(p, mask)
        key = dc.demand_key(p)
        last = max_total_value(inst) + 2 if t is None else t - 1
        assert last >= 0
        for s in range(1, last + 1):
            q = tuple(c + s if mask >> j & 1 else c for j, c in enumerate(p))
            assert dc.demand_key(q) == key, (s, t)

    def test_unit_and_separable_bounds(self):
        """The closed forms on one item set X = {1, 2} at p = (0, 0, 0): a
        unit-demand bidder bounds t by a_in - a_out, by 1 on a tie above 0,
        and not at all when its best item is outside X or its best payoff
        is 0; a separable marginal bounds t by its distance above p_j."""
        X = 0b011

        def bound(*vals):
            inst = Instance(model="multi", n=3, u=(1, 1, 1), valuations=vals)
            return DemandCache(inst).run_length((0, 0, 0), X)

        unit, separable = Valuation.unit_demand, Valuation.separable
        assert bound(unit([9, 4, 2])) == 7
        assert bound(unit([0, 9, 0])) == 9
        assert bound(unit([5, 4, 5])) == 1
        assert bound(unit([3, 1, 8])) is None
        assert bound(unit([0, 0, 0])) is None
        assert bound(unit([0, 0, 0]), separable([[6], [3], [1]])) == 3
        assert bound(separable([[0], [0], [1]])) is None
        assert bound(unit([9, 4, 2]), separable([[12], [8], [1]]), unit([5, 4, 5])) == 1


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

    def test_chi_add_matches_the_definition(self):
        """p + chi_X for the empty, first, last, full and random item sets
        at widths 1 to 12, in ascending order: a kept vector read at a
        width other than its own, or reversed, shows."""
        rng = random.Random(44)
        for n in range(1, 13):
            for mask in {0, 1, 1 << (n - 1), (1 << n) - 1,
                         *(rng.randrange(1 << n) for _ in range(20))}:
                p = tuple(rng.randint(0, 9) for _ in range(n))
                items = items_from_mask(mask)
                assert chi_add(p, mask) == tuple(c + (k + 1 in items) for k, c in enumerate(p))

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
        exactly one item, and the least bundle of each table bidder whose
        demand set has one (the componentwise minimum of the set, when the
        set holds it).  Only the other bidders reach the tied masks and the
        demand sets of the table bidders without a least bundle, as box
        indices."""
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
                least = _least_bundle(demand)
                if least is not None:
                    for j, k in enumerate(least):
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


@st.composite
def priced_table_markets(draw):
    """A market from ``table_markets``, or one of tabulated unit-demand
    bidders alone on 2 to 4 items, with one to four prices.  A price is
    either 0 or drawn in [0, 7] item by item, or, for a drawn bidder and
    payoff level t, the bidder's worth of one unit of each item less t (0
    where that is negative), which ties a tabulated unit-demand bidder
    between every item it values above t and a tabulated separable one
    between 0 and 1 unit of each."""
    if draw(st.booleans()):
        inst = draw(table_markets())
    else:
        n = draw(st.integers(2, 4))
        unit = st.lists(st.integers(0, 6), min_size=n, max_size=n).map(Valuation.unit_demand)
        inst = Instance(model="multi", n=n, u=(1,) * n, valuations=tuple(
            draw(st.lists(unit.map(tabulate), min_size=1, max_size=3))))
    n = inst.n
    prices = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            v = inst.valuations[draw(st.integers(0, inst.m - 1))]
            t = draw(st.integers(0, 4))
            p = tuple(max(evaluate(v, tuple(int(i == j) for i in range(n))) - t, 0)
                      for j in range(n))
        else:
            p = tuple(draw(st.one_of(st.just(0), st.integers(0, 7))) for _ in range(n))
        prices.append(p)
    return inst, prices


def _definitional_deficiency(inst, p):
    """Demanded minus supplied units of every item set at p: per bidder,
    the least subset sum over its box-scanned demand set, minus the
    supply's."""
    n = inst.n
    out = [-s for s in subset_sums(inst.u, n)]
    for b in range(inst.m):
        sums = [subset_sums(x, n) for x in box_demand_set(inst, b, p)]
        out = [d + min(col) for d, col in zip(out, zip(*sums))]
    return out


_LEAST_AT_ZERO = Instance(model="multi", n=2, u=(2, 1), valuations=(
    tabulate(Valuation.separable([[5, 0], [3]])),))
_NO_LEAST = Instance(model="multi", n=2, u=(1, 1), valuations=(
    tabulate(Valuation.unit_demand([5, 4])),))


class TestLeastBundleKey:
    """A table bidder whose demand set has a least bundle x takes x(X) from
    every item set X, so ``demand_key`` adds x to the modular takes; only
    one without a least bundle is keyed by its demand set."""

    @settings(max_examples=150)
    @given(priced_table_markets())
    @example((_LEAST_AT_ZERO, [(0, 0)]))
    @example((_NO_LEAST, [(2, 1)]))
    def test_key_tables_are_the_definitional_minimum_takes(self, market):
        inst, prices = market
        dc = DemandCache(inst)
        for p in prices:
            assert dc.deficiency_from_key(dc.demand_key(p)) == \
                _definitional_deficiency(inst, p), (inst, p)

    def test_a_least_bundle_is_taken_and_a_tie_without_one_is_keyed(self):
        """An extra unit worth nothing, at price 0, ties 1 and 2 units of
        item 1 with least bundle (1, 1); two items tied at positive prices
        have none, and the set {(0, 1), (1, 0)} is keyed by box indices."""
        dc = DemandCache(_LEAST_AT_ZERO)
        assert box_demand_set(_LEAST_AT_ZERO, 0, (0, 0)) == ((1, 1), (2, 1))
        assert dc.demand_key((0, 0)) == ((-1, 0), (), ())
        dc = DemandCache(_NO_LEAST)
        assert box_demand_set(_NO_LEAST, 0, (2, 1)) == ((0, 1), (1, 0))
        assert dc.demand_key((2, 1)) == ((-1, -1), (), ((1, 2),))


@st.composite
def table_keys(draw):
    """A bidderless market of at most 8 items, one or two units of each
    item when n <= 3 and one otherwise, with a key of the shape
    ``demand_key`` gives: any per-item takes, ascending tied masks of two
    items or more, repeats allowed, and up to two table demand sets as
    ascending box indices."""
    n = draw(st.integers(1, 8))
    u = tuple(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))) if n <= 3 else (1,) * n
    takes = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    tied = draw(st.lists(st.integers(3, (1 << n) - 1).filter(lambda d: d & (d - 1)),
                         max_size=5)) if n > 1 else []
    demand = st.lists(st.integers(0, box_volume(u) - 1), min_size=1, max_size=3,
                      unique=True).map(lambda ix: tuple(sorted(ix)))
    tables = draw(st.lists(demand, max_size=2))
    return (Instance(model="multi", n=n, u=u, valuations=()),
            (takes, tuple(sorted(tied)), tuple(tables)))


def _keyed(n, tied, takes=None, tables=()):
    """A bidderless market of n single-unit items with the key (``takes``,
    default alternating 0 and -1, ``tied``, ``tables``)."""
    takes = tuple(-(k % 2) for k in range(n)) if takes is None else takes
    return Instance(model="multi", n=n, u=(1,) * n, valuations=()), (takes, tied, tables)


def _definitional_key_table(inst, key):
    """The table a key stands for: the subset sums of its takes, plus 1 on
    every X holding d for each tied d, plus each table demand set's least
    subset sums over its bundles."""
    takes, tied, tables = key
    n = inst.n
    box = list(iter_box(inst.u))
    out = subset_sums(takes, n)
    for d in tied:
        out = [t + (X & d == d) for X, t in enumerate(out)]
    for demand in tables:
        sums = [subset_sums(box[i], n) for i in demand]
        out = [t + min(col) for t, col in zip(out, zip(*sums))]
    return out


class TestKeyTable:
    """``deficiency_from_key`` adds a tied bidder's unit during its top
    item's doubling, to the new half alone, and lets the later doublings
    copy it; the twin adds it to every superset directly."""

    @settings(max_examples=200)
    @given(table_keys())
    @example(_keyed(4, (0b1001,)))  # top item n
    @example(_keyed(5, (0b00011,), takes=(2, 0, -1, 0, 1)))  # the set {1, 2}
    @example(_keyed(5, (0b10001, 0b10110)))  # two sets with top item 5
    @example(_keyed(6, (0b111111,)))  # the full item set
    @example(_keyed(3, (), takes=(1, 0, -1), tables=((1, 6), (3,))))  # no tied bidder
    def test_table_is_the_definitional_one(self, keyed):
        inst, key = keyed
        assert DemandCache(inst).deficiency_from_key(key) == \
            _definitional_key_table(inst, key), key


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
            assert ly._change_table(q) == LyapunovOracle(inst, budget=budget)._change_table(q)
            assert dc._least_size == sum(len(d) + len(t) for d, t in dc._least.items())
            assert dc._least_size <= budget

    def test_tight_budget_clears_the_least_takes(self):
        """At the tightest budget the memo is cleared along the walk, never
        holds more than the budget, and the answers stay a fresh cache's.
        The bidders are tabulated unit-demand ones on three items, so a tie
        between items is a demand set with no least bundle, whose least
        takes are kept."""
        rng = random.Random(41)
        u = (1, 1, 1)
        vals = tuple(tabulate(Valuation.unit_demand([rng.randint(0, 9) for _ in u]))
                     for _ in range(3))
        inst = Instance(model="multi", n=3, u=u, valuations=vals)
        budget = (inst.m + 1) << inst.n
        dc = DemandCache(inst, budget=budget)
        sizes = []
        for p in product(range(11), repeat=3):
            key = dc.demand_key(p)
            assert dc.deficiency_from_key(key) == \
                DemandCache(inst, budget=budget).deficiency_from_key(key), p
            sizes.append(dc._least_size)
        assert max(sizes) <= budget
        assert any(b < a for a, b in zip(sizes, sizes[1:]))

    def test_least_takes_larger_than_the_budget_are_not_kept(self):
        """A table bidder worth its bundle's size up to 2 units demands, at
        price 0, every bundle of 2 or more units, a set with no least
        bundle; its least takes and the set outweigh the budget, so none is
        kept."""
        inst = Instance(model="multi", n=2, u=(2, 2), valuations=(
            Valuation.from_table({x: min(sum(x), 2) for x in product(range(3), repeat=2)}),))
        dc = DemandCache(inst, budget=9)
        key = dc.demand_key((0, 0))
        assert key[2] == ((2, 4, 5, 6, 7, 8),)
        assert dc.deficiency_from_key(key) == [0, -2, -2, -2]
        assert dc._least == {} and dc._least_size == 0

    def test_least_takes_of_exactly_the_budget_are_kept(self, monkeypatch):
        """The same bidder's demand set, its 2^2 least takes and 6 bundles,
        is kept under a budget of exactly 10, so reading it twice computes
        its least takes once."""
        import walras.demand as demand

        inst = Instance(model="multi", n=2, u=(2, 2), valuations=(
            Valuation.from_table({x: min(sum(x), 2) for x in product(range(3), repeat=2)}),))
        calls = []
        least_takes = demand._least_takes
        monkeypatch.setattr(demand, "_least_takes",
                            lambda *args: calls.append(args) or least_takes(*args))
        dc = DemandCache(inst, budget=10)
        key = dc.demand_key((0, 0))
        for _ in range(2):
            assert dc.deficiency_from_key(key) == [0, -2, -2, -2]
        assert len(calls) == 1 and dc._least_size == 10


class TestDeterminism:
    def test_demand_set_order_is_lexicographic(self, two_bidder_multi):
        dc = DemandCache(two_bidder_multi)
        assert dc.demand_set(0, (2,)) == ((1,), (2,))

    def test_caches_are_stable(self, ex21):
        dc = DemandCache(ex21)
        a = dc.unit_masks((0, 0, 0))
        b = dc.unit_masks((0, 0, 0))
        assert a == b and a[0] == unit_demand_mask(0, (0, 0, 0), ex21)


def _least_bundle(demand):
    """The least bundle of a demand set, below every other componentwise:
    the componentwise minimum of the set when the set holds it, else None."""
    low = tuple(map(min, *demand)) if len(demand) > 1 else demand[0]
    return low if low in demand else None


def _key_twin(inst, dc, p):
    """``demand_key`` rebuilt bidder by bidder, the unit-demand ones from
    ``oracle.unit_demand_mask``: one for whom buying nothing is demanded
    takes nothing, one demanding one item takes it, and a tied one is kept
    by its items.  A table bidder whose demand set has a least bundle takes
    it, and any other is kept by its demand set's box indices."""
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
        least = _least_bundle(demand)
        if least is not None:
            takes = [t + x for t, x in zip(takes, least)]
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
