"""Lyapunov values, deficiency, and the difference identity tying them."""

import random
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from conftest import (Drawn, column_markets, column_prices, random_multi_instance,
                      random_separable_valuation, random_unit_instance, tabulate)
from walras import (DemandCache, FunctionOracle, Instance, LyapunovOracle, StrategyKind,
                    Valuation, ascending_auction, deficiency, lyapunov_step,
                    lyapunov_value, max_total_value, neighborhood_values)
from walras import demand
from walras.errors import BudgetExceededError
from walras.instance import box_volume, iter_box
from walras.itemsets import chi_add, chi_sub


class TestValues:
    def test_worked_example(self, ex21):
        assert lyapunov_value((0, 0, 0), ex21) == 6
        assert lyapunov_value((1, 1, 1), ex21) == 3

    def test_no_bidders_leaves_revenue_only(self):
        unit = Instance(model="unit", n=2, u=(1, 1), valuations=())
        multi = Instance(model="multi", n=2, u=(2, 3), valuations=())
        for p in product(range(3), repeat=2):
            assert lyapunov_value(p, unit) == sum(p)
            assert lyapunov_value(p, multi) == 2 * p[0] + 3 * p[1]

    def test_two_bidder_multi_values(self, two_bidder_multi):
        assert [lyapunov_value((k,), two_bidder_multi) for k in range(5)] == \
            [10, 8, 6, 6, 8]

    def test_dominates_revenue(self, ex21, two_bidder_multi):
        for p in product(range(2), repeat=3):
            assert lyapunov_value(p, ex21) >= sum(p)
        for k in range(6):
            assert lyapunov_value((k,), two_bidder_multi) >= 2 * k

    def test_increasing_beyond_the_value_ceiling(self, ex21, two_bidder_multi):
        for inst in (ex21, two_bidder_multi):
            cap = max_total_value(inst)
            p = (cap,) * inst.n
            ly = LyapunovOracle(inst)
            for j in range(inst.n):
                q = list(p)
                q[j] += 1
                r = list(q)
                r[j] += 1
                assert ly.value(tuple(q)) < ly.value(tuple(r))


class TestDeficiency:
    def test_worked_example(self, ex21):
        p = (0, 0, 0)
        assert deficiency({1, 2, 3}, p, ex21) == 3
        assert deficiency({2}, p, ex21) == -1

    def test_two_bidder_multi(self, two_bidder_multi):
        assert deficiency({1}, (0,), two_bidder_multi) == 2


class TestStep:
    def test_worked_example(self, ex21):
        assert lyapunov_step({1}, (0, 0, 0), ex21) == -1
        assert lyapunov_step(frozenset(), (0, 0, 0), ex21) == 0

    def test_two_bidder_multi(self, two_bidder_multi):
        assert lyapunov_step({1}, (0,), two_bidder_multi) == -2


def _assert_identity_on_box(inst, cap):
    ly = LyapunovOracle(inst)
    dc = ly.demand
    size = 1 << inst.n
    for p in product(range(cap + 1), repeat=inst.n):
        table = dc.deficiency_from_key(dc.demand_key(p))
        for mask in range(size):
            assert ly.value(chi_add(p, mask)) - ly.value(p) == -table[mask], (p, mask)


class TestDifferenceIdentity:
    def test_worked_example_box(self, ex21):
        _assert_identity_on_box(ex21, 2)

    def test_two_bidder_multi_box(self, two_bidder_multi):
        _assert_identity_on_box(two_bidder_multi, 6)

    @given(st.integers(0, 2**32 - 1))
    def test_random_unit(self, seed):
        rng = random.Random(seed)
        inst = random_unit_instance(rng, n_max=3, m_max=4, value_max=3)
        _assert_identity_on_box(inst, 4)

    @given(st.integers(0, 2**32 - 1))
    def test_random_multi(self, seed):
        rng = random.Random(seed)
        inst = random_multi_instance(rng, n_max=2, u_max=2, m_max=2, value_max=3)
        _assert_identity_on_box(inst, max_total_value(inst) + 1)


class TestSubmodularity:
    @given(st.integers(0, 2**32 - 1))
    def test_lattice_inequality(self, seed):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            inst = random_unit_instance(rng, n_max=3, m_max=4, value_max=3)
            cap = 4
        else:
            inst = random_multi_instance(rng, n_max=2, u_max=2, m_max=2, value_max=3)
            cap = max_total_value(inst) + 1
        ly = LyapunovOracle(inst)
        for _ in range(20):
            p = tuple(rng.randint(0, cap) for _ in range(inst.n))
            q = tuple(rng.randint(0, cap) for _ in range(inst.n))
            meet = tuple(map(min, p, q))
            join = tuple(map(max, p, q))
            assert ly.value(p) + ly.value(q) >= ly.value(meet) + ly.value(join)


class TestMemo:
    def test_value_is_stable_across_calls(self, ex21):
        ly = LyapunovOracle(ex21)
        assert ly.value((1, 0, 1)) == ly.value((1, 0, 1))

    def test_oracle_adapter_reads_only_negative_prices_as_none(self, ex21):
        ly = LyapunovOracle(ex21)
        g = ly.function_oracle()
        assert g.box is None
        assert g((0, 0, 0)) == 6
        assert g((-1, 0, 0)) is None
        past = (max_total_value(ex21) + 3, 0, 0)
        assert g(past) == ly.value(past)


def _neighborhood_markets(rng):
    """Seeded unit, separable, admitted-table and mixed-family markets.

    The mixed kind is the multi model with one unit of each item and
    unit-demand, separable and tabulated bidders side by side.
    """
    markets = []
    for _ in range(4):
        markets.append(random_unit_instance(rng, n_max=4, m_max=5, value_max=4))
        sep = random_multi_instance(rng, n_max=3, u_max=2, m_max=3, value_max=5)
        markets.append(sep)
        markets.append(Instance(model="multi", n=sep.n, u=sep.u,
                                valuations=tuple(tabulate(v) for v in sep.valuations)))
    for _ in range(4):
        n = rng.randint(1, 3)
        u = (1,) * n
        vals = [Valuation.unit_demand([rng.randint(0, 5) for _ in range(n)])
                for _ in range(rng.randint(1, 3))]
        vals.append(random_separable_valuation(rng, u, value_max=5))
        vals.append(tabulate(random_separable_valuation(rng, u, value_max=5)))
        vals.append(tabulate(Valuation.unit_demand([rng.randint(0, 5) for _ in range(n)])))
        rng.shuffle(vals)
        markets.append(Instance(model="multi", n=n, u=u, valuations=tuple(vals)))
    return markets


def _table(ly, g, p):
    """The descent's table at p: Lyapunov value plus the demand-side changes."""
    return [g(p) + d for d in ly._change_table(p)]


class TestNeighborhoodTable:
    """``LyapunovOracle._change_table`` against the generic value-route builder."""

    def test_matches_value_route_past_the_price_ceiling(self):
        rng = random.Random(23)
        for inst in _neighborhood_markets(rng):
            ly = LyapunovOracle(inst)
            g = ly.function_oracle()
            top = max_total_value(inst)
            levels = [0, 1, top // 2, max(top - 1, 0), top, top + 1, top + 2, top + 3]
            for _ in range(8):
                p = tuple(rng.choice(levels) for _ in range(inst.n))
                fast = _table(ly, g, p)
                slow = neighborhood_values(g, p)
                assert len(fast) == len(slow) == 1 << inst.n
                for mask, (a, b) in enumerate(zip(fast, slow)):
                    assert a == b, (inst, p, mask)
            beyond = (top + 2,) * inst.n
            assert _table(ly, g, beyond) == neighborhood_values(g, beyond)

    def test_matches_the_per_set_twin(self):
        """Every entry is minus ``deficiency_mask``, the bidder-by-bidder sum
        of minimum takes less the supply."""
        rng = random.Random(29)
        for inst in _neighborhood_markets(rng):
            ly = LyapunovOracle(inst)
            top = max_total_value(inst)
            for _ in range(6):
                p = tuple(rng.randint(0, top + 1) for _ in range(inst.n))
                assert list(ly._change_table(p)) == \
                    [-ly.deficiency_mask(mask, p) for mask in range(1 << inst.n)], (inst, p)

    def test_reads_no_lyapunov_value(self, monkeypatch):
        """The changes come from demand primitives alone; the descent adds
        the value it already holds."""
        rng = random.Random(31)
        markets = _neighborhood_markets(rng)
        expected = []
        for inst in markets:
            ly = LyapunovOracle(inst)
            p = (1,) * inst.n
            expected.append([ly.value(chi_add(p, mask)) - ly.value(p)
                             for mask in range(1 << inst.n)])

        def refuse(self, p):
            raise AssertionError("Lyapunov value read")

        monkeypatch.setattr(LyapunovOracle, "value", refuse)
        assert [list(LyapunovOracle(inst)._change_table((1,) * inst.n)) for inst in markets] == \
            expected

    def test_separable_table_skips_the_demand_set_product(self, monkeypatch):
        """Where every item ties, each separable bidder's demand set holds
        4^n bundles; the table must come from per-item argmaxes instead."""
        n = 8
        inst = Instance(model="multi", n=n, u=(3,) * n, valuations=tuple(
            Valuation.separable([[5, 5, 5]] * n) for _ in range(2)))
        ly = LyapunovOracle(inst)
        g = ly.function_oracle()
        prices = [(4,) * n, (5,) * n, (5, 6) * (n // 2)]
        slow = [neighborhood_values(g, p) for p in prices]

        def refuse(self, b, p):
            raise AssertionError("demand set built")

        monkeypatch.setattr(DemandCache, "demand_set", refuse)
        assert [_table(ly, g, p) for p in prices] == slow


def _visited_prices(ly):
    """Every price the four strategies visit on ``ly``'s instance, sharing
    ``ly`` as ``compare`` does, in visiting order."""
    prices = []
    for kind in StrategyKind:
        res = ascending_auction(ly.instance, kind, seed=3, oracle=ly)
        prices += [step.p_before for step in res.trajectory.steps] + [res.p_min]
    return prices


class TestKeptTables:
    """``LyapunovOracle._change_table`` keeps its tables by demand key."""

    def test_warm_tables_match_fresh_oracles(self):
        """At every price any strategy visits, the warm oracle's table equals
        a fresh oracle's and the per-set twin, on unit, separable,
        admitted-table and mixed-family markets."""
        rng = random.Random(41)
        served = 0
        for inst in _neighborhood_markets(rng):
            ly = LyapunovOracle(inst)
            prices = _visited_prices(ly)
            served += len(prices) - len(ly._tables)
            for p in prices:
                want = LyapunovOracle(inst)._change_table(p)
                assert ly._change_table(p) == want, (inst, p)
                assert list(want) == [-ly.deficiency_mask(mask, p)
                                      for mask in range(1 << inst.n)]
        assert served > 0

    def test_returned_tables_cannot_be_mutated(self, ex21, two_bidder_multi):
        """The kept table itself is handed out, so a caller cannot change
        what later calls read."""
        for inst, p in ((ex21, (0, 0, 0)), (two_bidder_multi, (1,))):
            ly = LyapunovOracle(inst)
            want = LyapunovOracle(inst)._change_table(p)
            first = ly._change_table(p)
            assert ly._change_table(p) is first
            with pytest.raises(TypeError):
                first[1] += 5
            with pytest.raises(AttributeError):
                first.append(0)
            assert ly._change_table(p) == want

    def test_kept_entries_stay_within_the_budget(self):
        """Under a small budget the kept tables never hold more than
        ``budget`` entries, 2^n per table, and every table equals an
        unbounded oracle's.  The budget is one for the oracle and its demand
        side, so it is drawn no smaller than the (m + 1) * 2^n entries every
        table build is checked against."""
        rng = random.Random(43)
        held = cleared = 0
        for _ in range(20):
            inst = (random_unit_instance(rng, n_max=3, m_max=4) if rng.random() < 0.5
                    else random_multi_instance(rng, n_max=2, u_max=2, m_max=3))
            least = (inst.m + 1) << inst.n
            budget = rng.randint(least, 2 * least)
            small = LyapunovOracle(inst, budget=budget)
            full = LyapunovOracle(inst)
            prices = list(product(range(max_total_value(inst) + 2), repeat=inst.n))
            for p in prices + prices[::-1]:
                before = len(small._tables)
                assert small._change_table(p) == full._change_table(p)
                assert len(small._tables) << inst.n <= budget
                held = max(held, len(small._tables))
                cleared += len(small._tables) < before
            bounded = LyapunovOracle(inst, budget=budget)
            assert ascending_auction(inst, oracle=bounded, budget=budget).p_min == \
                ascending_auction(inst).p_min
            assert len(bounded._tables) << inst.n <= budget
        assert held > 1 and cleared > 0


def _corner_oracles(inst: Instance, value) -> tuple[FunctionOracle, FunctionOracle]:
    """The oracle's adapter, which reads corners from ``grid_values``, and
    a plain ``FunctionOracle`` of ``value``, None below zero, which reads
    them point by point."""
    def fn(q):
        return None if any(c < 0 for c in q) else value(q)

    return LyapunovOracle(inst).function_oracle(), FunctionOracle(n=inst.n, fn=fn)


class TestNeighborhoodValues:
    """``neighborhood_values(g, p, s)``, the certificate scans' batch route,
    against per-point ``LyapunovOracle.value``."""

    def test_matches_per_point_values_in_both_directions(self):
        rng = random.Random(37)
        blocked = 0
        for inst in _neighborhood_markets(rng):
            point = LyapunovOracle(inst)
            oracles = _corner_oracles(inst, point.value)
            top = max_total_value(inst)
            for _ in range(6):
                p = tuple(rng.choice((0, 0, 1, 2, top, top + 1)) for _ in range(inst.n))
                for s in (1, -1, 1):
                    expected = []
                    for mask in range(1 << inst.n):
                        q = tuple(c + s * (mask >> k & 1) for k, c in enumerate(p))
                        expected.append(None if min(q) < 0 else point.value(q))
                    for g in oracles:
                        assert neighborhood_values(g, p, s) == expected, (inst, p, s)
                    blocked += expected.count(None)
        assert blocked > 0


class TestPerItemColumns:
    """``LyapunovOracle.value`` and ``grid_values`` read separable bidders
    per item from sorted columns and unit-demand bidders inline;
    ``oracle.lyapunov_value`` reads every bidder by the definition, a scan of
    the bundle box through ``evaluate``, and shares no scan with them."""

    @given(st.data())
    def test_value_and_neighborhood_values_match_the_per_bidder_twin(self, data):
        inst = data.draw(column_markets())
        p = data.draw(column_prices(inst))
        ly = LyapunovOracle(inst)
        assert ly.value(p) == lyapunov_value(p, inst)
        oracles = _corner_oracles(inst, lambda q: lyapunov_value(q, inst))
        for s, shift in ((1, chi_add), (-1, chi_sub)):
            expected = []
            for mask in range(1 << inst.n):
                q = shift(p, mask)
                expected.append(None if min(q) < 0 else lyapunov_value(q, inst))
            for g in oracles:
                assert neighborhood_values(g, p, s) == expected, (inst, p, s)

    def test_the_twin_sees_a_planted_table_scan_fault(self, monkeypatch):
        """With the candidate payoff read's worth of the full bundle one too
        high, a table bidder's best payoff reads one more through
        ``value``, and the twin, which reads no cache scan, keeps the true
        value."""
        inst = Instance(model="multi", n=2, u=(1, 1),
                        valuations=(tabulate(Valuation.separable([[3], [2]])),))
        p = (1, 1)
        assert LyapunovOracle(inst).value(p) == lyapunov_value(p, inst) == 5
        read = demand._candidate_bests

        def one_off(mask, worths, box, p):
            return read(mask, [w[:-1] + [w[-1] + 1] for w in worths], box, p)

        monkeypatch.setattr(demand, "_candidate_bests", one_off)
        assert LyapunovOracle(inst).value(p) == 6
        assert lyapunov_value(p, inst) == 5


@st.composite
def grid_markets(draw) -> Instance:
    """The column markets (unit, separable, mixed and bidderless), and
    markets of arbitrary explicit tables, substitutes or not."""
    if draw(st.booleans()):
        return draw(column_markets())
    n = draw(st.integers(1, 3))
    u = tuple(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))
    volume = box_volume(u)
    table = st.lists(st.integers(0, 9), min_size=volume, max_size=volume).map(
        lambda raises: _monotone_table(u, raises))
    return Instance(model="multi", n=n, u=u,
                    valuations=tuple(draw(st.lists(table, min_size=1, max_size=3))))


def _monotone_table(u, raises) -> Valuation:
    """A normalized monotone table over [0, u]: each bundle's worth is the
    best of its one-unit-smaller bundles' plus its entry of ``raises``."""
    worth = {}
    for x, up in zip(iter_box(u), raises):
        below = [worth[x[:j] + (c - 1,) + x[j + 1:]] for j, c in enumerate(x) if c]
        worth[x] = max(below) + up if below else 0
    return Valuation.from_table(worth)


@st.composite
def price_axes(draw, inst: Instance) -> list[list[int]]:
    """One price list per item: any prices from -2 to past the value
    ceiling, repeats allowed, from empty to u_j + 3 long; or the corner
    pairs (c, c + 1) and (c, c - 1) the certificate scans read."""
    price = st.integers(-2, max_total_value(inst) + 1)
    axes = []
    for q in inst.u:
        kind = draw(st.sampled_from(("list", "list", "up", "down", "repeat")))
        if kind == "list":
            axes.append(draw(st.lists(price, max_size=q + 3)))
        else:
            c = draw(price)
            axes.append({"up": [c, c + 1], "down": [c, c - 1], "repeat": [c, c, c]}[kind])
    return axes


def _per_point(ly, axes):
    return [None if min(p) < 0 else ly.value(p) for p in product(*axes)]


def _unit(n, *worths):
    return Instance(model="unit", n=n, u=(1,) * n,
                    valuations=tuple(map(Valuation.unit_demand, worths)))


class TestGridValues:
    """``LyapunovOracle.grid_values``, the batch route over a price grid,
    against per-point ``LyapunovOracle.value``.  A unit-demand bidder's
    payoff on a grid is at least its floor, the best of 0 and each item's
    worth less the item's highest price; its lifted items are those whose
    worth less the item's lowest price beats the floor, and the examples
    fold each count of them.  A table bidder's conjugate pass reads price 0
    at the most units; the table examples put price 0 beside plateaus,
    beside a reordered pass, and in a market of tabulated bidders."""

    @given(st.data())
    # no item lifted: worth below every price, and worth nothing
    @example(data=Drawn(_unit(2, [3, 1], [0, 0]), [[5, 6], [2, 4]]))
    # one item lifted, item 1, whose column meets the floor 0
    @example(data=Drawn(_unit(2, [5, 8], [7, 3]), [[0, 9], [10, 12]]))
    # one item lifted, item 1, whose column meets the floor 2 item 2 sets
    @example(data=Drawn(_unit(2, [7, 3]), [[2, 8], [1, 1]]))
    # several items lifted, items 1 and 3 among them, item 2 not lifted
    @example(data=Drawn(_unit(3, [9, 0, 8], [1, 9, 9]), [[1, 2], [0, 1], [0, 1]]))
    # a single-price axis sets a floor of 6 with no item lifted
    @example(data=Drawn(_unit(2, [9, 2], [4, 6]), [[3], [1, 4]]))
    # repeated, unsorted prices
    @example(data=Drawn(_unit(2, [5, 3], [2, 6], [4, 4]), [[4, 1, 4], [2, 0, 2]]))
    # negative prices: None at the points that hold one
    @example(data=Drawn(_unit(2, [5, 3], [2, 6]), [[-1, 2], [0, 1, -2]]))
    # unit-demand bidders beside separable and table bidders
    @example(data=Drawn(Instance(model="multi", n=2, u=(1, 1), valuations=(
        Valuation.unit_demand([6, 1]), Valuation.separable([[3], [2]]),
        tabulate(Valuation.unit_demand([4, 5])), Valuation.unit_demand([5, 6]))),
        [[1, 2], [0, 3]]))
    # table plateaus, v(x + e_j) = v(x), on axes holding 0 and positive prices
    @example(data=Drawn(Instance(model="multi", n=2, u=(2, 1), valuations=(
        _monotone_table((2, 1), [0, 4, 0, 0, 3, 5]),)), [[0, 2, 5], [0, 1]]))
    # item 1's axis outgrows its bundle axis, so the passes are reordered
    @example(data=Drawn(Instance(model="multi", n=2, u=(1, 2), valuations=(
        _monotone_table((1, 2), [0, 0, 2, 3, 0, 1]),)), [[0, 1, 3, 4], [0, 2]]))
    # tabulated separable and unit-demand bidders on [0, 1]^5
    @example(data=Drawn(Instance(model="multi", n=5, u=(1,) * 5, valuations=(
        tabulate(Valuation.separable([[3], [0], [5], [2], [4]])),
        tabulate(Valuation.unit_demand([4, 0, 6, 1, 3])))),
        [[0, 1], [0, 2], [1, 0], [0], [2, 3]]))
    def test_matches_per_point_values(self, data):
        inst = data.draw(grid_markets())
        axes = data.draw(price_axes(inst))
        ly = LyapunovOracle(inst)
        assert ly.grid_values(axes) == _per_point(LyapunovOracle(inst), axes), (inst, axes)

    def test_long_axes_run_after_short_ones(self, monkeypatch):
        """Item 1's axis outgrows its bundle axis and the others do not, so
        the passes run in the order 2, 3, 1; no list they build is longer
        than the larger of the box and the grid, and the grid still comes
        out in item order."""
        rng = random.Random(3)
        u = (1, 2, 1)
        vals = tuple(_monotone_table(u, [rng.randint(0, 9) for _ in range(12)])
                     for _ in range(2))
        inst = Instance(model="multi", n=3, u=u, valuations=vals)
        axes = [[0, 3, 1, 7], [2], [5, 0]]
        lengths = []
        conjugate = demand._conjugate_pass

        def counted(vals, cap, prices):
            out = conjugate(vals, cap, prices)
            lengths.append(len(out))
            return out

        monkeypatch.setattr(demand, "_conjugate_pass", counted)
        assert LyapunovOracle(inst).grid_values(axes) == \
            _per_point(LyapunovOracle(inst), axes)
        # In item order, the first pass alone would build 12 / 2 * 4 = 24.
        assert lengths == [4, 4, 8] * 2

    def test_over_budget_box_is_refused_as_value_refuses_it(self):
        u = (1, 1, 1)
        inst = Instance(model="multi", n=3, u=u, valuations=(
            Valuation.separable([[2], [1], [3]]),
            Valuation.from_table({x: sum(x) for x in iter_box(u)})))
        with pytest.raises(BudgetExceededError) as per_point:
            LyapunovOracle(inst, budget=7).value((0, 1, 0))
        with pytest.raises(BudgetExceededError) as grid:
            LyapunovOracle(inst, budget=7).grid_values([[0, 1], [1], [0]])
        assert str(grid.value) == str(per_point.value) == \
            "bundle box volume 8 exceeds budget 7"
        ly = LyapunovOracle(inst, budget=7)
        assert ly.grid_values([[0, 1], [-1], [0]]) == [None, None]
        assert ly.grid_values([[0, 1], [], [0]]) == []
        assert LyapunovOracle(inst, budget=8).grid_values([[0, 1], [1], [0]]) == \
            [LyapunovOracle(inst).value(p) for p in ((0, 1, 0), (1, 1, 0))]

    def test_rejects_malformed_axes(self, ex21):
        ly = LyapunovOracle(ex21)
        with pytest.raises(ValueError, match="3 axes"):
            ly.grid_values([[0], [0]])
        for bad in (True, 1.0, "1"):
            with pytest.raises(ValueError, match="axis 1 must hold integers"):
                ly.grid_values([[0], [0, bad], [0]])
