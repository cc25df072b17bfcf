"""Auction layer: overdemand/excess predicates, the auction loop, allocations."""

import gc
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (Drawn, breaks_local_exchange, complements_table_market, random_multi_instance,
                      random_separable_valuation, random_unit_instance, tabulate)
from walras import (DEFAULT_BUDGET, BudgetExceededError, FunctionOracle, Instance,
                    LyapunovOracle, MultiAllocation, StrategyKind, UnitAllocation,
                    Valuation, allocation_certifies, ascending_auction,
                    equilibrium_prices_by_enumeration, extract_allocation,
                    WalrasError, is_excess_demand, is_overdemanded, mu,
                    price_cap, unit_demand_set, verify_equilibrium, verify_mnat_exc)
from walras.errors import ConvexityError
from walras.oracle import excess_demand_table
from walras.auction import _extract_multi
from walras.demand import DemandCache
from walras import lnat
from walras.cli import STRATEGY_FLAGS
from walras.instance import box_volume
from walras.itemsets import chi_add, items_from_mask
from walras.oracle import separable_p_min


class TestOverdemanded:
    def test_worked_example_family(self, ex21):
        p = (0, 0, 0)
        family = {frozenset(s) for s in [{1}, {1, 2}, {2, 3}, {1, 2, 3}]}
        for mask in range(1, 8):
            items = items_from_mask(mask)
            assert is_overdemanded(items, p, ex21) == (items in family)

    def test_empty_set_never_overdemanded(self, ex21):
        assert not is_overdemanded(frozenset(), (0, 0, 0), ex21)


class TestExcessDemand:
    def test_worked_example_family(self, ex21):
        p = (0, 0, 0)
        family = {frozenset(s) for s in [{1}, {2, 3}, {1, 2, 3}]}
        for mask in range(1, 8):
            items = items_from_mask(mask)
            assert is_excess_demand(items, p, ex21) == (items in family)

    def test_two_bidder_multi(self, two_bidder_multi):
        assert is_excess_demand({1}, (0,), two_bidder_multi)

    def test_empty_set_rejected(self, ex21):
        with pytest.raises(ValueError, match="nonempty"):
            is_excess_demand(frozenset(), (0, 0, 0), ex21)

    @given(st.integers(0, 2**32 - 1))
    def test_table_agrees_with_the_predicate(self, seed):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            inst = random_unit_instance(rng, n_max=4, m_max=5, value_max=3)
            cap = 3
        else:
            inst = random_multi_instance(rng, n_max=2, u_max=2, m_max=3, value_max=4)
            cap = 4
        p = tuple(rng.randint(0, cap) for _ in range(inst.n))
        table = excess_demand_table(inst, p)
        for mask in range(1, 1 << inst.n):
            assert table[mask] == is_excess_demand(items_from_mask(mask), p, inst)

    @given(st.integers(0, 2**32 - 1))
    def test_both_forms_match_the_definitions(self, seed):
        """``is_excess_demand`` and ``excess_demand_table`` against the
        definitions restated over item sets, for every nonempty Z in X:
        unit, the bidders whose ``unit_demand_set`` lies inside X and meets
        Z outnumber Z; multi, the sum over bidders of mu(X) - mu(X - Z)
        exceeds Z's supply.  Markets may hold table bidders; prices reach
        the value cap."""
        rng = random.Random(seed)
        if rng.random() < 0.5:
            inst = random_unit_instance(rng, n_max=4, m_max=5, value_max=3)
        else:
            sep = random_multi_instance(rng, n_max=3, u_max=2, m_max=3, value_max=4)
            inst = Instance(model="multi", n=sep.n, u=sep.u, valuations=tuple(
                tabulate(v) if rng.random() < 0.3 else v for v in sep.valuations))
        p = tuple(rng.randint(0, cap) for cap in price_cap(inst))
        sets = [frozenset(c) for k in range(1, inst.n + 1)
                for c in combinations(range(1, inst.n + 1), k)]
        if inst.model == "unit":
            demand = [unit_demand_set(b, p, inst) for b in range(inst.m)]

            def overdemanded(X, Z):
                return len([d for d in demand if d <= X and d & Z]) > len(Z)
        else:
            def overdemanded(X, Z):
                extra = sum(mu(b, X, p, inst) - mu(b, X - Z, p, inst)
                            for b in range(inst.m))
                return extra > sum(inst.u[j - 1] for j in Z)

        table = excess_demand_table(inst, p)
        assert len(table) == 1 << inst.n and not table[0]
        for X in sets:
            want = all(overdemanded(X, Z) for Z in sets if Z <= X)
            assert is_excess_demand(X, p, inst) == want, (inst, p, X)
            assert table[sum(1 << (j - 1) for j in X)] == want, (inst, p, X)


class TestAscendingAuction:
    def test_worked_example_steepest(self, ex21):
        res = ascending_auction(ex21, StrategyKind.STEEPEST_MINIMAL)
        assert res.p_min == (1, 1, 1)
        assert len(res.trajectory) == 1
        step = res.trajectory.steps[0]
        assert step.chosen_mask == 0b111
        assert step.g_before - step.g_after == 3

    def test_worked_example_minimal_descent(self, ex21):
        res = ascending_auction(ex21, StrategyKind.MINIMAL_DESCENT)
        assert res.p_min == (1, 1, 1)
        assert [s.chosen_mask for s in res.trajectory.steps] == [0b001, 0b110]

    def test_two_bidder_multi_steepest(self, two_bidder_multi):
        res = ascending_auction(two_bidder_multi, StrategyKind.STEEPEST_MINIMAL)
        assert res.p_min == (2,)
        assert len(res.trajectory) == 2
        assert res.allocation == MultiAllocation(bundles=((1,), (1,)))

    def test_diagnostics_match_value_drops(self, ex21, two_bidder_multi):
        """Each step's value drop is its chosen set's deficiency, read by the
        per-set demand-side twin."""
        rng = random.Random(7)
        markets = [ex21, two_bidder_multi]
        for _ in range(6):
            markets.append(random_unit_instance(rng, n_max=4, m_max=5, value_max=4))
            sep = random_multi_instance(rng, n_max=3, u_max=2, m_max=3, value_max=5)
            markets.append(sep)
            markets.append(Instance(model="multi", n=sep.n, u=sep.u,
                                    valuations=tuple(tabulate(v) for v in sep.valuations)))
        for inst in markets:
            ly = LyapunovOracle(inst)
            for kind in StrategyKind:
                res = ascending_auction(inst, kind, seed=5, oracle=ly)
                for step in res.trajectory.steps:
                    assert step.g_before - step.g_after == \
                        ly.deficiency_mask(step.chosen_mask, step.p_before)

    def test_result_holds_few_bytes_per_step(self):
        """A finished run keeps one small record per iteration and nothing
        derived from it: 20,000 steps hold under 320 bytes each."""
        steps = 20_000
        inst = Instance(model="unit", n=1, u=(1,), valuations=(
            Valuation.unit_demand([steps]), Valuation.unit_demand([steps])))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = ascending_auction(inst, StrategyKind.STEEPEST_MINIMAL)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert res.p_min == (steps,) and len(res.trajectory) == steps
        assert held < 320 * steps, held / steps

    def test_shared_oracle_holds_few_bytes_per_step(self):
        """A Lyapunov oracle shared with a run keeps no value per price it
        read: after 20,000 steps it holds under 16 bytes per step."""
        steps = 20_000
        inst = Instance(model="unit", n=1, u=(1,), valuations=(
            Valuation.unit_demand([steps]), Valuation.unit_demand([steps])))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ly = LyapunovOracle(inst)
            res = ascending_auction(inst, StrategyKind.STEEPEST_MINIMAL, oracle=ly)
            del res
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ly.value((steps,)) == steps
        assert held < 16 * steps, held / steps

    def test_custom_start(self, ex21):
        res = ascending_auction(ex21, StrategyKind.STEEPEST_MINIMAL, (1, 0, 0))
        assert res.p_min == (1, 1, 1)

    def test_non_substitutes_table_rejected(self):
        from walras.errors import ConvexityError
        inst = Instance(model="multi", n=2, u=(1, 1),
                        valuations=(Valuation.from_table(
                            {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 3}),))
        with pytest.raises(ConvexityError, match="exchange"):
            ascending_auction(inst)

    def test_substitutes_table_accepted(self):
        inst = Instance(model="multi", n=2, u=(1, 1),
                        valuations=(Valuation.from_table(
                            {(0, 0): 0, (1, 0): 2, (0, 1): 1, (1, 1): 3}),))
        res = ascending_auction(inst)
        assert res.p_min == (0, 0)


class TestAdmission:
    """Explicit tables pass the exchange check once per Lyapunov oracle."""

    def test_shared_oracle_admits_once(self, mnat_calls):
        calls = mnat_calls
        inst = Instance(model="multi", n=2, u=(1, 1), valuations=(
            Valuation.from_table({(0, 0): 0, (1, 0): 2, (0, 1): 1, (1, 1): 3}),
            Valuation.separable([[2], [1]]),
            Valuation.from_table({(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 2})))
        ly = LyapunovOracle(inst, budget=1000)
        assert not ly.admitted
        for kind in StrategyKind:
            ascending_auction(inst, kind, oracle=ly, budget=1000)
        assert calls == [1000, 1000]
        assert ly.admitted
        # Another oracle checks again, within its own budget.
        small = LyapunovOracle(inst, budget=3)
        with pytest.raises(BudgetExceededError, match="exceeds budget 3"):
            ascending_auction(inst, oracle=small, budget=3)
        assert calls == [1000, 1000, 3]
        assert not small.admitted

    def test_admission_error_names_a_local_witness(self):
        """The refusal names the verifier's witness, a pair that breaks the
        local exchange condition as printed."""
        from walras.errors import ConvexityError
        rng = random.Random(37)
        for _ in range(20):
            inst = complements_table_market(rng)
            with pytest.raises(ConvexityError) as refusal:
                ascending_auction(inst)
            bad = verify_mnat_exc(inst.valuations[0])
            assert str(refusal.value) == (
                f"valuations[0] violates the substitutes exchange property: "
                f"x={bad.x} y={bad.y}")
            assert breaks_local_exchange(inst.valuations[0], bad.x, bad.y)

    def test_rejected_oracle_is_not_admitted(self, mnat_calls):
        from walras.errors import ConvexityError
        calls = mnat_calls
        inst = Instance(model="multi", n=2, u=(1, 1), valuations=(
            Valuation.from_table({(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 3}),))
        ly = LyapunovOracle(inst)
        for kind in StrategyKind:
            with pytest.raises(ConvexityError, match="exchange property"):
                ascending_auction(inst, kind, oracle=ly)
            assert not ly.admitted
        assert len(calls) == len(StrategyKind) == 3


class TestSharedOracle:
    """The oracle ``ascending_auction`` takes must be built for the run's
    instance and budget: a foreign one would read another market."""

    @staticmethod
    def _market(worths):
        return Instance(model="multi", n=1, u=(2,), valuations=(
            Valuation.separable([worths]), Valuation.separable([worths])))

    def test_oracle_of_another_instance_is_refused(self):
        a, b = self._market([3, 2]), self._market([9, 8])
        with pytest.raises(ValueError, match="another instance or budget"):
            ascending_auction(a, oracle=LyapunovOracle(b))
        # An equal instance built apart is the same market.
        twin = LyapunovOracle(self._market([3, 2]))
        assert ascending_auction(a, oracle=twin).p_min == (2,)
        assert ascending_auction(b, oracle=LyapunovOracle(b)).p_min == (8,)

    def test_oracle_under_another_budget_is_refused(self):
        a = self._market([3, 2])
        ly = LyapunovOracle(a, budget=1000)
        for budget in (999, 1001, DEFAULT_BUDGET):
            with pytest.raises(ValueError, match="another instance or budget"):
                ascending_auction(a, oracle=ly, budget=budget)
        assert not ly.admitted and not ly._tables
        assert ascending_auction(a, oracle=ly, budget=1000).p_min == (2,)


class TestExtractAllocation:
    def test_worked_example_equilibrium_price(self, ex21):
        alloc = extract_allocation(ex21, (1, 1, 1))
        assert alloc is not None
        assert allocation_certifies(ex21, (1, 1, 1), alloc)

    def test_worked_example_start_price(self, ex21):
        assert extract_allocation(ex21, (0, 0, 0)) is None

    def test_no_bidders_unit(self):
        inst = Instance(model="unit", n=2, u=(1, 1), valuations=())
        alloc = extract_allocation(inst, (0, 0))
        assert alloc == UnitAllocation(assignment=())
        assert allocation_certifies(inst, (0, 0), alloc)
        assert extract_allocation(inst, (1, 0)) is None

    def test_no_bidders_multi(self):
        inst = Instance(model="multi", n=1, u=(2,), valuations=())
        assert extract_allocation(inst, (0,)) is None

    def test_two_bidder_multi(self, two_bidder_multi):
        assert extract_allocation(two_bidder_multi, (2,)) == \
            MultiAllocation(bundles=((1,), (1,)))
        assert extract_allocation(two_bidder_multi, (0,)) is None

    def test_search_budget_is_a_distinct_error(self, two_bidder_multi):
        with pytest.raises(BudgetExceededError):
            extract_allocation(two_bidder_multi, (2,), budget=1)

    def test_duplicate_assignment_rejected(self):
        with pytest.raises(ValueError, match="two bidders"):
            UnitAllocation(assignment=(1, 1))

    def test_zero_worth_unit_bidder_takes_every_item(self):
        """A u = 1 multi market whose one unit-demand bidder values both
        items at 0: at p_min = (0, 0) it demands every bundle of the box,
        not only the single items its demand mask names, and the supply
        clears only if it takes (1, 1)."""
        inst = Instance(model="multi", n=2, u=(1, 1),
                        valuations=(Valuation.unit_demand([0, 0]),))
        assert DemandCache(inst).demand_set(0, (0, 0)) == ((0, 0), (0, 1), (1, 0), (1, 1))
        want = MultiAllocation(((1, 1),))
        for kind in StrategyKind:
            res = ascending_auction(inst, kind)
            assert (res.p_min, res.allocation) == ((0, 0), want), kind
        verdict = verify_equilibrium(inst, (0, 0))
        assert verdict.equilibrium and verdict.allocation == want

    def test_a_path_through_a_required_bidder_drops_one_that_may_buy_nothing(self):
        """At p = (1, 1) bidder 0 demands {0, 2}, bidder 1 {1, 2} and bidder
        2 {1}.  Both items are priced, so both must be sold, and bidders 1
        and 2 must buy.  The items' searches give item 1 to bidder 1 and
        item 2 to bidder 0; bidder 2's path then runs through bidder 1, who
        must keep an item, to item 2, and ends by dropping bidder 0, who
        falls back to buying nothing.  No other allocation exists."""
        inst = Instance(model="unit", n=2, u=(1, 1), valuations=(
            Valuation.unit_demand([0, 1]), Valuation.unit_demand([2, 2]),
            Valuation.unit_demand([2, 0])))
        p = (1, 1)
        alloc = extract_allocation(inst, p)
        assert alloc == UnitAllocation((0, 2, 1))
        assert allocation_certifies(inst, p, alloc)

    def test_a_matching_path_longer_than_the_recursion_limit(self):
        """Bidder b is worth 10 on items b + 1 and b + 2, the last bidder on
        item n alone, and every price is 5.  Item i's search walks back
        through every earlier item before it finds bidder i - 1 free, a
        path of i left vertices; at n = 1,500 that is past Python's
        recursion limit.  ``verify_equilibrium`` reads its allocation from
        ``extract_allocation``."""
        n = 1500
        inst = Instance(model="unit", n=n, u=(1,) * n, valuations=tuple(
            Valuation.unit_demand([10 if j in (b, b + 1) else 0 for j in range(n)])
            for b in range(n)))
        p = (5,) * n
        verdict = verify_equilibrium(inst, p)
        assert verdict.equilibrium
        assert verdict.allocation == UnitAllocation(tuple(range(1, n + 1)))
        assert allocation_certifies(inst, p, verdict.allocation)


class TestVerifyEquilibrium:
    def test_worked_example(self, ex21):
        good = verify_equilibrium(ex21, (1, 1, 1))
        assert good.equilibrium and good.allocation is not None

    def test_witness_when_one_price_lags(self, ex21):
        bad = verify_equilibrium(ex21, (1, 1, 0))
        assert not bad.equilibrium
        assert bad.witness is not None and bad.witness.direction == 1
        assert bad.witness.items == {3}

    def test_two_bidder_multi(self, two_bidder_multi):
        v = verify_equilibrium(two_bidder_multi, (2,))
        assert v.equilibrium and v.allocation == MultiAllocation(((1,), (1,)))

    def test_witness_above_the_minimizer_set(self, two_bidder_multi):
        bad = verify_equilibrium(two_bidder_multi, (4,))
        assert not bad.equilibrium
        assert bad.witness is not None and bad.witness.direction == -1

    def test_degenerate_bidderless_multi(self):
        inst = Instance(model="multi", n=1, u=(2,), valuations=())
        v = verify_equilibrium(inst, (0,))
        assert not v.equilibrium and v.witness is None
        above = verify_equilibrium(inst, (1,))
        assert not above.equilibrium and above.witness.direction == -1


class TestFamilyIndependence:
    def test_mixed_families_agree_with_brute_force(self):
        from conftest import tabulate
        from walras import brute_force_min_equilibrium
        sep = Valuation.separable([[4], [2]])
        inst = Instance(model="multi", n=2, u=(1, 1), valuations=(
            Valuation.unit_demand([3, 1]), sep, tabulate(sep)))
        oracle_price = brute_force_min_equilibrium(inst)
        for kind in StrategyKind:
            run = ascending_auction(inst, kind, seed=3)
            assert run.p_min == oracle_price
            assert run.allocation is not None
            assert allocation_certifies(inst, run.p_min, run.allocation)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_tabulated_valuations_reproduce_separable_runs(self, seed):
        from conftest import tabulate
        rng = random.Random(seed)
        inst = random_multi_instance(rng, n_max=2, u_max=2, m_max=3, value_max=4)
        twin = Instance(model="multi", n=inst.n, u=inst.u,
                        valuations=tuple(tabulate(v) for v in inst.valuations))
        for kind in StrategyKind:
            a = ascending_auction(inst, kind, seed=seed % (1 << 64))
            b = ascending_auction(twin, kind, seed=seed % (1 << 64))
            assert a.p_min == b.p_min
            assert [s.chosen_mask for s in a.trajectory.steps] == \
                [s.chosen_mask for s in b.trajectory.steps]


class TestExtractionAgainstEnumeration:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_unit_matching_equals_definitional_search(self, seed):
        rng = random.Random(seed)
        inst = random_unit_instance(rng, n_max=3, m_max=5, value_max=2)
        eq = equilibrium_prices_by_enumeration(inst)
        for p in product(range(3), repeat=inst.n):
            alloc = extract_allocation(inst, p)
            assert (alloc is not None) == (p in eq), p
            if alloc is not None:
                assert allocation_certifies(inst, p, alloc)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_multi_search_equals_definitional_search(self, seed):
        rng = random.Random(seed)
        inst = random_multi_instance(rng, n_max=2, u_max=2, m_max=3, value_max=3)
        eq = equilibrium_prices_by_enumeration(inst)
        from walras import max_total_value
        cap = max_total_value(inst)
        for p in product(range(cap + 1), repeat=inst.n):
            alloc = extract_allocation(inst, p)
            assert (alloc is not None) == (p in eq), p
            if alloc is not None:
                assert allocation_certifies(inst, p, alloc)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_verify_verdict_matches_minimizer_membership(self, seed):
        rng = random.Random(seed)
        inst = random_unit_instance(rng, n_max=3, m_max=4, value_max=2)
        ly = LyapunovOracle(inst)
        from walras import all_lyapunov_minimizers
        minimizers = all_lyapunov_minimizers(inst)
        for p in product(range(3), repeat=inst.n):
            verdict = verify_equilibrium(inst, p)
            assert verdict.equilibrium == (p in minimizers)
            if not verdict.equilibrium:
                w = verdict.witness
                assert w is not None
                q = list(p)
                for i in w.items:
                    q[i - 1] += w.direction
                assert ly.value(tuple(q)) < ly.value(p)
                if w.direction == 1:  # the first descending raise, by mask
                    first = next(mask for mask in range(1, 1 << inst.n)
                                 if ly.value(chi_add(p, mask)) < ly.value(p))
                    assert w.items == items_from_mask(first)


def _extract_multi_listed(instance, p, dc, budget):
    """The search over listed demand sets, every separable bidder's whole
    product included: the reference for ``_extract_multi``."""
    n, m, u = instance.n, instance.m, instance.u
    if m == 0:
        return None
    sets = [dc.demand_set(b, p) for b in range(m)]
    maxs = [tuple(max(x[j] for x in ds) for j in range(n)) for ds in sets]
    mins = [tuple(min(x[j] for x in ds) for j in range(n)) for ds in sets]
    suffix_max = [(0,) * n] * (m + 1)
    suffix_min = [(0,) * n] * (m + 1)
    for k in range(m - 1, -1, -1):
        suffix_max[k] = tuple(maxs[k][j] + suffix_max[k + 1][j] for j in range(n))
        suffix_min[k] = tuple(mins[k][j] + suffix_min[k + 1][j] for j in range(n))
    chosen = [None] * m

    def rest_after(x, remaining, k):
        hi = suffix_max[k + 1]
        lo = suffix_min[k + 1]
        rest = []
        for j in range(n):
            r = remaining[j] - x[j]
            if r < 0 or r > hi[j] or r < lo[j]:
                return None
            rest.append(r)
        return tuple(rest)

    nodes = 0

    def count_node():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"allocation search exceeded budget {budget}")

    count_node()
    stack = [(u, 0)]
    while stack:
        k = len(stack) - 1
        remaining, i = stack[k]
        ds = sets[k]
        rest = None
        while rest is None and i < len(ds):
            rest = rest_after(ds[i], remaining, k)
            i += 1
        if rest is None:
            stack.pop()
            continue
        stack[k] = (remaining, i)
        chosen[k] = ds[i - 1]
        count_node()
        if k + 1 < m:
            stack.append((rest, 0))
        elif all(r == 0 for r in rest):
            return MultiAllocation(bundles=tuple(chosen))
    return None


def _search_outcome(search, inst, p, budget):
    try:
        return search(inst, p, DemandCache(inst), budget)
    except BudgetExceededError:
        return "budget"


class TestMultiSearchTwin:
    """``_extract_multi`` walks a separable bidder's per-item argmax ranges
    instead of its listed product, trying the same bundles in the same order
    and charging the same nodes."""

    def _markets(self, rng):
        markets = []
        for _ in range(12):
            markets.append(random_multi_instance(rng, n_max=3, u_max=3, m_max=4,
                                                 value_max=3))
        for _ in range(12):
            n = rng.randint(1, 3)
            u = (1,) * n
            vals = [Valuation.unit_demand([rng.randint(0, 3) for _ in range(n)])
                    for _ in range(rng.randint(0, 2))]
            vals += [random_separable_valuation(rng, u, value_max=3)
                     for _ in range(rng.randint(1, 2))]
            vals.append(tabulate(random_separable_valuation(rng, u, value_max=3)))
            rng.shuffle(vals)
            markets.append(Instance(model="multi", n=n, u=u, valuations=tuple(vals)))
        return markets

    def test_same_allocation_none_or_budget_error(self):
        rng = random.Random(43)
        found = {"allocation": 0, "none": 0, "budget": 0}
        for inst in self._markets(rng):
            p_min = ascending_auction(inst).p_min
            prices = [p_min, tuple(c + 1 for c in p_min),
                      tuple(max(c - 1, 0) for c in p_min)]
            prices += [tuple(rng.randint(0, 4) for _ in range(inst.n)) for _ in range(4)]
            for p in prices:
                for budget in (1, 2, 3, 5, 10**6):
                    fast = _search_outcome(_extract_multi, inst, p, budget)
                    assert fast == _search_outcome(_extract_multi_listed, inst, p, budget), \
                        (inst, p, budget)
                    found["budget" if fast == "budget" else
                          "none" if fast is None else "allocation"] += 1
        assert min(found.values()) > 0, found

    def test_tied_twelve_item_market_stays_small(self):
        """Every unit of 12 items ties for both bidders at the minimal price,
        so each separable demand set holds 4^12 bundles; listing them would
        take gigabytes.  Run in a child capped at 1 GiB of address space,
        which reports its traced peak."""
        code = """if True:
            import resource, tracemalloc
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from walras import Instance, Valuation, ascending_auction
            n = 12
            inst = Instance(model="multi", n=n, u=(3,) * n, valuations=tuple(
                Valuation.separable([[5, 5, 5]] * n) for _ in range(2)))
            tracemalloc.start()
            res = ascending_auction(inst)
            print(tracemalloc.get_traced_memory()[1])
            assert res.p_min == (5,) * n, res.p_min
            assert res.allocation.bundles == ((0,) * n, (3,) * n), res.allocation
        """
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 4 << 20


def _one_item_market(worth):
    return Instance(model="unit", n=1, u=(1,), valuations=(
        Valuation.unit_demand([worth]), Valuation.unit_demand([worth])))


class TestIterationBudget:
    def test_budget_caps_the_iterations(self):
        """Two bidders worth 10 on one item: every strategy takes 10 unit
        raises, so a budget of 10 solves and a budget of 9 refuses."""
        inst = _one_item_market(10)
        for kind in StrategyKind:
            res = ascending_auction(inst, kind, budget=10)
            assert (res.p_min, len(res.trajectory)) == ((10,), 10)
            with pytest.raises(BudgetExceededError,
                               match="descent exceeded budget 9: no minimizer within 9"):
                ascending_auction(inst, kind, budget=9)

    def test_huge_values_stop_at_the_budget(self):
        with pytest.raises(BudgetExceededError, match="descent exceeded budget 1000"):
            ascending_auction(_one_item_market(10**9), budget=1000)

    def test_budget_caps_the_per_item_iterations(self):
        """The separable twin: two bidders each worth 10 for one unit of one
        item take 10 unit raises on the per-item route as on the table
        route, so a budget of 10 solves and a budget of 9 refuses with the
        same message."""
        inst = Instance(model="multi", n=1, u=(1,), valuations=(
            Valuation.separable([[10]]), Valuation.separable([[10]])))
        assert LyapunovOracle(inst).function_oracle().terms is not None
        for kind in StrategyKind:
            res = ascending_auction(inst, kind, budget=10)
            assert (res.p_min, len(res.trajectory)) == ((10,), 10)
            with pytest.raises(BudgetExceededError,
                               match="descent exceeded budget 9: no minimizer within 9"):
                ascending_auction(inst, kind, budget=9)


@st.composite
def separable_markets(draw) -> Instance:
    """Separable markets of n <= 8 items and u_j <= 4 units, with ties and
    zero marginals, whose bundle box (at most 64 bundles) keeps their
    tabulated twins small enough to admit."""
    n = draw(st.integers(1, 8))
    u = []
    for _ in range(n):
        room = 64 // box_volume(u)
        u.append(draw(st.integers(1, max(1, min(4, room - 1)))))
    rows = st.tuples(*(st.lists(st.sampled_from((0, 0, 1, 2, 3, 5, 5, 8)), min_size=c,
                                max_size=c).map(lambda r: sorted(r, reverse=True)) for c in u))
    vals = draw(st.lists(rows.map(Valuation.separable), min_size=1, max_size=4))
    return Instance(model="multi", n=n, u=tuple(u), valuations=tuple(vals))


def _run_outcome(inst, kind, p0=None):
    """The run's steps and final price, or the text of the WalrasError it raised."""
    try:
        res = ascending_auction(inst, kind, p0, seed=3)
    except WalrasError as exc:
        return str(exc)
    return res.trajectory.steps, res.p_min


class TestSeparableRoute:
    """A market of separable bidders alone descends on n per-item changes;
    its tabulated twin, of table bidders, takes the table route."""

    @given(separable_markets(), st.data())
    @settings(max_examples=60)
    def test_same_steps_and_certificates_as_the_table_route(self, inst, data):
        twin = Instance(model="multi", n=inst.n, u=inst.u,
                        valuations=tuple(map(tabulate, inst.valuations)))
        assert LyapunovOracle(twin).function_oracle().terms is None
        for flag, kind in STRATEGY_FLAGS.items():
            got = _run_outcome(inst, kind)
            assert got == _run_outcome(twin, kind), flag
            p_min = got[1]
        assert p_min == separable_p_min(inst)
        # A start above p_min: the minimality cut names the same items,
        # the lowest item whose cut does not raise L.
        raised = tuple(c + data.draw(st.integers(0, 2)) for c in p_min)
        ly = LyapunovOracle(inst)
        base = ly.value(raised)
        low = [j for j, c in enumerate(raised)
               if c and ly.value(raised[:j] + (c - 1,) + raised[j + 1:]) <= base]
        for kind in set(STRATEGY_FLAGS.values()):
            got = _run_outcome(inst, kind, raised)
            assert got == _run_outcome(twin, kind, raised), kind
            if low and isinstance(got, str):
                assert f"lowering items [{low[0] + 1}] does not raise" in got
        assert bool(low) == (raised != p_min)
        # Both scans of verify_equilibrium find the same witness, or none.
        near = tuple(max(0, c + data.draw(st.integers(-1, 1))) for c in p_min)
        assert verify_equilibrium(inst, near) == verify_equilibrium(twin, near)

    def test_per_item_rules_build_no_table(self, monkeypatch):
        """Steepest and minimal descent never ask for a change table or a
        2^n rule on a separable market; the seeded rule still does."""
        rng = random.Random(17)
        inst = random_multi_instance(rng, n_max=5, u_max=3, m_min=3, m_max=5, value_max=9)
        ly = LyapunovOracle(inst)
        ascending_auction(inst, StrategyKind.FIRST_GP_MINIMAL, oracle=ly)
        assert ly._tables
        asked = []

        def refuse(*args):
            asked.append(args)
            return []

        for name in ("neighborhood_values", "minimal_descent_set", "minimal_minimizer_step"):
            monkeypatch.setattr(lnat, name, refuse)
        for kind in (StrategyKind.STEEPEST_MINIMAL, StrategyKind.MINIMAL_DESCENT):
            ly = LyapunovOracle(inst)
            res = ascending_auction(inst, kind, oracle=ly)
            assert len(res.trajectory) > 0 and not ly._tables and not asked


@st.composite
def run_markets(draw) -> Instance:
    """Unit markets, and multi markets of one unit per item mixing
    unit-demand and separable bidders, with values up to 10^3: the markets
    whose oracles declare ``runs``."""
    n = draw(st.integers(1, 3))
    worths = st.lists(st.integers(0, 1000), min_size=n, max_size=n)
    unit = worths.map(Valuation.unit_demand)
    if draw(st.booleans()):
        vals = draw(st.lists(unit, min_size=1, max_size=5))
        return Instance(model="unit", n=n, u=(1,) * n, valuations=tuple(vals))
    separable = worths.map(lambda row: Valuation.separable([[w] for w in row]))
    vals = draw(st.lists(st.one_of(unit, separable), min_size=1, max_size=5)
                .filter(lambda vs: any(v.family == "unit_demand" for v in vs)))
    return Instance(model="multi", n=n, u=(1,) * n, valuations=tuple(vals))


_adapter = LyapunovOracle.function_oracle


def _one_step_adapter(self):
    """The Lyapunov adapter rebuilt without ``runs``, as the benchmark's
    tracer rebuilds it: the descent then steps one raise at a time."""
    g = _adapter(self)
    return FunctionOracle(n=g.n, fn=g.fn, box=g.box, value_floor=g.value_floor,
                          grid=g.grid, terms=g.terms, items=g.items)


def _run_answer(inst, kind, p0, seed, budget):
    """The run's final price and whole trajectory, or the type and text of
    the WalrasError it raised."""
    try:
        res = ascending_auction(inst, kind, p0, seed=seed, budget=budget)
    except WalrasError as exc:
        return type(exc), str(exc)
    return res.p_min, res.trajectory


_unit, _separable = Valuation.unit_demand, Valuation.separable

#: Markets whose ``minimal-overdemanded`` descent walks a cycle of disjoint
#: sets: items 1 and 2 in turn, 145 times over, on the unit market, and the
#: three items in turn, 75 times over, on the mixed one.
UNIT_CYCLE = Instance(model="unit", n=2, u=(1, 1), valuations=(
    _unit([148, 214]), _unit([73, 276]), _unit([60, 292]), _unit([157, 286])))
MIXED_CYCLE = Instance(model="multi", n=3, u=(1, 1, 1), valuations=(
    _unit([244, 275, 3]), _separable([[192], [223], [238]]), _unit([41, 231, 89]),
    _separable([[115], [53], [133]])))
#: A unit market whose ``excess-random`` descent, seeded 6, raises the sets
#: {1, 4} and {3, 4} in turn: a cycle of sets that meet, so no period run.
OVERLAP_CYCLE = Instance(model="unit", n=4, u=(1,) * 4, valuations=tuple(map(_unit, (
    [57, 47, 0, 42], [30, 1, 30, 28], [59, 29, 58, 59], [7, 41, 41, 55], [43, 45, 51, 57],
    [29, 12, 59, 59]))))


def _record_periods(mp, taken):
    """Wrap ``lnat._period`` so that each period run the descent takes is
    appended to ``taken`` as (p, the last period's phase prices, their
    masks, Y, T), read from the trajectory.  Each run's phases must be the
    iteration's (mask, change), then the later steps' changes."""
    period = lnat._period

    def recorded(runs, steps, mask, change, p, n, most):
        found = period(runs, steps, mask, change, p, n, most)
        if found is not None:
            phases, periods = found
            k = len(phases)
            assert phases == [(mask, change)] + [
                (step.chosen_mask, step.g_after - step.g_before)
                for step in steps[len(steps) - k + 1:]]
            masks = [step.chosen_mask for step in steps[-k:]]
            union = 0
            for m in masks:
                union |= m
            taken.append((p, [step.p_before for step in steps[-k:]], masks, union, periods))
        return found

    mp.setattr(lnat, "_period", recorded)


def _along(p, union, s):
    """p + s * chi_Y for the item set Y given as a bitmask."""
    return tuple(c + s * (union >> j & 1) for j, c in enumerate(p))


class TestRunRoute:
    """Period runs, of one set or of a cycle of disjoint sets raised in
    turn, taken in one iteration, give the one-step route's answers."""

    def test_runs_give_the_one_step_answers(self):
        """With ``runs`` declared and with it dropped, ``ascending_auction``
        returns the same final price and trajectory, or raises the same
        error with the same message, from 0 or from a drawn start at or
        below the minimal price; budgets of 5, 17 and 40 cut runs partway
        (and may refuse a market's tables).  Period runs of one phase and
        of two or more must both be taken: the pinned markets take runs of
        two and three phases, and budgets of 151 and 389 cut those partway,
        one and two steps short of a whole period; a cycle of sets that
        meet is pinned too."""
        taken = []

        @settings(max_examples=150, deadline=None)
        @given(run_markets(), st.sampled_from(StrategyKind), st.integers(0, 2**64 - 1),
               st.sampled_from((5, 17, 40, DEFAULT_BUDGET)), st.data())
        @example(UNIT_CYCLE, StrategyKind.MINIMAL_DESCENT, 0, DEFAULT_BUDGET, Drawn((0, 0)))
        @example(UNIT_CYCLE, StrategyKind.MINIMAL_DESCENT, 0, 151, Drawn((0, 0)))
        @example(MIXED_CYCLE, StrategyKind.MINIMAL_DESCENT, 0, DEFAULT_BUDGET, Drawn((0, 0, 0)))
        @example(MIXED_CYCLE, StrategyKind.MINIMAL_DESCENT, 0, 389, Drawn((0, 0, 0)))
        @example(OVERLAP_CYCLE, StrategyKind.FIRST_GP_MINIMAL, 6, DEFAULT_BUDGET,
                 Drawn((0,) * 4))
        def check(inst, kind, seed, budget, data):
            assert LyapunovOracle(inst).function_oracle().runs is not None
            p_min = ascending_auction(inst).p_min
            p0 = data.draw(st.one_of(st.just((0,) * inst.n),
                                     st.tuples(*(st.integers(0, c) for c in p_min))))
            with pytest.MonkeyPatch.context() as mp:
                _record_periods(mp, taken)
                declared = _run_answer(inst, kind, p0, seed, budget)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(LyapunovOracle, "function_oracle", _one_step_adapter)
                assert LyapunovOracle(inst).function_oracle().runs is None
                assert _run_answer(inst, kind, p0, seed, budget) == declared

        check()
        phases = {len(starts) for _, starts, _, _, _ in taken}
        assert {1, 2, 3} <= phases, phases

    def test_phase_lines_keep_their_demand_keys(self):
        """Each phase of a period run keeps its demand key along the line
        its bounds cover, so the rule picks the phase's set at each raise:
        the first phase reads p's key at p + s * chi_Y, s = 0..T-1, and
        each later phase l the key of its last period's price p_l at p_l +
        s * chi_Y, s = 0..T; and the phases' sets are pairwise disjoint
        with union Y, also where the rule walks a cycle of sets that meet.
        On the pinned markets and random unit and mixed ones, under every
        rule; runs of two and three phases must be seen."""
        rng = random.Random(34)
        markets = [UNIT_CYCLE, MIXED_CYCLE, OVERLAP_CYCLE]
        markets += [random_unit_instance(rng, n_max=5, m_max=7, value_max=300)
                     for _ in range(6)]
        markets += [Instance(model="multi", n=3, u=(1, 1, 1), valuations=tuple(
            (_unit if b % 2 else lambda row: _separable([[w] for w in row]))(
                [rng.randint(0, 300) for _ in range(3)]) for b in range(4)))
            for _ in range(4)]
        taken = []
        with pytest.MonkeyPatch.context() as mp:
            _record_periods(mp, taken)
            for inst in markets:
                dc = DemandCache(inst)
                for kind in StrategyKind:
                    first = len(taken)
                    ascending_auction(inst, kind, seed=6)
                    for p, starts, masks, union, periods in taken[first:]:
                        assert sum(masks) == union and len(masks) <= inst.n
                        assert all(a & b == 0 for a, b in combinations(masks, 2))
                        lines = [(p, periods)] + [(start, periods + 1) for start in starts[1:]]
                        for start, raises in lines:
                            key = dc.demand_key(start)
                            for s in range(raises):
                                assert dc.demand_key(_along(start, union, s)) == key
        assert {2, 3} <= {len(starts) for _, starts, _, _, _ in taken}

    def test_period_runs_read_every_phase_line_at_both_ends(self):
        """A period run of T periods reads g on every phase line, through
        the last period's step end e_l, at e_l + chi_Y and at e_l + T *
        chi_Y: a value one off at any of those points raises
        ConvexityError, at a step for the first and at a run's end for the
        second."""
        kind = StrategyKind.MINIMAL_DESCENT
        reads = lines = 0
        for inst in (UNIT_CYCLE, MIXED_CYCLE):
            start = (0,) * inst.n
            ly = LyapunovOracle(inst)
            taken = []
            with pytest.MonkeyPatch.context() as mp:
                _record_periods(mp, taken)
                lnat.minimize(ly.function_oracle(), start, kind, neighborhood=ly.neighborhood)
            for p, starts, _, union, periods in taken:
                lines += len(starts)
                for end in starts[1:] + [p]:
                    for s, where in ((1, "at a step"), (periods, "at a run's end")):
                        point = _along(end, union, s)
                        ly = LyapunovOracle(inst)
                        g = ly.function_oracle()

                        def fn(q, point=point, value=g.fn):
                            return value(q) + (q == point)

                        off = FunctionOracle(n=g.n, fn=fn, value_floor=g.value_floor,
                                             grid=g.grid, runs=g.runs)
                        with pytest.raises(ConvexityError, match=where):
                            lnat.minimize(off, start, kind, neighborhood=ly.neighborhood)
                        reads += 1
        assert reads == 2 * lines > 2 * 5

    def test_only_unit_markets_without_tables_declare_runs(self):
        """Separable-only markets take the per-item route and table markets
        step one raise at a time, so neither declares ``runs``."""
        unit = Valuation.unit_demand([3, 1])
        separable = Valuation.separable([[2], [2]])
        declared = {}
        for name, vals in (("unit", (unit,)), ("mixed", (unit, separable)),
                           ("separable", (separable,)), ("tables", (unit, tabulate(separable))),
                           ("empty", ())):
            inst = Instance(model="multi", n=2, u=(1, 1), valuations=vals)
            declared[name] = LyapunovOracle(inst).function_oracle().runs is not None
        assert declared == {"unit": True, "mixed": True, "separable": False,
                            "tables": False, "empty": False}


class TestDescentWork:
    def test_lyapunov_values_per_run_stay_linear_in_iterations(self, monkeypatch):
        """One neighborhood table per step, and both 2^n certificate scans
        (the stop and the downward minimality check) read the batch route,
        or on the separable market the per-item terms:
        a run evaluates L per point once at the start, once per iteration
        and once at the stop."""
        rng = random.Random(9)
        n, m = 9, 12
        unit = Instance(model="unit", n=n, u=(1,) * n, valuations=tuple(
            Valuation.unit_demand([rng.randint(0, 100) for _ in range(n)])
            for _ in range(m)))
        separable = random_multi_instance(rng, n_max=6, u_max=3, m_min=6, m_max=8,
                                          value_max=30)
        calls = 0
        value = LyapunovOracle.value

        def counted(self, p):
            nonlocal calls
            calls += 1
            return value(self, p)

        monkeypatch.setattr(LyapunovOracle, "value", counted)
        for inst in (unit, separable):
            finals = set()
            for kind in StrategyKind:
                calls = 0
                res = ascending_auction(inst, kind, seed=4)
                iterations = len(res.trajectory)
                assert iterations > 0
                assert calls <= iterations + 2, (kind, calls, iterations)
                if kind is StrategyKind.STEEPEST_MINIMAL:
                    assert iterations == max(res.p_min)
                finals.add(res.p_min)
            assert len(finals) == 1

    def test_change_tables_are_built_once_per_demand_state(self, monkeypatch):
        """On the n=9 unit market, a steepest descent reads one demand key
        and asks its rule once per run of steps, plus one key at the stop,
        and builds a table only for a demand state it has not met: tables
        built <= distinct demand keys <= keys read == rule calls + 1, and
        fewer than half as many keys as steps."""
        rng = random.Random(9)
        n, m = 9, 12
        inst = Instance(model="unit", n=n, u=(1,) * n, valuations=tuple(
            Valuation.unit_demand([rng.randint(0, 100) for _ in range(n)])
            for _ in range(m)))
        keys, counts = [], {"built": 0, "rule": 0}
        demand_key = DemandCache.demand_key
        build = DemandCache.deficiency_from_key
        rule = lnat.minimal_minimizer_step

        def keyed(self, p):
            key = demand_key(self, p)
            keys.append(key)
            return key

        def built(self, key):
            counts["built"] += 1
            return build(self, key)

        def ruled(vals):
            counts["rule"] += 1
            return rule(vals)

        monkeypatch.setattr(DemandCache, "demand_key", keyed)
        monkeypatch.setattr(DemandCache, "deficiency_from_key", built)
        monkeypatch.setattr(lnat, "minimal_minimizer_step", ruled)
        res = ascending_auction(inst, StrategyKind.STEEPEST_MINIMAL)
        steps = len(res.trajectory)
        assert counts["built"] <= len(set(keys)) <= len(keys) == counts["rule"] + 1
        assert 2 * len(keys) < steps, (counts, len(keys), steps)

    def test_each_run_calls_its_table_rule_once(self, monkeypatch):
        """Every strategy's table rule, looked up on ``lnat``, is called once
        per demand key a descent reads before its stop: once per run of steps
        on unit and mixed unit and separable markets, whose oracles declare
        ``runs``, fewer times than there are steps over all of them, and
        once per step on explicit-table markets, which declare none.  The
        rules keep their answers inside themselves, and ``minimize`` still
        asks at every run."""
        rng = random.Random(28)
        unit = [random_unit_instance(rng, n_max=5, m_max=7, value_max=40) for _ in range(4)]
        unit.append(Instance(model="multi", n=3, u=(1, 1, 1), valuations=(
            Valuation.unit_demand([30, 25, 12]), Valuation.separable([[28], [26], [9]]),
            Valuation.unit_demand([20, 29, 31]), Valuation.separable([[17], [3], [30]]))))
        tables = [Instance(model="multi", n=n, u=u, valuations=tuple(
            tabulate(random_separable_valuation(rng, u, value_max=20)) for _ in range(3)))
            for n, u in ((2, (2, 1)), (3, (1, 2, 1)), (3, (1, 1, 1)))]
        calls = {name: 0 for name in ("minimal_descent_set", "minimal_minimizer_step",
                                      "first_gp_minimal")}
        read, keys = [], [0]
        for name in calls:
            rule = getattr(lnat, name)

            def counted(vals, *seed, rule=rule, name=name):
                calls[name] += 1
                read.append(vals)
                return rule(vals, *seed)

            monkeypatch.setattr(lnat, name, counted)
        demand_key = DemandCache.demand_key

        def keyed(self, p):
            keys[0] += 1
            return demand_key(self, p)

        monkeypatch.setattr(DemandCache, "demand_key", keyed)
        rule_of = {StrategyKind.MINIMAL_DESCENT: "minimal_descent_set",
                   StrategyKind.STEEPEST_MINIMAL: "minimal_minimizer_step",
                   StrategyKind.FIRST_GP_MINIMAL: "first_gp_minimal"}
        unit_asked = unit_steps = 0
        for inst in unit + tables:
            ly = LyapunovOracle(inst)
            for flag, kind in STRATEGY_FLAGS.items():
                before, keys_before = dict(calls), keys[0]
                res = ascending_auction(inst, kind, seed=3, oracle=ly)
                name = rule_of[kind]
                asked = calls[name] - before[name]
                assert asked == keys[0] - keys_before - 1, (inst, flag)
                assert all(calls[k] == before[k] for k in calls if k != name)
                if ly.demand.tables:
                    assert asked == len(res.trajectory), (inst, flag)
                else:
                    unit_asked += asked
                    unit_steps += len(res.trajectory)
        assert 2 * unit_asked < unit_steps, (unit_asked, unit_steps)
        assert len(read) > 2 * len(set(map(id, read))) > 0

    def test_every_lyapunov_value_goes_through_the_oracle_adapter(self, monkeypatch):
        """The run reads L per point only through ``function_oracle()``: the
        change table needs no value of its own, and an adapter rebuilt
        without its ``grid`` makes both certificate scans query it point by
        point, so adapter queries at nonnegative prices and Lyapunov
        evaluations agree; the downward scan's negative prices read as
        None without a value."""
        rng = random.Random(12)
        markets = [random_unit_instance(rng, n_max=4, m_max=5, value_max=6)
                   for _ in range(5)]
        markets += [random_multi_instance(rng, n_max=3, u_max=2, m_max=3, value_max=6)
                    for _ in range(5)]
        counts = {"value": 0, "adapter": 0}
        value = LyapunovOracle.value
        adapter = LyapunovOracle.function_oracle

        def counted_value(self, p):
            counts["value"] += 1
            return value(self, p)

        def counted_adapter(self, **kwargs):
            g = adapter(self, **kwargs)
            query = g.fn

            def fn(q):
                counts["adapter"] += min(q) >= 0
                return query(q)

            return FunctionOracle(n=g.n, fn=fn, box=g.box, value_floor=g.value_floor)

        monkeypatch.setattr(LyapunovOracle, "value", counted_value)
        monkeypatch.setattr(LyapunovOracle, "function_oracle", counted_adapter)
        for inst in markets:
            for kind in StrategyKind:
                counts.update(value=0, adapter=0)
                ascending_auction(inst, kind, seed=2)
                assert counts["value"] == counts["adapter"] > 0, (inst, kind, counts)


class TestMinimalityCertificate:
    def test_start_above_the_minimal_price_is_refused(self, ex21):
        with pytest.raises(WalrasError, match=r"not the minimal equilibrium price"):
            ascending_auction(ex21, StrategyKind.STEEPEST_MINIMAL, (2, 2, 2))

    def test_start_at_the_minimal_price_is_accepted(self, ex21):
        res = ascending_auction(ex21, StrategyKind.STEEPEST_MINIMAL, (1, 1, 1))
        assert res.p_min == (1, 1, 1) and len(res.trajectory) == 0


class TestPriceChecks:
    """The public reads validate every price; the descent ``ascending_auction``
    runs checks each price once, through the step's value read."""

    def test_public_reads_refuse_bad_prices(self, ex21):
        ly = LyapunovOracle(ex21)
        for bad, message in (((0, 0), "3 components"), ((0, -1, 0), r"p\[1\]"),
                             ((0, True, 0), r"p\[1\]"), ((1.0, 0, 0), r"p\[0\]")):
            for read in (ly.value, ly.neighborhood):
                with pytest.raises(ValueError, match=message):
                    read(bad)

    def test_descent_checks_each_price_once(self, monkeypatch):
        """The descent checks p0 and then each price it reads a value at,
        once each and in order.  An oracle without ``runs`` steps one raise
        at a time, so it checks one price per step.  One that declares
        ``runs``, as on the unit markets, checks one price per step it takes
        alone and, for a period run of k <= n phases, two on each phase's
        line, so at most one per step and 2n per demand key read before the
        stop, and fewer checks than steps."""
        import walras.auction as auction
        import walras.lyapunov as lyapunov
        rng = random.Random(29)
        markets = [random_unit_instance(rng, n_max=4, m_max=5, value_max=6) for _ in range(4)]
        markets += [random_multi_instance(rng, n_max=3, u_max=2, m_max=3, value_max=6)
                    for _ in range(4)]
        unit = Valuation.unit_demand
        markets.append(Instance(model="unit", n=3, u=(1, 1, 1), valuations=(
            unit([80, 45, 60]), unit([70, 72, 20]), unit([50, 66, 81]), unit([90, 10, 40]))))
        markets.append(Instance(model="multi", n=2, u=(1, 1), valuations=(
            unit([90, 75]), Valuation.separable([[48], [26]]), unit([60, 89]))))
        checked, keys = [], [0]
        check, run, demand_key = lyapunov._check_price, auction.minimize, DemandCache.demand_key

        def counted(instance, p):
            checked.append(tuple(p))
            return check(instance, p)

        def keyed(self, p):
            keys[0] += 1
            return demand_key(self, p)

        def descent(*args, **kwargs):
            checked.clear()
            keys[0] = 0
            p, trajectory = run(*args, **kwargs)
            ends = iter([chi_add(s.p_before, s.chosen_mask) for s in trajectory.steps])
            assert checked[0] == trajectory.start and checked[-1] == p
            assert all(q in ends for q in checked[1:])  # in order, so once each
            if args[0].runs is None:  # one step at a time: one check per step
                assert len(checked) == len(trajectory) + 1
                route = "table" if keys[0] else "item"
            else:  # one key per run and one at the stop
                most = 2 * args[0].n * (keys[0] - 1)
                assert len(checked) <= 1 + min(len(trajectory), most)
                route = "run"
            tally = totals[route]
            tally[0] += len(checked)
            tally[1] += len(trajectory)
            return p, trajectory

        monkeypatch.setattr(lyapunov, "_check_price", counted)
        monkeypatch.setattr(auction, "minimize", descent)
        monkeypatch.setattr(DemandCache, "demand_key", keyed)
        totals = {"run": [0, 0], "table": [0, 0], "item": [0, 0]}  # checks, steps
        for inst in markets:
            for kind in StrategyKind:
                ascending_auction(inst, kind, seed=3)
        checks, steps = totals["run"]
        assert checks < steps, totals
        assert totals["table"][1] > 0 and totals["item"][1] > 20, totals
