"""Auction layer: overdemand/excess predicates, the auction loop, allocations."""

import gc
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (breaks_local_exchange, complements_table_market, random_multi_instance,
                      random_separable_valuation, random_unit_instance, tabulate)
from walras import (DEFAULT_BUDGET, BudgetExceededError, FunctionOracle, Instance,
                    LyapunovOracle, MultiAllocation, StrategyKind, UnitAllocation,
                    Valuation, allocation_certifies, ascending_auction,
                    equilibrium_prices_by_enumeration, extract_allocation,
                    WalrasError, is_excess_demand, is_overdemanded, mu,
                    price_cap, unit_demand_set, verify_equilibrium, verify_mnat_exc)
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
        monkeypatch.setattr("walras.auction.neighborhood_values", refuse)
        for kind in (StrategyKind.STEEPEST_MINIMAL, StrategyKind.MINIMAL_DESCENT):
            ly = LyapunovOracle(inst)
            res = ascending_auction(inst, kind, oracle=ly)
            assert len(res.trajectory) > 0 and not ly._tables and not asked


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
        """On the n=9 unit market, a steepest run asks for a table at every
        iteration and at the stop, but builds one only for a demand state it
        has not met: tables built <= distinct demand keys < iterations.  The
        rule still runs once per iteration."""
        rng = random.Random(9)
        n, m = 9, 12
        inst = Instance(model="unit", n=n, u=(1,) * n, valuations=tuple(
            Valuation.unit_demand([rng.randint(0, 100) for _ in range(n)])
            for _ in range(m)))
        keys, counts = set(), {"built": 0, "rule": 0}
        demand_key = DemandCache.demand_key
        build = DemandCache.deficiency_from_key
        rule = lnat.minimal_minimizer_step

        def keyed(self, p):
            key = demand_key(self, p)
            keys.add(key)
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
        iterations = len(res.trajectory)
        assert counts["built"] <= len(keys) < iterations, (counts, len(keys), iterations)
        assert counts["rule"] == iterations

    def test_each_step_calls_its_table_rule_once(self, monkeypatch):
        """Every strategy's table rule, looked up on ``lnat``, is called once
        per iteration of a run on unit markets and on explicit-table markets,
        however often the run meets a kept table again: the rules keep their
        answers inside themselves, and ``minimize`` still asks every step."""
        rng = random.Random(28)
        unit = [random_unit_instance(rng, n_max=5, m_max=7, value_max=40) for _ in range(4)]
        tables = [Instance(model="multi", n=n, u=u, valuations=tuple(
            tabulate(random_separable_valuation(rng, u, value_max=20)) for _ in range(3)))
            for n, u in ((2, (2, 1)), (3, (1, 2, 1)), (3, (1, 1, 1)))]
        calls = {name: 0 for name in ("minimal_descent_set", "minimal_minimizer_step",
                                      "first_gp_minimal")}
        read = []
        for name in calls:
            rule = getattr(lnat, name)

            def counted(vals, *seed, rule=rule, name=name):
                calls[name] += 1
                read.append(vals)
                return rule(vals, *seed)

            monkeypatch.setattr(lnat, name, counted)
        rule_of = {StrategyKind.MINIMAL_DESCENT: "minimal_descent_set",
                   StrategyKind.STEEPEST_MINIMAL: "minimal_minimizer_step",
                   StrategyKind.FIRST_GP_MINIMAL: "first_gp_minimal"}
        steps = 0
        for inst in unit + tables:
            ly = LyapunovOracle(inst)
            for flag, kind in STRATEGY_FLAGS.items():
                before = dict(calls)
                res = ascending_auction(inst, kind, seed=3, oracle=ly)
                name = rule_of[kind]
                assert calls[name] - before[name] == len(res.trajectory), (inst, flag)
                assert all(calls[k] == before[k] for k in calls if k != name)
                steps += len(res.trajectory)
        assert steps == len(read) > 2 * len(set(map(id, read))) > 0

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
        import walras.auction as auction
        import walras.lyapunov as lyapunov
        rng = random.Random(29)
        markets = [random_unit_instance(rng, n_max=4, m_max=5, value_max=6) for _ in range(4)]
        markets += [random_multi_instance(rng, n_max=3, u_max=2, m_max=3, value_max=6)
                    for _ in range(4)]
        checks = [0]
        check, run = lyapunov._check_price, auction.minimize

        def counted(instance, p):
            checks[0] += 1
            return check(instance, p)

        def descent(*args, **kwargs):
            before = checks[0]
            p, trajectory = run(*args, **kwargs)
            assert checks[0] - before == len(trajectory) + 1
            return p, trajectory

        monkeypatch.setattr(lyapunov, "_check_price", counted)
        monkeypatch.setattr(auction, "minimize", descent)
        steps = 0
        for inst in markets:
            for kind in StrategyKind:
                steps += len(ascending_auction(inst, kind, seed=3).trajectory)
        assert steps > 20
