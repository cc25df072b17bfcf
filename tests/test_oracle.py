"""Brute-force ground truth: caps, minimizer scans, definitional enumeration."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_multi_instance, random_unit_instance
from walras import (BudgetExceededError, Instance, StrategyKind, Valuation,
                    all_lyapunov_minimizers, ascending_auction,
                    brute_force_min_equilibrium,
                    equilibrium_prices_by_enumeration, price_cap)
from walras.demand import DemandCache
from walras.oracle import _multi_clearing, _unit_clearing, _unit_options


class TestPriceCap:
    def test_worked_example(self, ex21):
        assert price_cap(ex21) == (1, 1, 1)

    def test_two_bidder_multi(self, two_bidder_multi):
        assert price_cap(two_bidder_multi) == (5,)

    def test_zero_valuations(self):
        inst = Instance(model="unit", n=2, u=(1, 1),
                        valuations=(Valuation.unit_demand([0, 0]),))
        assert price_cap(inst) == (0, 0)


class TestMinimizerScan:
    def test_worked_example(self, ex21):
        assert all_lyapunov_minimizers(ex21) == {(1, 1, 1)}

    def test_two_bidder_multi(self, two_bidder_multi):
        assert all_lyapunov_minimizers(two_bidder_multi) == {(2,), (3,)}

    def test_no_bidders(self):
        inst = Instance(model="unit", n=3, u=(1, 1, 1), valuations=())
        assert all_lyapunov_minimizers(inst) == {(0, 0, 0)}

    def test_budget_guard(self):
        inst = Instance(model="unit", n=1, u=(1,),
                        valuations=(Valuation.unit_demand([10**7]),))
        with pytest.raises(BudgetExceededError):
            all_lyapunov_minimizers(inst)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_meet_and_join_closure(self, seed):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            inst = random_unit_instance(rng, n_max=3, m_max=4, value_max=3)
        else:
            inst = random_multi_instance(rng, n_max=2, u_max=2, m_max=3, value_max=4)
        minimizers = all_lyapunov_minimizers(inst)
        for p in minimizers:
            for q in minimizers:
                assert tuple(map(min, p, q)) in minimizers
                assert tuple(map(max, p, q)) in minimizers


class TestMinimalEquilibrium:
    def test_worked_example(self, ex21):
        assert brute_force_min_equilibrium(ex21) == (1, 1, 1)

    def test_two_bidder_multi(self, two_bidder_multi):
        assert brute_force_min_equilibrium(two_bidder_multi) == (2,)

    def test_no_bidders(self):
        inst = Instance(model="unit", n=2, u=(1, 1), valuations=())
        assert brute_force_min_equilibrium(inst) == (0, 0)
        degenerate = Instance(model="multi", n=2, u=(2, 1), valuations=())
        assert brute_force_min_equilibrium(degenerate) == (0, 0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_agrees_with_the_auction(self, seed):
        rng = random.Random(seed)
        inst = random_unit_instance(rng, n_max=3, m_max=4, value_max=3)
        target = brute_force_min_equilibrium(inst)
        run = ascending_auction(inst, StrategyKind.STEEPEST_MINIMAL)
        assert run.p_min == target


class TestDefinitionalEnumeration:
    def test_worked_example(self, ex21):
        assert equilibrium_prices_by_enumeration(ex21) == \
            all_lyapunov_minimizers(ex21)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_both_definitions_agree_on_small_multi(self, seed):
        rng = random.Random(seed)
        inst = random_multi_instance(rng, n_max=2, u_max=2, m_max=3, value_max=3)
        exact = equilibrium_prices_by_enumeration(inst)
        relaxed = equilibrium_prices_by_enumeration(inst, unsold=True)
        assert exact == relaxed
        assert exact == all_lyapunov_minimizers(inst)

    def test_unsold_variant_for_bidderless_multi(self):
        inst = Instance(model="multi", n=1, u=(2,), valuations=())
        assert equilibrium_prices_by_enumeration(inst) == frozenset()
        assert equilibrium_prices_by_enumeration(inst, unsold=True) == {(0,)}

    def test_budget_guard(self, two_bidder_multi):
        with pytest.raises(BudgetExceededError):
            equilibrium_prices_by_enumeration(two_bidder_multi, budget=3)


def recursive_unit_walk(instance, dc, p, charge):
    """The recursive depth-first enumeration ``_unit_clearing`` replaced."""
    m, n = instance.m, instance.n
    demands = [_unit_options(dc, b, p) for b in range(m)]
    priced = frozenset(i for i in range(1, n + 1) if p[i - 1] > 0)

    def walk(b, used):
        charge()
        if len(priced - used) > m - b:
            return False
        if b == m:
            return priced <= used
        for a in sorted(demands[b]):
            if a == 0:
                if walk(b + 1, used):
                    return True
            elif a not in used:
                if walk(b + 1, used | {a}):
                    return True
        return False

    return walk(0, frozenset())


def recursive_multi_walk(instance, dc, p, charge, unsold):
    """The recursive depth-first enumeration ``_multi_clearing`` replaced."""
    m, n, u = instance.m, instance.n, instance.u
    if m == 0:
        return unsold and all(c == 0 for c in p)
    sets = [dc.demand_set(b, p) for b in range(m)]
    maxs = [tuple(max(x[j] for x in ds) for j in range(n)) for ds in sets]
    suffix_max = [(0,) * n] * (m + 1)
    for k in range(m - 1, -1, -1):
        suffix_max[k] = tuple(maxs[k][j] + suffix_max[k + 1][j] for j in range(n))

    def walk(k, remaining):
        charge()
        if k == m:
            if unsold:
                return all(r == 0 or p[j] == 0 for j, r in enumerate(remaining))
            return all(r == 0 for r in remaining)
        hi = suffix_max[k + 1]
        for x in sets[k]:
            rest = tuple(remaining[j] - x[j] for j in range(n))
            if all(r >= 0 and (r <= hi[j] or (unsold and p[j] == 0))
                   for j, r in enumerate(rest)) and walk(k + 1, rest):
                return True
        return False

    return walk(0, u)


class TestClearingWalks:
    """The explicit-stack enumerations against the recursive walks they
    replaced: the same verdict and the same number of charged nodes, so
    every budget error stays where it was."""

    def test_unit_walk_matches_the_recursion(self):
        rng = random.Random(41)
        for _ in range(60):
            inst = random_unit_instance(rng, n_max=4, m_max=6, value_max=3)
            dc = DemandCache(inst)
            for p in product(range(4), repeat=inst.n):
                fast, slow = [], []
                got = _unit_clearing(inst, dc, p, lambda: fast.append(None))
                want = recursive_unit_walk(inst, dc, p, lambda: slow.append(None))
                assert (got, len(fast)) == (want, len(slow)), (inst, p)

    def test_multi_walk_matches_the_recursion(self):
        rng = random.Random(43)
        for _ in range(60):
            inst = random_multi_instance(rng, n_max=2, u_max=3, m_min=0, m_max=4,
                                         value_max=4)
            dc = DemandCache(inst)
            for p in product(range(5), repeat=inst.n):
                for unsold in (False, True):
                    fast, slow = [], []
                    got = _multi_clearing(inst, dc, p, lambda: fast.append(None), unsold)
                    want = recursive_multi_walk(inst, dc, p, lambda: slow.append(None),
                                                unsold)
                    assert (got, len(fast)) == (want, len(slow)), (inst, p, unsold)
