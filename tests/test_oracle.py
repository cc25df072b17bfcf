"""Brute-force ground truth: caps, minimizer scans, definitional enumeration."""

import importlib.util
import random
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (make_two_bidder_multi, random_multi_instance, random_unit_instance,
                      tabulate, wide_separable_market)
from walras import (BudgetExceededError, DescentWitness, Instance, StrategyKind, Valuation,
                    all_lyapunov_minimizers, allocation_certifies, ascending_auction,
                    brute_force_min_equilibrium, deficiency, demand_set,
                    equilibrium_prices_by_enumeration, mu, parse_instance, price_cap,
                    separable_p_min, verify_equilibrium)
from walras.demand import DemandCache
from walras.oracle import _clearing, _unit_options

ROOT = Path(__file__).resolve().parent.parent


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


class TestTwinsReadNoGrid:
    """The brute-force twins read the Lyapunov function point by point, so
    they do not depend on the batch grid route they cross-check."""

    def test_twins_run_with_the_grid_route_broken(self, tmp_path, monkeypatch, capsys):
        from walras import LyapunovOracle, lyapunov_value
        from walras.cli import run_command
        from walras.instance import serialize_instance

        rng = random.Random(83)
        inst = random_multi_instance(rng, n_max=2, u_max=2, m_max=3, value_max=4)
        inst = Instance(model="multi", n=inst.n, u=inst.u, valuations=inst.valuations + (
            Valuation.from_table({x: 2 * sum(x) for x in product(*(range(q + 1) for q in inst.u))}),))
        path = tmp_path / "market.json"
        path.write_text(serialize_instance(inst))
        prices = list(product(range(3), repeat=inst.n))
        values = [lyapunov_value(p, inst) for p in prices]
        minimizers = all_lyapunov_minimizers(inst)
        assert run_command(["oracle", "--instance", str(path)]) == 0
        printed = capsys.readouterr()

        def broken(*args):
            raise AssertionError("grid route read")

        monkeypatch.setattr(LyapunovOracle, "grid_values", broken)
        monkeypatch.setattr(DemandCache, "utility_grid", broken)
        assert [lyapunov_value(p, inst) for p in prices] == values
        assert all_lyapunov_minimizers(inst) == minimizers
        assert run_command(["oracle", "--instance", str(path)]) == 0
        assert capsys.readouterr() == printed


class TestTwinsReadNoScan:
    """The multi model's demand twins read each bidder from its bundle box or
    per item, so they do not depend on the descent's kept record and
    candidate index (``DemandCache.scan``) that they cross-check."""

    def test_twins_run_with_the_scan_broken(self, monkeypatch):
        inst = Instance(model="multi", n=2, u=(1, 1), valuations=(
            tabulate(Valuation.unit_demand([5, 5])), tabulate(Valuation.separable([[3], [4]])),
            Valuation.unit_demand([4, 2]), Valuation.separable([[2], [5]])))
        res = ascending_auction(inst)
        prices = list(product(range(7), repeat=inst.n))
        sets = [set(), {1}, {2}, {1, 2}]

        def read():
            return ([[demand_set(b, p, inst) for b in range(inst.m)] for p in prices],
                    [[mu(b, X, p, inst) for b in range(inst.m) for X in sets] for p in prices],
                    [[deficiency(X, p, inst) for X in sets[1:]] for p in prices],
                    equilibrium_prices_by_enumeration(inst),
                    allocation_certifies(inst, res.p_min, res.allocation))

        answers = read()
        assert answers[3] and answers[4]

        def broken(*args):
            raise AssertionError("descent record read")

        monkeypatch.setattr(DemandCache, "scan", broken)
        monkeypatch.setattr(DemandCache, "_candidate_index", broken)
        assert read() == answers


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


def _planted_p_min(instance):
    """``separable_p_min`` off by one: the u_j-th largest marginal."""
    out = []
    for j, q in enumerate(instance.u):
        col = sorted((w for v in instance.valuations for w in v.marginals[j]), reverse=True)
        out.append(col[q - 1] if len(col) >= q else 0)
    return tuple(out)


def _multi_solve_pool():
    """Every market of the benchmark's multi-solve pool, from ``perfbench/gen.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [parse_instance(gen.instance_text(gen.pool_market("multi-solve", rung, k)))
            for rung, k in gen.pool_ids("multi-solve")]


def _separable_markets():
    """The separable markets of the tests and the benchmark: the two-bidder
    market, random small ones with ties and zero marginals, the wide market
    the table budget once refused, the multi-solve pool, and n = 18, 40 and
    200 (m = 8, u = 3)."""
    rng = random.Random(61)
    markets = [make_two_bidder_multi(), Instance(model="multi", n=2, u=(2, 1), valuations=())]
    markets += [random_multi_instance(rng, n_max=4, u_max=3, m_min=0, m_max=4, value_max=3)
                for _ in range(40)]
    markets.append(Instance(model="multi", n=21, u=(1,) * 21, valuations=tuple(
        Valuation.separable([[2]] * 21) for _ in range(2))))
    markets += _multi_solve_pool()
    markets += [wide_separable_market(rng, n) for n in (18, 40, 200)]
    return markets


class TestSeparableClosedForm:
    """``separable_p_min``, the order-statistic twin of the per-item descent."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        inst = random_multi_instance(rng, n_max=2, u_max=2, m_min=0, m_max=3, value_max=4)
        assert separable_p_min(inst) == brute_force_min_equilibrium(inst)

    def test_agrees_with_the_auction_past_the_table_wall(self):
        """Against ``ascending_auction`` under both per-item rules on every
        separable market; the planted off-by-one disagrees on some."""
        planted = 0
        for inst in _separable_markets():
            want = separable_p_min(inst)
            for kind in (StrategyKind.STEEPEST_MINIMAL, StrategyKind.MINIMAL_DESCENT):
                assert ascending_auction(inst, kind).p_min == want, (inst.n, kind)
            planted += _planted_p_min(inst) != want
        assert planted > 0

    def test_planted_off_by_one_fails_against_brute_force(self):
        rng = random.Random(62)
        markets = [random_multi_instance(rng, n_max=2, u_max=2, m_max=3, value_max=4)
                   for _ in range(20)]
        assert any(_planted_p_min(inst) != brute_force_min_equilibrium(inst)
                   for inst in markets)

    def test_verify_equilibrium_past_the_table_wall(self):
        """At n = 200 the closed form is an equilibrium, and one unit below
        it on an item the verdict's witness raises that item alone."""
        inst = wide_separable_market(random.Random(3), 200)
        p = separable_p_min(inst)
        assert verify_equilibrium(inst, p).equilibrium
        j = next(j for j, c in enumerate(p) if c)
        low = p[:j] + (p[j] - 1,) + p[j + 1:]
        assert verify_equilibrium(inst, low).witness == DescentWitness(+1, frozenset({j + 1}))

    def test_refuses_other_bidders(self, ex21):
        with pytest.raises(ValueError, match="separable bidders alone"):
            separable_p_min(ex21)


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

    @settings(max_examples=60)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                             max_size=4))))
    @example((2, [[0, 0]]))
    @example((2, []))
    def test_unit_options_clear_as_the_multi_models_bundles(self, drawn):
        """The unit model's enumeration reads each bidder's options as the
        zero bundle and the chi_i, and lets zero-priced items go unsold.
        Written as a multi market with one unit per item, the same bidders'
        demand sets come from box scans instead, and may hold bundles of
        two or more items worth no more than their best single item.  Both
        enumerations find the Lyapunov minimizers, and so does the multi
        market's exact one when there is a bidder.  With none, positive
        supply never clears exactly, and the exact set is empty."""
        n, rows = drawn
        vals = tuple(map(Valuation.unit_demand, rows))
        unit = Instance(model="unit", n=n, u=(1,) * n, valuations=vals)
        multi = Instance(model="multi", n=n, u=(1,) * n, valuations=vals)
        got = equilibrium_prices_by_enumeration(unit)
        assert got == equilibrium_prices_by_enumeration(multi, unsold=True)
        assert got == all_lyapunov_minimizers(unit)
        exact = equilibrium_prices_by_enumeration(multi)
        assert exact == (got if rows else frozenset())

    def test_a_bidderless_unit_market_builds_no_option_bundles(self):
        """Only a demanded option's bundle is built: with no bidder, a
        20,000-item market has the zero price alone, found at once.  Built
        up front, the n + 1 bundles of n entries each took 62 s at 16,000
        items."""
        n = 20_000
        inst = Instance(model="unit", n=n, u=(1,) * n, valuations=())
        start = time.perf_counter()
        assert equilibrium_prices_by_enumeration(inst) == {(0,) * n}
        assert time.perf_counter() - start < 1

    def test_unsold_variant_for_bidderless_multi(self):
        inst = Instance(model="multi", n=1, u=(2,), valuations=())
        assert equilibrium_prices_by_enumeration(inst) == frozenset()
        assert equilibrium_prices_by_enumeration(inst, unsold=True) == {(0,)}

    def test_budget_guard(self, two_bidder_multi):
        with pytest.raises(BudgetExceededError):
            equilibrium_prices_by_enumeration(two_bidder_multi, budget=3)


def recursive_unit_walk(instance, p):
    """Does some assignment give every bidder a demanded option, use no item
    twice and sell every positively priced item?  The literal recursion
    over Andersson, Andersson and Talman's options, 0 meaning "buy
    nothing"."""
    m, n = instance.m, instance.n
    demands = [_unit_options(instance, b, p) for b in range(m)]
    priced = frozenset(i for i in range(1, n + 1) if p[i - 1] > 0)

    def walk(b, used):
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


def recursive_multi_walk(instance, sets, p, charge, unsold):
    """The recursive depth-first enumeration ``_clearing`` replaced, over
    each bidder's demanded bundles ``sets``."""
    m, n, u = instance.m, instance.n, instance.u
    if m == 0:
        return unsold and all(c == 0 for c in p)
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


def option_bundles(instance, p):
    """Every unit-demand bidder's demanded options at p as bundles: option
    0 is the zero bundle and option i is chi_i."""
    n = instance.n
    chi = [tuple(int(j == i - 1) for j in range(n)) for i in range(n + 1)]
    return [[chi[i] for i in sorted(_unit_options(instance, b, p))] for b in range(instance.m)]


class TestClearingWalks:
    """The explicit-stack search against the recursive walk it replaced,
    on the multi model's demand sets and on the unit model's options read
    as bundles: the same verdict and the same number of charged nodes, so
    a budget error comes where the walk's would.  The unit model's verdicts
    are also held to the literal assignment recursion."""

    def test_unit_walk_matches_the_recursion(self):
        rng = random.Random(41)
        for _ in range(60):
            inst = random_unit_instance(rng, n_max=4, m_max=6, value_max=3)
            cleared = set()
            for p in product(range(4), repeat=inst.n):
                sets = option_bundles(inst, p)
                fast, slow = [], []
                got = _clearing(inst, sets, p, lambda: fast.append(None), True)
                want = recursive_multi_walk(inst, sets, p, lambda: slow.append(None), True)
                assert (got, len(fast)) == (want, len(slow)), (inst, p)
                assert got == recursive_unit_walk(inst, p), (inst, p)
                if got and max(p) <= price_cap(inst)[0]:
                    cleared.add(p)
            assert equilibrium_prices_by_enumeration(inst) == cleared, inst

    def test_multi_walk_matches_the_recursion(self):
        rng = random.Random(43)
        for _ in range(60):
            inst = random_multi_instance(rng, n_max=2, u_max=3, m_min=0, m_max=4,
                                         value_max=4)
            dc = DemandCache(inst)
            for p in product(range(5), repeat=inst.n):
                sets = [dc.demand_set(b, p) for b in range(inst.m)]
                for unsold in (False, True):
                    fast, slow = [], []
                    got = _clearing(inst, sets, p, lambda: fast.append(None), unsold)
                    want = recursive_multi_walk(inst, sets, p, lambda: slow.append(None),
                                                unsold)
                    assert (got, len(fast)) == (want, len(slow)), (inst, p, unsold)
