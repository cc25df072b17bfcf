"""Generic lattice descent engine: verifier, selection rules, minimization."""

import random
from functools import reduce
from itertools import combinations, product
from math import prod
from operator import and_, or_

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (CountingList, Drawn, breaks_midpoint, column_markets, column_prices,
                      make_two_bidder_multi, random_multi_instance,
                      random_unit_instance, tabulate, value_route)
from walras import (ConvexityError, FunctionOracle, Instance, IterationCapError,
                    LnatCounterexample, LyapunovOracle, StrategyKind, Valuation,
                    first_gp_minimal, is_lnat_convex_on_box, max_total_value,
                    minimal_descent_set, minimal_minimizer_step, minimize,
                    neighborhood_values)
from walras import instance, itemsets, lnat
from walras.errors import BudgetExceededError, ContractError
from walras.instance import DEFAULT_BUDGET, box_volume, iter_box
from walras.itemsets import (box_pairs, chi_add, items_from_mask, pair_failures,
                             proper_submasks)
from walras.lnat import Step
from walras.oracle import gp_minimal_table, is_gp_minimal


def table_oracle(table, n, floor=None):
    return FunctionOracle(n=n, fn=table.get,
                          box=(tuple(min(p[j] for p in table) for j in range(n)),
                               tuple(max(p[j] for p in table) for j in range(n))),
                          value_floor=floor)


SUPERMODULAR = table_oracle({(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 3}, 2)


def lyap_oracle(inst):
    return LyapunovOracle(inst).function_oracle()


def tables_only(g):
    """``g`` without its separable declaration, so every rule reads tables."""
    return FunctionOracle(n=g.n, fn=g.fn, box=g.box, value_floor=g.value_floor, grid=g.grid)


class TestConvexityVerifier:
    def test_worked_example_lyapunov_holds(self, ex21):
        g = lyap_oracle(ex21)
        assert is_lnat_convex_on_box(g, ((0, 0, 0), (2, 2, 2))) is None

    def test_supermodular_counterexample(self):
        assert is_lnat_convex_on_box(SUPERMODULAR, SUPERMODULAR.box) == \
            LnatCounterexample(p=(0, 1), q=(1, 0))

    def test_linear_function_holds(self):
        g = FunctionOracle(n=2, fn=lambda p: 3 * p[0] + 5 * p[1],
                           box=((0, 0), (4, 4)), value_floor=0)
        assert is_lnat_convex_on_box(g, g.box) is None

    def test_budget_guard(self, ex21):
        g = lyap_oracle(ex21)
        with pytest.raises(BudgetExceededError):
            is_lnat_convex_on_box(g, ((0, 0, 0), (2, 2, 2)), budget=10)

    def test_requires_a_box(self):
        """The box is an argument: a declared ``box`` is not read for it."""
        g = FunctionOracle(n=1, fn=lambda p: p[0] * p[0], box=((0,), (3,)))
        with pytest.raises(TypeError, match="'box'"):
            is_lnat_convex_on_box(g)


class TestLocalMidpointCheck:
    """``is_lnat_convex_on_box`` decides L♮-convexity on a box inside the
    domain by its local check alone: it passes exactly when the definitional
    twin does, its witness is the first pair that breaks the local
    inequality as printed, and a box leaving the domain is refused."""

    @staticmethod
    def _check(g, box):
        """Assert the outcome against the twin; return it, or "domain" when
        the box holds a None."""
        points = list(product(*(range(a, b + 1) for a, b in zip(*box))))
        holes = [p for p in points if g.fn(p) is None]
        if holes:
            with pytest.raises(ValueError) as refusal:
                is_lnat_convex_on_box(g, box)
            assert str(refusal.value) == f"the box leaves the function's domain at {holes[0]}"
            return "domain"
        got = is_lnat_convex_on_box(g, box)
        assert (got is None) == (midpoint_twin(g, box) is None), box
        if got is not None:
            assert breaks_midpoint(g, got.p, got.q), (box, got)
            assert (got.p, got.q) == next(midpoint_failures(g, points)), (box, got)
        return got

    @given(st.sampled_from(("convex", "perturbed", "random", "cut")),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_same_outcome_as_the_twin(self, kind, seed):
        rng = random.Random(seed)
        box = small_box(rng)
        self._check(box_function(rng, kind, box), box)

    def test_sweep_meets_every_outcome(self):
        """Passes, witnesses and refusals over n <= 5 with widths up to 5,
        so pairs farther apart than 2 exist."""
        rng = random.Random(2016)
        seen = set()
        for t in range(400):
            box = small_box(rng)
            kind = ("convex", "perturbed", "random", "cut")[t % 4]
            got = self._check(box_function(rng, kind, box), box)
            seen.add(got if isinstance(got, str) else type(got))
        assert seen == {type(None), LnatCounterexample, "domain"}

    def test_lyapunov_adapters(self):
        """Lyapunov adapters of table markets, as ``verify`` runs them, on
        boxes in the nonnegative orthant; a box reaching below zero leaves
        the domain."""
        rng = random.Random(67)
        for _ in range(25):
            inst = random_multi_instance(rng, n_max=2, u_max=2, m_max=3)
            if rng.random() < 0.5:
                inst = Instance(model="multi", n=inst.n, u=inst.u,
                                valuations=tuple(tabulate(v) for v in inst.valuations))
            g = LyapunovOracle(inst).function_oracle()
            lo = tuple(rng.randint(0, 2) for _ in range(inst.n))
            hi = tuple(a + rng.randint(0, 4) for a in lo)
            assert self._check(g, (lo, hi)) is None, (inst, lo, hi)
        assert self._check(lyap_oracle(make_two_bidder_multi()), ((-1,), (1,))) == "domain"

    def test_box_outside_the_domain_is_refused(self, ex21):
        with pytest.raises(ValueError, match=r"domain at \(-1, 0, 0\)$"):
            is_lnat_convex_on_box(lyap_oracle(ex21), ((-1, 0, 0), (1, 1, 1)))

    def test_planted_distance_two_fault(self):
        """(0, 1, 0) on [0, 2]: only the pair (0, 2) sees the bump."""
        assert not check_holds([2], [0, 1, 0])
        assert check_holds([2], [0, 1, 2])
        g = FunctionOracle(n=1, fn=lambda p: (0, 1, 0)[p[0]], box=((0,), (2,)))
        assert is_lnat_convex_on_box(g, g.box) == LnatCounterexample(p=(0,), q=(2,))

    def test_planted_incomparable_fault(self):
        """g = p_0 p_1 on [0, 1]^2 is convex in each coordinate, but
        g(1, 0) + g(0, 1) < g(0, 0) + g(1, 1): only the incomparable pair
        at distance 1 sees it."""
        assert not check_holds([1, 1], [0, 0, 0, 1])
        assert check_holds([1, 1], [0, 0, 0, -1])
        g = FunctionOracle(n=2, fn=lambda p: p[0] * p[1], box=((0, 0), (1, 1)))
        assert is_lnat_convex_on_box(g, g.box) == LnatCounterexample(p=(0, 1), q=(1, 0))

    def test_charge_is_the_plans_pairs(self):
        """A passing check reads each inequality of its family, unit squares
        and comparable pairs with a step of 2, four times: ``family_size``
        of them, which a brute count confirms; the budget is charged the
        theorem's pairs, ``midpoint_charge``, counted the same way, and the
        witness's family reads each of them four times.  The kernel's pair
        and read counts are the ones the check meets.  On every box with
        n <= 3 and widths up to 3, on wider ones that split into leading
        and trailing coordinates, and on verify's boxes."""
        boxes = [w for n in (1, 2, 3) for w in product(range(4), repeat=n)]
        boxes += [(2, 1, 0, 3), (1, 2, 2, 1, 2), (3, 0, 1, 1, 2, 1), (2,) * 5, (3,) * 4]
        for widths in boxes:
            check, theorem = brute_midpoint_pairs(widths, in_family), brute_midpoint_pairs(widths)
            assert family_size(widths) == check, widths
            assert lnat.midpoint_charge(widths) == theorem, widths
            for family, brute in ((lnat._check, check), (lnat._theorem, theorem)):
                pairs, reads, plan = box_pairs(widths, family, DEFAULT_BUDGET)
                vals = CountingList([0] * box_volume(widths))
                assert list(pair_failures(vals, plan, lnat._midpoint_fails)) == []
                assert pairs == brute and reads == vals.counter[0] == 4 * pairs, widths
        assert (family_size([2] * 5), lnat.midpoint_charge([2] * 5)) == (5731, 29403)
        assert (family_size([3] * 4), lnat.midpoint_charge([3] * 4)) == (5024, 19080)

    @staticmethod
    def _agrees_with_every_pair(rng, kind):
        """Draw a box with n <= 5 and widths <= 3 and a function of ``kind``
        on it, holes (a cut function's None) read as 40; assert that the
        check passes exactly when no pair with ‖p - q‖∞ <= 2 fails, and that
        a failure is reported at the first failing pair.  Return that pair,
        or None."""
        n = rng.randint(1, 5)
        widths = [rng.randint(0, 3) for _ in range(n)]
        while prod(w + 1 for w in widths) > 81:
            widths[widths.index(max(widths))] -= 1
        box = ((0,) * n, tuple(widths))
        points = list(product(*(range(w + 1) for w in widths)))
        g = box_function(rng, kind, box)
        table = {p: 40 if g.fn(p) is None else g.fn(p) for p in points}
        filled = FunctionOracle(n=n, fn=table.get, box=box)
        first = next(midpoint_failures(filled, points), None)
        assert check_holds(widths, list(map(table.get, points))) == (first is None), \
            (widths, table)
        assert is_lnat_convex_on_box(filled, box) == \
            (first and LnatCounterexample(*first)), (widths, table)
        return first

    @given(st.sampled_from(("convex", "perturbed", "random", "cut")),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_family_agrees_with_every_pair(self, kind, seed):
        self._agrees_with_every_pair(random.Random(seed), kind)

    def test_family_sweep_meets_outside_witnesses(self):
        """Over a seeded sweep both outcomes occur, and some first failing
        pairs lie outside the check's family, so the family tripped on a
        different inequality and the witness still came from the full
        scan."""
        rng = random.Random(1978)
        firsts = [self._agrees_with_every_pair(rng, ("convex", "perturbed", "random", "cut")[t % 4])
                  for t in range(160)]
        assert None in firsts
        assert any(first and not in_family(*first) for first in firsts)

    def test_planted_witness_outside_the_family(self):
        """g = p_0 p_1 p_2 on [0, 1]^3.  The first failing pair, (0, 0, 1) and
        (1, 1, 0), moves three coordinates, so it is not in the check's
        family, which trips on unit squares instead, the first being (0, 1,
        1) and (1, 0, 1); the counterexample is still the full scan's first
        pair.  (A linear program over small boxes, up to [0, 2]^3 x [0, 1],
        found no function whose first failing pair is mixed-sign at distance
        2: the earlier inequalities imply it.)"""
        g = FunctionOracle(n=3, fn=lambda p: p[0] * p[1] * p[2], box=((0,) * 3, (1,) * 3))
        points = list(product((0, 1), repeat=3))
        vals = [g.fn(p) for p in points]
        trips = [pq for pq in midpoint_failures(g, points) if in_family(*pq)]
        assert trips[0] == ((0, 1, 1), (1, 0, 1)), trips
        assert min(midpoint_failures_of(lnat._check, (1, 1, 1), vals)) == (3, 5)
        assert min(midpoint_failures_of(lnat._theorem, (1, 1, 1), vals)) == (1, 6)
        assert is_lnat_convex_on_box(g, g.box) == LnatCounterexample(p=(0, 0, 1), q=(1, 1, 0))

    @pytest.mark.parametrize("width, n", [(2, 5), (3, 4)])
    def test_late_witness_at_verify_sizes(self, width, n):
        """On verify's [0, 2]^5 and [0, 3]^4, a linear function with its last
        corner raised fails only at pairs that reach that corner, late in
        box order; the witness is still the first failing pair."""
        corner = (width,) * n
        g = FunctionOracle(n=n, fn=lambda p: sum(p) + 5 * (p == corner))
        points = list(product(range(width + 1), repeat=n))
        got = is_lnat_convex_on_box(g, ((0,) * n, corner))
        assert (got.p, got.q) == next(midpoint_failures(g, points))
        assert got.q[0] == width

    def test_width_zero_coordinates_change_nothing(self):
        """A box with coordinates of width 0 gives the outcome of the same
        box with them removed, the witness with their bound put back."""
        rng = random.Random(300)
        seen = set()
        for t in range(120):
            box = small_box(rng)
            g = box_function(rng, ("convex", "perturbed", "random")[t % 3], box)
            n = len(box[0]) + rng.randint(1, 3)
            live = sorted(rng.sample(range(n), len(box[0])))
            flat = [rng.randint(0, 9) for _ in range(n)]

            def wide(p, live=live, flat=flat):
                return tuple(p[live.index(c)] if c in live else flat[c] for c in range(n))

            lo, hi = (wide(side) for side in box)
            padded = FunctionOracle(n=n, fn=lambda p, g=g, live=live: g.fn(tuple(p[c] for c in live)))
            got, want = is_lnat_convex_on_box(padded, (lo, hi)), self._check(g, box)
            assert got == (want and LnatCounterexample(p=wide(want.p), q=wide(want.q))), (box, lo)
            seen.add(want is None)
        assert seen == {True, False}

    def test_kept_plans_follow_the_box_and_the_family(self):
        """The kept plans are read per (live widths, family): three box
        shapes in turn, one with a coordinate of width 0, [0, 1]^3 whose
        coordinates are all trailing, and verify's [0, 3]^4, each checked
        with a failing function (the product of its first three live
        coordinates, whose first failing pair on [0, 1]^3 lies outside the
        check's family) and then a passing one, give the twin's outcomes
        and first failing pairs.  The passing check reuses the plan the
        failing one built, and only the three shapes' plans are kept."""
        itemsets._PLANS.clear()
        for widths in [(1, 0, 2, 1), (1, 1, 1), (3, 3, 3, 3)] * 2:
            box = ((0,) * len(widths), widths)
            live = tuple(w for w in widths if w)
            first = [c for c, w in enumerate(widths) if w][:3]
            failing = FunctionOracle(n=len(widths), fn=lambda p, first=first: prod(p[c] for c in first))
            passing = FunctionOracle(n=len(widths), fn=lambda p: sum(c * c for c in p))
            assert self._check(failing, box) is not None, widths
            plan = itemsets._PLANS[live, lnat._check][2]
            assert self._check(passing, box) is None, widths
            assert itemsets._PLANS[live, lnat._check][2] is plan, widths
        assert {key[0] for key in itemsets._PLANS} == {(1, 2, 1), (1, 1, 1), (3, 3, 3, 3)}

    def test_refusal_reads_nothing(self, ex21):
        """At one test under the charge the check refuses before any value
        is read; at the charge it reads each box point once."""
        box = ((0, 0, 0), (3, 3, 3))
        work = (14 ** 3 - 4 ** 3) // 2
        reads = []
        g = lyap_oracle(ex21)
        counted = FunctionOracle(n=3, fn=lambda p: reads.append(p) or g.fn(p))
        with pytest.raises(BudgetExceededError) as refusal:
            is_lnat_convex_on_box(counted, box, budget=work - 1)
        assert str(refusal.value) == \
            f"convexity check needs {work} inequality tests, budget is {work - 1}"
        assert reads == []
        assert is_lnat_convex_on_box(counted, box, budget=work) is None
        assert reads == list(product(range(4), repeat=3))


class TestBoxPairs:
    """``itemsets.box_pairs``, the one plan kernel of the M♮ exchange check
    and the L♮ midpoint check, and its kept-plan cache."""

    def test_a_plan_over_its_budget_is_not_kept(self):
        """A plan is kept only while the kept index entries fit the budget
        of each call that built one: the check's plan on [0, 2]^3, at least
        four entries per pair, is built and returned but not kept at a
        budget one below its entries, and kept at its entries; a larger plan
        over that budget leaves it kept, and it is dropped, as the oldest,
        when a second plan built under that budget joins it."""
        itemsets._PLANS.clear()
        pairs, _, plan = box_pairs((2, 2, 2), lnat._check, DEFAULT_BUDGET)
        entries = itemsets._PLANS[(2, 2, 2), lnat._check][3]
        assert entries >= 4 * pairs and plan is not None
        itemsets._PLANS.clear()
        again = box_pairs((2, 2, 2), lnat._check, entries - 1)[2]
        assert [(ps, qs, starts) for ps, qs, _, starts in again[1]] == \
            [(ps, qs, starts) for ps, qs, _, starts in plan[1]]
        assert itemsets._PLANS == {}
        box_pairs((2, 2, 2), lnat._check, entries)
        assert list(itemsets._PLANS) == [((2, 2, 2), lnat._check)]
        box_pairs((2, 2, 2, 2), lnat._check, entries)
        assert list(itemsets._PLANS) == [((2, 2, 2), lnat._check)]
        box_pairs((1, 1), lnat._check, entries)
        assert list(itemsets._PLANS) == [((1, 1), lnat._check)]

    def test_a_read_charged_plan_is_one_block(self):
        """The exchange check, charged its reads, plans [0, 2]^5 as one
        block of the whole box; the midpoint check's plans keep the
        trailing three coordinates' block and a start per leading point."""
        exchange = box_pairs((2,) * 5, instance._exchanges, DEFAULT_BUDGET, DEFAULT_BUDGET)[2]
        assert exchange[0] == 3 ** 5
        assert all(starts == [[0]] * len(get) for _, _, get, starts in exchange[1])
        for family in (lnat._check, lnat._theorem):
            size, blocks = box_pairs((2,) * 5, family, DEFAULT_BUDGET)[2]
            assert size == 27 and max(len(starts[0]) for *_, starts in blocks) > 1

    def test_verify_boxes_are_reused(self, monkeypatch):
        """At the default budget verify's L♮ boxes, [0, 2]^5 and [0, 3]^4,
        keep both families' plans, and a second check of each reads them
        from the cache without building any."""
        itemsets._PLANS.clear()
        built = []
        columns = itemsets._columns
        monkeypatch.setattr(itemsets, "_columns", lambda *args: built.append(args) or columns(*args))
        for round_ in range(2):
            for width, n in [(2, 5), (3, 4)]:
                corner = (width,) * n
                g = FunctionOracle(n=n, fn=lambda p, corner=corner: sum(p) + 5 * (p == corner))
                assert is_lnat_convex_on_box(g, ((0,) * n, corner)) is not None
            assert set(itemsets._PLANS) == {(w, f) for w in [(2,) * 5, (3,) * 4]
                                            for f in (lnat._check, lnat._theorem)}
            if round_ == 0:
                assert built
                first_round = len(built)
        assert len(built) == first_round


def complements_market(rng):
    """A negative control: a table bidder for whom items 1 and 2 are
    complements, beside a separable bidder.  Its Lyapunov function breaks
    midpoint convexity at p = (2, 0, ...), q = (0, 2, ...)."""
    n = rng.randint(2, 3)
    u = (1,) * n
    table = Valuation.from_table({x: sum(x) + (x[0] & x[1]) for x in product((0, 1), repeat=n)})
    return Instance(model="multi", n=n, u=u,
                    valuations=(table, Valuation.separable([[rng.randint(0, 4)]] * n)))


class TestGridRoute:
    """``is_lnat_convex_on_box`` reads a declared ``grid`` in one call, with
    the outcome of the per-point route: the same None, witness or refusal."""

    @staticmethod
    def _outcome(g, box, budget):
        try:
            return is_lnat_convex_on_box(g, box, budget=budget)
        except (BudgetExceededError, ValueError) as exc:
            return (type(exc).__name__, str(exc))

    def test_same_outcome_with_and_without_grid(self):
        rng = random.Random(71)
        seen = set()
        for t in range(240):
            kind = t % 4
            if kind == 0:
                inst = random_unit_instance(rng, n_max=3, m_max=4)
            elif kind == 1:
                inst = random_multi_instance(rng, n_max=3, u_max=2, m_max=3)
            elif kind == 2:
                sep = random_multi_instance(rng, n_max=3, u_max=2, m_max=3)
                inst = Instance(model="multi", n=sep.n, u=sep.u, valuations=tuple(
                    tabulate(v) if rng.random() < 0.7 else v for v in sep.valuations))
            else:
                inst = complements_market(rng)
            volume = prod(q + 1 for q in inst.u)
            ly = LyapunovOracle(inst, budget=rng.choice((10**6, volume, volume - 1)))
            g = ly.function_oracle()

            def unread(p):
                raise AssertionError("fn read although the oracle declares a grid")

            plain = FunctionOracle(n=g.n, fn=g.fn, value_floor=0)
            gridded = FunctionOracle(n=g.n, fn=unread, value_floor=0, grid=g.grid)
            if kind == 3:
                lo = tuple(rng.randint(-1, 0) for _ in range(inst.n))
                hi = (2,) * inst.n
            else:
                lo = tuple(rng.randint(-2, 2) for _ in range(inst.n))
                hi = tuple(a + rng.randint(0, 2) for a in lo)
            work = lnat.midpoint_charge([b - a for a, b in zip(lo, hi)])
            budget = rng.choice((10**6, work, work - 1))
            want = self._outcome(plain, (lo, hi), budget)
            assert self._outcome(gridded, (lo, hi), budget) == want, (inst, lo, hi, budget)
            if want is None or isinstance(want, LnatCounterexample):
                seen.add(type(want).__name__)
            else:  # a refusal, by its error type or its first word
                seen.add(want[0] if want[0] == "ValueError" else want[1].split()[0])
        assert seen == {"NoneType", "LnatCounterexample", "convexity", "bundle", "ValueError"}, seen

    def test_default_grid_reads_fn_point_by_point(self):
        """Without a declared grid, ``grid`` queries ``fn`` once per point of
        the axes' product, in lexicographic order, and keeps its None."""
        reads = []

        def fn(p):
            reads.append(p)
            return None if p[0] > p[1] else 3 * p[0] - p[1]

        g = FunctionOracle(n=2, fn=fn)
        axes = [range(-1, 2), (0, 4, 1)]
        points = list(product(*axes))
        assert g.grid(axes) == [None if a > b else 3 * a - b for a, b in points]
        assert reads == points

    def test_neighborhood_is_the_same_with_and_without_grid(self):
        rng = random.Random(73)
        for t in range(60):
            inst = (random_unit_instance(rng, n_max=3, m_max=4) if t % 2
                    else random_multi_instance(rng, n_max=3, u_max=2, m_max=3))
            g = lyap_oracle(inst)
            plain = FunctionOracle(n=g.n, fn=g.fn)
            p = tuple(rng.randint(-1, 4) for _ in range(inst.n))
            want = [g.fn(chi_add(p, mask)) for mask in range(1 << inst.n)]
            assert neighborhood_values(g, p) == neighborhood_values(plain, p) == want

    def test_the_box_is_one_grid_read(self, ex21):
        axes = []
        g = lyap_oracle(ex21)
        read = FunctionOracle(n=3, fn=g.fn, grid=lambda ax: axes.append(ax) or g.grid(ax))
        assert is_lnat_convex_on_box(read, ((0, 1, 0), (2, 2, 1))) is None
        assert [list(map(list, ax)) for ax in axes] == [[[0, 1, 2], [1, 2], [0, 1]]]


class TestLocalMinimality:
    def test_worked_example_memberships(self, ex21):
        g = lyap_oracle(ex21)
        p = (0, 0, 0)
        assert is_gp_minimal(g, p, {1})
        assert not is_gp_minimal(g, p, {1, 2})

    def test_descending_singleton(self):
        g = table_oracle({(0,): 5, (1,): 3, (2,): 3}, 1)
        assert is_gp_minimal(g, (0,), {1})

    def test_rejects_empty_set(self, ex21):
        with pytest.raises(ValueError, match="nonempty"):
            is_gp_minimal(lyap_oracle(ex21), (0, 0, 0), frozenset())


class TestMinimalDescentSet:
    def test_worked_example(self, ex21):
        g = lyap_oracle(ex21)
        assert minimal_descent_set(neighborhood_values(g, (0, 0, 0))) == 0b001
        assert minimal_descent_set(neighborhood_values(g, (1, 0, 0))) == 0b110
        assert minimal_descent_set(neighborhood_values(g, (1, 1, 1))) is None

    def test_result_is_inclusion_minimal(self, ex21):
        g = lyap_oracle(ex21)
        for p in product(range(2), repeat=3):
            mask = minimal_descent_set(neighborhood_values(g, p))
            if mask is None:
                continue
            chosen = items_from_mask(mask)
            base = g(p)
            for k in range(1, len(chosen)):
                for sub in combinations(sorted(chosen), k):
                    q = list(p)
                    for i in sub:
                        q[i - 1] += 1
                    assert g(tuple(q)) >= base

    def test_kept_order_matches_combinations(self):
        """The kept scan order is by cardinality, then lexicographic, as
        ``combinations`` lists the members; the first descent set found in
        it is the one a fresh ``combinations`` scan finds."""
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 6)
            order = [sum(1 << i for i in combo)
                     for k in range(1, n + 1) for combo in combinations(range(n), k)]
            vals = [rng.choice((None, rng.randint(-3, 3))) if mask else rng.randint(-3, 3)
                    for mask in range(1 << n)]
            want = next((mask for mask in order
                         if vals[mask] is not None and vals[mask] < vals[0]), None)
            assert minimal_descent_set(vals) == want, vals
            assert lnat._masks_by_size(1 << n) == tuple(order)


class TestMinimalMinimizerStep:
    def test_worked_example(self, ex21):
        g = lyap_oracle(ex21)
        assert minimal_minimizer_step(neighborhood_values(g, (0, 0, 0))) == 0b111
        assert minimal_minimizer_step(neighborhood_values(g, (1, 1, 1))) == 0

    def test_two_bidder_multi(self, two_bidder_multi):
        g = lyap_oracle(two_bidder_multi)
        assert minimal_minimizer_step(neighborhood_values(g, (0,))) == 0b1

    def test_non_submodular_step_rejected(self):
        g = table_oracle({(0, 0): 5, (1, 0): 4, (0, 1): 4, (1, 1): 5}, 2)
        with pytest.raises(ConvexityError, match="not submodular"):
            minimal_minimizer_step(neighborhood_values(g, (0, 0)))

    @given(st.integers(0, 8).flatmap(lambda n: st.lists(
        st.one_of(st.none(), st.integers(-2, 1)), min_size=1 << n, max_size=1 << n)),
        st.integers(-2, 1))
    def test_matches_the_comprehension_twin(self, rest, first):
        """Random tables with ties and None entries: the meet of every
        least finite entry's mask, or ConvexityError when it is not least."""
        vals = [first] + rest[1:]
        best = min(val for val in vals if val is not None)
        meet = reduce(and_, [mask for mask, val in enumerate(vals) if val == best])
        if vals[meet] == best:
            assert minimal_minimizer_step(vals) == meet, vals
        else:
            with pytest.raises(ConvexityError, match="not submodular"):
                minimal_minimizer_step(vals)


class TestFirstGpMinimal:
    def test_lands_in_the_descent_family(self, ex21):
        vals = neighborhood_values(lyap_oracle(ex21), (0, 0, 0))
        family = (0b001, 0b110, 0b111)
        for seed in range(20):
            assert first_gp_minimal(vals, seed) in family

    def test_seed_determinism(self, ex21):
        vals = neighborhood_values(lyap_oracle(ex21), (0, 0, 0))
        for seed in (0, 7, 2**63):
            assert first_gp_minimal(vals, seed) == first_gp_minimal(vals, seed)

    def test_none_at_a_minimizer(self, ex21):
        assert first_gp_minimal(neighborhood_values(lyap_oracle(ex21), (1, 1, 1)), 5) is None

    def test_seed_range_enforced(self, ex21):
        with pytest.raises(ValueError, match="64-bit"):
            first_gp_minimal(neighborhood_values(lyap_oracle(ex21), (0, 0, 0)), -1)

    def test_kept_order_matches_a_fresh_shuffle(self):
        """The walk that stops at the first locally-minimal set picks the
        first set ``oracle.gp_minimal_table`` flags in a fresh
        ``random.Random(seed).shuffle``, on change tables and value tables
        (entry 0 not 0) with ties and None entries, while seeds and table
        sizes change and repeat; only the latest order is kept.  A set that
        ties one of its proper subsets is never chosen, nor one above a
        proper subset; such sets, past the one-item-smaller check, come up
        in the walk, so its submask walk decides them."""
        rng = random.Random(29)
        deep_ties = deep_lows = 0
        for trial in range(600):
            n = rng.randint(1, 10)
            top = rng.randint(1, 8)
            vals = [rng.choice((None, rng.randint(-top, top))) if rng.random() < 0.2
                    else rng.randint(-top, top) for _ in range(1 << n)]
            vals[0] = 0 if trial % 2 else rng.randint(-top, top)
            seed = rng.choice((0, 1, 7, 2**63, rng.randrange(2**64)))
            flags = gp_minimal_table(vals)
            order = list(range(1, 1 << n))
            random.Random(seed).shuffle(order)
            want = next((mask for mask in order if flags[mask]), None)
            got = first_gp_minimal(vals, seed)
            assert got == want, (vals, seed)
            assert lnat._shuffled_masks.cache_info().currsize == 1
            assert lnat._shuffled_masks(seed, 1 << n) == tuple(order)
            for mask in order if got is None else order[:order.index(got)]:
                val = vals[mask]
                if val is None or val >= vals[0]:
                    continue
                smaller = [mask ^ (1 << k) for k in range(n) if mask >> k & 1]
                if all(vals[sub] is None or vals[sub] > val for sub in smaller):
                    deep_ties += any(vals[sub] == val for sub in proper_submasks(mask))
                    deep_lows += any(vals[sub] is not None and vals[sub] < val
                                     for sub in proper_submasks(mask))
            if got is not None:
                assert all(vals[sub] is None or vals[sub] > vals[got]
                           for sub in proper_submasks(got)), (vals, got)
        assert deep_ties > 20
        assert deep_lows > 100


def maximal_gp_set(vals):
    """The union of every locally-minimal descent set, by the definition
    (``oracle.gp_minimal_table``); 0 when nothing descends."""
    return reduce(or_, [mask for mask, flag in enumerate(gp_minimal_table(vals)) if flag], 0)


class TestMaximalGpMinimal:
    """The maximal locally-minimal descent set is the steepest rule's set,
    so ``excess-maximal`` runs ``minimal_minimizer_step``."""

    def test_worked_example(self, ex21):
        g = lyap_oracle(ex21)
        for p, want in (((0, 0, 0), 0b111), ((1, 0, 0), 0b110), ((1, 1, 1), 0)):
            vals = neighborhood_values(g, p)
            assert maximal_gp_set(vals) == minimal_minimizer_step(vals) == want, p

    def test_non_convex_input_rejected(self):
        """Items 1 and 2 each descend alone but not together: the union of
        the locally-minimal sets does not descend, and the rule refuses."""
        g = table_oracle({(0, 0): 5, (1, 0): 4, (0, 1): 4, (1, 1): 5}, 2)
        vals = neighborhood_values(g, (0, 0))
        assert maximal_gp_set(vals) == 0b11 and vals[0b11] == vals[0]
        with pytest.raises(ConvexityError):
            minimal_minimizer_step(vals)


class TestMinimize:
    def test_steepest_single_step(self, ex21):
        g = lyap_oracle(ex21)
        p, traj = minimize(g, (0, 0, 0), StrategyKind.STEEPEST_MINIMAL,
                           neighborhood=value_route(g))
        assert p == (1, 1, 1)
        assert len(traj) == 1
        assert traj.steps[0].chosen_mask == 0b111

    def test_minimal_descent_trajectory(self, ex21):
        g = lyap_oracle(ex21)
        p, traj = minimize(g, (0, 0, 0), StrategyKind.MINIMAL_DESCENT,
                           neighborhood=value_route(g))
        assert p == (1, 1, 1)
        assert [s.chosen_mask for s in traj.steps] == [0b001, 0b110]
        assert [(s.g_before, s.g_after) for s in traj.steps] == [(6, 5), (5, 3)]

    def test_start_at_the_minimizer(self, ex21):
        g = lyap_oracle(ex21)
        p, traj = minimize(g, (1, 1, 1), StrategyKind.MINIMAL_DESCENT,
                           neighborhood=value_route(g))
        assert p == (1, 1, 1) and len(traj) == 0

    def test_iteration_cap(self):
        """A floor above the true minimum makes the value-derived cap too
        small: (p - 2)^2 from 0 with floor 4 allows one step, and the run
        needs two."""
        g = FunctionOracle(n=1, fn=lambda p: (p[0] - 2) ** 2, value_floor=4)
        with pytest.raises(IterationCapError, match="within 1 iterations"):
            minimize(g, (0,), StrategyKind.STEEPEST_MINIMAL, neighborhood=value_route(g))

    def test_cap_needs_a_floor(self):
        g = FunctionOracle(n=1, fn=lambda p: (p[0] - 2) ** 2, box=((0,), (9,)))
        with pytest.raises(ValueError, match="value_floor"):
            minimize(g, (0,), StrategyKind.STEEPEST_MINIMAL, neighborhood=value_route(g))
        floored = FunctionOracle(n=1, fn=g.fn, box=g.box, value_floor=0)
        p, _ = minimize(floored, (0,), StrategyKind.STEEPEST_MINIMAL,
                        neighborhood=value_route(floored))
        assert p == (2,)

    @pytest.mark.parametrize("free", [0, 1])
    def test_stop_test_reads_past_corners_outside_the_domain(self, free):
        """Raising the fixed item leaves the domain, so every change table
        holds None entries, before the first negative entry when item 2 is
        the free one and after it when item 1 is; the descent walks the free
        item up to its minimizer 3 either way, and stops there.  Declared
        as per-item terms, the fixed item's change is None, and the
        per-item rules step as the tables do."""
        def fn(p):
            return None if p[1 - free] else (p[free] - 3) ** 2

        def term(j, c):  # the same function as a sum of per-item terms
            return (c - 3) ** 2 if j == free else None if c else 0

        plain = FunctionOracle(n=2, fn=fn, value_floor=0)
        declared = FunctionOracle(n=2, fn=fn, value_floor=0, terms=term)
        for g in (plain, declared):
            for kind in StrategyKind:
                p, traj = minimize(g, (0, 0), kind, seed=1, neighborhood=value_route(g))
                assert p == tuple(3 if j == free else 0 for j in range(2))
                assert [s.chosen_mask for s in traj.steps] == [1 << free] * 3

    def test_dimension_guard(self):
        g = FunctionOracle(n=25, fn=lambda p: sum(p), value_floor=0)
        with pytest.raises(BudgetExceededError, match="cap"):
            minimize(g, (0,) * 25, StrategyKind.STEEPEST_MINIMAL, neighborhood=value_route(g))

    @staticmethod
    def _separable(targets, *, declared=True):
        """sum_j (p_j - t_j)^2, with its terms declared or not."""
        def term(j, c):
            return (c - targets[j]) ** 2

        def fn(p):
            return sum(map(term, range(len(p)), p))

        return FunctionOracle(n=len(targets), fn=fn, value_floor=0,
                              terms=term if declared else None)

    def test_separable_oracle_steps_as_its_tables_do(self):
        """Every rule on the per-item changes, read from the declared terms,
        takes the steps it takes on the undeclared twin's tables."""
        rng = random.Random(71)
        for _ in range(30):
            targets = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
            start = tuple(rng.randint(0, t) for t in targets)
            declared, plain = self._separable(targets), self._separable(targets, declared=False)
            for kind in StrategyKind:
                got = minimize(declared, start, kind, seed=5, neighborhood=value_route(declared))
                assert got == minimize(plain, start, kind, seed=5,
                                       neighborhood=value_route(plain)), (targets, kind)

    def test_separable_oracle_passes_the_cap_on_the_per_item_route(self):
        """Only the seeded rule reads tables, so only it meets the cap."""
        g = self._separable([2] * 30)
        for kind in (StrategyKind.STEEPEST_MINIMAL, StrategyKind.MINIMAL_DESCENT):
            p, traj = minimize(g, (0,) * 30, kind, neighborhood=value_route(g))
            assert p == (2,) * 30
            assert len(traj) == (2 if kind is StrategyKind.STEEPEST_MINIMAL else 60)
        with pytest.raises(BudgetExceededError, match="cap"):
            minimize(g, (0,) * 30, StrategyKind.FIRST_GP_MINIMAL, neighborhood=value_route(g))

    def test_step_contract(self):
        with pytest.raises(ContractError):
            Step(p_before=(0,), chosen_mask=0b1, g_before=1, g_after=1)
        with pytest.raises(ContractError):
            Step(p_before=(0,), chosen_mask=0, g_before=2, g_after=1)


def random_lattice_convex(rng, n):
    """Integer function sum_i a_i (p_i-c_i)^2 + sum_{i<j} b_ij |p_i-p_j|.

    Separable convex plus convex functions of coordinate differences, hence
    midpoint convex on the lattice; its minimizers sit in a known box.
    """
    a = [rng.randint(1, 3) for _ in range(n)]
    c = [rng.randint(0, 4) for _ in range(n)]
    b = {(i, j): rng.randint(0, 2) for i in range(n) for j in range(i + 1, n)}

    def fn(p):
        if any(x < 0 or x > 9 for x in p):
            return None
        total = sum(a[i] * (p[i] - c[i]) ** 2 for i in range(n))
        total += sum(w * abs(p[i] - p[j]) for (i, j), w in b.items())
        return total

    return FunctionOracle(n=n, fn=fn, box=((0,) * n, (9,) * n), value_floor=0)


def brute_minimal_minimizer(g):
    lo, hi = g.box
    best = None
    arg = []
    for p in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        v = g(p)
        if best is None or v < best:
            best, arg = v, [p]
        elif v == best:
            arg.append(p)
    return tuple(min(p[j] for p in arg) for j in range(g.n))


class TestGenericOracles:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_all_strategies_find_the_minimal_minimizer(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        g = random_lattice_convex(rng, n)
        assert is_lnat_convex_on_box(g, ((0,) * n, (5,) * n), budget=10**7) is None
        target = brute_minimal_minimizer(g)
        lengths = {}
        for kind in StrategyKind:
            p, traj = minimize(g, (0,) * n, kind, seed=seed % (1 << 64),
                               neighborhood=value_route(g))
            assert p == target, (kind, p, target)
            assert len(traj) <= g((0,) * n) - g(p)
            points = [traj.start] + [s.p_before for s in traj.steps] + [p]
            assert all(all(x <= t for x, t in zip(q, target)) for q in points)
            lengths[kind] = len(traj)
        assert lengths[StrategyKind.STEEPEST_MINIMAL] == max(target)
        assert lengths[StrategyKind.MINIMAL_DESCENT] >= \
            lengths[StrategyKind.STEEPEST_MINIMAL]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_union_closure_of_the_descent_family(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        g = random_lattice_convex(rng, n)
        for _ in range(5):
            p = tuple(rng.randint(0, 4) for _ in range(n))
            family = [items_from_mask(mask) for mask in range(1, 1 << n)
                      if is_gp_minimal(g, p, items_from_mask(mask))]
            for x in family:
                for y in family:
                    assert (x | y) in family
            union = frozenset().union(*family) if family else frozenset()
            assert union == items_from_mask(minimal_minimizer_step(neighborhood_values(g, p)))


def midpoint_twin(g, box):
    """Definitional twin of ``is_lnat_convex_on_box``: discrete midpoint
    convexity in shift form, g(p) + g(q) >= g(min(p + lam, q)) +
    g(max(p, q - lam)), over every pair and every shift 0..diameter, with
    the shifted points built as tuples and queried through a memo.  Returns
    the first violating (p, q, lam) in lexicographic order, or None."""
    lo, hi = tuple(box[0]), tuple(box[1])
    diameter = max(b - a for a, b in zip(lo, hi))
    memo = {}

    def gm(p):
        if p not in memo:
            memo[p] = g.fn(p)
        return memo[p]

    points = list(product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    for p in points:
        gp = gm(p)
        for q in points:
            gq = gm(q)
            lhs = None if (gp is None or gq is None) else gp + gq
            for lam in range(diameter + 1):
                a = tuple(min(pc + lam, qc) for pc, qc in zip(p, q))
                b = tuple(max(pc, qc - lam) for pc, qc in zip(p, q))
                ga = gm(a)
                gb = gm(b)
                if ga is None or gb is None:
                    if lhs is not None:
                        return p, q, lam
                    continue
                if lhs is not None and lhs < ga + gb:
                    return p, q, lam
    return None


def midpoint_failures_of(family, widths, vals):
    """The flat indices of the pairs of ``family`` on the box [0, widths]
    that break the local inequality, given the values ``vals``."""
    return pair_failures(vals, box_pairs(tuple(widths), family, DEFAULT_BUDGET)[2],
                         lnat._midpoint_fails)


def check_holds(widths, vals):
    """Whether the check's family yields no failure on the box [0, widths]
    with values ``vals``."""
    return next(midpoint_failures_of(lnat._check, widths, vals), None) is None


def midpoint_failures(g, points):
    """The pairs p < q of ``points`` that break the local inequality, in
    lexicographic order."""
    return ((p, q) for p in points for q in points if p < q and breaks_midpoint(g, p, q))


def brute_midpoint_pairs(widths, keep=lambda p, q: True):
    """Pairs p < q of the box [0, widths] with 1 <= ‖q - p‖∞ <= 2 that
    ``keep`` keeps, counted one by one."""
    points = list(product(*(range(w + 1) for w in widths)))
    return sum(p < q and max(abs(b - a) for a, b in zip(p, q)) <= 2 and keep(p, q)
               for p in points for q in points)


def in_family(p, q):
    """Whether the pair p < q is in the check's family: a unit square, whose
    q - p is χ_i - χ_j, or a comparable pair whose q - p has a 2."""
    d = sorted(b - a for a, b in zip(p, q))
    return d[0] == -1 and d[-1] == 1 and sum(map(abs, d)) == 2 or d[0] >= 0 and d[-1] == 2


def family_size(widths):
    """The check's family on the box [0, widths] in closed form.  Unit
    squares: w_i w_j times the other coordinates' points, for i < j.
    Comparable pairs (a, a + d), d in {0, 1, 2}^n: along a coordinate of
    width w there are w + 1, w and max(w - 1, 0) choices of a_c + d_c, less
    the products without a 2."""
    squares = sum(widths[i] * widths[j] * prod(w + 1 for c, w in enumerate(widths)
                                               if c not in (i, j))
                  for i, j in combinations(range(len(widths)), 2))
    return squares + prod(max(3 * w, 1) for w in widths) - prod(2 * w + 1 for w in widths)


def perturbed_convex(rng, lo, hi):
    """A midpoint-convex function with its domain cut to p_i - p_j <= k for
    some pairs, then up to two entries in the box [lo, hi] lowered, raised
    or removed."""
    n = len(lo)
    g = random_lattice_convex(rng, n)
    cuts = [(i, j, rng.randint(0, 3)) for i in range(n) for j in range(n)
            if i != j and rng.random() < 0.3]
    edits = {tuple(rng.randint(a, b) for a, b in zip(lo, hi)):
             rng.choice((None, -9, -5, -1, 5, 9)) for _ in range(rng.randint(0, 2))}

    def fn(p):
        val = g.fn(p)
        if val is None or any(p[i] - p[j] > k for i, j, k in cuts):
            return None
        if p in edits:
            delta = edits[p]
            return None if delta is None else val + delta
        return val

    return FunctionOracle(n=n, fn=fn)


def small_box(rng):
    """A box with n <= 5 and widths up to 5, at most 64 points, placed
    inside [0, 9]^n."""
    n = rng.randint(1, 5)
    widths = [rng.randint(0, 5) for _ in range(n)]
    while prod(w + 1 for w in widths) > 64:
        widths[rng.randrange(n)] //= 2
    lo = tuple(rng.randint(0, 9 - w) for w in widths)
    return lo, tuple(a + w for a, w in zip(lo, widths))


def box_function(rng, kind, box):
    """A function on ``box``: midpoint convex, the same with one or two
    entries moved, uniformly random, or ``perturbed_convex`` (which may hold
    None)."""
    lo, hi = box
    n = len(lo)
    if kind == "cut":
        return perturbed_convex(rng, lo, hi)
    if kind == "random":
        table = {p: rng.randint(0, 6) for p in product(*(range(a, b + 1) for a, b in zip(lo, hi)))}
        return FunctionOracle(n=n, fn=table.get)
    g = random_lattice_convex(rng, n)
    if kind == "convex":
        return g
    edits = {tuple(rng.randint(a, b) for a, b in zip(lo, hi)): rng.choice((-3, -1, 1, 3))
             for _ in range(rng.randint(1, 2))}
    return FunctionOracle(n=n, fn=lambda p: g.fn(p) + edits.get(p, 0))


def cube_oracle(vals, n):
    """Oracle on {0,1}^n reading g(chi_mask) = vals[mask]; None elsewhere."""
    def fn(q):
        if any(c not in (0, 1) for c in q):
            return None
        return vals[sum(c << k for k, c in enumerate(q))]

    return FunctionOracle(n=n, fn=fn, box=((0,) * n, (1,) * n))


class TestNeighborhoodTable:
    def test_gp_minimal_table_matches_the_predicate(self):
        """The proper-submask pass equals ``is_gp_minimal`` on arbitrary
        tables, ties and missing entries included."""
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(1, 5)
            vals = [rng.choice((None, rng.randint(0, 6))) if mask else rng.randint(0, 6)
                    for mask in range(1 << n)]
            g = cube_oracle(vals, n)
            zero = (0,) * n
            assert neighborhood_values(g, zero) == vals
            flags = gp_minimal_table(vals)
            assert not flags[0]
            for mask in range(1, 1 << n):
                assert flags[mask] == is_gp_minimal(g, zero, items_from_mask(mask)), \
                    (vals, mask)

    def test_gp_minimal_table_on_lattice_convex_oracles(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 3)
            g = random_lattice_convex(rng, n)
            p = tuple(rng.randint(0, 9) for _ in range(n))
            vals = neighborhood_values(g, p)
            flags = gp_minimal_table(vals)
            union = 0
            for mask in range(1, 1 << n):
                assert flags[mask] == is_gp_minimal(g, p, items_from_mask(mask))
                if flags[mask]:
                    union |= mask
            assert minimal_minimizer_step(vals) == union

    def test_malformed_table_rejected(self):
        for rule in (minimal_descent_set, minimal_minimizer_step,
                     lambda vals: first_gp_minimal(vals, 0)):
            with pytest.raises(ValueError, match="entries"):
                rule([6, 5, 4])
            with pytest.raises(ValueError, match="entries"):
                rule([])
            with pytest.raises(ValueError, match="domain"):
                rule([None, 5])

    @staticmethod
    def _shifted(ly, delta):
        def neighborhood(p):
            return [d if mask == 0 else d + delta
                    for mask, d in enumerate(ly._change_table(p))]
        return neighborhood

    def test_off_by_one_table_fails_at_a_step(self, ex21, two_bidder_multi):
        for inst in (ex21, two_bidder_multi):
            ly = LyapunovOracle(inst)
            for kind in StrategyKind:
                with pytest.raises(ConvexityError, match="at a step"):
                    minimize(tables_only(ly.function_oracle()), (0,) * inst.n, kind,
                             neighborhood=self._shifted(ly, -1))

    def test_off_by_one_table_fails_at_the_stop(self, ex21, two_bidder_multi):
        for inst, p_min in ((ex21, (1, 1, 1)), (two_bidder_multi, (2,))):
            ly = LyapunovOracle(inst)
            for kind in StrategyKind:
                with pytest.raises(ConvexityError, match="at the stop"):
                    minimize(tables_only(ly.function_oracle()), p_min, kind,
                             neighborhood=self._shifted(ly, +1))

    def test_off_by_one_item_changes_fail_at_a_step_and_the_stop(self, two_bidder_multi):
        """The per-item route's twin of the two tests above: item changes
        one too low fail the first step's value read, and one too high the
        stop's per-item terms."""
        g = LyapunovOracle(two_bidder_multi).function_oracle()
        for shift, start, where in ((-1, (0,), "at a step"), (+1, (2,), "at the stop")):
            shifted = FunctionOracle(n=1, fn=g.fn, value_floor=0, terms=g.terms,
                                     items=lambda p: [d + shift for d in g.items(p)])
            for kind in (StrategyKind.STEEPEST_MINIMAL, StrategyKind.MINIMAL_DESCENT):
                with pytest.raises(ConvexityError, match=f"item changes disagree .* {where}"):
                    minimize(shifted, start, kind, neighborhood=value_route(shifted))

    def test_empty_raise_must_change_nothing(self, ex21):
        ly = LyapunovOracle(ex21)

        def neighborhood(p):
            return [1, *ly._change_table(p)[1:]]

        with pytest.raises(ConvexityError, match="at p"):
            minimize(ly.function_oracle(), (0, 0, 0), StrategyKind.STEEPEST_MINIMAL,
                     neighborhood=neighborhood)

    def test_change_table_serves_starts_past_the_price_ceiling(self, ex21, two_bidder_multi):
        """The oracle reads every nonnegative price, so the change table and
        the value route agree at and beyond the price ceiling too."""
        for inst in (ex21, two_bidder_multi):
            ly = LyapunovOracle(inst)
            g = ly.function_oracle()
            top = max_total_value(inst)
            for start in (0, 1, top, top + 1, top + 3):
                p0 = (start,) * inst.n
                for kind in StrategyKind:
                    plain = minimize(g, p0, kind, seed=3, neighborhood=value_route(g))
                    fast = minimize(g, p0, kind, seed=3, neighborhood=ly._change_table)
                    assert fast == plain


def repeat_prone_market(rng):
    """A small unit or separable market whose values are multiples of 5 or
    8, so prices climb through long stretches of one demand state."""
    n = rng.randint(1, 3)
    step = rng.choice((5, 8))
    if rng.random() < 0.5:
        return Instance(model="unit", n=n, u=(1,) * n, valuations=tuple(
            Valuation.unit_demand([step * rng.randint(0, 4) for _ in range(n)])
            for _ in range(rng.randint(1, 4))))
    u = tuple(rng.randint(1, 2) for _ in range(n))
    return Instance(model="multi", n=n, u=u, valuations=tuple(
        Valuation.separable([sorted((step * rng.randint(0, 4) for _ in range(c)),
                                    reverse=True) for c in u])
        for _ in range(rng.randint(1, 3))))


class TestKeptTables:
    def test_kept_tables_give_the_value_route_trajectory(self):
        """With change tables kept by demand state and shared by the four
        rules, every rule's trajectory equals the value route's, while most
        tables the runs ask for are served from the kept ones."""
        rng = random.Random(59)
        asked = built = 0
        for trial in range(200):
            inst = repeat_prone_market(rng)
            ly = LyapunovOracle(inst)
            g = ly.function_oracle()
            for kind in StrategyKind:
                plain = minimize(g, (0,) * inst.n, kind, seed=trial, neighborhood=value_route(g))
                fast = minimize(g, (0,) * inst.n, kind, seed=trial, neighborhood=ly._change_table)
                assert fast == plain, (inst, kind)
                asked += len(fast[1]) + 1
            built += len(ly._tables)
        assert asked > 3 * built

    @settings(max_examples=60)
    @given(st.data())
    def test_table_markets_give_the_value_route_trajectory(self, data):
        """On the column markets with some bidders passed through
        ``tabulate``, read as multi markets, the demand-side route and the
        value route give every rule the same trajectory, under a few seeds,
        with every rule reading tables."""
        inst = data.draw(column_markets(), label="market")
        flags = data.draw(st.lists(st.booleans(), min_size=inst.m, max_size=inst.m),
                          label="tabulated")
        if any(flags):
            inst = Instance(model="multi", n=inst.n, u=inst.u, valuations=tuple(
                tabulate(v) if flag else v for v, flag in zip(inst.valuations, flags)))
        ly = LyapunovOracle(inst)
        g = tables_only(ly.function_oracle())
        start = (0,) * inst.n
        for kind in StrategyKind:
            for seed in (0, 7, 2**64 - 1):
                fast = minimize(g, start, kind, seed=seed, neighborhood=ly._change_table)
                plain = minimize(g, start, kind, seed=seed, neighborhood=value_route(g))
                assert fast == plain, (inst, kind, seed)


RULE_OF = {
    StrategyKind.MINIMAL_DESCENT: "minimal_descent_set",
    StrategyKind.STEEPEST_MINIMAL: "minimal_minimizer_step",
    StrategyKind.FIRST_GP_MINIMAL: "first_gp_minimal",
}


def outcome(rule, vals):
    """The rule's mask, or the exception class it raised."""
    try:
        return rule(vals)
    except ConvexityError:
        return ConvexityError


class TestChangeTable:
    RULES = (minimal_descent_set, minimal_minimizer_step,
             lambda vals: first_gp_minimal(vals, 5))

    def test_rules_ignore_a_constant_shift(self):
        """Every rule gives the same answer on a table and on the table
        shifted by any constant, minus entry 0 included, on random tables
        with None entries and on lattice-convex neighborhoods."""
        rng = random.Random(53)
        answered = 0
        for trial in range(400):
            n = rng.randint(1, 5)
            if trial % 2:
                vals = [rng.choice((None, rng.randint(-6, 6))) if mask else rng.randint(-6, 6)
                        for mask in range(1 << n)]
            else:
                g = random_lattice_convex(rng, min(n, 3))
                vals = neighborhood_values(g, tuple(rng.randint(0, 9) for _ in range(g.n)))
            for shift in (-vals[0], rng.randint(-50, 50), 10**12):
                shifted = [None if v is None else v + shift for v in vals]
                for rule in self.RULES:
                    want = outcome(rule, vals)
                    assert outcome(rule, shifted) == want, (vals, shift)
                    answered += want is not ConvexityError
        assert answered > 1000

    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_rule_runs_once_per_step_on_change_tables(self, kind, ex21, two_bidder_multi,
                                                      monkeypatch):
        """``minimize`` asks its rule once per iteration, with entry 0 equal
        to 0 on both routes, and never at the stop."""
        tables = []
        rule = getattr(lnat, RULE_OF[kind])

        def counted(vals, *seed):
            tables.append(vals)
            return rule(vals, *seed)

        monkeypatch.setattr(lnat, RULE_OF[kind], counted)
        for inst, p_min in ((ex21, (1, 1, 1)), (two_bidder_multi, (2,))):
            ly = LyapunovOracle(inst)
            g = tables_only(ly.function_oracle())
            for route in (value_route(g), ly._change_table):
                for start in ((0,) * inst.n, p_min):
                    tables.clear()
                    p, traj = minimize(g, start, kind, seed=7, neighborhood=route)
                    assert p == p_min
                    assert len(tables) == len(traj)
                    assert all(vals[0] == 0 for vals in tables)

    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_a_rule_that_finds_nothing_breaks_the_step_contract(self, kind, ex21, monkeypatch):
        ly = LyapunovOracle(ex21)
        g = ly.function_oracle()
        for nothing in (None, 0):
            monkeypatch.setattr(lnat, RULE_OF[kind], lambda vals, *seed: nothing)
            for route in (value_route(g), ly._change_table):
                with pytest.raises(ContractError, match="empty set"):
                    minimize(g, (0, 0, 0), kind, neighborhood=route)

    def test_a_non_descent_choice_breaks_the_step_contract(self, monkeypatch):
        """At (0, 0) raising item 1 descends; raising item 2 does not, and
        raising both leaves the domain."""
        g = FunctionOracle(n=2, fn=lambda p: None if p[0] + p[1] > 1 else (p[0] - 2) ** 2
                           + p[1], value_floor=0)
        for mask in (0b10, 0b11):
            monkeypatch.setattr(lnat, "minimal_descent_set", lambda vals: mask)
            with pytest.raises(ContractError, match="failed to decrease"):
                minimize(g, (0, 0), StrategyKind.MINIMAL_DESCENT, neighborhood=value_route(g))


class TestKeptAnswers:
    """The table rules keep no answers: a call reads the table as it is
    then, whether a list or a tuple such as the Lyapunov oracle keeps and
    hands out again, and checks its arguments every time."""

    def test_a_mutated_list_gets_a_fresh_answer(self):
        vals = [0, -1, -2, 3]
        assert minimal_descent_set(vals) == 0b01
        assert minimal_minimizer_step(vals) == 0b10
        vals[1:3] = [-2, 1]
        assert minimal_descent_set(vals) == 0b01
        assert minimal_minimizer_step(vals) == 0b01
        vals[1] = 2
        assert minimal_descent_set(vals) is None
        assert first_gp_minimal(vals, 3) is None
        vals[2] = -1
        assert minimal_descent_set(vals) == 0b10
        assert first_gp_minimal(vals, 3) == 0b10

    def test_a_table_that_raised_raises_again(self):
        """Two least sets whose meet is not least: the step is not submodular."""
        vals = (0, -1, -1, 0)
        for _ in range(2):
            with pytest.raises(ConvexityError, match="not submodular"):
                minimal_minimizer_step(vals)

    def test_a_bad_seed_is_refused_on_a_kept_table(self):
        vals = (0, -1)
        assert first_gp_minimal(vals, 1) == 1
        for seed in (True, -1, 2**64, 1.0):
            with pytest.raises(ValueError, match="seed"):
                first_gp_minimal(vals, seed)


class TestCorners:
    """``lnat._corners``, the corner reader of the minimality scan and
    ``verify_equilibrium``, against g read point by point: every nonempty
    corner p + s * chi_X inside the domain, with its change from g(p), in
    increasing mask order, for the single items alone on a separable
    oracle."""

    UNIT = Instance(model="unit", n=2, u=(1, 1), valuations=(
        Valuation.unit_demand([3, 5]), Valuation.unit_demand([4, 1])))
    SEPARABLE = Instance(model="multi", n=2, u=(2, 1), valuations=(
        Valuation.separable([[4, 2], [3]]),))
    TABLE = Instance(model="multi", n=2, u=(2, 1), valuations=(
        tabulate(Valuation.separable([[4, 2], [3]])),))

    @given(st.data())
    @example(Drawn(UNIT, (0, 4), {1}))
    @example(Drawn(SEPARABLE, (3, 2), {0}))
    @example(Drawn(TABLE, (1, 3), {1}))
    def test_corners_are_the_point_reads(self, data):
        """Prices hold at least one zero, so some s = -1 corners are
        outside the domain.  The pinned markets take each adapter: unit and
        table markets read every mask, the separable one its items."""
        inst = data.draw(column_markets())
        p = data.draw(column_prices(inst))
        zeros = data.draw(st.sets(st.integers(0, inst.n - 1), min_size=1))
        p = tuple(0 if j in zeros else c for j, c in enumerate(p))
        g = LyapunovOracle(inst).function_oracle()
        masks = [1 << j for j in range(inst.n)] if g.terms is not None else range(1, 1 << inst.n)
        base = g.fn(p)
        for s in (1, -1):
            expected = []
            for mask in masks:
                value = g.fn(tuple(c + s * (mask >> j & 1) for j, c in enumerate(p)))
                if value is not None:
                    expected.append((mask, value - base))
            assert list(lnat._corners(g, p, base, s)) == expected, (inst, p, s)
        assert len(expected) < len(masks)
