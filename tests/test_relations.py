"""Exact relations between runs that no brute force is needed to check.

Each test solves a market and a transformed twin and holds the answers to
an identity of the theory: scaling every worth by k scales ``p_min`` by k,
permuting the items permutes it, ``steepest`` reaches it in exactly
‖p_min - p0‖∞ steps, a bidder worth nothing changes no run, and adding a
bidder lowers no component of it.  They reach values that brute force
cannot, and pin a trajectory's length, not just its end.
"""

from operator import le

from hypothesis import example, given, settings, strategies as st

from conftest import Drawn, tabulate
from walras import Instance, StrategyKind, Valuation, ascending_auction
from walras.instance import EXPLICIT_TABLE, SEPARABLE_CONCAVE, UNIT_DEMAND

WORTH = st.integers(0, 4)


def _rows(u):
    """A separable bidder's marginals for supply u, nonincreasing per item."""
    return st.tuples(*(st.lists(WORTH, min_size=c, max_size=c)
                       .map(lambda r: sorted(r, reverse=True)) for c in u))


@st.composite
def unit_markets(draw) -> Instance:
    n = draw(st.integers(1, 3))
    vals = draw(st.lists(st.lists(WORTH, min_size=n, max_size=n).map(Valuation.unit_demand),
                         max_size=4))
    return Instance(model="unit", n=n, u=(1,) * n, valuations=tuple(vals))


@st.composite
def separable_markets(draw) -> Instance:
    n = draw(st.integers(1, 3))
    u = tuple(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))
    vals = draw(st.lists(_rows(u).map(Valuation.separable), min_size=1, max_size=3))
    return Instance(model="multi", n=n, u=u, valuations=tuple(vals))


@st.composite
def table_markets(draw) -> Instance:
    """Multi markets with at least one explicit-table bidder, the tabulated
    twin of a separable or, on one unit per item, a unit-demand bidder;
    the others are separable or unit-demand as drawn."""
    n = draw(st.integers(1, 3))
    u = tuple(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))
    bidder = _rows(u).map(Valuation.separable)
    if u == (1,) * n:
        bidder = st.one_of(bidder, st.lists(WORTH, min_size=n, max_size=n)
                           .map(Valuation.unit_demand))
    table = bidder.map(tabulate)
    vals = draw(st.lists(st.one_of(table, bidder), max_size=2))
    vals.insert(draw(st.integers(0, len(vals))), draw(table))
    return Instance(model="multi", n=n, u=u, valuations=tuple(vals))


MARKETS = st.one_of(unit_markets(), separable_markets(), table_markets())


def _scaled(v: Valuation, k: int) -> Valuation:
    if v.family == UNIT_DEMAND:
        return Valuation.unit_demand([k * w for w in v.values])
    if v.family == SEPARABLE_CONCAVE:
        return Valuation.separable([[k * w for w in row] for row in v.marginals])
    return Valuation.from_table({x: k * w for x, w in v.table})


def _permuted(v: Valuation, order) -> Valuation:
    """v with item j of the result being item ``order[j]`` of v."""
    if v.family == UNIT_DEMAND:
        return Valuation.unit_demand([v.values[i] for i in order])
    if v.family == SEPARABLE_CONCAVE:
        return Valuation.separable([v.marginals[i] for i in order])
    return Valuation.from_table({tuple(x[i] for i in order): w for x, w in v.table})


def _p_min(inst: Instance, kind: StrategyKind = StrategyKind.STEEPEST_MINIMAL):
    return ascending_auction(inst, kind, seed=7).p_min


class TestScaling:
    @settings(max_examples=20)
    @given(MARKETS)
    def test_scaling_the_worths_scales_p_min(self, inst):
        """L_{kv}(k p) = k L_v(p), so the minimizers at k * v are k times
        those at v; the least one at v is integral for gross-substitutes
        valuations (Murota, *Discrete Convex Analysis*, 2003, ch. 11), so
        k times it is the least integral one at k * v."""
        p_min = _p_min(inst)
        for k in (2, 7, 1009):
            twin = Instance(model=inst.model, n=inst.n, u=inst.u,
                            valuations=tuple(_scaled(v, k) for v in inst.valuations))
            for kind in StrategyKind:
                assert _p_min(twin, kind) == tuple(k * c for c in p_min), (k, kind)


class TestSteepestLength:
    @settings(max_examples=60)
    @given(MARKETS, st.data())
    @example(Instance(model="multi", n=2, u=(1, 1), valuations=(
        Valuation.separable([[3], [2]]), Valuation.separable([[3], [2]]))), Drawn((1, 1)))
    def test_steepest_takes_the_sup_norm_distance_in_steps(self, inst, data):
        """From a start p0 <= p_min, the steepest rule, raising the minimal
        minimizer of the one-step change, takes exactly ‖p_min - p0‖∞ steps
        (Murota and Shioura, Oper. Res. Lett. 2014; Murota, Shioura and
        Yang, Discrete Optim. 2016).  The start is 0, then drawn below
        p_min."""
        run = ascending_auction(inst)
        assert len(run.trajectory) == max(run.p_min)
        p0 = data.draw(st.tuples(*map(st.integers, [0] * inst.n, run.p_min)), label="p0")
        again = ascending_auction(inst, p0=p0)
        assert again.p_min == run.p_min
        assert len(again.trajectory) == max(c - s for c, s in zip(run.p_min, p0))


class TestPermutation:
    @settings(max_examples=30)
    @given(MARKETS, st.data())
    def test_permuting_the_items_permutes_p_min(self, inst, data):
        """The Lyapunov function of the permuted market is L with its
        coordinates permuted, so its least minimizer is p_min permuted."""
        order = data.draw(st.permutations(range(inst.n)), label="order")
        kind = data.draw(st.sampled_from(StrategyKind), label="kind")
        twin = Instance(model=inst.model, n=inst.n, u=tuple(inst.u[i] for i in order),
                        valuations=tuple(_permuted(v, order) for v in inst.valuations))
        p_min = _p_min(inst, kind)
        assert _p_min(twin, kind) == tuple(p_min[i] for i in order)


def _worthless(inst: Instance, family: str) -> Valuation:
    """A bidder of the given family worth 0 on every bundle of the supply."""
    if family == UNIT_DEMAND:
        return Valuation.unit_demand([0] * inst.n)
    zero = Valuation.separable([[0] * c for c in inst.u])
    return zero if family == SEPARABLE_CONCAVE else tabulate(zero)


class TestZeroWorthBidder:
    @settings(max_examples=30)
    @given(MARKETS, st.data())
    def test_a_bidder_worth_nothing_changes_no_run(self, inst, data):
        """A bidder worth 0 everywhere has indirect utility 0 at every
        p >= 0 and least take 0 on every item set, so L and every change
        table are unchanged: so are ``p_min`` and every step, under every
        rule, wherever the bidder is inserted.  The runs may differ: a
        unit-demand bidder added to a separable market with u = 1 moves the
        descent from the per-item route onto the run route, which groups
        the same steps into fewer runs."""
        families = [UNIT_DEMAND] if inst.model == "unit" else [SEPARABLE_CONCAVE, EXPLICIT_TABLE]
        if inst.model != "unit" and inst.u == (1,) * inst.n:
            families.append(UNIT_DEMAND)
        zero = _worthless(inst, data.draw(st.sampled_from(families), label="family"))
        vals = list(inst.valuations)
        vals.insert(data.draw(st.integers(0, len(vals)), label="at"), zero)
        twin = Instance(model=inst.model, n=inst.n, u=inst.u, valuations=tuple(vals))
        for kind in StrategyKind:
            run = ascending_auction(inst, kind, seed=7)
            again = ascending_auction(twin, kind, seed=7)
            assert (again.p_min, again.trajectory.steps) == \
                (run.p_min, run.trajectory.steps), kind


def _bidders(inst: Instance):
    """One more bidder fitting inst: unit-demand in the unit model;
    separable, tabulated, or unit-demand on one unit per item, in the multi
    model."""
    unit = st.lists(WORTH, min_size=inst.n, max_size=inst.n).map(Valuation.unit_demand)
    if inst.model == "unit":
        return unit
    bidder = _rows(inst.u).map(Valuation.separable)
    if inst.u == (1,) * inst.n:
        bidder = st.one_of(bidder, unit)
    return st.one_of(bidder, bidder.map(tabulate))


class TestAddedBidder:
    @settings(max_examples=30)
    @given(MARKETS, st.data())
    @example(Instance(model="unit", n=2, u=(1, 1), valuations=()),
             Drawn(0, Valuation.unit_demand([2, 1])))
    @example(Instance(model="multi", n=2, u=(1, 1), valuations=(Valuation.separable([[1], [1]]),)),
             Drawn(0, Valuation.separable([[0], [1]])))
    def test_adding_a_bidder_never_lowers_p_min(self, inst, data):
        """Write L_t(p) = L(p) + t * V(p) for t in {0, 1}, where V is the
        added bidder's indirect utility.  Each L_t is the Lyapunov function
        of a substitutes market, so it is submodular in p, and V is
        nonincreasing in p.  So -L_t is supermodular in p and has
        increasing differences in (p, t), and its set of maximizers is
        increasing in t in the strong set order (Topkis, Oper. Res. 1978;
        Milgrom and Shannon, Econometrica 1994).  The least minimizer,
        ``p_min``, therefore cannot fall, under any rule, wherever the
        bidder is inserted."""
        vals = list(inst.valuations)
        vals.insert(data.draw(st.integers(0, len(vals)), label="at"),
                    data.draw(_bidders(inst), label="bidder"))
        twin = Instance(model=inst.model, n=inst.n, u=inst.u, valuations=tuple(vals))
        for kind in StrategyKind:
            assert all(map(le, _p_min(inst, kind), _p_min(twin, kind))), kind
