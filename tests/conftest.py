"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import random
from itertools import product
from operator import mul

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from walras import (Instance, Valuation, evaluate, max_total_value,
                    neighborhood_values)
from walras.instance import SEPARABLE_CONCAVE, UNIT_DEMAND, iter_box

settings.register_profile(
    "walras", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("walras")

class Drawn:
    """Stands in for ``st.data()`` in an ``@example``: hands out the given
    draws in order, whatever the strategy."""

    def __init__(self, *draws):
        self._draws = iter(draws)

    def draw(self, strategy, label=None):
        return next(self._draws)


EX21_VALUES = [
    [1, 0, 0],  # a
    [1, 0, 0],  # b
    [0, 1, 1],  # c
    [0, 1, 1],  # d
    [0, 1, 1],  # e
    [1, 1, 0],  # g
]

EX21_JSON = (
    '{"model": "unit", "n": 3, "m": 6, "valuations": ['
    '{"family": "unit_demand", "values": [1, 0, 0]}, '
    '{"family": "unit_demand", "values": [1, 0, 0]}, '
    '{"family": "unit_demand", "values": [0, 1, 1]}, '
    '{"family": "unit_demand", "values": [0, 1, 1]}, '
    '{"family": "unit_demand", "values": [0, 1, 1]}, '
    '{"family": "unit_demand", "values": [1, 1, 0]}]}'
)


def make_ex21() -> Instance:
    return Instance(model="unit", n=3, u=(1, 1, 1),
                    valuations=tuple(Valuation.unit_demand(v) for v in EX21_VALUES))


def make_two_bidder_multi() -> Instance:
    """n=1, u=(2), two bidders each worth 3 then 2 per extra unit."""
    return Instance(model="multi", n=1, u=(2,),
                    valuations=(Valuation.separable([[3, 2]]),
                                Valuation.separable([[3, 2]])))


@pytest.fixture
def ex21() -> Instance:
    return make_ex21()


@pytest.fixture
def two_bidder_multi() -> Instance:
    return make_two_bidder_multi()


@pytest.fixture
def mnat_calls(monkeypatch) -> list[int]:
    """Budgets of the exchange checks ``ascending_auction`` runs, in order."""
    import walras.auction as auction
    calls = []
    check = auction.verify_mnat_exc

    def counted(v, *, budget):
        calls.append(budget)
        return check(v, budget=budget)

    monkeypatch.setattr(auction, "verify_mnat_exc", counted)
    return calls


def random_unit_instance(rng: random.Random, *, n_max: int = 5, m_max: int = 7,
                         value_max: int = 5) -> Instance:
    n = rng.randint(1, n_max)
    m = rng.randint(0, m_max)
    vals = tuple(Valuation.unit_demand([rng.randint(0, value_max) for _ in range(n)])
                 for _ in range(m))
    return Instance(model="unit", n=n, u=(1,) * n, valuations=vals)


def random_separable_valuation(rng: random.Random, u, *, value_max: int = 6) -> Valuation:
    rows = []
    for cap in u:
        row = sorted((rng.randint(0, value_max) for _ in range(cap)), reverse=True)
        rows.append(row)
    return Valuation.separable(rows)


def random_multi_instance(rng: random.Random, *, n_max: int = 3, u_max: int = 3,
                          m_max: int = 4, m_min: int = 1,
                          value_max: int = 6) -> Instance:
    n = rng.randint(1, n_max)
    u = tuple(rng.randint(1, u_max) for _ in range(n))
    m = rng.randint(m_min, m_max)
    vals = tuple(random_separable_valuation(rng, u, value_max=value_max)
                 for _ in range(m))
    return Instance(model="multi", n=n, u=u, valuations=vals)


def wide_separable_market(rng: random.Random, n: int, *, m: int = 8, u: int = 3,
                          value_max: int = 30) -> Instance:
    """A multi market of m separable bidders over n items, u units each."""
    supply = (u,) * n
    return Instance(model="multi", n=n, u=supply, valuations=tuple(
        random_separable_valuation(rng, supply, value_max=value_max) for _ in range(m)))


def value_route(g):
    """The descent's change tables read from g's own values: g(p + chi_X)
    - g(p) for every item set X, from one ``neighborhood_values`` read at p,
    None where a corner leaves the domain.  The value-read twin of a
    caller's faster route, such as ``LyapunovOracle.neighborhood``, for
    ``minimize(..., neighborhood=value_route(g))``."""
    def changes(p):
        vals = neighborhood_values(g, p)
        return [None if val is None else val - vals[0] for val in vals]

    return changes


def box_demand_set(inst: Instance, b: int, p) -> tuple:
    """Bidder b's payoff-maximizing bundles at p by the definition: a scan
    of the bundle box [0, u] with ``evaluate``, in box order."""
    v = inst.valuations[b]
    payoffs = [(evaluate(v, x) - sum(map(mul, p, x)), x) for x in iter_box(inst.u)]
    best = max(pay for pay, _ in payoffs)
    return tuple(x for pay, x in payoffs if pay == best)


def tabulate(v: Valuation) -> Valuation:
    """Re-express any valuation as an explicit table over its own box."""
    return Valuation.from_table({x: evaluate(v, x) for x in iter_box(v.box())})


@st.composite
def column_markets(draw) -> Instance:
    """Markets for the per-item column reads: multi markets that are
    separable only, of mixed families, or without bidders, and unit-model
    markets.  Mixed markets with one unit of each item may also hold
    unit-demand bidders; tabulated bidders join either."""
    kind = draw(st.sampled_from(("separable", "mixed", "empty", "unit")))
    n = draw(st.integers(1, 3))
    unit = st.lists(st.integers(0, 8), min_size=n, max_size=n).map(Valuation.unit_demand)
    if kind == "unit":
        vals = draw(st.lists(unit, max_size=4))
        return Instance(model="unit", n=n, u=(1,) * n, valuations=tuple(vals))
    ones = kind == "mixed" and draw(st.booleans())
    u = (1,) * n if ones else tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    if kind == "empty":
        return Instance(model="multi", n=n, u=u, valuations=())
    marginal_rows = st.tuples(*(
        st.lists(st.integers(0, 8), min_size=cap, max_size=cap).map(
            lambda r: sorted(r, reverse=True)) for cap in u))
    separable = marginal_rows.map(Valuation.separable)
    families = [separable]
    if kind == "mixed":
        families.append(separable.map(tabulate))
        if ones:
            families += [unit, unit.map(tabulate)]
    vals = draw(st.lists(st.one_of(*families), min_size=1, max_size=4))
    return Instance(model="multi", n=n, u=u, valuations=tuple(vals))


@st.composite
def column_prices(draw, inst: Instance) -> tuple[int, ...]:
    """A price per item at one of the value reads' edges: a separable
    marginal or a unit-demand worth of the item, one above or below it, 0,
    or above every worth."""
    top = max_total_value(inst) + 1
    p = []
    for j in range(inst.n):
        edges = {0, top}
        for v in inst.valuations:
            if v.family == SEPARABLE_CONCAVE:
                worths = v.marginals[j]
            elif v.family == UNIT_DEMAND:
                worths = (v.values[j],)
            else:
                continue
            for w in worths:
                edges.update(c for c in (w - 1, w, w + 1) if c >= 0)
        p.append(draw(st.sampled_from(sorted(edges))))
    return tuple(p)


def complements_table_market(rng: random.Random) -> Instance:
    """A market whose bidder 0 is a table that sees two random items as
    complements: a separable valuation plus a bonus for holding both, which
    breaks the exchange axiom but keeps the table monotone.  Beside it bids
    a separable bidder."""
    n = rng.randint(2, 3)
    u = tuple(rng.randint(1, 2) for _ in range(n))
    i, j = rng.sample(range(n), 2)
    base = random_separable_valuation(rng, u)
    bonus = rng.randint(1, 9)
    table = Valuation.from_table({x: evaluate(base, x) + bonus * (x[i] > 0 and x[j] > 0)
                                  for x in iter_box(u)})
    return Instance(model="multi", n=n, u=u,
                    valuations=(table, random_separable_valuation(rng, u)))


def lift(x):
    """Bundle x as (-Σx, x), in the lifted coordinates 0..n."""
    return (-sum(x),) + tuple(x)


def breaks_local_exchange(v, x, y):
    """Whether bundles x < y break the local exchange condition as
    ``MnatCounterexample`` states it: their lifts (-Σx, x) lie at
    ‖·‖₁ = 4, and no exchange x~ - e_i + e_j, y~ + e_i - e_j with
    x~_i > y~_i and x~_j < y~_j (index 0 the lifted coordinate) keeps
    v(x) + v(y)."""
    lx, ly = lift(x), lift(y)
    diff = [a - b for a, b in zip(lx, ly)]
    if not x < y or sum(map(abs, diff)) != 4:
        return False
    need = evaluate(v, x) + evaluate(v, y)
    for i, j in product(range(len(diff)), repeat=2):
        if diff[i] > 0 and diff[j] < 0:
            xx, yy = list(lx), list(ly)
            xx[i] -= 1
            xx[j] += 1
            yy[i] += 1
            yy[j] -= 1
            if evaluate(v, tuple(xx[1:])) + evaluate(v, tuple(yy[1:])) >= need:
                return False
    return True


def breaks_midpoint(g, p, q):
    """Whether points p < q break the local inequality as
    ``LnatCounterexample`` states it: ‖q - p‖∞ <= 2 and g(p) + g(q) <
    g(ceil((p + q)/2)) + g(floor((p + q)/2))."""
    if not p < q or max(abs(b - a) for a, b in zip(p, q)) > 2:
        return False
    up = tuple(-(-(a + b) // 2) for a, b in zip(p, q))
    down = tuple((a + b) // 2 for a, b in zip(p, q))
    return g.fn(p) + g.fn(q) < g.fn(up) + g.fn(down)


class CountingList(list):
    """A list that counts its item reads, in its slices too."""

    def __init__(self, items, counter=None):
        super().__init__(items)
        self.counter = [0] if counter is None else counter

    def __getitem__(self, key):
        if isinstance(key, slice):
            return CountingList(super().__getitem__(key), self.counter)
        self.counter[0] += 1
        return super().__getitem__(key)
