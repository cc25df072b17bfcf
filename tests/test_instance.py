"""Instance model, JSON format, and the valuation verifiers."""

import json
import os
import random
import subprocess
import sys
from itertools import product
from operator import sub
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from conftest import (EX21_JSON, CountingList, breaks_local_exchange, lift, make_ex21,
                      random_multi_instance, random_separable_valuation,
                      random_unit_instance, tabulate)
from walras import (BudgetExceededError, Instance, InstanceFormatError,
                    MnatCounterexample, MonotonicityCounterexample, Valuation,
                    evaluate, parse_instance,
                    serialize_instance, verify_mnat_exc,
                    verify_monotone_normalized)
from walras.demand import _check_price
from walras.instance import (DEFAULT_BUDGET, EXPLICIT_TABLE, SEPARABLE_CONCAVE, UNIT_DEMAND,
                             _as_int, _as_nonneg_int, _exchange_fails, _exchanges,
                             _parse_valuation,
                             box_volume, iter_box)
from walras.itemsets import box_pairs, pair_failures


COMPLEMENTS_TABLE = {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 3}
SRC = Path(__file__).resolve().parent.parent / "src"


def exchange_twin(v):
    """Definitional twin of ``verify_mnat_exc``: the gross-substitutes
    exchange axiom pair by pair over the whole box, every exchange built as a
    bundle tuple and looked up by key.  Returns the first violating (x, y, i)
    in lexicographic (x, y, ascending i) order: x_i > y_i, and moving a unit
    of item i from x to y, with or without one unit of an item k with
    x_k < y_k coming back, never keeps v(x) + v(y).  None when the axiom
    holds."""
    bundles = list(iter_box(v.box()))
    worth = {x: evaluate(v, x) for x in bundles}
    n = len(v.box())
    for x in bundles:
        for y in bundles:
            need = worth[x] + worth[y]
            down = [k for k in range(n) if x[k] < y[k]]
            for j in (j for j in range(n) if x[j] > y[j]):
                for k in down + [None]:
                    xx, yy = list(x), list(y)
                    xx[j] -= 1
                    yy[j] += 1
                    if k is not None:
                        xx[k] += 1
                        yy[k] -= 1
                    if worth[tuple(xx)] + worth[tuple(yy)] >= need:
                        break
                else:
                    return x, y, j + 1
    return None


def exchange_reads(u):
    """The exchange check's charge on the box [0, u], its reads, counted
    without building a plan."""
    return box_pairs(u, _exchanges, DEFAULT_BUDGET, 0)[1]


def brute_exchange_pairs(widths):
    """Pairs x < y of the box [0, widths] whose lifts (-Σx, x) lie at
    ‖·‖₁ = 4, counted one by one."""
    points = list(iter_box(widths))
    return sum(x < y and sum(map(abs, map(sub, lift(x), lift(y)))) == 4
               for x in points for y in points)


def local_exchange_failures(v):
    """The pairs x < y of v's box that break the local exchange condition,
    in lexicographic order."""
    bundles = list(iter_box(v.box()))
    return ((x, y) for x in bundles for y in bundles if breaks_local_exchange(v, x, y))


def monotone_twin(v, *, budget=DEFAULT_BUDGET):
    """The bundle-by-bundle scan ``verify_monotone_normalized`` ran before it
    read a flat list of worths."""
    u = v.box()
    volume = box_volume(u)
    n = len(u)
    if volume * (n + 1) > budget:
        raise BudgetExceededError(
            f"monotonicity scan of volume {volume} exceeds budget {budget}")
    if evaluate(v, (0,) * n) != 0:
        return MonotonicityCounterexample(x=None, i=None, message="v(0)≠0")
    for x in iter_box(u):
        wx = evaluate(v, x)
        for j in range(n):
            if x[j] < u[j]:
                step = list(x)
                step[j] += 1
                if evaluate(v, tuple(step)) < wx:
                    return MonotonicityCounterexample(
                        x=x, i=j + 1,
                        message=f"v decreases from {x} when adding item {j + 1}")
    return None


def _outcome(check, v, budget):
    try:
        return check(v, budget=budget)
    except BudgetExceededError as exc:
        return ("budget", str(exc))


class TestParsing:
    def test_minimal_unit_instance(self):
        inst = parse_instance('{"model": "unit", "n": 1, "m": 1, '
                              '"valuations": [{"family": "unit_demand", "values": [1]}]}')
        assert inst.u == (1,)
        assert inst.m == 1
        assert inst.valuations[0].values == (1,)

    def test_zero_supply_rejected(self):
        with pytest.raises(InstanceFormatError, match="supply must be positive"):
            parse_instance('{"model": "multi", "n": 1, "m": 0, "u": [0], "valuations": []}')

    def test_worked_example_shape(self):
        inst = parse_instance(EX21_JSON)
        assert (inst.n, inst.m) == (3, 6)
        assert inst.u == (1, 1, 1)
        assert inst == make_ex21()

    def test_u_defaults_to_ones_for_unit(self):
        inst = parse_instance('{"model": "unit", "n": 2, "m": 0, "valuations": []}')
        assert inst.u == (1, 1)

    def test_u_required_for_multi(self):
        with pytest.raises(InstanceFormatError, match="u: missing"):
            parse_instance('{"model": "multi", "n": 1, "m": 0, "valuations": []}')

    @pytest.mark.parametrize("text,needle", [
        ('not json', "malformed JSON"),
        ('[1]', "must be a JSON object"),
        ('{"model": "unit", "n": 1, "valuations": []}', "m: missing"),
        ('{"model": "dutch", "n": 1, "m": 0, "valuations": []}', "model"),
        ('{"model": "unit", "n": 0, "m": 0, "valuations": []}', "n: must be a positive"),
        ('{"model": "unit", "n": 1, "m": 1, "valuations": []}',
         "m: does not match"),
        ('{"model": "unit", "n": 1, "m": 0, "valuations": [], "tiebreak": 1}',
         "tiebreak: unknown field"),
        ('{"model": "unit", "n": 1, "m": 0, "u": [2], "valuations": []}',
         "all ones"),
        ('{"model": "unit", "n": 1, "m": 1, '
         '"valuations": [{"family": "mystery"}]}', "unknown family tag"),
        ('{"model": "unit", "n": 1, "m": 1, '
         '"valuations": [{"family": "separable_concave", "marginals": [[1]]}]}',
         "requires family 'unit_demand'"),
        ('{"model": "multi", "n": 1, "m": 1, "u": [2], '
         '"valuations": [{"family": "separable_concave", "marginals": [[1, 2]]}]}',
         "nonincreasing"),
        ('{"model": "unit", "n": 1, "m": 1, '
         '"valuations": [{"family": "unit_demand", "values": [1.5]}]}',
         "must be an integer"),
        ('{"model": "unit", "n": 2, "m": 1, '
         '"valuations": [{"family": "unit_demand", "values": [1]}]}',
         "does not match supply"),
    ])
    def test_rejections_name_the_field(self, text, needle):
        with pytest.raises(InstanceFormatError, match=needle):
            parse_instance(text)

    def test_table_must_be_total(self):
        with pytest.raises(InstanceFormatError, match="every bundle"):
            parse_instance(
                '{"model": "multi", "n": 1, "m": 1, "u": [2], "valuations": '
                '[{"family": "explicit_table", "entries": '
                '[{"x": [0], "v": 0}, {"x": [2], "v": 1}]}]}')

    def test_table_admission_requires_normalization(self):
        with pytest.raises(InstanceFormatError, match="v\\(0\\)≠0"):
            parse_instance(
                '{"model": "multi", "n": 1, "m": 1, "u": [1], "valuations": '
                '[{"family": "explicit_table", "entries": '
                '[{"x": [0], "v": 1}, {"x": [1], "v": 2}]}]}')

    def test_round_trip_worked_example(self):
        inst = parse_instance(EX21_JSON)
        assert parse_instance(serialize_instance(inst)) == inst


class _Int(int):
    """An int subclass: it fails the walk's exact-type test, and the exact
    checks it is then handed to accept it."""


_GOOD_TABLE = (((0, 0), 0), ((0, 1), 1), ((1, 0), 1), ((1, 1), 2))


def _with(k, entry):
    return _GOOD_TABLE[:k] + (entry,) + _GOOD_TABLE[k + 1:]


def _sequence(value, where):
    """``value`` as a list, or the ValueError naming ``where`` when it is
    not iterable."""
    try:
        return list(value)
    except TypeError:
        raise ValueError(f"{where}: must be a sequence") from None


def _per_entry_table(table):
    """Explicit-table validation entry by entry, as the definition: the
    sorted pairs, or the ValueError naming the first bad entry."""
    pairs = []
    n = None
    for k, entry in enumerate(_sequence(table, "entries")):
        try:
            x, v = list(entry)
        except (TypeError, ValueError):
            raise ValueError(f"entries[{k}]: must be a (bundle, worth) pair") from None
        xs = tuple(_as_nonneg_int(c, f"entries[{k}].x[{j}]")
                   for j, c in enumerate(_sequence(x, f"entries[{k}].x")))
        if n is None:
            n = len(xs)
        elif len(xs) != n:
            raise ValueError(f"entries[{k}].x: expected {n} components")
        pairs.append((xs, _as_int(v, f"entries[{k}].v")))
    if not pairs or n == 0:
        raise ValueError("entries: must cover a nonempty box")
    pairs.sort()
    box = tuple(max(x[j] for x, _ in pairs) for j in range(n))
    if len(pairs) != box_volume(box):
        raise ValueError("entries: must map every bundle in the box exactly once")
    for k in range(len(pairs) - 1):
        if pairs[k][0] == pairs[k + 1][0]:
            raise ValueError(f"entries: duplicate bundle {pairs[k][0]}")
    return tuple(pairs)


def _table_outcome(build, table):
    try:
        return build(table)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestBulkTableCheck:
    """Explicit tables are checked in one walk, entry by entry, and the
    exact checks run only on an entry that fails the exact-type test;
    every table is accepted or refused, with the same message, as the
    entry-by-entry checks alone would."""

    CASES = {
        "good": _GOOD_TABLE,
        "unsorted": _GOOD_TABLE[::-1],
        "list bundles": tuple((list(x), v) for x, v in _GOOD_TABLE),
        "bool component": _with(1, ((0, True), 1)),
        "bool worth": _with(2, ((1, 0), False)),
        "negative component": _with(3, ((1, -1), 2)),
        "negative worth": _with(3, ((1, 1), -2)),
        "float component": _with(1, ((0, 1.0), 1)),
        "float worth": _with(2, ((1, 0), 1.5)),
        "string component": _with(1, ((0, "1"), 1)),
        "wrong length": _with(2, ((1, 0, 0), 1)),
        "short first bundle": _with(0, ((0,), 0)),
        "duplicate": _with(3, ((0, 1), 2)),
        "missing bundle": _GOOD_TABLE[:2] + _GOOD_TABLE[3:],
        "empty": (),
        "empty bundle": (((), 0),),
        "not a pair": _with(1, ((0, 1),)),
        "int subclass": _with(3, ((_Int(1), 1), _Int(2))),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_outcome_as_the_per_entry_checks(self, name):
        table = self.CASES[name]
        want = _table_outcome(_per_entry_table, table)
        got = _table_outcome(lambda t: Valuation(family="explicit_table", table=t).table, table)
        assert got == want

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_pass_accepts_what_the_entries_accept(self, name):
        """The walk refuses a table at an entry exactly when one of its
        entries fails the per-entry checks; int subclasses pass them, and
        a table of good entries is refused, if at all, by a check of the
        whole box."""
        table = self.CASES[name]
        try:
            for k, (x, v) in enumerate(table):
                for j, c in enumerate(x):
                    _as_nonneg_int(c, "x")
                _as_int(v, "v")
            entries_ok = len({len(x) for x, _ in table}) <= 1
        except (TypeError, ValueError):
            entries_ok = False
        got = _table_outcome(lambda t: Valuation(family="explicit_table", table=t).table, table)
        refused = isinstance(got[0], type)
        assert (refused and not got[1].startswith("entries: ")) == (not entries_ok)
        if not refused:
            assert got == tuple(sorted((tuple(x), v) for x, v in table))

    @pytest.mark.parametrize("entries,message", [
        ([{"x": [0], "v": 0}, [1, 1]], "entries[1]: must be an object with keys 'x' and 'v'"),
        ([{"x": [0], "v": 0}, {"x": [1]}], "entries[1]: must be an object with keys 'x' and 'v'"),
        ([{"x": [0], "w": 0}, {"x": [1], "v": 1}],
         "entries[0]: must be an object with keys 'x' and 'v'"),
        ([{"x": [0], "v": 0}, {"x": [1], "v": 1, "y": 2}],
         "entries[1]: must be an object with keys 'x' and 'v'"),
        ([{"x": [0], "v": 0}, {"x": 1, "v": 1}],
         "entries[1]: must be an object with keys 'x' and 'v'"),
        ([{"x": [0], "v": 0}, {"x": [True], "v": 1}], "entries[1].x[0]: must be an integer"),
        ([{"x": [0], "v": 0}, {"x": [-1], "v": 1}], "entries[1].x[0]: must be nonnegative"),
        ([{"x": [0], "v": 0}, {"x": [1.5], "v": 1}], "entries[1].x[0]: must be an integer"),
        ([{"x": [0], "v": 0}, {"x": [1, 0], "v": 1}], "entries[1].x: expected 1 components"),
        ([{"x": [0], "v": 0}, {"x": [0], "v": 1}, {"x": [2], "v": 1}],
         "entries: duplicate bundle (0,)"),
        ([{"x": [0], "v": 0}, {"x": [2], "v": 1}],
         "entries: must map every bundle in the box exactly once"),
    ])
    def test_parse_messages(self, entries, message):
        text = json.dumps({"model": "multi", "n": 1, "m": 1, "u": [1], "valuations": [
            {"family": "explicit_table", "entries": entries}]})
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(text)
        assert str(err.value) == f"valuations[0].{message}"


def _per_entry_payload(family, payload):
    """Unit-demand and separable validation entry by entry, as the
    definition: the checked payload, or the ValueError naming the first bad
    entry."""
    if family == "unit_demand":
        values = tuple(_as_nonneg_int(v, f"values[{k}]")
                       for k, v in enumerate(_sequence(payload, "values")))
        if not values:
            raise ValueError("values: must not be empty")
        return values
    rows = []
    for i, row in enumerate(_sequence(payload, "marginals")):
        r = tuple(_as_nonneg_int(v, f"marginals[{i}][{k}]")
                  for k, v in enumerate(_sequence(row, f"marginals[{i}]")))
        if not r:
            raise ValueError(f"marginals[{i}]: must list at least one unit")
        if any(r[k] < r[k + 1] for k in range(len(r) - 1)):
            raise ValueError(f"marginals[{i}]: must be nonincreasing")
        rows.append(r)
    if not rows:
        raise ValueError("marginals: must not be empty")
    return tuple(rows)


class TestBulkPayloadCheck:
    """Unit-demand values and separable marginals are checked in one walk,
    entry by entry, with the messages the entry checks give."""

    CASES = {
        ("unit_demand", "good"): ((3, 0, 2), None),
        ("unit_demand", "bool"): ((3, True), "values[1]: must be an integer"),
        ("unit_demand", "negative"): ((3, -1, True), "values[1]: must be nonnegative"),
        ("unit_demand", "float"): ((1.5,), "values[0]: must be an integer"),
        ("unit_demand", "string"): ((0, "2"), "values[1]: must be an integer"),
        ("unit_demand", "empty"): ((), "values: must not be empty"),
        ("unit_demand", "int subclass"): ((_Int(2), 0), None),
        ("separable_concave", "good"): (((3, 3, 0), (0,)), None),
        ("separable_concave", "bool"): (((3,), (1, False)), "marginals[1][1]: must be an integer"),
        ("separable_concave", "negative"): (((3, -1),), "marginals[0][1]: must be nonnegative"),
        ("separable_concave", "float"): (((2.0,), (1,)), "marginals[0][0]: must be an integer"),
        ("separable_concave", "empty row"): (((1,), ()), "marginals[1]: must list at least one unit"),
        ("separable_concave", "increasing row"): (((2, 1), (1, 2), (True,)),
                                                  "marginals[1]: must be nonincreasing"),
        ("separable_concave", "empty"): ((), "marginals: must not be empty"),
        ("separable_concave", "int subclass"): (((_Int(2), 1),), None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_outcome_as_the_per_entry_checks(self, case):
        family, _ = case
        payload, message = self.CASES[case]
        key = "values" if family == "unit_demand" else "marginals"
        got = _table_outcome(lambda t: getattr(Valuation(family, **{key: t}), key), payload)
        assert got == _table_outcome(lambda t: _per_entry_payload(family, t), payload)
        if message is not None:
            assert got == (ValueError, message)


def _per_entry_entries(entries, where):
    """JSON table entries entry by entry, as the definition: the shape of
    every entry in order, then the table of their (x, v) pairs, each
    message under ``where`` as ``parse_instance`` gives it."""
    try:
        pairs = []
        for k, e in enumerate(entries):
            if not isinstance(e, dict) or set(e) != {"x", "v"} or not isinstance(e["x"], list):
                raise ValueError(f"entries[{k}]: must be an object with keys 'x' and 'v'")
            pairs.append((e["x"], e["v"]))
        return _per_entry_table(pairs)
    except ValueError as exc:
        raise InstanceFormatError(f"{where}.{exc}") from None


def _per_entry_price(n, p):
    """A price vector entry by entry, as the definition: the tuple, or the
    ValueError naming the first bad component."""
    t = tuple(p)
    if len(t) != n:
        raise ValueError(f"price vector must have {n} components")
    for i, c in enumerate(t):
        if isinstance(c, bool) or not isinstance(c, int) or c < 0:
            raise ValueError(f"price p[{i}] must be a nonnegative integer")
    return t


class _Dict(dict):
    """A dict subclass: the exact checks accept it as a JSON object."""


class _List(list):
    """A list subclass: the exact checks accept it as a JSON array."""


#: What a mutation makes of a plain int entry; an entry already spoiled is kept.
_SPOIL = {
    "bool": lambda c: c % 2 == 1,
    "negative": lambda c: -1 - c,
    "float": float,
    "string": str,
    "int subclass": _Int,
}
_NAT = st.integers(0, 9)


def _spoil(draw, row, k):
    if type(row[k]) is int:
        row[k] = _SPOIL[draw(st.sampled_from(sorted(_SPOIL)))](row[k])


def _spoil_entry(draw, x, entry, worth):
    """Spoil a component of the bundle ``x``, or the worth ``entry[worth]``."""
    if x and draw(st.booleans()):
        _spoil(draw, x, draw(st.integers(0, len(x) - 1)))
    else:
        _spoil(draw, entry, worth)


def _mutations(draw):
    return range(draw(st.integers(1, 3)))


def _maybe_not_iterable(draw, payload):
    """The payload, or now and then an int in its place."""
    return 5 if draw(st.integers(0, 9)) == 0 else payload


@st.composite
def spoiled_values(draw):
    values = draw(st.lists(_NAT, max_size=4))
    for _ in _mutations(draw):
        if values:
            _spoil(draw, values, draw(st.integers(0, len(values) - 1)))
    return _maybe_not_iterable(draw, values)


@st.composite
def spoiled_marginals(draw):
    rows = draw(st.lists(st.lists(_NAT, min_size=1, max_size=3)
                         .map(lambda r: sorted(r, reverse=True)), max_size=3))
    for _ in _mutations(draw):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        r = rows[i]
        how = draw(st.sampled_from(("entry", "wrong length", "increasing", "not a row")))
        if not isinstance(r, list):
            continue
        if how == "not a row":
            rows[i] = len(r)
        elif how == "entry" and r:
            _spoil(draw, r, draw(st.integers(0, len(r) - 1)))
        elif how == "wrong length":
            r.clear()
        elif r and type(r[-1]) is int:
            r.append(r[-1] + 1)
    return _maybe_not_iterable(draw, rows)


def _good_table(draw):
    """A total table on a drawn box, its entries as [x, v] in a drawn order,
    and a way to draw one of its bundles afresh."""
    u = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    worth = st.integers(-2, 9)
    bundle = st.sampled_from(list(iter_box(u))).map(list)
    return draw(st.permutations([[list(x), draw(worth)] for x in iter_box(u)])), bundle


@st.composite
def spoiled_tables(draw):
    entries, bundle = _good_table(draw)
    for _ in _mutations(draw):
        k = draw(st.integers(0, len(entries) - 1))
        e = entries[k]
        how = draw(st.sampled_from(("entry", "wrong length", "not a pair", "non-list x",
                                    "duplicate", "missing", "not iterable")))
        if not isinstance(e, list):
            continue
        if how == "not iterable":
            entries[k] = 7
        elif how == "not a pair":
            entries[k] = e[:1] if draw(st.booleans()) else e + e[1:]
        elif how == "missing" and len(entries) > 1:
            del entries[k]
        elif not (len(e) == 2 and isinstance(e[0], list)):
            continue
        elif how == "entry":
            _spoil_entry(draw, e[0], e, 1)
        elif how == "wrong length":
            e[0] = e[0] + [0] if draw(st.booleans()) else e[0][:-1]
        elif how == "non-list x":
            e[0] = 3
        elif how == "duplicate":
            e[0] = draw(bundle)
    return _maybe_not_iterable(draw, tuple(tuple(e) if isinstance(e, list) else e
                                           for e in entries))


@st.composite
def spoiled_entries(draw):
    pairs, bundle = _good_table(draw)
    entries = [{"x": x, "v": v} for x, v in pairs]
    for _ in _mutations(draw):
        k = draw(st.integers(0, len(entries) - 1))
        e = entries[k]
        how = draw(st.sampled_from(("entry", "wrong length", "duplicate", "not a pair",
                                    "missing key", "extra key", "non-list x", "tuple x",
                                    "dict subclass", "list subclass x")))
        if not (isinstance(e, dict) and isinstance(e.get("x"), list)):
            continue
        if how == "entry" and "v" in e:
            _spoil_entry(draw, e["x"], e, "v")
        elif how == "wrong length":
            e["x"] = e["x"] + [0] if draw(st.booleans()) else e["x"][:-1]
        elif how == "duplicate":
            e["x"] = draw(bundle)
        elif how == "not a pair":
            entries[k] = [e["x"], e.get("v")]
        elif how == "missing key":
            del e[draw(st.sampled_from(sorted(e)))]
        elif how == "extra key":
            e["y"] = 0
        elif how == "non-list x":
            e["x"] = 3
        elif how == "tuple x":
            e["x"] = tuple(e["x"])
        elif how == "dict subclass":
            entries[k] = _Dict(e)
        elif how == "list subclass x":
            e["x"] = _List(e["x"])
    return entries


@st.composite
def spoiled_prices(draw):
    p = draw(st.lists(_NAT, min_size=1, max_size=4))
    n = len(p)
    for _ in _mutations(draw):
        if draw(st.booleans()):
            _spoil(draw, p, draw(st.integers(0, len(p) - 1)))
        elif draw(st.booleans()):
            p.append(0)
        elif len(p) > 1:
            p.pop()
    return n, p


class TestValidationTwin:
    """Good inputs with one to three entries spoiled (a bool, a negative, a
    float, a string or an int subclass entry; a wrong length; a payload,
    marginal row or bundle that is not iterable; a table entry that is not
    a pair, a JSON entry with a missing or extra key or an ``x`` that is
    not a list) get from the one-walk validation the value, or the
    exception type and message, of the entry-by-entry definition."""

    def test_shape_refusals_name_their_entry(self):
        """A payload, row, bundle or table entry of the wrong shape is
        refused with a ValueError naming it, as every other entry is."""
        cases = [
            (lambda: Valuation.separable([[1], 5]), "marginals[1]: must be a sequence"),
            (lambda: Valuation(EXPLICIT_TABLE, table=[((0,), 0), ((1,),)]),
             "entries[1]: must be a (bundle, worth) pair"),
            (lambda: Valuation(EXPLICIT_TABLE, table=[((0,), 0), 7]),
             "entries[1]: must be a (bundle, worth) pair"),
            (lambda: Valuation(EXPLICIT_TABLE, table=[(5, 0)]), "entries[0].x: must be a sequence"),
            (lambda: Valuation.from_table({5: 0}), "entries[0].x: must be a sequence"),
            (lambda: Valuation.unit_demand(5), "values: must be a sequence"),
            (lambda: Valuation.separable(5), "marginals: must be a sequence"),
            (lambda: Valuation(EXPLICIT_TABLE, table=5), "entries: must be a sequence"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message

    @given(spoiled_values())
    @example(5)
    def test_unit_values(self, values):
        got = _table_outcome(lambda t: Valuation(UNIT_DEMAND, values=t).values, values)
        assert got == _table_outcome(lambda t: _per_entry_payload(UNIT_DEMAND, t), values)

    @given(spoiled_marginals())
    @example([[1], 5])
    def test_separable_marginals(self, rows):
        got = _table_outcome(lambda t: Valuation(SEPARABLE_CONCAVE, marginals=t).marginals, rows)
        assert got == _table_outcome(lambda t: _per_entry_payload(SEPARABLE_CONCAVE, t), rows)

    @given(spoiled_tables())
    @example((((0, True), 1), ((0, 1),)))  # entry 0 is named before entry 1 is unpacked
    @example((((0, 1), 1), ((0, 0), 0), ((1, 0), 1.5), ((1, 1, 0), 2)))
    @example((((0,), 0), ((1,),)))
    @example((((0,), 0), 7))
    @example(((5, 0),))
    def test_tables(self, table):
        got = _table_outcome(lambda t: Valuation(EXPLICIT_TABLE, table=t).table, table)
        assert got == _table_outcome(_per_entry_table, table)

    @given(spoiled_entries())
    @example([{"x": [True], "v": 0}, {"x": [1]}])  # shapes are all checked before any bundle
    @example([{"x": [0], "v": 0}, _Dict({"x": _List([1]), "v": 1})])
    def test_json_entries(self, entries):
        raw = {"family": EXPLICIT_TABLE, "entries": entries}
        got = _table_outcome(lambda e: _parse_valuation(raw, "b").table, entries)
        assert got == _table_outcome(lambda e: _per_entry_entries(e, "b"), entries)

    @given(spoiled_prices())
    @example((2, [0, _Int(1)]))
    def test_prices(self, drawn):
        n, p = drawn
        market = Instance(model="multi", n=n, u=(1,) * n, valuations=())
        got = _table_outcome(lambda q: _check_price(market, q), p)
        assert got == _table_outcome(lambda q: _per_entry_price(n, q), p)


class TestEvaluate:
    def test_zero_bundle_is_worth_nothing(self, ex21):
        for v in ex21.valuations:
            assert evaluate(v, (0, 0, 0)) == 0
        assert evaluate(Valuation.separable([[3, 2]]), (0,)) == 0

    def test_separable_prefix_sum(self):
        assert evaluate(Valuation.separable([[3, 2]]), (2,)) == 5

    def test_single_item_bundle(self, ex21):
        g = ex21.valuations[5]
        assert evaluate(g, (0, 1, 0)) == 1

    def test_out_of_box(self):
        v = Valuation.separable([[3, 2]])
        with pytest.raises(ValueError, match="out of box"):
            evaluate(v, (3,))
        with pytest.raises(ValueError, match="out of box"):
            evaluate(v, (1, 0))

    def test_best_item_extension(self, ex21):
        g = ex21.valuations[5]  # worth 1 for items 1 and 2
        assert evaluate(g, (1, 1, 0)) == 1
        assert evaluate(g, (1, 1, 1)) == 1

    @given(st.integers(0, 2**32 - 1))
    def test_table_returns_every_entry(self, seed):
        """A table listed in any order reads back each entry at its bundle,
        on boxes of uneven sides, and refuses bundles outside the box."""
        rng = random.Random(seed)
        box = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        bundles = list(iter_box(box))
        rng.shuffle(bundles)
        entries = {x: rng.randint(-9, 9) for x in bundles}
        v = Valuation.from_table(entries)
        for x, worth in entries.items():
            assert evaluate(v, x) == worth
            assert evaluate(v, list(x)) == worth
        with pytest.raises(ValueError, match="out of box: component 1 is"):
            evaluate(v, (box[0] + 1,) + box[1:])
        with pytest.raises(ValueError, match="out of box: expected"):
            evaluate(v, box + (0,))


class TestExchangeVerifier:
    def test_separable_holds(self):
        assert verify_mnat_exc(Valuation.separable([[3, 2]])) is None

    def test_complements_witness(self):
        bad = verify_mnat_exc(Valuation.from_table(COMPLEMENTS_TABLE))
        assert bad == MnatCounterexample(x=(0, 0), y=(1, 1))

    def test_unit_demand_always_holds(self, ex21):
        for v in ex21.valuations:
            assert verify_mnat_exc(v) is None

    def test_budget_exceeded(self):
        v = Valuation.separable([[1] * 30] * 4)
        with pytest.raises(BudgetExceededError):
            verify_mnat_exc(v, budget=10_000)


TABLE_KINDS = ("separable", "unit", "two-row", "two-row-bumped", "random")


def _two_row_worth(rows, x):
    """Worth of bundle x to two unit-demand rows that each take at most one
    unit of x (an assignment, or OXS, valuation)."""
    best = 0
    for a, b in product(range(-1, len(x)), repeat=2):
        take = [0] * len(x)
        for item in (a, b):
            if item >= 0:
                take[item] += 1
        if all(t <= c for t, c in zip(take, x)):
            best = max(best, (rows[0][a] if a >= 0 else 0) + (rows[1][b] if b >= 0 else 0))
    return best


def kind_table(kind, rng, u):
    """A table over the box [0, u] of one of ``TABLE_KINDS``; unit-demand
    tables take the box with one unit of each item."""
    n = len(u)
    if kind == "separable":
        return tabulate(random_separable_valuation(rng, u))
    if kind == "unit":
        return tabulate(Valuation.unit_demand([rng.randint(0, 8) for _ in range(n)]))
    if kind == "random":
        return Valuation.from_table({x: rng.randint(0, 12) for x in iter_box(u)})
    rows = [[rng.randint(0, 8) for _ in range(n)] for _ in range(2)]
    worth = {x: _two_row_worth(rows, x) for x in iter_box(u)}
    if kind == "two-row-bumped":
        for x in rng.sample(sorted(worth), min(len(worth), rng.randint(1, 3))):
            worth[x] += rng.randint(1, 3)
    return Valuation.from_table(worth)


class TestLocalExchange:
    """``verify_mnat_exc`` decides the exchange axiom by its local check
    alone: it passes exactly when the definitional twin does, and its
    witness is the first pair that breaks the local condition as printed."""

    @staticmethod
    def _check(v):
        """Assert pass/fail agreement with the twin and the witness's form;
        return the verifier's outcome."""
        got = verify_mnat_exc(v)
        assert (got is None) == (exchange_twin(v) is None), v.table
        if got is not None:
            assert breaks_local_exchange(v, got.x, got.y), (v.table, got)
            assert (got.x, got.y) == next(local_exchange_failures(v)), (v.table, got)
        return got

    @given(st.sampled_from(TABLE_KINDS), st.lists(st.integers(1, 2), min_size=1, max_size=4),
           st.integers(0, 2**32 - 1))
    def test_same_outcome_as_the_twin(self, kind, u, seed):
        self._check(kind_table(kind, random.Random(seed), tuple(u)))

    def test_sweep_meets_every_outcome(self):
        rng = random.Random(2003)
        seen = set()
        for t in range(600):
            kind = TABLE_KINDS[t % len(TABLE_KINDS)]
            u = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 4)))
            seen.add((kind, self._check(kind_table(kind, rng, u)) is None))
        assert seen == ({(kind, True) for kind in TABLE_KINDS}
                        | {("two-row-bumped", False), ("random", False)})

    def test_fault_seen_only_at_pairs_through_index_0(self):
        """A table on [0, 2]^2 whose failing local pairs all change the
        bundle size, so index 0 is in each one's lifted difference; the swap
        (0, 2), (2, 0) holds.  The witness is the first of them, as it is on
        one item, where every pair goes through index 0."""
        worths = [0, 3, 6, 0, 5, 9, 3, 7, 12]
        v = Valuation.from_table(dict(zip(iter_box((2, 2)), worths)))
        failures = list(local_exchange_failures(v))
        assert failures and all(sum(x) != sum(y) for x, y in failures)
        assert not breaks_local_exchange(v, (0, 2), (2, 0))
        assert self._check(v) == MnatCounterexample(x=(0, 0), y=(1, 1))
        one = Valuation.from_table({(0,): 0, (1,): 1, (2,): 3})
        assert self._check(one) == MnatCounterexample(x=(0,), y=(2,))
        assert exchange_twin(one) == ((2,), (0,), 1)

    def test_fault_planted_at_a_two_item_swap(self):
        """Lowering v(1, 1) of a separable table on [0, 2]^2 breaks the
        swap (0, 2), (2, 0), where no exchange moves index 0.  The
        conditions at (0, 2), (1, 0) and at (0, 1), (2, 0), through index 0,
        sum to the swap's, so a fault seen only at the swap cannot be
        planted: one of them fails too.  The check reports the first failing
        pair, which also changes the bundle size."""
        f = (0, 4, 7)
        worth = {x: f[x[0]] + f[x[1]] for x in iter_box((2, 2))}
        worth[(1, 1)] -= 2
        v = Valuation.from_table(worth)
        assert breaks_local_exchange(v, (0, 2), (2, 0))
        assert (breaks_local_exchange(v, (0, 2), (1, 0))
                or breaks_local_exchange(v, (0, 1), (2, 0)))
        assert self._check(v) == MnatCounterexample(x=(0, 1), y=(1, 2))

    def test_charge_is_the_plans_reads(self):
        """The charge, counted before any plan is built, equals the worths
        a passing check reads on every box with n <= 3 and sides up to 3
        and on verify's [0, 2]^4 and [0, 1]^5; the kernel's pairs are the
        pairs x < y whose lifts lie at distance 4, counted one by one."""
        boxes = [u for n in (1, 2, 3) for u in product(range(4), repeat=n)]
        for u in boxes + [(2, 2, 2, 2), (1,) * 5]:
            charge = exchange_reads(u)
            pairs, reads, plan = box_pairs(u, _exchanges, DEFAULT_BUDGET)
            worth = CountingList([0] * box_volume(u))
            assert list(pair_failures(worth, plan, _exchange_fails)) == []
            assert worth.counter[0] == reads == charge, u
            assert pairs == brute_exchange_pairs(u), u
        assert exchange_reads((2, 2, 2, 2)) == 4968
        assert exchange_reads((1,) * 5) == 1220

    def test_charge_refuses_before_any_read(self):
        v = tabulate(random_separable_valuation(random.Random(4), (2, 2, 2, 2)))
        reads = exchange_reads((2, 2, 2, 2))
        assert verify_mnat_exc(v, budget=reads) is None
        with pytest.raises(BudgetExceededError) as refusal:
            verify_mnat_exc(v, budget=reads - 1)
        assert str(refusal.value) == f"exchange check needs {reads} reads, budget is {reads - 1}"
        with pytest.raises(BudgetExceededError, match="box volume 81 exceeds budget 80"):
            verify_mnat_exc(v, budget=80)


class TestExchangeMemory:
    def test_a_13_item_table_is_refused_before_the_plan(self):
        """A 13-item, u = 1 table is refused by the charge before
        ``itemsets._columns`` lists any index; the traced peak stays under
        48 MB, and the subprocess has a timeout."""
        script = (
            "import tracemalloc\n"
            "import walras.instance as instance\n"
            "import walras.itemsets as itemsets\n"
            "from walras import BudgetExceededError, Valuation, verify_mnat_exc\n"
            "def unplanned(*args):\n"
            "    raise AssertionError('the plan was built')\n"
            "itemsets._columns = unplanned\n"
            "u = (1,) * 13\n"
            "v = Valuation.from_table(\n"
            "    {x: sum((j + 1) * c for j, c in enumerate(x)) for x in instance.iter_box(u)})\n"
            "tracemalloc.start()\n"
            "try:\n"
            "    verify_mnat_exc(v)\n"
            "except BudgetExceededError as exc:\n"
            "    print(exc)\n"
            "print(tracemalloc.get_traced_memory()[1])\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        message, peak = proc.stdout.splitlines()
        reads = exchange_reads((1,) * 13)
        assert reads > DEFAULT_BUDGET
        assert message == f"exchange check needs {reads} reads, budget is {DEFAULT_BUDGET}"
        assert int(peak) < 48 * 2**20, int(peak)


class TestMonotoneVerifier:
    def test_zero_valuation_holds(self):
        assert verify_monotone_normalized(Valuation.separable([[0, 0]])) is None

    def test_origin_normalization(self):
        bad = verify_monotone_normalized(Valuation.from_table({(0,): 1, (1,): 2}))
        assert bad is not None and bad.message == "v(0)≠0"

    def test_monotonicity_witness(self):
        table = {(0, 0): 0, (0, 1): 0, (1, 0): 2, (1, 1): 1}
        bad = verify_monotone_normalized(Valuation.from_table(table))
        assert bad is not None and (bad.x, bad.i) == ((1, 0), 2)

    def test_first_item_among_decreases_from_one_bundle(self):
        table = {(0, 0): 0, (0, 1): -1, (1, 0): -1, (1, 1): 0}
        bad = verify_monotone_normalized(Valuation.from_table(table))
        assert (bad.x, bad.i) == ((0, 0), 1)


class TestMonotoneTwin:
    def test_flat_scan_matches_the_twin(self):
        """Same witness, None or budget message as the bundle-by-bundle
        twin, on tables with planted decreases or v(0) != 0, at exactly the
        charged budget volume * (n + 1) and one less."""
        rng = random.Random(61)
        seen = set()
        for _ in range(300):
            u = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            base = random_separable_valuation(rng, u)
            worth = {x: evaluate(base, x) for x in iter_box(u)}
            kind = rng.random()
            if kind < 0.2:
                worth[(0,) * len(u)] = rng.choice((-2, 1, 3))
            elif kind < 0.7:
                rest = sorted(worth)[1:]
                for x in rng.sample(rest, min(len(rest), rng.randint(1, 2))):
                    worth[x] -= rng.randint(1, 5)
            v = Valuation.from_table(worth)
            need = box_volume(u) * (len(u) + 1)
            for budget in (need, need - 1):
                want = _outcome(monotone_twin, v, budget)
                assert _outcome(verify_monotone_normalized, v, budget) == want, (worth, budget)
                seen.add("origin" if getattr(want, "x", 0) is None else type(want))
        assert seen == {tuple, MonotonicityCounterexample, "origin", type(None)}


class TestLateWitnesses:
    """Witnesses whose failures sit at the end of box order, where a scan
    that stopped at the first failing block would meet them last."""

    def test_monotone_decrease_at_the_last_bundles(self):
        worth = {x: sum(x) for x in iter_box((2, 2, 2))}
        worth[(2, 2, 2)] = worth[(2, 2, 1)] - 1
        v = Valuation.from_table(worth)
        got = verify_monotone_normalized(v)
        assert got == monotone_twin(v)
        assert (got.x, got.i) == ((1, 2, 2), 1)

    def test_exchange_failures_at_the_last_bundle(self):
        """u = (1,)^5, v = 2|x| with v(1, 1, 1, 1, 0) lowered by 2: every
        failing pair ends at the last bundle."""
        worth = {x: 2 * sum(x) for x in iter_box((1,) * 5)}
        worth[(1, 1, 1, 1, 0)] -= 2
        v = Valuation.from_table(worth)
        failures = list(local_exchange_failures(v))
        assert len(failures) == 4 and all(y == (1,) * 5 for _, y in failures)
        got = verify_mnat_exc(v)
        assert (got.x, got.y) == failures[0] == ((0, 1, 1, 1, 0), (1, 1, 1, 1, 1))


class TestRandomized:
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_random_instances(self, seed):
        import random
        rng = random.Random(seed)
        if rng.random() < 0.5:
            inst = random_unit_instance(rng, n_max=4, m_max=4)
        else:
            inst = random_multi_instance(rng, n_max=2, u_max=3, m_max=3)
            if rng.random() < 0.5 and inst.m:
                vals = tuple(tabulate(v) for v in inst.valuations)
                inst = Instance(model="multi", n=inst.n, u=inst.u, valuations=vals)
        assert parse_instance(serialize_instance(inst)) == inst

    @given(st.integers(0, 2**32 - 1))
    def test_separable_satisfies_exchange(self, seed):
        import random
        rng = random.Random(seed)
        u = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        v = random_separable_valuation(rng, u)
        assert verify_mnat_exc(v) is None

    @given(st.integers(0, 2**32 - 1))
    def test_evaluate_monotone_when_accepted(self, seed):
        import random
        rng = random.Random(seed)
        u = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
        v = random_separable_valuation(rng, u)
        assert verify_monotone_normalized(v) is None
        for x in iter_box(u):
            for j in range(len(u)):
                if x[j] < u[j]:
                    step = list(x)
                    step[j] += 1
                    assert evaluate(v, tuple(step)) >= evaluate(v, x)


class TestFamilyValuationsAreSubstitutes:
    """Unit-demand and separable-concave valuations are M♮-concave by
    theorem (Murota 2003, ch. 6), which is why ``walras verify`` checks only
    explicit tables; the definitional twin agrees on small boxes."""

    @given(st.data())
    def test_twin_passes(self, data):
        n = data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):
            v = Valuation.unit_demand(data.draw(st.lists(st.integers(0, 9), min_size=n,
                                                         max_size=n)))
        else:
            rows = data.draw(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=3),
                                      min_size=n, max_size=n))
            v = Valuation.separable([sorted(row, reverse=True) for row in rows])
        assert exchange_twin(v) is None
        assert verify_mnat_exc(tabulate(v)) is None
