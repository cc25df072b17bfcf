"""The contract of the package's record types: each builds from keyword or
positional fields, compares and hashes by its fields (``FunctionOracle`` by
identity), which are slots, survives a pickle round trip (all but
``FunctionOracle``, whose default grid is a closure), refuses assignment,
and keeps its validation messages."""

import pickle

import pytest

from walras import (AuctionResult, DescentWitness, EquilibriumVerdict,
                    FunctionOracle, Instance, LnatCounterexample,
                    MnatCounterexample, MonotonicityCounterexample,
                    MultiAllocation, Step, Trajectory, UnitAllocation,
                    Valuation)
from walras.errors import ContractError, InstanceFormatError
from walras.instance import _Record

UNIT_V = Valuation("unit_demand", (3, 1))
SEP_V = Valuation("separable_concave", None, ((2, 1), (4,)))
TABLE_V = Valuation("explicit_table", None, None, (((0,), 0), ((1,), 5)))
INSTANCE = Instance("unit", 2, (1, 1), (UNIT_V, Valuation("unit_demand", (0, 2))))
STEP = Step((0, 0), 1, 5, 3)
RUN = (((1, -2),), 1)
TRAJECTORY = Trajectory((0, 0), 5, (RUN, (((3, -1),), 1)), (2, 1))


def _fn(p):
    return sum(p)


# (class, field names, fields, fields of an unequal record)
RECORDS = [
    (Valuation, ("family", "values", "marginals", "table"),
     ("unit_demand", (3, 1), None, None), ("unit_demand", (3, 2), None, None)),
    (Valuation, ("family", "values", "marginals", "table"),
     ("separable_concave", None, ((2, 1), (4,)), None),
     ("separable_concave", None, ((2, 2), (4,)), None)),
    (Valuation, ("family", "values", "marginals", "table"),
     ("explicit_table", None, None, (((0,), 0), ((1,), 5))),
     ("explicit_table", None, None, (((0,), 0), ((1,), 6)))),
    (Instance, ("model", "n", "u", "valuations"),
     ("multi", 1, (2,), (Valuation("separable_concave", None, ((2, 1),)),)),
     ("multi", 1, (2,), (Valuation("separable_concave", None, ((2, 0),)),))),
    (MnatCounterexample, ("x", "y"), ((0, 1), (1, 2)), ((0, 1), (2, 1))),
    (MonotonicityCounterexample, ("x", "i", "message"),
     ((1, 0), 2, "v decreases"), ((1, 0), 1, "v decreases")),
    (LnatCounterexample, ("p", "q"), ((0, 0), (1, 2)), ((0, 0), (2, 1))),
    (Step, ("p_before", "chosen_mask", "g_before", "g_after"),
     ((0, 0), 1, 5, 3), ((0, 0), 2, 5, 3)),
    (Trajectory, ("start", "g_start", "runs", "p_final"),
     ((0, 0), 5, (RUN,), (1, 0)), ((0, 0), 4, (RUN,), (1, 0))),
    (UnitAllocation, ("assignment",), ((1, 0, 2),), ((2, 0, 1),)),
    (MultiAllocation, ("bundles",), (((1,), (1,)),), (((2,), (0,)),)),
    (DescentWitness, ("direction", "items"), (1, frozenset({0})), (-1, frozenset({0}))),
    (EquilibriumVerdict, ("equilibrium", "allocation", "witness"),
     (True, UnitAllocation((1, 2)), None),
     (False, None, DescentWitness(1, frozenset({1})))),
    (AuctionResult, ("trajectory", "_instance", "_budget"),
     (TRAJECTORY, INSTANCE, 1000), (TRAJECTORY, INSTANCE, 999)),
    (FunctionOracle, ("n", "fn", "box", "value_floor"),
     (2, _fn, ((0, 0), (3, 3)), 0), (2, _fn, None, None)),
]


@pytest.mark.parametrize("cls, names, fields, other", RECORDS,
                         ids=[f"{c[0].__name__}-{k}" for k, c in enumerate(RECORDS)])
def test_record_contract(cls, names, fields, other):
    by_keyword = cls(**dict(zip(names, fields)))
    by_position = cls(*fields)
    for rec in (by_keyword, by_position):
        assert tuple(getattr(rec, name) for name in names) == fields
    if cls is FunctionOracle:  # identity equality
        assert by_keyword == by_keyword and by_keyword != by_position
        assert hash(by_keyword) == hash(by_keyword)
    else:
        assert by_keyword == by_position and not by_keyword != by_position
        assert hash(by_keyword) == hash(by_position)
        assert by_keyword != cls(*other) and not by_keyword == cls(*other)
        assert pickle.loads(pickle.dumps(by_keyword)) == by_keyword
    for name in names:
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, fields[0])
    assert tuple(getattr(by_keyword, name) for name in names) == fields


def test_every_record_field_is_a_slot():
    """``==``, ``hash``, pickle and ``repr`` read the slots ``_fields``
    names, never a property derived from them."""
    records = _Record.__subclasses__()
    assert {cls for cls, *_ in RECORDS if issubclass(cls, _Record)} <= set(records)
    for cls in records:
        assert set(cls._fields) <= set(cls.__slots__), cls


def test_trajectory_length_is_its_step_count():
    assert len(TRAJECTORY) == 2 and TRAJECTORY
    assert TRAJECTORY.steps == (STEP, Step((1, 0), 3, 3, 2))
    assert len(Trajectory((0,), 0, (), (0,))) == 0 and not Trajectory((0,), 0, (), (0,))
    cycle = Trajectory((0, 0), 9, [(((1, -2), (2, -1)), 3)], (3, 3))
    assert len(cycle) == 6 and len(cycle.steps) == 6
    assert cycle.steps[-1] == Step((3, 2), 2, 1, 0)


def test_a_result_reads_p_min_from_its_trajectory():
    result = AuctionResult(TRAJECTORY, INSTANCE, 1000)
    assert result.p_min == TRAJECTORY.p_final == (2, 1)
    assert repr(result) == f"AuctionResult(trajectory={TRAJECTORY!r})"


def test_function_oracle_grid_defaults_to_pointwise_reads():
    g = FunctionOracle(2, _fn)
    assert g((1, 2)) == 3 and g.box is None and g.value_floor is None
    assert g.grid([[0, 1], [5]]) == [5, 6]
    grid = [7].__mul__
    assert FunctionOracle(2, _fn, grid=grid).grid is grid


def test_derived_valuation_state():
    assert UNIT_V.box() == (1, 1) and UNIT_V.n == 2
    assert SEP_V.box() == (2, 1) and SEP_V._prefix == ((0, 2, 3), (0, 4))
    assert TABLE_V.box() == (1,)
    assert Valuation("unit_demand", [3, 1]).values == (3, 1)
    assert Valuation.from_table({(1,): 5, (0,): 0}) == TABLE_V
    assert INSTANCE.m == 2
    assert Instance("unit", 2, [1, 1], [UNIT_V]).u == (1, 1)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Valuation("unit_demand"), ValueError,
     "values: unit_demand valuation takes exactly the 'values' payload"),
    (lambda: Valuation("unit_demand", ()), ValueError, "values: must not be empty"),
    (lambda: Valuation("unit_demand", (1, -1)), ValueError, "values[1]: must be nonnegative"),
    (lambda: Valuation("unit_demand", (1, True)), ValueError, "values[1]: must be an integer"),
    (lambda: Valuation("separable_concave", (1,)), ValueError,
     "marginals: separable_concave valuation takes exactly the 'marginals' payload"),
    (lambda: Valuation("separable_concave", marginals=((1, 2),)), ValueError,
     "marginals[0]: must be nonincreasing"),
    (lambda: Valuation("separable_concave", marginals=((),)), ValueError,
     "marginals[0]: must list at least one unit"),
    (lambda: Valuation("separable_concave", marginals=()), ValueError,
     "marginals: must not be empty"),
    (lambda: Valuation("explicit_table", table=()), ValueError,
     "entries: must cover a nonempty box"),
    (lambda: Valuation("explicit_table", table=(((0,), 0), ((0, 1), 1))), ValueError,
     "entries[1].x: expected 1 components"),
    (lambda: Valuation("explicit_table", table=(((0,), 0), ((0,), 1))), ValueError,
     "entries: must map every bundle in the box exactly once"),
    (lambda: Valuation("bogus"), ValueError, "family: unknown family tag 'bogus'"),
    (lambda: Instance("both", 1, (1,), ()), InstanceFormatError,
     "model: must be one of ('unit', 'multi'), got 'both'"),
    (lambda: Instance("unit", 0, (), ()), InstanceFormatError,
     "n: must be a positive integer"),
    (lambda: Instance("unit", "3", (1, 1, 1), ()), InstanceFormatError,
     "n: must be a positive integer"),
    (lambda: Instance("unit", 2, (1,), ()), InstanceFormatError, "u: expected 2 entries, got 1"),
    (lambda: Instance("multi", 1, (0,), ()), InstanceFormatError,
     "u[0]: supply must be positive"),
    (lambda: Instance("unit", 1, (2,), ()), InstanceFormatError,
     "u: must be all ones for model 'unit'"),
    (lambda: Instance("unit", 2, (1, 1), (None,)), InstanceFormatError,
     "valuations[0]: not a Valuation"),
    (lambda: Instance("unit", 1, (1,), (SEP_V,)), InstanceFormatError,
     "valuations[0].family: model 'unit' requires family 'unit_demand'"),
    (lambda: Instance("unit", 1, (1,), (UNIT_V,)), InstanceFormatError,
     "valuations[0]: domain box (1, 1) does not match supply (1,)"),
    (lambda: Instance("multi", 1, (1,),
                      (Valuation("explicit_table", table=(((0,), 0), ((1,), -1))),)),
     InstanceFormatError, "valuations[0]: v decreases from (0,) when adding item 1"),
    (lambda: UnitAllocation((1, 0, 1)), ValueError, "allocation assigns an item to two bidders"),
    (lambda: Step((0,), 0, 5, 3), ContractError, "descent step chose the empty set"),
    (lambda: Step((0,), 1, 5, 5), ContractError,
     "descent step failed to decrease the objective"),
    (lambda: Step((0,), 1, 5, None), ContractError,
     "descent step failed to decrease the objective"),
    (lambda: FunctionOracle(n=2), TypeError, "'fn'"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    if error is TypeError:
        assert message in str(info.value)
    else:
        assert str(info.value) == message
