"""The value-type contract: every frozen dataclass of the library is
slotted, refuses writes with the documented errors, copies and pickles to
an equal value, and checks its fields again under ``dataclasses.replace``."""

import copy
import dataclasses
import pickle
from dataclasses import FrozenInstanceError

import pytest

from helpers import table, unary
from scsp import (INF, SOURCE, FlowEdge, Instance, IntervalFunction,
                  IntervalTerm, ParameterError, ScopeError, SoftConstraint,
                  abs_diff, as_evaluation, build_network,
                  compile_to_intervals, decompose_binary, min_cut, solve,
                  xor_gadget, xor_penalty)
from scsp import (cutgraph, evaluation, functions, model, solver,
                  submodular)

INSTANCE = Instance(("a", "b"), 3, (
    SoftConstraint(("a",), unary([2, 0, None])),
    SoftConstraint(("a", "b"), IntervalFunction(2, 3, "5/2")),
    SoftConstraint(("b", "a"), IntervalFunction(1, 2, INF)),
))
NETWORK = build_network(compile_to_intervals(INSTANCE))

VALUES = [
    as_evaluation("3/4"),
    unary([0, "1/2", None]),
    table([[1, None], [0, "3/4"]]),
    IntervalFunction(1, 2, 3),
    INSTANCE.constraints[1],
    INSTANCE,
    IntervalTerm(IntervalFunction(2, 3, 1), "yx"),
    decompose_binary(abs_diff(3)),
    FlowEdge(SOURCE, ("a", 3), INF, None),
    NETWORK,
    min_cut(NETWORK),
    solve(INSTANCE),
    xor_gadget(xor_penalty()),
]
IDS = [type(value).__name__ for value in VALUES]


def test_every_value_type_is_covered():
    library = {cls for module in (cutgraph, evaluation, functions, model,
                                  solver, submodular)
               for cls in vars(module).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)
               and cls.__module__ == module.__name__}
    assert {type(value) for value in VALUES} == library
    assert len(library) == 13


def hash_or_error(value):
    # a Solution holds its assignment in a dict, so it has no hash
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_has_no_instance_dict(value):
    assert not hasattr(value, "__dict__")
    assert type(value).__slots__


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_writes_refused_with_attribute_errors(value):
    # slots=True replaces the class that the frozen dataclass's guards
    # name; a name that is not a field must still fail as an attribute
    with pytest.raises(AttributeError) as info:
        value.other = 1
    assert not isinstance(info.value, FrozenInstanceError)
    with pytest.raises(AttributeError) as info:
        del value.other
    assert not isinstance(info.value, FrozenInstanceError)
    for field in dataclasses.fields(value):
        with pytest.raises(FrozenInstanceError):
            setattr(value, field.name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, field.name)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal(value):
    expected = hash_or_error(value)
    for other in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(other) is type(value)
        assert other == value and hash_or_error(other) == expected


@pytest.mark.parametrize("value, changes, error", [
    (IntervalFunction(1, 2, 3), {"x_min": 0}, ParameterError),
    (IntervalFunction(1, 2, 3), {"y_max": "2"}, ParameterError),
    (INSTANCE.constraints[1], {"scope": ("a",)}, ScopeError),
    (INSTANCE.constraints[1], {"function": None}, ParameterError),
    (NETWORK, {"m": 0}, ParameterError),
    (NETWORK, {"variables": ("a", "a")}, ParameterError),
], ids=["interval-x_min", "interval-y_max", "constraint-scope",
        "constraint-function", "network-m", "network-variables"])
def test_replace_runs_the_checks(value, changes, error):
    with pytest.raises(error):
        dataclasses.replace(value, **changes)


def test_replace_normalizes_like_the_constructor():
    f = dataclasses.replace(IntervalFunction(1, 2, 3), penalty=5)
    assert f.penalty == as_evaluation(5)
    c = dataclasses.replace(INSTANCE.constraints[1], scope=["b", "a"])
    assert c.scope == ("b", "a")
    net = dataclasses.replace(NETWORK, tails=list(NETWORK.tails))
    assert net == NETWORK and isinstance(net.tails, tuple)
