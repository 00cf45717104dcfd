"""Malformed arguments to the public constructors and functions: every
call gives a result or a typed ScspError, never a bare TypeError,
ValueError, ZeroDivisionError or AttributeError.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsp import (INF, ZERO, BinaryTable, CutResult, Decomposition,
                  Evaluation, FlowNetwork, Instance, IntervalFunction,
                  IntervalTerm, ParameterError, ScspError,
                  SoftConstraint, UnaryTable, abs_diff, as_evaluation,
                  brute_force, build_network, compile_to_intervals,
                  cut_from_assignment, decompose_binary, decompose_unary,
                  evaluate, expand_constraint, extract_assignment,
                  find_violation, find_violation_full, format_instance,
                  format_network, is_submodular, min_cut, parse_instance,
                  reconstruct, solve, term_table, xor_gadget)

_INSTANCE = Instance(("a", "b"), 2, (
    SoftConstraint(("a",), UnaryTable([0, 2])),
    SoftConstraint(("a", "b"), abs_diff(2)),
    SoftConstraint(("b", "a"), IntervalFunction(2, 1, INF)),
))
_NETWORK = build_network(compile_to_intervals(_INSTANCE))
_CUT = min_cut(_NETWORK)

# well-formed values, so that a call can get past its first check
_SHAPED = (ZERO, INF, UnaryTable([1, 0]), abs_diff(2),
           IntervalFunction(1, 2, 3), *_INSTANCE.constraints, _INSTANCE,
           _NETWORK, {"a": 1, "b": 2})

# tokens of the file format and tokens near its edges
_TOKENS = ("a", "b", "inf", "0", "3/4", "01", "1/0", "1.5", "1e3", " 3 ",
           "١", "²", "-1", "1" * 5000)

_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.floats(),
    st.fractions(-2, 5, max_denominator=4), st.text(max_size=3),
    st.sampled_from(_TOKENS), st.sampled_from(_SHAPED))

values = st.recursive(_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.sampled_from(("a", "b")), inner, max_size=2)),
    max_leaves=8)

CALLS = [(Evaluation, 1), (UnaryTable, 1), (BinaryTable, 1),
         (IntervalFunction, 3), (SoftConstraint, 2), (Instance, 3),
         (FlowNetwork, 6), (solve, 1), (evaluate, 2), (min_cut, 1),
         (IntervalTerm, 2), (Decomposition, 2), (CutResult, 3)]


@pytest.mark.parametrize("call, arity", CALLS,
                         ids=[call.__name__ for call, _ in CALLS])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_drawn_arguments_give_a_result_or_a_typed_error(call, arity, data):
    args = [data.draw(values, label=f"argument {i}") for i in range(arity)]
    try:
        call(*args)
    except ScspError:
        pass


@pytest.mark.parametrize("call, args", [
    (Instance, (None, 2, ())),
    (Instance, (("a",), 2, None)),
    (Instance, (("a", "b"), 2, (SoftConstraint((["a"], "b"), abs_diff(2)),))),
    (SoftConstraint, (None, UnaryTable([0, 1]))),
    (SoftConstraint, (5, UnaryTable([0, 1]))),
    (UnaryTable, (None,)),
    (UnaryTable, ("01",)),
    (BinaryTable, (5,)),
    (BinaryTable, ([[1, 2], None],)),
    (FlowNetwork, (None, 2, (), (), (), ())),
    (FlowNetwork, (("a",), 2, None, (), (), ())),
    (solve, (None,)),
    (compile_to_intervals, ("scsp 1",)),
    (build_network, (None,)),
    (brute_force, (_NETWORK,)),
    (evaluate, (None, {"a": 1, "b": 1})),
    (evaluate, (_INSTANCE, None)),
    (evaluate, (_INSTANCE, 5)),
    (min_cut, (_INSTANCE,)),
    (cut_from_assignment, (_NETWORK, None)),
    (cut_from_assignment, (_INSTANCE, {"a": 1, "b": 1})),
    (extract_assignment, (None, _CUT)),
    (extract_assignment, (_NETWORK, None)),
    (format_network, (None,)),
    (format_instance, (None,)),
    (parse_instance, (None,)),
    (decompose_binary, (None,)),
    (decompose_unary, (None,)),
    (find_violation, (None,)),
    (find_violation_full, (None,)),
    (is_submodular, (None,)),
    (reconstruct, (None, 2)),
    (reconstruct, ((), None)),
    (reconstruct, ((None,), 2)),
    (term_table, (None, 2)),
    (expand_constraint, (None,)),
    (xor_gadget, (None,)),
    (FlowNetwork, (("a",), 1, (0,), (1,), (as_evaluation(2),), ("x",))),
    (FlowNetwork, (("a",), 1, (0,), (1,), (as_evaluation(2),), (True,))),
    (FlowNetwork, (("a",), 1, (0,), (1,), (as_evaluation(2),), (-1,))),
    (IntervalTerm, (None, "xy")),
    (Decomposition, (None, None)),
    (Decomposition, ((None,), 2)),
    (Decomposition, ((), 0)),
    (CutResult, (None, None, None)),
    (CutResult, (ZERO, None, ())),
    (CutResult, (ZERO, {"S"}, ())),
    (CutResult, (ZERO, frozenset({"S"}), None)),
    (CutResult, (ZERO, frozenset({"S"}), (-1,))),
    (CutResult, (ZERO, frozenset({"S"}), (True,))),
], ids=lambda v: getattr(v, "__name__", None))
def test_malformed_structures_raise_parameter_error(call, args):
    with pytest.raises(ParameterError):
        call(*args)

